"""Scenario-driven simulation.

Runs a parsed scenario against a fresh world on a logical clock: the
authority gate registers services, ``submit`` commands build commitments
and push them through the scheduler, activation executes the governance
action immediately, and a responsibility breach retires the commitment
as Violated (releasing its scope like any completion). The run owns the
world store and the scheduler; a governance check that passes writes the
world itself, and a breach writes nothing.

The clock advances only on ``tick`` commands, so commands in between
share a time slice; same-tick submissions are linearized in file order.
Equal inputs produce byte-identical traces.

The run writes each event's canonical trace line once, when the event
happens: the per-commitment kinds (``Submitted``, ``Waiting``,
``Activated``, ``Completed``/``Failed``) each with one f-string, the
rare kinds through ``ScheduleEvent.line()``. The lines are the record;
``Trace.events`` parses them back only when asked.

The governance action is not deferred to the end of the slice: a
commitment admitted at ``submit`` resolves (and a violation releases its
scope) before the next command runs. A later submission can therefore
wait behind a violator only if the violator was itself queued and is
activated by a ``complete`` or by another violation's cascade.
"""

from __future__ import annotations

from collections import deque

from .errors import EngineError, ScenarioRuntimeError
from .model import (
    Commitment,
    CommitmentKind,
    ContentAction,
    Frozen,
    LifecycleState,
    RESPONSIBILITY_FOR_VERB,
    Verb,
    new_commitment,
)
from .scenario import COMMANDS, Command, Scenario
from .scheduler import DecisionKind, MonitoringReport, Policy, Scheduler
from .trace import EventKind, ScheduleEvent, Trace
from .world import (
    Assignment,
    Detail,
    Violation,
    WorldState,
    exec_collect,
    exec_post,
    exec_reveal,
    exec_signoff,
    exec_tamper_guard,
)

_COLLECT = Verb.COLLECT
_POST = Verb.POST
_TAMPER = Verb.TAMPER
_SIGNOFF = Verb.SIGNOFF
_REVEAL = Verb.REVEAL
_SOCIAL = CommitmentKind.SOCIAL
_COMPLETED = LifecycleState.COMPLETED
_FAILED = LifecycleState.FAILED
_WAIT = DecisionKind.WAIT
_REJECTED = EventKind.REJECTED
_VIOLATION = EventKind.VIOLATION
_SIGNEDOFF = EventKind.SIGNEDOFF


class RunResult(Frozen):
    trace: Trace
    world: WorldState
    scheduler: Scheduler

    def __init__(self, trace, world, scheduler):
        put = object.__setattr__
        put(self, "trace", trace)
        put(self, "world", world)
        put(self, "scheduler", scheduler)


def register(
    w: WorldState, service: str, network: str, accept: bool, clock: int = 0
) -> ScheduleEvent:
    """Authority decision on a signup: membership on accept, none on reject.

    Either way the signup must name a known network and a service not yet
    a member of it; the check raises before anything is written.
    """
    if accept:
        w.with_member(service, network)
        kind = EventKind.REGISTERED
    else:
        w.check_new_member(service, network)
        kind = EventKind.REJECTED
    return ScheduleEvent(clock, kind, service, (("network", network),))


class _Sim:
    """Mutable state of one scenario run."""

    def __init__(self, policy_override: Policy | None):
        self.world = WorldState()
        self.policy_override = policy_override
        self.sched = Scheduler(policy_override or Policy.FCFS)
        self.clock = 0
        self.guards: dict[str, bool] = {}
        self.claimed_ids: set[str] = set()  # submitted or guard-rejected
        self.lines: list[str] = []  # the trace, one canonical line per event
        self.ok = True  # cleared where a Violation line is written
        self.current: Command | None = None

    # -- plumbing ----------------------------------------------------------

    def emit(self, kind: EventKind, subject: str, *attrs: tuple[str, str]) -> None:
        """Write the line of an event of a rare kind."""
        self.lines.append(ScheduleEvent(self.clock, kind, subject, attrs).line())

    def fail(self, message: str) -> ScenarioRuntimeError:
        cmd = self.current
        return ScenarioRuntimeError(cmd.line if cmd else 0, cmd.verb if cmd else "?", message)

    def step(self, cmd: Command) -> None:
        self.current = cmd
        handler = _HANDLERS.get(cmd.verb)
        if handler is None:
            raise self.fail(f"unknown command {cmd.verb!r}")
        try:
            handler(self, *cmd.args)
        except ScenarioRuntimeError:
            raise
        except EngineError as exc:
            raise ScenarioRuntimeError(cmd.line, cmd.verb, str(exc)) from exc

    # -- commands ----------------------------------------------------------

    def _do_policy(self, policy: Policy) -> None:
        if self.policy_override is not None:
            return
        self.sched.set_policy(policy)

    def _do_network(self, name: str) -> None:
        self.world.with_network(name)

    def _do_purpose(self, network: str, token: str) -> None:
        self.world.with_purpose(network, token)

    def _do_signup(self, service: str, network: str, accept: bool) -> None:
        self.lines.append(register(self.world, service, network, accept, self.clock).line())

    def _do_assign(self, service: str, responsibility) -> None:
        if not self.world.has_any_membership(service):
            raise self.fail(
                f"cannot assign responsibilities: {service!r} is a member of no network"
            )
        self.emit(EventKind.ASSIGNED, service, ("resp", responsibility.value))

    def _do_assignment(self, id: str, service: str) -> None:
        self.world.with_assignment(Assignment(id, service))

    def _do_finish_assignment(self, id: str, status) -> None:
        self.world.with_finished_assignment(id, status)

    def _do_detail(self, key, owner, network, privacy, value) -> None:
        self.world.with_detail(Detail(key, owner, network, privacy, value))

    def _do_ttl(self, ticks: int) -> None:
        self.world.with_ttl(ticks)

    def _do_guard(self, name: str, value: bool) -> None:
        self.guards[name] = value

    def _do_tick(self, ticks: int) -> None:
        self.clock += ticks

    def _do_snapshot(self) -> None:
        report = self.sched.snapshot()
        self.emit(EventKind.SNAPSHOT, "scheduler", *_snapshot_attrs(report))

    def _do_complete(self, cid: str, failed: bool) -> None:
        holder = self.sched.active.get(cid)  # on_complete rejects an inactive cid
        outcome = _FAILED if failed else _COMPLETED
        activated = self.sched.on_complete(cid, outcome)
        self.lines.append(
            f"t={self.clock} {'Failed' if failed else 'Completed'} {cid} service={holder.debtor}"
        )
        self._process_activations(activated)

    def _do_submit(
        self,
        cid: str,
        service: str,
        verb: Verb,
        target: str,
        priority: int | None,
        guard: str | None,
        owner: str | None,
        purpose: str | None,
        veracity: bool | None,
        requester: str | None,
        payload: str | None,
    ) -> None:
        if cid in self.claimed_ids:
            raise self.fail(f"commitment id {cid!r} already used")
        if not self.world.has_any_membership(service):
            raise self.fail(f"{service!r} is a member of no network")
        if guard is not None and not self.guards.get(guard, False):
            self.claimed_ids.add(cid)
            self.emit(_REJECTED, cid, ("guard", guard))
            return

        detail = None if verb is _SIGNOFF else self.world.details.get(target)
        content = ContentAction(verb, target, owner, purpose, veracity, requester, payload)
        creditor = detail.network if detail else self.world.member_networks(service)[0]
        commitment = new_commitment(
            cid,
            _SOCIAL,
            RESPONSIBILITY_FOR_VERB[verb],
            service,
            creditor,
            content,
            explicit_priority=priority,
            clock=self.clock,
            privacy=detail.privacy if detail else None,
            target_owner=detail.owner if detail else None,
        )
        self.claimed_ids.add(cid)
        self.lines.append(
            f"t={self.clock} Submitted {cid} service={service} verb={verb._value_}"
            f" target={target} access={commitment.access._value_} prio={commitment.priority}"
        )
        decision = self.sched.submit(commitment)
        if decision.kind is _WAIT:
            self.lines.append(
                f"t={self.clock} Waiting {cid} service={service}"
                f" blockers={','.join(decision.blockers)}"
            )
        else:
            self._process_activations([commitment])

    # -- activation / governance --------------------------------------------

    def _process_activations(self, batch: list[Commitment]) -> None:
        if not batch:
            return
        work = deque(batch)
        while work:
            c = work.popleft()
            self.lines.append(f"t={self.clock} Activated {c.id} service={c.debtor}")
            violation = self._execute(c)
            if violation is not None:
                attrs = [
                    ("service", c.debtor),
                    ("resp", violation.responsibility.value),
                    ("reason", violation.reason),
                ]
                if violation.items:
                    attrs.append(("assignments", ",".join(violation.items)))
                self.emit(_VIOLATION, c.id, *attrs)
                self.ok = False
                work.extend(self.sched.on_violation(c.id))

    def _execute(self, c: Commitment) -> Violation | None:
        verb = c.content.verb
        if verb is _COLLECT:
            return exec_collect(
                self.world, c.debtor, c.content.target, c.content.purpose, self.clock
            )
        if verb is _POST:
            return self._write(c, veracity=bool(c.content.veracity))
        if verb is _TAMPER:
            # A tamper on a detail nobody collected degrades to an
            # ordinary write and answers to resp2 instead.
            return exec_tamper_guard(self.world, c.content.target) or self._write(c, True)
        if verb is _SIGNOFF:
            result = exec_signoff(self.world, c.debtor)
            if isinstance(result, Violation):
                return result
            self.emit(_SIGNEDOFF, c.debtor, ("network", ",".join(result)))
            return None
        if verb is _REVEAL:
            result = exec_reveal(self.world, c.content.target, c.content.requester, self.clock)
            return result if isinstance(result, Violation) else None
        raise AssertionError(f"unhandled verb {verb}")

    def _write(self, c: Commitment, veracity: bool) -> Violation | None:
        return exec_post(
            self.world,
            c.debtor,
            c.content.target,
            veracity,
            self.clock,
            network=c.creditor,
            value=c.content.payload,
        )


# Scenario command -> the ``_Sim`` method that runs it. Only the methods
# are bound here: the model and world functions they call are looked up
# at call time, so replacing a module attribute still takes effect.
_HANDLERS = {verb: getattr(_Sim, "_do_" + verb.replace("-", "_")) for verb in COMMANDS}


def _snapshot_attrs(report: MonitoringReport) -> list[tuple[str, str]]:
    attrs = [("queue", ",".join(report.queue) if report.queue else "-")]
    state_order = list(LifecycleState)
    for service in sorted(report.by_service):
        per = report.by_service[service]
        for state in state_order:
            n = per.get(state, 0)
            if n:
                attrs.append((f"{service}.{state.value.capitalize()}", str(n)))
    return attrs


def run(scenario: Scenario, *, policy_override: Policy | None = None) -> RunResult:
    """Execute a scenario from an empty world; return its trace and final state."""
    sim = _Sim(policy_override)
    for cmd in scenario.commands:
        sim.step(cmd)
    trace = Trace(tuple(sim.lines), sim.clock, sim.ok)
    return RunResult(trace, sim.world, sim.sched)

