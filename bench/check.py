"""Output checks that do not rely on the program's own rules.

``check_trace`` replays a scenario trace with its own reader/writer
bookkeeping per scope. A commitment's scopes are its target, plus the
account of the target's owner (taken from the generator's plan, not from
the program); a sign-off holds its own account as a writer, so it may
not run beside anything touching that account. The replay also rebuilds
the behaviour counts the traced run reports (queue high-water, waits,
overtakes, violations).

``ChurnLedger`` does the same for the closed-loop scheduler workload,
from the decisions and activations the scheduler returned.
"""

from __future__ import annotations

from commitsched.trace import EventKind, ScheduleEvent, replay_counts
from quantiles import nearest_rank

WRITER_VERBS = frozenset({"post", "tamper", "signoff"})
RESPS = ("resp1", "resp2", "resp3", "resp4", "resp5")


def parse_line(line: str) -> tuple[int, str, str, list[tuple[str, str]]]:
    head, kind, subject, *rest = line.split(" ")
    attrs = [tuple(tok.split("=", 1)) for tok in rest]
    return int(head[2:]), kind, subject, attrs


class _Scopes:
    """Active readers/writers/touches per scope, and ordered waiters."""

    def __init__(self):
        self.active: dict[tuple, list[int]] = {}  # scope -> [readers, writers, touches]
        self.waiting: dict[tuple, dict[str, tuple[str, int, int]]] = {}

    def conflict(self, scope, mode) -> bool:
        r, w, t = self.active.get(scope, (0, 0, 0))
        if mode == "W":
            return r + w + t > 0
        return w > 0

    def add(self, scope, mode, delta) -> None:
        slot = self.active.setdefault(scope, [0, 0, 0])
        slot["RWT".index(mode)] += delta


def _overtakes(waiters: dict, cid: str, mode: str, prio: int, seq: int, fcfs: bool) -> bool:
    """True when ``cid`` passes an earlier waiter of the scope it conflicts with.

    Under FCFS any earlier conflicting waiter counts; under the priority
    policy only one of at least the same priority does.
    """
    for other, (omode, oprio, oseq) in waiters.items():
        if oseq >= seq:
            return False
        if other != cid and "W" in (mode, omode) and (fcfs or oprio >= prio):
            return True
    return False


def check_trace(text: str, plan: dict) -> tuple[list[str], dict]:
    """Replay a trace against the plan; returns (problems, behaviour counts)."""
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or not lines[-1].split(" ")[1:2] == ["END"]:
        return ["trace does not end with an END line"], {}
    end_clock = int(lines[-1].split(" ")[0][2:])
    ok_flag = lines[-1].split(" ")[2]
    owners = plan["owners"]
    scopes = _Scopes()
    fcfs = plan["policy"] == "fcfs"
    info: dict[str, tuple] = {}       # cid -> (scopes, prio, seq, submit clock)
    state: dict[str, str] = {}        # cid -> last lifecycle event
    activated_at: dict[str, int] = {}
    queue: dict[str, None] = {}       # waiting cids in Waiting-event order
    violations: dict[str, str] = {}
    events: list[ScheduleEvent] = []
    counts = {"completes": 0, "submits": 0, "waits": 0, "queue_max": 0, "active_max": 0,
              "fcfs_overtakes": 0}
    active = 0

    def problem(msg: str) -> None:
        if len(problems) < 20:
            problems.append(msg)

    for lineno, line in enumerate(lines[:-1], start=1):
        clock, kind, subject, attrs = parse_line(line)
        events.append(ScheduleEvent(clock, EventKind(kind), subject, tuple(attrs)))
        a = dict(attrs)
        if kind == "Submitted":
            if subject in state:
                problem(f"line {lineno}: {subject} submitted twice")
            verb, target = a["verb"], a["target"]
            mode = "W" if verb in WRITER_VERBS else "R"
            if a["access"] != ("writer" if mode == "W" else "reader"):
                problem(f"line {lineno}: {subject} has access {a['access']} for {verb}")
            if verb == "signoff":
                held = ((("t", target), "W"), (("o", a["service"]), "W"))
            elif target in owners:
                held = ((("t", target), mode), (("o", owners[target]), "T"))
            else:
                held = ((("t", target), mode),)
            info[subject] = (held, int(a["prio"]), counts["submits"], clock)
            state[subject] = "Submitted"
            counts["submits"] += 1
        elif kind in ("Activated", "Waiting"):
            before = state.get(subject)
            held, prio, seq, _ = info.get(subject, ((), 0, 0, 0))
            if kind == "Waiting":
                if before != "Submitted":
                    problem(f"line {lineno}: Waiting {subject} after {before}")
                state[subject] = "Waiting"
                queue[subject] = None
                counts["waits"] += 1
                counts["queue_max"] = max(counts["queue_max"], len(queue))
                for scope, mode in held:
                    scopes.waiting.setdefault(scope, {})[subject] = (mode, prio, seq)
                continue
            if before not in ("Submitted", "Waiting"):
                problem(f"line {lineno}: Activated {subject} after {before}")
            if before == "Waiting":
                queue.pop(subject, None)
                passed = False
                for scope, mode in held:
                    waiters = scopes.waiting.get(scope, {})
                    passed = passed or _overtakes(waiters, subject, mode, prio, seq, fcfs)
                    waiters.pop(subject, None)
                counts["fcfs_overtakes"] += passed
            for scope, mode in held:
                if scopes.conflict(scope, mode):
                    problem(f"line {lineno}: {subject} activated beside a conflicting "
                            f"commitment in scope {scope[0]}:{scope[1]}")
                scopes.add(scope, mode, 1)
            state[subject] = "Activated"
            activated_at[subject] = clock
            active += 1
            counts["active_max"] = max(counts["active_max"], active)
        elif kind in ("Completed", "Failed", "Violation"):
            if state.get(subject) != "Activated":
                problem(f"line {lineno}: {kind} {subject} while {state.get(subject)}")
                continue
            state[subject] = kind
            active -= 1
            for scope, mode in info[subject][0]:
                scopes.add(scope, mode, -1)
            if kind == "Violation":
                violations[subject] = a["resp"]
            else:
                counts["completes"] += 1
        elif kind == "Snapshot":
            reported: dict[str, dict[str, int]] = {}
            for key, value in attrs[1:]:
                service, st = key.rsplit(".", 1)
                reported.setdefault(service, {})[st] = int(value)
            if reported != replay_counts(events):
                problem(f"line {lineno}: snapshot differs from the trace fold")
            listed = a["queue"].split(",") if a["queue"] != "-" else []
            if listed != list(queue):
                problem(f"line {lineno}: snapshot queue differs from the waiting set")
    for cid, st in state.items():
        if st == "Submitted":
            problem(f"{cid} was submitted but neither activated nor queued")
    if violations != plan["breaches"]:
        wrong = sorted(set(violations.items()) ^ set(plan["breaches"].items()))[:5]
        problem(f"violations differ from the plan: {wrong}")
    if ok_flag != f"ok={'false' if plan['breaches'] else 'true'}":
        problem(f"END {ok_flag} does not match the plan")
    if counts["completes"] != plan["completes"] or counts["submits"] != plan["submits"]:
        problem(f"{counts['submits']} submits/{counts['completes']} completes, planned "
                f"{plan['submits']}/{plan['completes']}")
    waits = [activated_at.get(cid, end_clock) - i[3] for cid, i in info.items()]
    stats = {
        **counts,
        "wait_ticks_p99": nearest_rank(waits, 0.99),
        **{r: sum(1 for v in violations.values() if v == r) for r in RESPS},
    }
    return problems, stats


class ChurnLedger:
    """Independent reader/writer counts for the closed-loop workload.

    Fed, after the timed loop, with the log the driver kept: each submit
    with whether it executed at once, and each completion with the
    activations the scheduler returned. ``step`` is the loop index, the
    workload's clock.
    """

    def __init__(self, specs):
        self.spec = {cid: (writer, target) for cid, writer, target, _ in specs}
        self.order = {cid: i for i, (cid, *_rest) in enumerate(specs)}
        self.readers: dict[str, int] = {}
        self.writers: dict[str, int] = {}
        self.state: dict[str, str] = {}
        self.waiting: dict[str, dict[str, None]] = {}   # target -> waiting cids
        self.submitted_at: dict[str, int] = {}
        self.waits: list[int] = []
        self.problems: list[str] = []
        self.stats = {"waits": 0, "queue_max": 0, "active_max": 0, "fcfs_overtakes": 0}
        self._queued = 0
        self._active = 0

    def _problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def _activate(self, cid: str, step: int) -> None:
        writer, target = self.spec[cid]
        r, w = self.readers.get(target, 0), self.writers.get(target, 0)
        if w or (writer and r):
            self._problem(f"step {step}: {cid} activated beside a conflicting commitment on {target}")
        (self.writers if writer else self.readers)[target] = (w if writer else r) + 1
        self.state[cid] = "active"
        self.waits.append(step - self.submitted_at[cid])
        self._active += 1
        self.stats["active_max"] = max(self.stats["active_max"], self._active)

    def submit(self, cid: str, executed: bool, step: int) -> None:
        if cid in self.state:
            self._problem(f"step {step}: {cid} submitted twice")
        self.submitted_at[cid] = step
        if executed:
            self._activate(cid, step)
            return
        self.state[cid] = "waiting"
        self.waiting.setdefault(self.spec[cid][1], {})[cid] = None
        self.stats["waits"] += 1
        self._queued += 1
        self.stats["queue_max"] = max(self.stats["queue_max"], self._queued)

    def complete(self, cid: str, activated: list[str], step: int) -> None:
        if self.state.get(cid) != "active":
            self._problem(f"step {step}: completed {cid} while {self.state.get(cid)}")
            return
        writer, target = self.spec[cid]
        (self.writers if writer else self.readers)[target] -= 1
        self.state[cid] = "done"
        self._active -= 1
        for nxt in activated:
            if self.state.get(nxt) != "waiting":
                self._problem(f"step {step}: activated {nxt} while {self.state.get(nxt)}")
                continue
            nwriter, ntarget = self.spec[nxt]
            waiters = self.waiting[ntarget]
            for other in waiters:
                if self.order[other] >= self.order[nxt]:
                    break
                if nwriter or self.spec[other][0]:
                    self.stats["fcfs_overtakes"] += 1
                    break
            del waiters[nxt]
            self._queued -= 1
            self._activate(nxt, step)

    def finish(self, sched) -> tuple[list[str], dict]:
        """Require a full drain; returns (problems, behaviour counts)."""
        left = [cid for cid, st in self.state.items() if st != "done"]
        if left or len(self.state) != len(self.spec):
            self._problem(f"not drained: {len(left)} left, {len(self.state)} of "
                          f"{len(self.spec)} submitted")
        if sched.active or sched.queue:
            self._problem("scheduler reports active or queued commitments after the drain")
        if any(self.readers.values()) or any(self.writers.values()):
            self._problem("reader/writer counts did not return to zero")
        return self.problems, self.stats
