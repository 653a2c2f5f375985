"""Seeded input generators for the three benchmark workloads.

Nothing here imports ``commitsched``: the program receives only the
scenario text (``sim-backlog``, ``world-bulk``) or the commitment specs
the worker turns into ``Commitment`` values (``sched-churn``). The same
seed always yields byte-identical output.

Validity rule for the scenario workloads: a ``complete`` names only a
commitment that every correct schedule has active at that point, i.e. one
admitted on submit to a target that was idle or held only by readers
(with nothing queued there), that was not planned to breach, and whose
submit lies at least one ``tick`` back. Everything that queues stays
backlog and is never named, and a service submits nothing after its
sign-off. Scenarios built this way stay runnable when activation order
or the moment governance runs changes, as long as the schedule is safe.

Each generator also returns a *plan*: the facts the checker compares the
trace against (detail owners, the commitments planned to breach, the
number of completes), derived from the generator alone.
"""

from __future__ import annotations

import random

# Fixed input sizes, one per workload, sized so one timed phase takes a
# quarter to half a second on a 2-vCPU VM with the unoptimised engine.
SIZES = {
    "sched-churn": 400,    # commitments submitted in each closed-loop episode
    "sim-backlog": 1600,   # commitments submitted by the scenario
    "world-bulk": 1000,    # details declared (each posted, collected, revealed)
}

NETWORKS = 4
SERVICES = 50
CHURN_TARGETS = 16
# Independent closed loops per sched-churn phase. How far the backlog of
# one loop grows is a random walk, so its slowest calls vary by seed;
# pooling the calls of many loops keeps op_p99_us steady across seeds.
CHURN_EPISODES = 12


def _pattern(rng: random.Random, counts: dict[str, int]):
    """Endless stream of labels, shuffled within fixed-proportion blocks.

    Exact per-block proportions keep run-to-run work steady across seeds;
    a free coin per step would let queue lengths drift by seed.
    """
    block = [label for label, k in counts.items() for _ in range(k)]
    while True:
        rng.shuffle(block)
        yield from block


# -- sched-churn ---------------------------------------------------------------

def sched_churn(seed: int, n: int = SIZES["sched-churn"]) -> list[dict]:
    """Commitment specs for the closed-loop scheduler workload.

    Returns ``CHURN_EPISODES`` episodes, each one loop on a fresh
    scheduler: ``{"specs": [(cid, writer, target, priority), ...],
    "ops": [...], "ops_seed": int}`` with ``n`` commitments, half readers
    and half writers over 16 targets with priorities 0 and 10, and the
    submit/complete step pattern (55%/45%). Which active commitment a
    complete step retires is drawn by the driver from ``ops_seed`` at run
    time, since it depends on what the scheduler activated.
    """
    rng = random.Random(seed)
    return [_churn_episode(rng, n) for _ in range(CHURN_EPISODES)]


def _churn_episode(rng: random.Random, n: int) -> dict:
    kinds = _pattern(rng, {"r0": 5, "r10": 5, "w0": 5, "w10": 5})
    targets = _pattern(rng, {f"t{k:02d}": 1 for k in range(CHURN_TARGETS)})
    specs = []
    for i in range(n):
        kind = next(kinds)
        specs.append((f"c{i:05d}", kind[0] == "w", next(targets), int(kind[1:])))
    steps = _pattern(rng, {"submit": 11, "complete": 9})
    ops = [next(steps) for _ in range(3 * n)]
    return {"specs": specs, "ops": ops, "ops_seed": rng.randrange(2**32)}


# -- shared world skeleton -------------------------------------------------------

class _Skeleton:
    """Networks, purposes, services and details of one generated world."""

    def __init__(self, rng: random.Random, details: int, private_share: float):
        self.rng = rng
        self.lines: list[str] = []
        self.networks = [f"net{k}" for k in range(NETWORKS)]
        self.purpose = {net: f"use{k}" for k, net in enumerate(self.networks)}
        self.members: dict[str, list[str]] = {net: [] for net in self.networks}
        self.homes: dict[str, list[str]] = {}
        for net in self.networks:
            self.lines.append(f"network {net}")
            self.lines.append(f"purpose {net} {self.purpose[net]}")
        for i in range(SERVICES):
            svc = f"svc{i:02d}"
            homes = [self.networks[i % NETWORKS]]
            if rng.random() < 0.5:
                homes.append(self.networks[(i + 1 + rng.randrange(NETWORKS - 1)) % NETWORKS])
            self.homes[svc] = homes
            for net in homes:
                self.members[net].append(svc)
                self.lines.append(f"signup {svc} {net} accept")
        self.services = list(self.homes)
        self.owner: dict[str, str] = {}
        self.network: dict[str, str] = {}
        self.private: set[str] = set()
        for i in range(details):
            key = f"d{i:05d}"
            owner = rng.choice(self.services)
            net = rng.choice(self.homes[owner])
            privacy = "private" if rng.random() < private_share else "public"
            if privacy == "private":
                self.private.add(key)
            self.owner[key] = owner
            self.network[key] = net
            self.lines.append(f"detail {key} {owner} {net} {privacy} v{i}")
        self.keys = list(self.owner)

    def member_of(self, key: str) -> str:
        return self.rng.choice(self.members[self.network[key]])

    def collect(self, cid: str, key: str, purpose: str | None = None) -> str:
        svc = self.member_of(key)
        purpose = purpose or self.purpose[self.network[key]]
        return f"submit {cid} {svc} collect {key} {self.owner[key]} {purpose}"

    def post(self, cid: str, key: str, veracity: bool = True) -> str:
        svc = self.member_of(key)
        return f"submit {cid} {svc} post {key} {'true' if veracity else 'false'} {cid}"

    def reveal(self, cid: str, key: str, requester: str | None = None) -> str:
        svc = self.member_of(key)
        return f"submit {cid} {svc} reveal {key} {requester or self.member_of(key)}"


# -- sim-backlog -----------------------------------------------------------------

HOT_DETAILS = 4


def sim_backlog(seed: int, n: int = SIZES["sim-backlog"]) -> tuple[str, dict]:
    """Backlogged mixed scenario under the priority policy.

    About 70% of submits read (fan-outs of friend readers on cold
    details), the rest post. A fifth of the traffic goes to a few hot
    details, where a writer queues behind a reader at the start and is
    never served, so the backlog grows for the whole run. Planned resp1/resp2 breaches
    on idle cold details retire through ``on_violation`` and make the
    scheduler drain its queue.
    """
    rng = random.Random(seed)
    world = _Skeleton(rng, max(n // 8, HOT_DETAILS + 8), private_share=0.3)
    lines = ["policy priority", *world.lines]
    hot, cold = world.keys[:HOT_DETAILS], world.keys[HOT_DETAILS:]
    readers: dict[str, int] = {}    # cold detail -> active completable readers
    writer: set[str] = set()         # cold details held by a completable writer
    cooling: dict[str, int] = {}     # cold detail -> tick of a planned breach
    shared: list[str] = []           # cold details held by readers only
    fresh: list[tuple[str, str]] = []   # (cid, detail) submitted this tick
    ready: list[tuple[str, str]] = []   # completable now
    breaches: dict[str, str] = {}
    completes = 0
    tick = 0
    kinds = _pattern(rng, {"hot-read": 3, "hot-write": 1, "read": 11, "write": 4, "breach": 1})
    steps = _pattern(rng, {"submit": 12, "complete": 8})

    def idle(key: str) -> bool:
        return key not in readers and key not in writer and cooling.get(key, -1) < tick

    def pick_idle() -> str | None:
        for _ in range(64):
            key = rng.choice(cold)
            if idle(key):
                return key
        return next((k for k in cold if idle(k)), None)

    # Each hot detail starts with a reader that is never completed and a
    # writer queued behind it, so every later commitment there is backlog
    # from the start, whatever the seed.
    submitted = 0
    for key in hot:
        lines.append(world.collect(f"c{submitted:05d}", key))
        lines.append(world.post(f"c{submitted + 1:05d}", key))
        submitted += 2
    while submitted < n:
        if next(steps) == "complete" and ready:
            i = rng.randrange(len(ready))
            ready[i], ready[-1] = ready[-1], ready[i]
            cid, key = ready.pop()
            if key in writer:
                writer.discard(key)
            else:
                readers[key] -= 1
                if not readers[key]:
                    del readers[key]
                    shared.remove(key)
            lines.append(f"complete {cid}")
            completes += 1
            continue
        cid = f"c{submitted:05d}"
        kind = next(kinds)
        if kind == "read" and shared and rng.random() < 0.5:
            key = rng.choice(shared)  # join a fan-out of friend readers
        elif not kind.startswith("hot"):
            key = pick_idle()
            if key is None:  # only at tiny sizes: every cold detail is busy
                kind = "hot-read"
        if kind.startswith("hot"):
            key = rng.choice(hot)
            lines.append(world.post(cid, key) if kind == "hot-write" else world.collect(cid, key))
        elif kind == "read":
            if key not in readers:
                readers[key] = 0
                shared.append(key)
            readers[key] += 1
            fresh.append((cid, key))
            lines.append(world.collect(cid, key) if rng.random() < 0.7 else world.reveal(cid, key))
        elif kind == "write":
            writer.add(key)
            fresh.append((cid, key))
            lines.append(world.post(cid, key))
        else:
            cooling[key] = tick
            if len(breaches) % 2:
                breaches[cid] = "resp2"
                lines.append(world.post(cid, key, veracity=False))
            else:
                breaches[cid] = "resp1"
                lines.append(world.collect(cid, key, purpose="bogus"))
        submitted += 1
        if submitted % 4 == 0:
            tick += 1
            lines.append("tick")
            ready.extend(fresh)
            fresh.clear()
        if submitted % 600 == 0:
            lines.append("snapshot")
    lines += ["tick", "snapshot"]
    plan = {
        "policy": "priority",
        "owners": world.owner,
        "breaches": breaches,
        "completes": completes,
        "submits": submitted,
    }
    return "\n".join(lines) + "\n", plan


# -- world-bulk ------------------------------------------------------------------

BATCH = 8
ASSIGNMENTS = 120
SIGNOFFS = 10
OUTSIDERS = 8


def world_bulk(seed: int, details: int = SIZES["world-bulk"]) -> tuple[str, dict]:
    """Contention-free scenario that loads the world layer under FCFS.

    Every detail is declared, then posted, collected and revealed in a
    pipeline of batches (one commitment per target per tick, completed
    at the next tick). Public details are revealed to outsiders, which
    walks the collection records. A few planned tampers (resp3) and
    private reveals to outsiders (resp5) breach. At the end some
    assignments are still ongoing and ten services sign off, breaching
    resp4 where work remains.
    """
    rng = random.Random(seed)
    world = _Skeleton(rng, details, private_share=0.15)
    lines = ["policy fcfs", *world.lines]
    assignments = []
    for i in range(ASSIGNMENTS):
        aid = f"a{i:03d}"
        assignments.append((aid, rng.choice(world.services)))
        lines.append(f"assignment {aid} {assignments[-1][1]}")
    finishing = rng.sample(range(ASSIGNMENTS), ASSIGNMENTS * 3 // 4)
    unfinished = set(range(ASSIGNMENTS))
    order = world.keys[:]
    rng.shuffle(order)
    batches = [order[i:i + BATCH] for i in range(0, len(order), BATCH)]
    tamper = set(rng.sample(order, max(1, details // 100)))
    private = sorted(world.private)
    leak = set(rng.sample(private, min(len(private), max(1, len(private) // 50))))
    breaches: dict[str, str] = {}
    completes = 0
    seq = 0
    stages = 4
    for s in range(len(batches) + stages - 1):
        done: list[str] = []
        for stage in range(stages):
            if not 0 <= s - stage < len(batches):
                continue
            for key in batches[s - stage]:
                cid = f"c{seq:05d}"
                if stage == 0:
                    lines.append(world.post(cid, key))
                elif stage == 1:
                    lines.append(world.collect(cid, key))
                elif stage == 2:
                    outsider = f"out{rng.randrange(OUTSIDERS)}"
                    if key in leak:
                        breaches[cid] = "resp5"
                        lines.append(world.reveal(cid, key, requester=outsider))
                    elif key in world.private:
                        lines.append(world.reveal(cid, key))
                    else:
                        lines.append(world.reveal(cid, key, requester=outsider))
                elif key in tamper:
                    breaches[cid] = "resp3"
                    lines.append(f"submit {cid} {world.member_of(key)} tamper {key}")
                else:
                    continue
                seq += 1
                if cid not in breaches:
                    done.append(cid)
        lines.append("tick")
        for cid in done:
            lines.append(f"complete {cid}")
        completes += len(done)
        if finishing and s % 2:
            i = finishing.pop()
            unfinished.discard(i)
            aid = assignments[i][0]
            lines.append(f"finish-assignment {aid} {'failed' if s % 6 == 1 else 'complete'}")
    ongoing = {assignments[i][1] for i in unfinished}
    leaving = rng.sample(world.services, SIGNOFFS)
    signed = []
    for svc in leaving:
        cid = f"c{seq:05d}"
        seq += 1
        lines.append(f"submit {cid} {svc} signoff {svc}")
        if svc in ongoing:
            breaches[cid] = "resp4"
        else:
            signed.append(cid)
    lines.append("tick")
    lines += [f"complete {cid}" for cid in signed]
    completes += len(signed)
    lines.append("snapshot")
    plan = {
        "policy": "fcfs",
        "owners": world.owner,
        "breaches": breaches,
        "completes": completes,
        "submits": seq,
    }
    return "\n".join(lines) + "\n", plan


SCENARIOS = {"sim-backlog": sim_backlog, "world-bulk": world_bulk}
