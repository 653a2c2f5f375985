"""Shared social-network state and the five responsibility checks.

The world holds networks, their purpose tokens, memberships, owned
details (each with a privacy level), the newest approval tick of each
collected detail, and work assignments: only what a check reads. It is
one mutable store with a single owner, the simulator, as the scheduler
is: no caller reads an older state, so no write copies one.

Each ``exec_*`` check reads the store. A passed collect, post or
sign-off applies its own write with one ``with_*``/``without_*`` call;
a breach returns a ``Violation`` naming the responsibility and writes
nothing. The tamper guard and the reveal never write: the owner runs a
tamper on a detail nobody collected as a post. ``register`` in the
simulator likewise validates a signup before it writes anything.

Three of the store's maps are indexes, each updated by the write that
changes what it is derived from, so every write and every check is O(1)
in the size of the world:
  members          the networks of each member service;
  latest_approval  the newest approval tick of each collected detail;
                   resp3 asks only whether a detail has one, and an
                   approval younger than ``reveal_ttl`` exists exactly
                   when the newest one is;
  ongoing          the ongoing assignment ids of each service, in the
                   order they were added.

Responsibilities enforced here:
  resp1  collecting a detail needs a valid purpose and network membership
  resp2  posted content must be true (and the poster a member)
  resp3  collected details must not be tampered with afterwards
  resp4  signing off requires no ongoing assignments
  resp5  revealing a public detail to non-members is authorized only
         within ``reveal_ttl`` ticks of an approved collection
"""

from __future__ import annotations

from enum import Enum

from .errors import (
    AlreadyMember,
    DuplicateAssignment,
    DuplicateDetail,
    IllegalStatusChange,
    OwnerNotMember,
    UnknownAssignment,
    UnknownDetail,
    UnknownNetwork,
    UnknownService,
)
from .model import Frozen, Privacy, Responsibility

DEFAULT_REVEAL_TTL = 100

# Members the per-call exec_* checks load, bound once (see ``model``'s docstring).
_PUBLIC = Privacy.PUBLIC
_PRIVATE = Privacy.PRIVATE
_RESP1 = Responsibility.RESP1
_RESP2 = Responsibility.RESP2
_RESP3 = Responsibility.RESP3
_RESP4 = Responsibility.RESP4
_RESP5 = Responsibility.RESP5


class AssignmentStatus(Enum):
    ONGOING = "ongoing"
    COMPLETE = "complete"
    FAILED = "failed"


class Detail(Frozen):
    """One piece of owned information living in a network."""

    key: str
    owner: str
    network: str
    privacy: Privacy
    value: str

    def __init__(self, key, owner, network, privacy, value):
        put = object.__setattr__
        put(self, "key", key)
        put(self, "owner", owner)
        put(self, "network", network)
        put(self, "privacy", privacy)
        put(self, "value", value)


class Assignment(Frozen):
    """A unit of work a service owes; blocks sign-off while ongoing."""

    id: str
    service: str
    status: AssignmentStatus

    def __init__(self, id, service, status=AssignmentStatus.ONGOING):
        put = object.__setattr__
        put(self, "id", id)
        put(self, "service", service)
        put(self, "status", status)


class Violation(Frozen):
    """A breached responsibility; returned, never raised."""

    responsibility: Responsibility
    reason: str
    items: tuple[str, ...]

    def __init__(self, responsibility, reason, items=()):
        put = object.__setattr__
        put(self, "responsibility", responsibility)
        put(self, "reason", reason)
        put(self, "items", items)


class WorldState:
    """The mutable world store; each ``with_*``/``without_*`` method is one write."""

    def __init__(self):
        self.networks: set[str] = set()
        self.purposes: dict[str, set[str]] = {}
        self.members: dict[str, set[str]] = {}  # service -> its networks
        self.details: dict[str, Detail] = {}
        self.latest_approval: dict[str, int] = {}  # detail key -> newest approved_at
        self.assignments: dict[str, Assignment] = {}
        self.ongoing: dict[str, dict[str, None]] = {}  # service -> ongoing ids, in order
        self.reveal_ttl = DEFAULT_REVEAL_TTL

    # -- queries ----------------------------------------------------------

    def is_member(self, service: str, network: str) -> bool:
        return network in self.members.get(service, ())

    def member_networks(self, service: str) -> tuple[str, ...]:
        return tuple(sorted(self.members.get(service, ())))

    def has_any_membership(self, service: str) -> bool:
        return service in self.members

    def detail_privacy(self) -> dict[str, Privacy]:
        return {key: d.privacy for key, d in self.details.items()}

    def assignment(self, assignment_id: str) -> Assignment:
        a = self.assignments.get(assignment_id)
        if a is None:
            raise UnknownAssignment(f"no assignment {assignment_id!r}")
        return a

    def ongoing_assignments(self, service: str) -> tuple[str, ...]:
        return tuple(self.ongoing.get(service, ()))

    def check_new_member(self, service: str, network: str) -> None:
        """Raise unless ``service`` may join ``network``."""
        if network not in self.networks:
            raise UnknownNetwork(f"no network {network!r}")
        if self.is_member(service, network):
            raise AlreadyMember(f"{service!r} is already a member of {network!r}")

    # -- writes (each validates before it changes anything) ----------------

    def with_network(self, name: str) -> None:
        self.networks.add(name)

    def with_purpose(self, network: str, token: str) -> None:
        if network not in self.networks:
            raise UnknownNetwork(f"no network {network!r}")
        self.purposes.setdefault(network, set()).add(token)

    def with_member(self, service: str, network: str) -> None:
        self.check_new_member(service, network)
        self.members.setdefault(service, set()).add(network)

    def without_memberships(self, service: str) -> None:
        self.members.pop(service, None)

    def with_detail(self, detail: Detail) -> None:
        if detail.key in self.details:
            raise DuplicateDetail(f"detail {detail.key!r} already exists")
        if detail.network not in self.networks:
            raise UnknownNetwork(f"no network {detail.network!r}")
        if not self.is_member(detail.owner, detail.network):
            raise OwnerNotMember(
                f"owner {detail.owner!r} is not a member of {detail.network!r}"
            )
        self.details[detail.key] = detail

    def with_detail_value(self, detail: Detail) -> None:
        """Replace the detail stored under ``detail.key``."""
        if detail.key not in self.details:
            raise UnknownDetail(f"no detail {detail.key!r}")
        self.details[detail.key] = detail

    def with_collection(self, key: str, approved_at: int) -> None:
        """Record an approved collection of ``key``; the newest tick is kept."""
        if key not in self.details:
            raise UnknownDetail(f"no detail {key!r}")
        latest = self.latest_approval
        latest[key] = max(approved_at, latest.get(key, approved_at))

    def with_assignment(self, assignment: Assignment) -> None:
        if assignment.id in self.assignments:
            raise DuplicateAssignment(f"assignment {assignment.id!r} already exists")
        self.assignments[assignment.id] = assignment
        if assignment.status is AssignmentStatus.ONGOING:
            self.ongoing.setdefault(assignment.service, {})[assignment.id] = None

    def with_finished_assignment(self, assignment_id: str, outcome: AssignmentStatus) -> None:
        if outcome is AssignmentStatus.ONGOING:
            raise IllegalStatusChange("an assignment cannot move back to ongoing")
        current = self.assignment(assignment_id)
        if current.status is not AssignmentStatus.ONGOING:
            raise IllegalStatusChange(
                f"assignment {assignment_id!r} already {current.status.value}"
            )
        self.assignments[assignment_id] = Assignment(assignment_id, current.service, outcome)
        del self.ongoing[current.service][assignment_id]

    def with_ttl(self, ticks: int) -> None:
        if ticks < 0:
            raise ValueError("reveal ttl must be >= 0")
        self.reveal_ttl = ticks


# -- responsibility checks --------------------------------------------------

def valid(w: WorldState, network: str, purpose: str) -> bool:
    """True iff the purpose token is registered for the network."""
    if network not in w.networks:
        raise UnknownNetwork(f"no network {network!r}")
    return purpose in w.purposes.get(network, ())


def exec_collect(
    w: WorldState, collector: str, detail_key: str, purpose: str, t: int
) -> Violation | None:
    """Collect a detail: needs a valid purpose and network membership (resp1).

    An approved collect records its approval at tick ``t`` and returns None.
    """
    d = w.details.get(detail_key)
    if d is None:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if not valid(w, d.network, purpose):
        return Violation(_RESP1, "invalid-purpose")
    if not w.is_member(collector, d.network):
        return Violation(_RESP1, "collector-not-member")
    w.with_collection(detail_key, t)
    return None


def exec_post(
    w: WorldState,
    poster: str,
    detail_key: str,
    veracity: bool,
    t: int,
    *,
    network: str | None = None,
    value: str | None = None,
) -> Violation | None:
    """Post a detail: content must be true and the poster a member (resp2).

    A passed post stores the detail and returns None. Posting an existing
    detail replaces its value (the scheduler serializes writers, so
    last-writer-wins is safe). Posting a fresh key creates a public
    detail owned by the poster in ``network``.
    """
    d = w.details.get(detail_key)
    net = d.network if d is not None else network
    if net is None or net not in w.networks:
        raise UnknownNetwork(f"no network {net!r} to post into")
    if not veracity:
        return Violation(_RESP2, "untrue-content")
    if not w.is_member(poster, net):
        return Violation(_RESP2, "poster-not-member")
    new_value = value if value is not None else f"{poster}@t{t}"
    if d is not None:
        w.with_detail_value(Detail(d.key, d.owner, d.network, d.privacy, new_value))
    else:
        w.with_detail(Detail(detail_key, poster, net, _PUBLIC, new_value))
    return None


def exec_tamper_guard(w: WorldState, detail_key: str) -> Violation | None:
    """A tamper attempt on collected data is always a breach (resp3).

    The guard writes nothing: a detail with an approved collection gets
    the violation. Without one the guard does not apply and returns
    None: the action degrades to an ordinary write under resp2.
    """
    if detail_key not in w.details:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if detail_key not in w.latest_approval:
        return None
    return Violation(_RESP3, "tamper-after-collection")


def exec_signoff(w: WorldState, service: str) -> tuple[str, ...] | Violation:
    """Sign a service off its networks; blocked by ongoing assignments (resp4).

    Complete and failed assignments are both terminal and do not block.
    A passed sign-off drops every membership of the service and returns
    the networks it left.
    """
    networks = w.member_networks(service)
    if not networks:
        raise UnknownService(f"{service!r} is not a member of any network")
    ongoing = w.ongoing_assignments(service)
    if ongoing:
        return Violation(_RESP4, "ongoing-assignments", items=ongoing)
    w.without_memberships(service)
    return networks


def exec_reveal(w: WorldState, detail_key: str, requester: str, t: int) -> str | Violation:
    """Reveal a detail's value to a requester (resp5).

    Members always get the value. Non-members never see private details;
    for public ones the disclosure is authorized only while the newest
    approved collection is at most ``reveal_ttl`` ticks old.
    """
    d = w.details.get(detail_key)
    if d is None:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if w.is_member(requester, d.network):
        return d.value
    if d.privacy is _PRIVATE:
        return Violation(_RESP5, "private-to-nonmember")
    latest = w.latest_approval.get(detail_key)
    if latest is None:
        return Violation(_RESP5, "no-approved-collection")
    if t - latest <= w.reveal_ttl:
        return d.value
    return Violation(_RESP5, "authorization-expired")
