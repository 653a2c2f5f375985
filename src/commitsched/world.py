"""Shared social-network state and the five responsibility checks.

The world holds networks, memberships, owned details (each with a
privacy level), approved collection records, and work assignments. The
``exec_*`` functions run one commitment's content action against it and
either return an updated world or a ``Violation`` naming the breached
responsibility. A violation never changes the world: callers keep their
input value, so atomicity is structural.

Every world value also carries two derived indexes, invisible to
equality and ``repr``: the networks of each member service, and the
collection records of each detail key in approval order. The invariant
is that they are exactly what a scan of ``members`` and ``collections``
would give. The constructor builds them; each ``with_*``/``without_*``
helper hands them on to the new value, or a new version with its own
change applied. Assignments are few and stay scanned.

Posts, new details and collects are O(1). ``details`` and the records
index are ``VersionedMap`` values: persistent maps by shallow binding
(Baker, "Shallow binding makes functional arrays fast", SIGPLAN Notices
26(8), 1991; Conchon & Filliatre, "A persistent union-find data
structure", ML Workshop 2007). The newest version of a map owns one
mutable dict; every older version holds one undo entry pointing towards
it. Reading an older version reroots: it replays the undo entries
between it and the current owner into the dict and reverses them, so it
costs O(versions between the two) once, and the next read of the newer
version pays the same way back. ``collections`` is a ``RecordLog``, a
sequence view of one more such map, keyed by approval index.
Because a read may reroot, a read mutates shared structure: world values
are single-threaded, like the scheduler that drives them.

Responsibilities enforced here:
  resp1  collecting a detail needs a valid purpose and network membership
  resp2  posted content must be true (and the poster a member)
  resp3  collected details must not be tampered with afterwards
  resp4  signing off requires no ongoing assignments
  resp5  revealing a public detail to non-members is authorized only
         within ``reveal_ttl`` ticks of an approved collection
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AlreadyMember,
    DuplicateAssignment,
    DuplicateDetail,
    IllegalStatusChange,
    NoCollectionRecord,
    OwnerNotMember,
    UnknownAssignment,
    UnknownDetail,
    UnknownNetwork,
    UnknownService,
)
from .model import Privacy, Responsibility, _evolve

DEFAULT_REVEAL_TTL = 100

_ABSENT = object()


class VersionedMap(Mapping):
    """Persistent map: ``set`` returns a new version in O(1), every version stays readable.

    Exactly one version of a family is the root and holds the dict
    (``_data``). Any other version holds ``_next``, the version it was
    derived from or rerooted past, and the value ``_key`` has here
    (``_ABSENT`` when missing); all else equals ``_next``. ``_reroot``
    makes a version the root by walking to the current one and reversing
    the undo entries on the way back; every read checks ``_data`` first
    and reroots only when it is None.
    """

    __slots__ = ("_data", "_key", "_value", "_next")

    def __init__(self, items=()):
        self._data = dict(items)
        self._next = None

    def _reroot(self) -> dict:
        path = []
        node = self
        while node._data is None:
            path.append(node)
            node = node._next
        data = node._data
        for version in reversed(path):
            # The dict first: if it raises, no pointer has moved yet.
            key, value = version._key, version._value
            undo = data.get(key, _ABSENT)
            if value is _ABSENT:
                del data[key]
            else:
                data[key] = value
            node._data, node._next, node._key, node._value = None, version, key, undo
            version._data, version._next = data, None
            node = version
        return data

    def set(self, key, value) -> "VersionedMap":
        """A new version with ``key`` bound to ``value``; this one keeps its binding."""
        data = self._data
        if data is None:
            data = self._reroot()
        new = VersionedMap.__new__(VersionedMap)
        new._data, new._next = data, None
        undo = data.get(key, _ABSENT)
        data[key] = value
        self._data, self._next, self._key, self._value = None, new, key, undo
        return new

    def get(self, key, default=None):
        data = self._data
        if data is None:
            data = self._reroot()
        return data.get(key, default)

    def __contains__(self, key) -> bool:
        data = self._data
        if data is None:
            data = self._reroot()
        return key in data

    def __getitem__(self, key):
        data = self._data
        if data is None:
            data = self._reroot()
        return data[key]

    def __iter__(self):
        # Over a copy of the keys: a read of another version mid-iteration reroots.
        return iter(tuple(self._data if self._data is not None else self._reroot()))

    def __len__(self) -> int:
        return len(self._data if self._data is not None else self._reroot())

    def __repr__(self) -> str:
        return repr(self._data if self._data is not None else self._reroot())


class RecordLog(Sequence):
    """Append-only sequence: the items of a ``VersionedMap`` keyed 0..len-1.

    ``appended`` is one ``set`` on that map, so it is O(1) and every
    version shares the map. Unlike a linked list, it adds no object per
    item that outlives its version: such survivors advance the garbage
    collector's full collections. Equal to, and indexed like, the tuple of
    its items in append order.
    """

    __slots__ = ("_items", "_len")

    def __init__(self, items=()):
        self._items = VersionedMap(enumerate(items))
        self._len = len(self._items)

    def appended(self, item) -> "RecordLog":
        log = RecordLog.__new__(RecordLog)
        log._items, log._len = self._items.set(self._len, item), self._len + 1
        return log

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        items = self._items
        return iter([items[i] for i in range(self._len)])

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordLog, tuple)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class AssignmentStatus(Enum):
    ONGOING = "ongoing"
    COMPLETE = "complete"
    FAILED = "failed"


@dataclass(frozen=True)
class Detail:
    """One piece of owned information living in a network."""

    key: str
    owner: str
    network: str
    privacy: Privacy
    value: str
    veracity: bool = True


@dataclass(frozen=True)
class CollectionRecord:
    """Approved collection of a detail; immutable, snapshots the value."""

    detail_key: str
    collector: str
    purpose: str
    approved_at: int
    snapshot: str


@dataclass(frozen=True)
class Assignment:
    """A unit of work a service owes; blocks sign-off while ongoing."""

    id: str
    service: str
    status: AssignmentStatus = AssignmentStatus.ONGOING


@dataclass(frozen=True)
class Violation:
    """A breached responsibility; returned, never raised."""

    responsibility: Responsibility
    reason: str
    items: tuple[str, ...] = ()


@dataclass(frozen=True)
class WorldState:
    """Immutable world value; update helpers return new instances."""

    networks: frozenset[str] = frozenset()
    members: frozenset[tuple[str, str]] = frozenset()
    details: Mapping[str, Detail] = field(default_factory=dict)
    collections: Sequence[CollectionRecord] = ()
    assignments: tuple[Assignment, ...] = ()
    purposes: dict[str, frozenset[str]] = field(default_factory=dict)
    reveal_ttl: int = DEFAULT_REVEAL_TTL
    # Derived from ``members`` and ``collections``; see the module docstring.
    _networks_of: dict[str, frozenset[str]] = field(init=False, compare=False, repr=False)
    _records_of: VersionedMap = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        networks_of: dict[str, frozenset[str]] = {}
        for service, network in self.members:
            networks_of[service] = networks_of.get(service, frozenset()) | {network}
        records_of: dict[str, tuple[CollectionRecord, ...]] = {}
        for r in self.collections:
            records_of[r.detail_key] = records_of.get(r.detail_key, ()) + (r,)
        # The versioned values own copies: no caller's dict is ever written.
        object.__setattr__(self, "details", VersionedMap(self.details))
        object.__setattr__(self, "collections", RecordLog(self.collections))
        object.__setattr__(self, "_networks_of", networks_of)
        object.__setattr__(self, "_records_of", VersionedMap(records_of))

    # -- queries ----------------------------------------------------------

    def is_member(self, service: str, network: str) -> bool:
        return (service, network) in self.members

    def member_networks(self, service: str) -> tuple[str, ...]:
        return tuple(sorted(self._networks_of.get(service, ())))

    def has_any_membership(self, service: str) -> bool:
        return service in self._networks_of

    def detail_privacy(self) -> dict[str, Privacy]:
        return {key: d.privacy for key, d in self.details.items()}

    def records_for(self, detail_key: str) -> tuple[CollectionRecord, ...]:
        return self._records_of.get(detail_key, ())

    def assignment(self, assignment_id: str) -> Assignment:
        for a in self.assignments:
            if a.id == assignment_id:
                return a
        raise UnknownAssignment(f"no assignment {assignment_id!r}")

    def ongoing_assignments(self, service: str) -> tuple[str, ...]:
        return tuple(
            a.id for a in self.assignments
            if a.service == service and a.status is AssignmentStatus.ONGOING
        )

    # -- updates (each returns a new value; the input is unchanged) ---------

    def with_network(self, name: str) -> "WorldState":
        return _evolve(self, networks=self.networks | {name})

    def with_purpose(self, network: str, token: str) -> "WorldState":
        if network not in self.networks:
            raise UnknownNetwork(f"no network {network!r}")
        current = self.purposes.get(network, frozenset())
        return _evolve(self, purposes={**self.purposes, network: current | {token}})

    def with_member(self, service: str, network: str) -> "WorldState":
        if network not in self.networks:
            raise UnknownNetwork(f"no network {network!r}")
        if self.is_member(service, network):
            raise AlreadyMember(f"{service!r} is already a member of {network!r}")
        joined = self._networks_of.get(service, frozenset()) | {network}
        return _evolve(
            self,
            members=self.members | {(service, network)},
            _networks_of={**self._networks_of, service: joined},
        )

    def without_memberships(self, service: str) -> "WorldState":
        networks_of = dict(self._networks_of)
        left = networks_of.pop(service, ())
        return _evolve(
            self,
            members=self.members - {(service, n) for n in left},
            _networks_of=networks_of,
        )

    def with_detail(self, detail: Detail) -> "WorldState":
        if detail.key in self.details:
            raise DuplicateDetail(f"detail {detail.key!r} already exists")
        if detail.network not in self.networks:
            raise UnknownNetwork(f"no network {detail.network!r}")
        if not self.is_member(detail.owner, detail.network):
            raise OwnerNotMember(
                f"owner {detail.owner!r} is not a member of {detail.network!r}"
            )
        return _evolve(self, details=self.details.set(detail.key, detail))

    def with_detail_value(self, key: str, value: str, veracity: bool) -> "WorldState":
        d = self.details.get(key)
        if d is None:
            raise UnknownDetail(f"no detail {key!r}")
        updated = _evolve(d, value=value, veracity=veracity)
        return _evolve(self, details=self.details.set(key, updated))

    def with_collection(self, record: CollectionRecord) -> "WorldState":
        key = record.detail_key
        if key not in self.details:
            raise UnknownDetail(f"no detail {key!r}")
        return _evolve(
            self,
            collections=self.collections.appended(record),
            _records_of=self._records_of.set(key, self.records_for(key) + (record,)),
        )

    def with_assignment(self, assignment: Assignment) -> "WorldState":
        if any(a.id == assignment.id for a in self.assignments):
            raise DuplicateAssignment(f"assignment {assignment.id!r} already exists")
        return _evolve(self, assignments=self.assignments + (assignment,))

    def with_finished_assignment(
        self, assignment_id: str, outcome: AssignmentStatus
    ) -> "WorldState":
        if outcome is AssignmentStatus.ONGOING:
            raise IllegalStatusChange("an assignment cannot move back to ongoing")
        current = self.assignment(assignment_id)
        if current.status is not AssignmentStatus.ONGOING:
            raise IllegalStatusChange(
                f"assignment {assignment_id!r} already {current.status.value}"
            )
        finished = _evolve(current, status=outcome)
        return _evolve(
            self,
            assignments=tuple(
                finished if a.id == assignment_id else a for a in self.assignments
            ),
        )

    def with_ttl(self, ticks: int) -> "WorldState":
        if ticks < 0:
            raise ValueError("reveal ttl must be >= 0")
        return _evolve(self, reveal_ttl=ticks)


# -- responsibility checks --------------------------------------------------

def valid(w: WorldState, network: str, purpose: str) -> bool:
    """True iff the purpose token is registered for the network."""
    if network not in w.networks:
        raise UnknownNetwork(f"no network {network!r}")
    return purpose in w.purposes.get(network, frozenset())


def exec_collect(
    w: WorldState, collector: str, detail_key: str, purpose: str, t: int
) -> tuple[WorldState, CollectionRecord] | Violation:
    """Collect a detail: needs a valid purpose and network membership (resp1)."""
    d = w.details.get(detail_key)
    if d is None:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if not valid(w, d.network, purpose):
        return Violation(Responsibility.RESP1, "invalid-purpose")
    if not w.is_member(collector, d.network):
        return Violation(Responsibility.RESP1, "collector-not-member")
    record = CollectionRecord(detail_key, collector, purpose, t, d.value)
    return w.with_collection(record), record


def exec_post(
    w: WorldState,
    poster: str,
    detail_key: str,
    veracity: bool,
    t: int,
    *,
    network: str | None = None,
    value: str | None = None,
) -> WorldState | Violation:
    """Post a detail: content must be true and the poster a member (resp2).

    Posting an existing detail updates its value in place (the scheduler
    serializes writers, so last-writer-wins is safe). Posting a fresh key
    creates a public detail owned by the poster in ``network``.
    """
    d = w.details.get(detail_key)
    net = d.network if d is not None else network
    if net is None or net not in w.networks:
        raise UnknownNetwork(f"no network {net!r} to post into")
    if not veracity:
        return Violation(Responsibility.RESP2, "untrue-content")
    if not w.is_member(poster, net):
        return Violation(Responsibility.RESP2, "poster-not-member")
    new_value = value if value is not None else f"{poster}@t{t}"
    if d is not None:
        return w.with_detail_value(detail_key, new_value, veracity=True)
    created = Detail(detail_key, poster, net, Privacy.PUBLIC, new_value)
    return w.with_detail(created)


def exec_tamper_guard(w: WorldState, detail_key: str) -> Violation:
    """A tamper attempt on collected data is always a breach (resp3).

    Collection records are immutable values, so the snapshot survives
    untouched; the attempt is merely recorded as a violation. Without an
    approved collection the guard does not apply and NoCollectionRecord
    is raised: the action degrades to an ordinary write under resp2.
    """
    if detail_key not in w.details:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if not w.records_for(detail_key):
        raise NoCollectionRecord(f"no approved collection for {detail_key!r}")
    return Violation(Responsibility.RESP3, "tamper-after-collection")


def exec_signoff(w: WorldState, service: str) -> tuple[WorldState, tuple[str, ...]] | Violation:
    """Sign a service off its networks; blocked by ongoing assignments (resp4).

    Complete and failed assignments are both terminal and do not block.
    Returns the updated world and the networks the service left.
    """
    networks = w.member_networks(service)
    if not networks:
        raise UnknownService(f"{service!r} is not a member of any network")
    ongoing = w.ongoing_assignments(service)
    if ongoing:
        return Violation(Responsibility.RESP4, "ongoing-assignments", items=ongoing)
    return w.without_memberships(service), networks


def exec_reveal(w: WorldState, detail_key: str, requester: str, t: int) -> str | Violation:
    """Reveal a detail's value to a requester (resp5).

    Members always get the value. Non-members never see private details;
    for public ones the disclosure is authorized only while an approved
    collection record is younger than ``reveal_ttl`` ticks.
    """
    d = w.details.get(detail_key)
    if d is None:
        raise UnknownDetail(f"no detail {detail_key!r}")
    if w.is_member(requester, d.network):
        return d.value
    if d.privacy is Privacy.PRIVATE:
        return Violation(Responsibility.RESP5, "private-to-nonmember")
    records = w.records_for(detail_key)
    if not records:
        return Violation(Responsibility.RESP5, "no-approved-collection")
    if any(t - r.approved_at <= w.reveal_ttl for r in records):
        return d.value
    return Violation(Responsibility.RESP5, "authorization-expired")

