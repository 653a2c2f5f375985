"""Deterministic coordination of social web service commitments.

Commitments (pledged collect/post/tamper/signoff/reveal actions) are
classified reader or writer, scheduled against shared network state
under friend/family/strange compatibility rules, and checked against the
five usage responsibilities when they execute. A scenario simulator
drives everything on a logical clock and emits canonical traces. The
oracle states the scheduling specification as predicates, written
independently of the scheduler, and ``commitsched oracle`` checks every
state the real scheduler reaches on every small instance against them.
"""

from . import errors, model, relations, scheduler, scenario, simulator, trace, world
