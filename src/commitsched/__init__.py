"""Deterministic coordination of social web service commitments.

Commitments (pledged collect/post/tamper/signoff/reveal actions) are
classified reader or writer, scheduled against shared network state
under friend/family/strange compatibility rules, and checked against the
five usage responsibilities when they execute. A scenario simulator
drives everything on a logical clock and emits canonical traces; an
independent brute-force oracle cross-checks the scheduler against a
reference model on small instances.
"""

from . import errors, model, relations, scheduler, scenario, simulator, trace, world
