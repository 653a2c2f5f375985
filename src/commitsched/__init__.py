"""Deterministic coordination of social web service commitments.

Commitments (pledged collect/post/tamper/signoff/reveal actions) are
classified reader or writer, admitted by ``scheduler`` alone under the
paper's friend/family/strange relation within one scope of shared
network state, and checked against the five usage responsibilities when
they execute. A scenario simulator drives everything on a logical clock
and emits canonical traces. The oracle states the scheduling
specification as predicates, written independently of the scheduler,
and ``commitsched oracle`` checks every state the real scheduler reaches
on every small instance against them.
"""

from . import errors, model, scheduler, scenario, simulator, trace, world
