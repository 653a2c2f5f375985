"""Scale measured times to a reference host speed.

On a shared host the same code runs up to a third slower or faster from
one second to the next, as other tenants load the same cores. So each
timed section runs between two calls of a fixed pure-Python kernel that
does not touch ``commitsched``, and its time is multiplied by
``REFERENCE_S`` over the mean of the two kernel times. A figure then
reads as the time on the reference machine at its usual speed. A change
to ``commitsched`` cannot change the kernel's time, so it shows in full.
"""

from __future__ import annotations

import time

# Kernel time on the reference machine, a 2-vCPU shared x86-64 Linux VM
# running CPython 3.11.7 (its medians over a minute ranged 0.016-0.019 s).
REFERENCE_S = 0.0175


class _Item:
    __slots__ = ("key", "n", "tag")

    def __init__(self, key: str, n: int):
        self.key = key
        self.n = n
        self.tag = (key, n & 7)


def kernel(rounds: int = 200) -> int:
    """Dict, list, attribute and tuple work of the kind the engine does."""
    items = [_Item(f"k{i % 97}", i) for i in range(400)]
    table: dict[str, list[_Item]] = {}
    hits = 0
    for r in range(rounds):
        for item in items:
            bucket = table.get(item.key)
            if bucket is None:
                table[item.key] = [item]
            elif item.tag[1] == r & 7 or len(bucket) < 4:
                bucket.append(item)
                hits += 1
        for key in list(table):
            table[key] = table[key][-3:]
    return hits


def _kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scaled(fn):
    """Run ``fn()`` between two kernels: ``(result, scaled seconds, scale)``.

    Multiply any other time ``fn`` measured by ``scale`` as well.
    """
    before = _kernel_s()
    start = time.perf_counter()
    result = fn()
    took = time.perf_counter() - start
    scale = REFERENCE_S / ((before + _kernel_s()) / 2)
    return result, took * scale, scale

