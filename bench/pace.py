"""The host's current speed, gauged by a fixed reference loop.

On a shared virtual machine the CPU itself runs slower for spells of
seconds to minutes while neighbours load the same cores; process CPU time
grows with wall time then, so neither can tell a slow program from a slow
spell.  A run therefore times this loop next to its own work, in the same
process or in the parent process right before and after a child, and
reports each timing scaled to NOMINAL_S, the loop's time in an ordinary
spell:

    adjusted = wall time * NOMINAL_S / probe time nearby

The loop is plain Python with no package code, so a change of the package
moves the adjusted times as it moves the wall times, while a slow spell
moves the loop and the work alike.  It allocates no container, so it never
triggers the garbage collector over the work's heap.
"""

from __future__ import annotations

import time

NOMINAL_S = 2.0e-4     # the loop's time here in an ordinary spell
LOOP = 1500
REPEAT = 3
_TABLE = {i: i * 7 for i in range(1024)}


def probe() -> float:
    """The fastest of REPEAT runs of the reference loop, in seconds."""
    clock = time.perf_counter
    table = _TABLE
    best = float("inf")
    for _ in range(REPEAT):
        t0 = clock()
        s = 0
        for i in range(LOOP):
            s += table[i & 1023] ^ i
        best = min(best, clock() - t0)
    return best


def adjust(seconds: float, probe_s: float) -> float:
    """A wall time scaled to the loop's NOMINAL_S speed."""
    return seconds * NOMINAL_S / probe_s
