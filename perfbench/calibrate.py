"""A reference for machine speed, so that in-process times read steadily.

On a shared machine the speed of a core changes while a benchmark runs:
other tenants' load slows the same Python code by up to about 1.6 times, in
phases that last from seconds to minutes, so raw medians of runs made a few
minutes apart differ by more than any useful bound.

A timed region that runs in the benchmark's own interpreter is therefore
bracketed by one pass of a fixed loop of plain Python (a bare rational type:
allocation, calls, gcd, a dict) that shares no code with eismeasure.  The
region's wall time is rescaled by ``REF_S`` over the mean of the two passes.
A *reference second* is a wall second at the speed where one pass takes
``REF_S``: the median speed, over the runs that defined the benchmark, of
the 2-vCPU Xeon VM they ran on (one pass took 3.7 ms at its fastest).  A
change to eismeasure moves the region's time and not the loop's, so a
speed-up shows in full.  Result files keep the wall and loop times next to
the rescaled ones.
"""

from __future__ import annotations

import math
import time

#: Seconds one pass takes at the reference speed.
REF_S = 0.006
_N = 2400


class _Ratio:
    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = math.gcd(num, den)
        self.num, self.den = num // g, den // g

    def __add__(self, o: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * o.den + o.num * self.den, self.den * o.den)

    def __mul__(self, o: "_Ratio") -> "_Ratio":
        return _Ratio(self.num * o.num, self.den * o.den)


def _work(n: int = _N) -> int:
    table: dict = {}
    for i in range(1, n):
        a, b = _Ratio(i, i + 7), _Ratio(3, i + 1)
        c = a * b + a
        table[(c.num % 101, c.den % 13)] = i
    return len(table)


def pass_s() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def timed(fn, *args):
    """((reference s, wall s, loop s), result) of ``fn(*args)``."""
    before = pass_s()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    loop = (before + pass_s()) / 2
    return (wall * REF_S / loop, wall, loop), result
