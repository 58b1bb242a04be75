"""The machine's speed, sampled by a fixed reference task between units.

On a shared machine the speed drifts by tens of percent over seconds
to minutes.  A run therefore interleaves its units
with slices of a fixed pure-Python task that does not touch critforge,
and reports its times at the reference speed: a time measured while the
reference slices ran ``f`` times slower than ``REFERENCE_SLICE_S`` is
divided by ``f``.  The reference task does integer row reduction on a
small matrix, like the library's own inner loops, so drift that slows
one slows the other.
"""

from __future__ import annotations

from time import perf_counter

# Seconds one slice takes at the reference speed: about the median slice
# time on a 2-core x86-64 virtual machine with Python 3.11.7.  Any
# constant serves, since only ratios of reported times are compared.
REFERENCE_SLICE_S = 0.003
# Reference time run after each unit, as a share of the unit's time.
REFERENCE_SHARE = 0.25

_MATRIX = [[(7 * i * i + 3 * j * j + 5 * i * j + 1) % 23 - 11 for j in range(9)]
           for i in range(9)]


def _eliminate(shift: int) -> int:
    """Fraction-free elimination of ``_MATRIX`` plus ``shift`` times one."""
    m = [[x + shift * (i == j) for j, x in enumerate(row)] for i, row in enumerate(_MATRIX)]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def reference_slice() -> int:
    """One slice of the reference task: 40 fixed eliminations."""
    return sum(_eliminate(shift) for shift in range(40))


class Speed:
    """Reference slices run during one stretch of a run."""

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0

    def sample(self, work_s: float) -> None:
        """Run slices for ``REFERENCE_SHARE`` of ``work_s``, at least one."""
        spent, slices = 0.0, 0
        while not slices or spent < REFERENCE_SHARE * work_s:
            t0 = perf_counter()
            reference_slice()
            spent += perf_counter() - t0
            slices += 1
        self.slices += slices
        self.seconds += spent

    @property
    def factor(self) -> float:
        """How many times slower than the reference speed the slices ran."""
        return self.seconds / (self.slices * REFERENCE_SLICE_S)
