"""Independent NumPy-only reference for a stream of updates.

Built once per run, outside the clock, from the same generated arrays the
program receives.  It uses nothing from :mod:`repro`: a stable sort of the
packed ``(row << 32) | col`` keys plus ``np.add.reduceat``, so a kernel bug
in the program cannot validate itself.  Values must be integer-valued floats
(unit counts or whole byte counts); every sum is then exact and the program's
answers are compared for equality, not within a tolerance.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


def _group_sums(index: np.ndarray, values: np.ndarray):
    """``(sorted distinct index, per-index value sum)`` by sort + reduceat."""
    order = np.argsort(index, kind="stable")
    sindex = index[order]
    starts = np.flatnonzero(np.concatenate(([True], sindex[1:] != sindex[:-1])))
    return sindex[starts], np.add.reduceat(values[order], starts)


class StreamOracle:
    """Exact answers about any prefix of one update stream.

    Parameters
    ----------
    rows, cols:
        ``uint64`` coordinates below 2**32, in stream order.
    values:
        Integer-valued ``float64`` update values, in stream order.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        if rows.size and (int(rows.max()) >> 32 or int(cols.max()) >> 32):
            raise ValueError("the oracle packs coordinates into 32+32 bits")
        if not np.array_equal(values, np.floor(values)):
            raise ValueError("the oracle needs integer-valued updates to compare exactly")
        self.size = int(rows.size)
        keys = (rows << np.uint64(32)) | cols
        order = np.argsort(keys, kind="stable")
        self._skeys = keys[order]
        self._spos = order  # stream positions, ascending within each key's run
        self._csum = np.concatenate(([0.0], np.cumsum(values[order])))
        self._prefix_total = np.concatenate(([0.0], np.cumsum(values)))
        starts = np.flatnonzero(
            np.concatenate(([True], self._skeys[1:] != self._skeys[:-1]))
        )
        self._first_seen = np.sort(order[starts])
        _, out_deg = _group_sums(rows, values)
        _, in_deg = _group_sums(cols, values)
        self.summary: Dict[str, float] = {
            "nnz": float(starts.size),
            "total_traffic": float(self._prefix_total[-1]),
            "active_sources": float(out_deg.size),
            "active_destinations": float(in_deg.size),
            "max_out_degree": float(out_deg.max()),
            "max_in_degree": float(in_deg.max()),
            "mean_out_degree": float(out_deg.mean()),
            "mean_in_degree": float(in_deg.mean()),
        }

    def value(self, row: int, col: int, end: int) -> float:
        """Sum of the updates to ``(row, col)`` among the first ``end``."""
        key = np.uint64((int(row) << 32) | int(col))
        lo = int(np.searchsorted(self._skeys, key, side="left"))
        hi = int(np.searchsorted(self._skeys, key, side="right"))
        stop = lo + int(np.searchsorted(self._spos[lo:hi], end, side="left"))
        return float(self._csum[stop] - self._csum[lo])

    def total(self, end: int) -> float:
        """Sum of the first ``end`` update values."""
        return float(self._prefix_total[end])

    def nnz(self, end: int) -> int:
        """Distinct coordinates among the first ``end`` updates."""
        return int(np.searchsorted(self._first_seen, end, side="left"))

    def errors(self, reads, polls, summary: Dict[str, float], nvals: int) -> List[str]:
        """Every disagreement between the program's answers and the reference.

        ``reads`` holds ``(row, col, end, value)`` point reads made after the
        first ``end`` updates; ``polls`` holds ``(end, degree_summary)``
        dashboard polls, whose ``nnz`` and total traffic are compared;
        ``summary`` is the final ``degree_summary`` (every field compared) and
        ``nvals`` the final entry count.
        """
        out = []
        for r, c, end, got in reads:
            want = self.value(r, c, end)
            if got != want:
                out.append(f"get({r}, {c}) after {end} updates = {got!r}, reference {want!r}")
        for end, poll in polls:
            want = (self.nnz(end), self.total(end))
            if poll is None or (poll["nnz"], poll["total_traffic"]) != want:
                out.append(f"dashboard poll after {end} updates disagrees with the reference")
        out += [
            f"degree_summary[{k!r}] = {summary.get(k)!r}, reference {v!r}"
            for k, v in self.summary.items()
            if summary.get(k) != v
        ]
        if nvals != self.summary["nnz"]:
            out.append(f"nvals {nvals} != reference {self.summary['nnz']}")
        return out
