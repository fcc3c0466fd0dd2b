"""Probability vectors as elements of the majorization lattice.

A vector lives in the set of non-negative, non-increasing tuples with a
fixed component sum (``total``: 1 for a single measurement, M for the
direct sum of M measurements).  This module supplies the partial order,
the lattice meet and join, direct summation, Lorenz curves and the
Schur-concave entropy functionals used by the bound solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UqcrError

# Absolute tolerance for component sums offered by callers.
SUM_TOL = 1e-9
# Entries may undershoot zero by at most this much (round-off).
ENTRY_TOL = 1e-12
# Slack applied to prefix-sum comparisons in the partial order.
CMP_TOL = 1e-10

_LOG_BASE = {"bits": 2.0, "nats": math.e}


class NegativeEntry(UqcrError):
    """An entry is more negative than round-off can explain."""


class SumMismatch(UqcrError):
    """Component sum disagrees with the declared total."""


class TotalMismatch(UqcrError):
    """Two vectors with different totals cannot be compared."""


class EmptySet(UqcrError):
    """A lattice operation over a set needs at least one element."""


class SupportMismatch(UqcrError):
    """Relative-entropy weight sits on a zero-probability entry."""


class NotConcave(UqcrError, ValueError):
    """A prefix-sum curve bends upward by more than its tolerance."""


@dataclass(frozen=True)
class ProbVector:
    """Non-increasing probability vector whose entries sum to ``total``."""

    entries: np.ndarray
    total: float = 1.0

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("entries must form a non-empty 1-d sequence")
        if float(arr.min(initial=0.0)) < -ENTRY_TOL:
            raise NegativeEntry(f"entry {arr.min():.3e} is below zero")
        arr.clip(0.0, None, out=arr)
        if (arr[1:] > arr[:-1] + 1e-11).any():
            raise ValueError("entries must be non-increasing")
        if float(arr.max(initial=0.0)) > self.total + SUM_TOL:
            raise ValueError("entries must not exceed the total")
        tol, got = max(1e-12, 4e-16 * arr.size * max(1.0, self.total)), float(arr.sum())
        # "not <=" fails on a NaN entry or total, which passes every check above
        if not abs(got - self.total) <= tol:
            raise SumMismatch(f"sum {got!r} differs from total {self.total!r}")
        sums = np.cumsum(arr)
        arr.setflags(write=False)
        sums.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "total", float(self.total))
        object.__setattr__(self, "_prefix_sums", sums)
        object.__setattr__(self, "_entropies", {})  # unit -> shannon_entropy

    def __len__(self) -> int:
        return int(self.entries.size)

    def __iter__(self):
        return iter(self.entries.tolist())

    def prefix_sums(self) -> np.ndarray:
        """Cumulative sums L_1..L_len (no leading zero), computed once; read-only."""
        return self._prefix_sums

    def padded(self, length: int) -> "ProbVector":
        """Zero-pad to ``length`` entries; the total is unchanged."""
        if length < len(self):
            raise ValueError("cannot truncate a probability vector")
        if length == len(self):
            return self
        return ProbVector(np.pad(self.entries, (0, length - len(self))), self.total)


@dataclass(frozen=True)
class LorenzCurve:
    """Piecewise-linear prefix-sum curve; concave for sorted vectors."""

    values: np.ndarray
    total: float

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr[0] != 0.0:
            raise ValueError("Lorenz curve must start at zero")
        if abs(arr[-1] - self.total) > SUM_TOL:
            raise ValueError("Lorenz curve must end at the total")
        steps = np.diff(arr)
        if (steps < -1e-11).any():
            raise ValueError("Lorenz curve must be non-decreasing")
        if (np.diff(steps) > 1e-9).any():
            raise ValueError("Lorenz curve increments must be non-increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "total", float(self.total))


def from_unsorted(raw, total: float = 1.0) -> ProbVector:
    """Sort raw outcome probabilities into a valid ProbVector.

    Entries below ``-ENTRY_TOL`` raise NegativeEntry; a sum that misses
    ``total`` by more than SUM_TOL raises SumMismatch.  Round-off
    negatives are clamped to zero and the deficit is folded into the
    largest entry.
    """
    arr = np.array(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("raw entries must form a non-empty 1-d sequence")
    if float(arr.min()) < -ENTRY_TOL:
        raise NegativeEntry(f"entry {arr.min():.3e} is below zero")
    if abs(float(arr.sum()) - total) > SUM_TOL:
        raise SumMismatch(f"sum {arr.sum()!r} differs from total {total!r}")
    np.clip(arr, 0.0, None, out=arr)
    arr[::-1].sort()
    arr[0] += total - arr.sum()
    arr[::-1].sort()
    return ProbVector(arr, total)


def _pad_common(a: ProbVector, b: ProbVector) -> tuple[ProbVector, ProbVector]:
    if abs(a.total - b.total) > SUM_TOL:
        raise TotalMismatch(f"totals {a.total!r} and {b.total!r} differ")
    n = max(len(a), len(b))
    return a.padded(n), b.padded(n)


def is_majorized_by(a: ProbVector, b: ProbVector, tol: float = CMP_TOL) -> bool:
    """True iff every prefix sum of ``a`` is at most that of ``b``."""
    pa, pb = _pad_common(a, b)
    return bool((pa.prefix_sums() <= pb.prefix_sums() + tol).all())


def meet(a: ProbVector, b: ProbVector) -> ProbVector:
    """Greatest lower bound: differences of the pointwise prefix minima."""
    return meet_all([a, b])


def meet_all(vectors) -> ProbVector:
    """Infimum of a set, via joint componentwise prefix-sum minima."""
    prefixes, total = _prefix_stack(vectors, "meet")
    # The min of concave curves is concave; wash out float dust only.
    return from_prefix_sums(np.concatenate(([0.0], prefixes.min(axis=0))), total, 1e-9)


def join(a: ProbVector, b: ProbVector) -> ProbVector:
    """Least upper bound of two vectors; see ``join_all``."""
    return join_all([a, b])


def join_all(vectors) -> ProbVector:
    """Supremum of a set: least concave majorant of the joint prefix maxima."""
    return join_prefix_sums(*_prefix_stack(vectors, "join"))


def join_prefix_sums(prefixes: np.ndarray, total: float) -> ProbVector:
    """Join of the vectors whose prefix sums are the rows of ``prefixes``.

    The max of concave curves need not be concave; the upper convex hull
    flattens it.  The join is associative, so one pass over all rows
    equals a pairwise fold.  Clipping the max at ``total`` keeps rounding
    in the row sums out of the last entry.
    """
    ends = prefixes[:, -1]
    if np.any(np.abs(ends - total) > SUM_TOL):
        raise SumMismatch(f"row sums span {ends.min():.12g}..{ends.max():.12g}, not {total!r}")
    high = np.minimum(prefixes.max(axis=0), total)
    high[-1] = total
    return from_prefix_sums(least_concave_majorant(np.concatenate(([0.0], high))), total, 1e-9)


def from_prefix_sums(curve: np.ndarray, total: float, tol: float) -> ProbVector:
    """The lattice vector of a prefix-sum curve running from 0 to ``total``.

    Its differences are made non-increasing by pool-adjacent-violators: a
    rise over ``tol`` is a genuine error and raises NotConcave, smaller ones
    are averaged away, preserving the sum.  The entries are then clamped at
    0, and the rounding left over is added to the first entry.
    """
    entries = np.diff(curve)
    viol = float(np.max(entries[1:] - entries[:-1], initial=0.0))
    if viol > tol:
        raise NotConcave(f"sequence increases by {viol:.3e}, beyond tolerance")
    if viol > 0.0:
        vals: list[float] = []
        wts: list[int] = []
        for x in entries:
            vals.append(float(x))
            wts.append(1)
            while len(vals) >= 2 and vals[-2] < vals[-1]:
                v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / (wts[-2] + wts[-1])
                w = wts[-2] + wts[-1]
                vals = vals[:-2] + [v]
                wts = wts[:-2] + [w]
        entries = np.concatenate([np.full(w, v) for v, w in zip(vals, wts)])
    np.maximum(entries, 0.0, out=entries)
    entries[0] += total - entries.sum()
    return ProbVector(entries, total)


def _prefix_stack(vectors, op: str) -> tuple[np.ndarray, float]:
    """Prefix sums of a non-empty set with one total, padded to one length."""
    vectors = list(vectors)
    if not vectors:
        raise EmptySet(f"{op} over an empty set")
    total = vectors[0].total
    n = max(len(v) for v in vectors)
    for v in vectors[1:]:
        if abs(v.total - total) > SUM_TOL:
            raise TotalMismatch(f"totals {total!r} and {v.total!r} differ")
    return np.stack([np.cumsum(v.padded(n).entries) for v in vectors]), total


def direct_sum(vectors) -> ProbVector:
    """Concatenate single-measurement PDVs and re-sort; total becomes M."""
    vectors = list(vectors)
    if not vectors:
        raise EmptySet("direct sum of an empty set")
    for v in vectors:
        if abs(v.total - 1.0) > SUM_TOL:
            raise TotalMismatch(f"direct-sum inputs must have total 1, got {v.total!r}")
    merged = np.concatenate([v.entries for v in vectors])
    merged[::-1].sort()
    return ProbVector(merged, float(len(vectors)))


def lorenz(p: ProbVector) -> LorenzCurve:
    """Prefix-sum curve with L_0 = 0 prepended."""
    return LorenzCurve(np.concatenate(([0.0], p.prefix_sums())), p.total)


def shannon_entropy(p: ProbVector, unit: str = "bits") -> float:
    """-sum p_i log p_i over the entries as given (0 log 0 = 0), computed
    once per vector and unit: a fixed envelope's cap costs one lookup a state."""
    value = p._entropies.get(unit)
    if value is None:
        arr, log_base = p.entries[p.entries > 0.0], math.log(_LOG_BASE[unit])
        value = p._entropies[unit] = float(-(arr * (np.log(arr) / log_base)).sum() + 0.0)
    return value


def relative_entropy_term(t: ProbVector, p: ProbVector, unit: str = "bits") -> float:
    """sum_i t_i log(t_i / P_i), with the first argument as weights.

    Raises SupportMismatch when some t_i > 0 sits on P_i = 0.  For equal
    totals the value is non-negative by the log-sum inequality.
    """
    et, ep = (v.entries for v in _pad_common(t, p))
    base = _LOG_BASE[unit]
    mask = et > 0.0
    if (ep[mask] <= 0.0).any():
        raise SupportMismatch("weight entry t_i > 0 where P_i = 0")
    wt, wp = et[mask], ep[mask]
    return float((wt * (np.log(wt / wp) / math.log(base))).sum())


def least_concave_majorant(values: np.ndarray) -> np.ndarray:
    """Smallest concave sequence above ``values`` (values[0] must be 0).

    Computed once per join, over the max of all its Lorenz curves, as the
    upper convex hull of the points (k, values[k]) by a single
    monotone-chain pass, then interpolated back to integer k.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    hull = [0]
    for i in range(1, n):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # Drop b when it lies on or below the chord a -> i.
            if (y[b] - y[a]) * (i - a) <= (y[i] - y[a]) * (b - a) + 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.interp(np.arange(n), hull, y[hull])
