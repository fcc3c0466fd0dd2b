"""Per-state certainty reports: sandwich checks and entropy caps.

The pooled entropy of the direct-sum distribution is capped by the
entropy of the lower envelope ``t``; subtracting the relative entropy
D(P||t) (probability-weighted) tightens the cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import majorization as mj
from .quantum import DensityMatrix, DimensionMismatch


@dataclass(frozen=True)
class CertaintyReport:
    """Everything the sandwich and entropy-cap checks produce for one state."""

    P: mj.ProbVector
    t: mj.ProbVector
    s: mj.ProbVector
    sandwich_ok: tuple
    entropy_sum: float
    entropy_cap: float
    tightened_cap: float | None
    slack: dict
    unit: str = "bits"


def state_direct_sum_pdv(observables, rho: DensityMatrix) -> mj.ProbVector:
    """Sorted direct sum of the per-observable outcome distributions, from one mat-vec."""
    observables = list(observables)
    if not observables:
        raise mj.EmptySet("direct sum of an empty set")
    for obs in observables:
        if obs.dim != rho.dim:
            raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    rows = np.concatenate([obs.projector_rows for obs in observables])
    probs = (rows @ rho.matrix.ravel()).real.clip(0.0, 1.0)
    counts = [obs.outcome_count for obs in observables]
    starts = list(itertools.accumulate(counts[:-1], initial=0))
    # Each observable's block in descending order: its rounding deficit goes to its
    # largest entry, as when each distribution is sorted on its own.
    probs = probs[np.lexsort((-probs, np.repeat(starts, counts)))]
    sums = np.add.reduceat(probs, starts)
    if (np.abs(sums - 1.0) > mj.SUM_TOL).any():
        raise mj.SumMismatch(f"outcome sums {sums.tolist()!r} differ from 1")
    probs[starts] += 1.0 - sums
    return mj.ProbVector(np.sort(probs)[::-1], float(len(observables)))


def certify_state(observables, rho: DensityMatrix, bounds_pair,
                  unit: str = "bits") -> CertaintyReport:
    """Sandwich and entropy report for one state against computed bounds.

    A false sandwich flag is surfaced as-is: it means the state is not
    admissible under the constraint the bounds were computed for, or the
    bounds are wrong.
    """
    t, s = bounds_pair
    P = state_direct_sum_pdv(observables, rho)
    lower_ok = mj.is_majorized_by(t, P)
    upper_ok = mj.is_majorized_by(P, s)
    entropy_sum = mj.shannon_entropy(P, unit)  # P holds every observable's entries
    entropy_cap = mj.shannon_entropy(t, unit)  # computed once per envelope and unit
    try:
        # Conventional weighting: D(P||t) = sum_i P_i log(P_i / t_i).
        divergence = mj.relative_entropy_term(P, t, unit)
        tightened_cap = entropy_cap - divergence
    except mj.SupportMismatch:
        tightened_cap = None
    slack = {
        "cap_minus_sum": entropy_cap - entropy_sum,
        "tightened_minus_sum": None if tightened_cap is None else tightened_cap - entropy_sum,
    }
    return CertaintyReport(
        P=P,
        t=t,
        s=s,
        sandwich_ok=(lower_ok, upper_ok),
        entropy_sum=entropy_sum,
        entropy_cap=entropy_cap,
        tightened_cap=tightened_cap,
        slack=slack,
        unit=unit,
    )


def entropic_certainty_bound(t: mj.ProbVector, unit: str = "bits") -> float:
    """Shannon entropy of the lower envelope: the certainty cap."""
    return mj.shannon_entropy(t, unit)
