"""State-independent envelopes on direct-sum measurement distributions.

For M observables with L = sum of outcome counts, stack the L outcome
projectors Pi_k.  The level-n objective of a state is the sum of its n
largest Born probabilities, the top-n sum of the sorted direct-sum
distribution.  Minimizing it over admissible states for every level and
differencing the minima assembles the greatest lower bound ``t``.  Over
all states, minimax duality turns each minimum into the largest
``lambda_min(sum_k w_k Pi_k)`` over the capped simplex
{0 <= w_k <= 1, sum_k w_k = n}, a certified value from L weights; the
multipliers of its last cutting-plane LP mix the cut eigenvectors into
the primal state.  The level-n maximum is the largest eigenvalue over
the C(L, n) subset operators C_S, S an n-subset of the L stacked
projectors (at most ``CHOICE_OPERATOR_LIMIT`` per level).  The
complement of S is a level-(L - n) choice with operator M I - C_S, so
one ``eigvalsh`` sweep over each level n <= L/2, streamed in chunks,
gives the maxima of levels n and L - n; flattening the maxima with the
least concave majorant assembles the least upper bound ``s``.  The
subsets come as ascending flat indices in ``itertools.combinations``
order (``_subset_chunks``), and each chunk's operators take one
gather-and-add per position (``_subset_sums``).

Pure qubit minima are exact, the least value over the candidates an arc
walk over the tie circles lists (``_pure_qubit_levels``); there
``iterations`` counts the candidates and ``multistart_index`` is the
winner's kind (0 a cell point, 1 a circle point, 2 a crossing).  Pure
minima in d >= 3 have no certificate: a batched subgradient scan over
kets (``_ket_scan``) runs from random kets, then settles from each
level's best ket and a few perturbed copies, and pools every iterate of
both stages into one minimum per level.  The levels share one candidate
set, each candidate's top-n sums are concave in n, and so are the minima.

A qubit state at Bloch norm r is r |psi><psi| + (1 - r) I/2, so its Born
probabilities are h_k + r (q_k - h_k), with q_k those of the pure state
and h_k = tr(Pi_k) / 2 those of I/2.  A qubit projector has h in
{0, 1/2, 1}, so for r > 0 the map keeps the order of q, and q sorted
with ties broken by h sorts h too: the top-n sum at radius r is
H_n + r (top-n sum of q - H_n), H_n the top-n sum of h.  Fixed-norm
level minima are therefore the pure minima under that map, reached at
the image of the pure minimizer, and a subset operator C_S reaches at
most h_S + r (lambda_max - h_S), h_S half its trace.  ``_at_radius``
applies the map.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import majorization as mj
from .errors import UqcrError
from .quantum import (
    PAULIS,
    DensityMatrix,
    ProjectiveObservable,
    WrongDimension,
    bloch_to_density,
    observable_from_bloch_axis,
    pauli_observable,
)

VALID_CONSTRAINTS = ("all_states", "pure_only", "fixed_bloch_norm")


class LevelOutOfRange(UqcrError):
    """Level n must satisfy 1 <= n <= L - 1 (L = total outcome count)."""


class EnumerationTooLarge(UqcrError):
    """One level has more than ``CHOICE_OPERATOR_LIMIT`` subset operators."""


# subset operators one level may have; the sweep streams them in chunks,
# so this bounds time, not memory
CHOICE_OPERATOR_LIMIT = 1 << 24

# scan kets, subset operators or qubit arcs per chunk: one GEMM or batched
# eigvalsh amortises its call overhead while the chunk stays a few MB
_CHUNK = 4096
# an all-states level stops once its dual is within this of the primal value
_GAP_TOL = 1e-9
# ... or once the Kelley LP bound is within this of the best certified value
_LP_TOL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the min-max solver; all runs are deterministic per seed."""

    max_iter: int = 80  # cutting-plane LPs per level over all states
    multistarts: int = 64  # scan starts per level, pure states in d >= 3 only
    seed: int = 0

    def __post_init__(self) -> None:
        # messages start with the field name, which the CLI maps to its flag
        for name, ok, rule in (
            ("max_iter", self.max_iter >= 0, ">= 0"),
            ("multistarts", self.multistarts >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class StateConstraint:
    """Admissible-state family the extrema range over."""

    kind: str = "all_states"
    r: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in VALID_CONSTRAINTS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "fixed_bloch_norm":
            if self.r is None or not 0.0 <= self.r <= 1.0:
                raise ValueError("fixed_bloch_norm needs a radius in [0, 1]")
        elif self.r is not None:
            raise ValueError(f"{self.kind} takes no radius")

    @classmethod
    def all_states(cls) -> "StateConstraint":
        return cls("all_states")

    @classmethod
    def pure_only(cls) -> "StateConstraint":
        return cls("pure_only")

    @classmethod
    def fixed_bloch_norm(cls, r: float) -> "StateConstraint":
        return cls("fixed_bloch_norm", float(r))


@dataclass(frozen=True)
class SolverDiagnostics:
    """Per-level solver record.

    ``iterations``: LP solves over all states; candidate points for pure
    and fixed-norm qubit levels and scan evaluations (kets times steps,
    both stages) for pure states in d >= 3, one count for all levels.
    ``multistart_index``: over all states 0 is the maximally mixed state,
    1 the LP-multiplier state; for qubits the winning candidate's kind (0
    a cell point, 1 a circle point, 2 a crossing); in d >= 3 the winning
    scan start, or ``multistarts`` plus the winning settling copy (0 the
    best ket itself).  ``residual`` and ``oracle_min`` are always 0.0 and
    None; the bounds-file format keeps them.
    """

    iterations: int
    multistart_index: int
    residual: float
    dual_gap: float | None = None
    oracle_min: float | None = None


@dataclass(frozen=True)
class ChoiceOperator:
    """Level-n subset operator: per-observable index sets and their sum."""

    index_sets: tuple
    matrix: np.ndarray
    level: int

    def __post_init__(self) -> None:
        sets = tuple(tuple(int(i) for i in s) for s in self.index_sets)
        if sum(len(s) for s in sets) != self.level:
            raise ValueError("index-set sizes must sum to the level")
        m = np.array(self.matrix, dtype=complex)
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("choice operator must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "index_sets", sets)
        object.__setattr__(self, "matrix", m)

    @property
    def n_alpha(self) -> tuple:
        return tuple(len(s) for s in self.index_sets)


@dataclass(frozen=True)
class BoundCertificate:
    level: int
    bound_kind: str
    value: float
    achieving_state: DensityMatrix
    achieving_choice: ChoiceOperator
    diagnostics: SolverDiagnostics


# ---------------------------------------------------------------------------
# projector stack, enumeration and partial sums

def _check_observables(observables, constraint=None) -> tuple[int, int]:
    observables = list(observables)
    if not observables:
        raise ValueError("need at least one observable")
    dim = observables[0].dim
    for obs in observables:
        if obs.dim != dim:
            raise ValueError("observables must share one dimension")
    if constraint is not None and constraint.r is not None and dim != 2:
        raise WrongDimension("fixed_bloch_norm is defined for dimension 2 only")
    return dim, sum(obs.outcome_count for obs in observables)


def _check_level(n: int, total_outcomes: int) -> None:
    if not 1 <= n <= total_outcomes - 1:
        raise LevelOutOfRange(f"level {n} outside 1..{total_outcomes - 1}")


def _projector_stack(observables) -> np.ndarray:
    """The L outcome projectors of all observables, shape (L, d, d)."""
    return np.concatenate([np.stack(obs.projectors) for obs in observables])


def _born(states: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Born probabilities tr(Pi_k rho) of a (B, d, d) batch, shape (B, L): one
    matmul of the flattened projectors and the transposed states, the
    contraction ``einsum("sij,pji->sp", optimize=True)`` makes, bit for bit."""
    batch, dim = states.shape[0], states.shape[-1]
    return (proj.reshape(len(proj), -1) @ states.transpose(2, 1, 0).reshape(dim * dim, batch)).T.real


def _top_n_sum(probs: np.ndarray, n: int) -> np.ndarray:
    """Level-n objective: the sum of the n largest entries of the last axis."""
    return np.partition(probs, -n, axis=-1)[..., -n:].sum(axis=-1)


def check_choice_budget(observables, levels=None) -> None:
    """Raise ``EnumerationTooLarge`` if a level (default: any) has more than
    ``CHOICE_OPERATOR_LIMIT`` subset operators.  Level n has C(L, n)
    operators, so this needs no enumeration and can run before any solve."""
    total = _check_observables(observables)[1]
    level = max(levels or range(1, total), key=lambda n: math.comb(total, n), default=None)
    if level is not None and math.comb(total, level) > CHOICE_OPERATOR_LIMIT:
        raise EnumerationTooLarge(
            f"L={total} outcomes: level {level} has {math.comb(total, level)} subset "
            f"operators, over the limit of {CHOICE_OPERATOR_LIMIT} per level")


def _subset_chunks(total: int, n: int):
    """The n-subsets of range(total) in ``itertools.combinations`` order, as
    (rows, n) arrays of ascending indices, at most ``_CHUNK`` rows each."""
    subsets = itertools.chain.from_iterable(itertools.combinations(range(total), n))
    while (rows := np.fromiter(itertools.islice(subsets, _CHUNK * n), dtype=np.intp)).size:
        yield rows.reshape(-1, n)


def _subset_sums(proj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's subset operator, one gather-and-add per position: the
    sum in the row's order, as ``proj[row].sum(axis=0)`` adds it."""
    ops = proj[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        ops += proj[rows[:, j]]
    return ops


def _index_sets(observables, flat) -> tuple:
    """Ascending flat indices into ``_projector_stack``, split into each
    observable's own outcome indices."""
    edges = list(itertools.accumulate((obs.outcome_count for obs in observables), initial=0))
    return tuple([k - lo for k in flat if lo <= k < hi] for lo, hi in zip(edges, edges[1:]))


def enumerate_choices(observables, n: int) -> list[ChoiceOperator]:
    """All level-n subset operators across the observables."""
    observables = list(observables)
    _check_level(n, _check_observables(observables)[1])
    check_choice_budget(observables, [n])
    proj = _projector_stack(observables)
    return [ChoiceOperator(_index_sets(observables, row), op, n)
            for rows in _subset_chunks(len(proj), n)
            for row, op in zip(rows.tolist(), _subset_sums(proj, rows))]


def _choice_at(observables, proj: np.ndarray, state: np.ndarray, n: int) -> ChoiceOperator:
    """The subset operator of the n largest Born probabilities of a state."""
    top = np.sort(np.argpartition(_born(state[None], proj)[0], -n)[-n:])
    return ChoiceOperator(_index_sets(observables, top.tolist()), proj[top].sum(axis=0), n)


def top_n_sum(p: mj.ProbVector, n: int) -> float:
    """Sum of the n largest entries."""
    if not 1 <= n <= len(p):
        raise LevelOutOfRange(f"level {n} outside 1..{len(p)}")
    return float(p.entries[:n].sum())


# ---------------------------------------------------------------------------
# pure-state helpers

def _at_radius(x, x0, constraint: StateConstraint):
    """x0 + r (x - x0) at a fixed Bloch norm r, else x unchanged.

    x is a pure-state level value or state and x0 that of I/2: the
    top-n sum H_n of h_k = tr(Pi_k) / 2, or I/2 itself.
    """
    return x if constraint.r is None else x0 + constraint.r * (x - x0)


def _pool_minima(minima, argmin, prefix, offset: int) -> np.ndarray:
    """Fold (levels, candidates) prefix sums into running per-level ``minima`` and
    ``argmin`` (candidate j + offset; the earlier wins a tie); returns the levels improved."""
    idx = prefix.argmin(axis=1)
    vals = prefix[np.arange(len(minima)), idx]
    better = vals < minima
    minima[better] = vals[better]
    argmin[better] = idx[better] + offset
    return better


# ---------------------------------------------------------------------------
# level minimization

def _capped_simplex_lp(count: int, n: int):
    """A fresh HiGHS model, no cuts yet: minimize -z over columns w_k in
    [0, 1] (k < count) and z free, row 0 sum_k w_k = n.  Returns it and the
    status of an optimal solve."""
    # scipy's private binding of the HiGHS LP solver; a model kept across solves
    # warm-starts.  Imported here, at a level's first cut: it loads scipy.optimize.
    from scipy.optimize._highspy import _core as _highs

    lp = _highs._Highs()
    # the options scipy's HiGHS LP method sets: presolve on, dual simplex, quiet
    for option, value in (("presolve", "on"), ("simplex_strategy", 1), ("output_flag", False),
                          ("log_to_console", False), ("highs_debug_level", 0)):
        lp.setOptionValue(option, value)
    lp.addVars(count + 1, np.r_[np.zeros(count), -np.inf], np.r_[np.ones(count), np.inf])
    lp.changeColCost(count, -1.0)
    lp.addRow(float(n), float(n), count, np.arange(count, dtype=np.int32), np.ones(count))
    return lp, _highs.HighsModelStatus.kOptimal


def _kelley_dual_bound(proj: np.ndarray, n: int, target: float,
                       max_lps: int) -> tuple[float, np.ndarray | None, int]:
    """Maximize lambda_min(sum_k w_k Pi_k) over the capped simplex.

    The weights range over {0 <= w_k <= 1, sum_k w_k = n}, one per
    outcome projector.  Since the top-n sum of Born probabilities is the
    largest sum_k w_k p_k over that set, minimax duality makes the
    maximum equal to the level-n minimum over all states.  Kelley
    cutting planes start from the uniform weights n/L (always evaluated);
    each iterate adds the cut v_j^dag (sum_k w_k Pi_k) v_j through its
    bottom eigenvector v_j, and a small LP over the L weights proposes
    the next.  The LP is one HiGHS model per call: columns w and the
    value z, row 0 the sum of w, one row per cut; each cut is one added
    row, and the dual simplex re-solves from the previous basis.  Stops
    once the value reaches ``target`` (the primal value less the gap
    tolerance), the LP bound is within ``_LP_TOL``, or after ``max_lps``
    LPs.  The LP's cut multipliers mu_j sum to 1, and by LP duality
    rho = sum_j mu_j v_j v_j^dag has top-n sum equal to the LP bound.
    Returns the best certified value (a valid lower bound at every
    step), rho from the last solved LP or None, and the LP count.
    """
    count = proj.shape[0]
    # real and imaginary parts interleaved: v^dag Pi_k v is one real mat-vec
    flat = proj.reshape(count, -1).view(float)
    w = np.full(count, n / count)
    kets: list[np.ndarray] = []
    best, state, lps = -np.inf, None, 0
    cols, cut = np.arange(count + 1, dtype=np.int32), np.ones(count + 1)
    while True:
        lam, vecs = np.linalg.eigh(np.einsum("k,kij->ij", w, proj))
        best = max(best, float(lam[0]))
        if best >= target or lps == max_lps:
            break
        if lps == 0:  # built at the first cut: levels closed by n/L need no model
            lp, optimal = _capped_simplex_lp(count, n)
        vec = vecs[:, 0]
        grad = flat @ np.outer(vec, vec.conj()).ravel().view(float)
        kets.append(vec)
        # z - grad . w <= lambda_min - grad . w_j
        cut[:count] = -grad
        lp.addRow(-np.inf, float(lam[0] - grad @ w), count + 1, cols, cut)
        lp.run()
        lps += 1
        if lp.getModelStatus() != optimal:
            break
        solution = lp.getSolution()
        x = np.array(solution.col_value)
        # multipliers are nonnegative and sum to 1 up to the LP's tolerance;
        # renormalizing keeps rho a density matrix
        mu = np.maximum(-np.array(solution.row_dual)[1:], 0.0)
        basis = np.stack(kets, axis=1)
        state = (basis * (mu / mu.sum())) @ basis.conj().T
        # LP round-off may leave the capped simplex; shrinking back into it
        # keeps lambda_min a lower bound on every state's top-n sum
        w = np.clip(x[:count], 0.0, 1.0)
        w *= min(1.0, n / w.sum())
        if float(x[count]) - best <= _LP_TOL:
            break
    return best, state, lps


def _min_level_all_states(proj: np.ndarray, n: int, cfg: SolverConfig):
    """Level minimum over all density matrices, primal and certified dual.

    Candidates: the maximally mixed state (start index 0) and the Kelley
    LP-multiplier state (1); the smaller top-n sum wins.  Kelley's target
    is the mixed state's value less the gap tolerance.  Returns primal
    value, certified lower bound, state and diagnostics.
    """
    dim = proj.shape[-1]
    states = [np.eye(dim, dtype=complex) / dim]
    values = list(_top_n_sum(_born(states[0][None], proj), n))
    f_lb, lp_state, lps = _kelley_dual_bound(proj, n, values[0] - _GAP_TOL, cfg.max_iter)
    if lp_state is not None:
        states.append(lp_state)
        values.append(_top_n_sum(_born(lp_state[None], proj), n)[0])
    i = int(np.argmin(values))
    value = float(values[i])
    return value, f_lb, states[i], SolverDiagnostics(lps, i, 0.0, float(value - f_lb))


def _pure_qubit_levels(proj: np.ndarray, levels, constraint: StateConstraint):
    """Exact level minima of the top-n sum over pure qubit states, mapped to
    a fixed Bloch norm by ``_at_radius``.

    At Bloch vector x the level-n value is the largest base_S + g_S . x
    over n-sets S, g_S the sum of W_k over S.  Where the ties at a
    minimiser hold the value is affine, so the minimiser is a cell point
    -g_S / |g_S|, a circle point (the least g_S . y on a tie circle) or a
    crossing of two tie circles; all lie on the sphere and serve every
    level.  Outcomes j, k tie on the plane (W_j - W_k) . x = base_k -
    base_j, kept once (rank-1 outcomes tie in pairs, x+ = y+ where x- =
    y-) if it cuts a circle of radius over 1e-7; a smaller one moves no
    top-n sum by more than rounding.  Sets change only across the arcs
    between crossings: an arc midpoint nudged 1e-7 to either side names
    the sets S+ and S- beside it, and where their g differ the arc offers
    both cell points and S+'s circle point; the cells of (0, 0, 1) cover
    levels whose set never changes.  A g with no part along the sphere
    (the circle) leaves the value constant there, and the nudged point
    (the midpoint) stands in.  The winner's kind is 0 cell, 1 circle or 2
    crossing; crossings come first and the earlier candidate wins a tie.
    """
    base = 0.5 * np.real(np.trace(proj, axis1=-2, axis2=-1))
    wvecs = 0.5 * np.einsum("kij,mji->km", proj, np.stack(PAULIS), optimize=True).real
    j, k = np.triu_indices(len(base), 1)
    normal, offset = wvecs[j] - wvecs[k], base[k] - base[j]
    size = np.linalg.norm(normal, axis=1)
    keep = (size > 1e-12) & (offset * offset < (1.0 - 1e-14) * size * size)
    normal, offset = normal[keep] / size[keep, None], offset[keep] / size[keep]
    # the first clear entry of a normal sets its sign, so coincident planes round alike
    sign = np.sign(normal[np.arange(len(offset)), np.argmax(np.abs(normal) > 1e-9, axis=1)])
    _, keep = np.unique(np.round(sign[:, None] * np.column_stack([normal, offset]), 12),
                        axis=0, return_index=True)
    normal, offset = normal[np.sort(keep)], offset[np.sort(keep)]
    # two planes meet on the line alpha u_a + beta u_b + s (u_a x u_b); parallel ones never
    a, b = np.triu_indices(len(offset), 1)
    line = np.cross(normal[a], normal[b])
    sin2 = np.einsum("ij,ij->i", line, line)
    cos = np.einsum("ij,ij->i", normal[a], normal[b])
    alpha = (offset[a] - cos * offset[b]) / np.maximum(sin2, 1e-300)
    beta = (offset[b] - cos * offset[a]) / np.maximum(sin2, 1e-300)
    room = 1.0 - alpha * offset[a] - beta * offset[b]
    hit = (sin2 > 1e-20) & (room >= 0.0)
    a, b = a[hit], b[hit]
    foot = alpha[hit, None] * normal[a] + beta[hit, None] * normal[b]
    step = np.sqrt(room[hit] / sin2[hit])[:, None] * line[hit]
    crossings = np.concatenate([foot + step, foot - step])
    # the crossings' angles in a frame of each circle, plus a cut at 0 on every circle
    e1 = np.cross(normal, np.eye(3)[np.abs(normal).argmin(axis=1)])
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2, centre = np.cross(normal, e1), offset[:, None] * normal
    circle = np.concatenate([a, b, a, b])
    rel = np.concatenate([crossings, crossings]) - centre[circle]
    angle = np.concatenate([np.arctan2(np.einsum("ij,ij->i", rel, e2[circle]),
                                       np.einsum("ij,ij->i", rel, e1[circle])), 0.0 * offset])
    circle = np.concatenate([circle, np.arange(len(offset))])
    order = np.lexsort((angle, circle))
    circle, angle = circle[order], angle[order]
    # each cut's arc runs to the next cut on its circle, the last back to the first
    last = np.arange(len(circle)) == np.searchsorted(circle, circle, side="right") - 1
    end = np.where(last, angle[np.searchsorted(circle, circle)] + 2.0 * np.pi, np.roll(angle, -1))
    arc = end - angle > 1e-12
    circle, mid = circle[arc], 0.5 * (angle[arc] + end[arc])
    radius = np.sqrt(1.0 - offset[circle] ** 2)[:, None]
    mid = centre[circle] + radius * (np.cos(mid)[:, None] * e1[circle]
                                     + np.sin(mid)[:, None] * e2[circle])
    top = len(base) - 1  # levels 1..L-1
    best, where, kind, count = np.full(top, np.inf), np.zeros((top, 3)), np.zeros(top, int), 0

    def offer(points, k):
        nonlocal count
        for lo in range(0, len(points), _CHUNK):
            chunk = points[lo:lo + _CHUNK]
            prefix = np.cumsum(np.sort(base + chunk @ wvecs.T, axis=1)[:, ::-1], axis=1)[:, :-1]
            i = prefix.argmin(axis=0)
            value = prefix[i, np.arange(top)]
            better = value < best
            best[better], where[better], kind[better] = value[better], chunk[i[better]], k
            count += len(chunk)

    def top_sums(points):  # g of each point's top-n set, shape (points, levels, 3)
        return np.cumsum(wvecs[np.argsort(-(base + points @ wvecs.T), axis=1)], axis=1)[:, :-1]

    def toward(g, fallback):  # -g / |g|, or the fallback where g vanishes
        size = np.linalg.norm(g, axis=-1, keepdims=True)
        return np.where(size > 1e-12, -g / np.maximum(size, 1e-300), fallback)

    fixed = np.array([[0.0, 0.0, 1.0]])
    offer(crossings, 2)
    offer(toward(top_sums(fixed)[0], fixed), 0)
    for lo in range(0, len(mid), _CHUNK):
        circ, m = circle[lo:lo + _CHUNK], mid[lo:lo + _CHUNK]
        side = normal[circ] - offset[circ, None] * m
        side *= 1e-7 / np.linalg.norm(side, axis=1)[:, None]
        nudged = np.concatenate([m + side, m - side])
        nudged /= np.linalg.norm(nudged, axis=1)[:, None]
        g = top_sums(nudged)
        plus, minus = g[:len(m)], g[len(m):]
        arc, n = np.nonzero(np.abs(plus - minus).max(axis=2) > 1e-12)
        offer(toward(np.concatenate([plus[arc, n], minus[arc, n]]),
                     np.concatenate([nudged[arc], nudged[arc + len(m)]])), 0)
        # S+'s circle point: the in-plane part of g, from the circle's centre c u
        u, c = normal[circ[arc]], offset[circ[arc], None]
        radius = np.sqrt(1.0 - c * c)
        g = plus[arc, n] - np.einsum("ij,ij->i", plus[arc, n], u)[:, None] * u
        offer(c * u + radius * toward(g, (m[arc] - c * u) / radius), 1)
    mixed = np.cumsum(np.sort(base)[::-1])
    for n in levels:
        value = float(_at_radius(best[n - 1], mixed[n - 1], constraint))
        state = _at_radius(bloch_to_density(where[n - 1]).matrix, 0.5 * np.eye(2), constraint)
        yield value, value, state, SolverDiagnostics(count, int(kind[n - 1]), 0.0)


# 50 steps of 0.3 / sqrt(k + 1) explore, 200 shrinking by 0.85 settle each start
_SCAN_STEPS = np.r_[0.3 / np.sqrt(np.arange(1, 51)), 0.3 / np.sqrt(50) * 0.85 ** np.arange(1, 201)]
# the settling stage: each level's best ket and _SETTLE_COPIES copies of it
# perturbed by _SETTLE_SCALE times a Gaussian, through 300 steps shrinking by 0.98
_SETTLE_STEPS = 0.05 * 0.98 ** np.arange(300)
_SETTLE_COPIES = 3
_SETTLE_SCALE = 0.02


def _ket_scan(proj: np.ndarray, kets: np.ndarray, levels: np.ndarray, steps: np.ndarray):
    """Projected-subgradient scan of unit kets, ``_CHUNK`` rows at a time.

    Row i descends the top-``levels[i]`` sum with the given step sizes: it
    steps against 2 C_S psi (S its top-n set) less its psi part,
    normalised, and is renormalised.  With W_k the orthonormal rows of
    Pi_k (Pi_k = W_k^dag W_k), the Born probability of a ket g is
    |W_k g|^2 / |g|^2, and C_S g is the sum over S of W_k^dag W_k g: in
    real form, one GEMM each way per step.  Every iterate's prefix sums
    pool into one minimum per level.  Returns the minima of levels 1..L,
    their kets and rows, and the count of kets evaluated.
    """
    blocks = []
    for p in proj:
        w, v = np.linalg.eigh(p)
        rows = v[:, w > 0.5].conj().T
        blocks.append(np.block([[rows.real, -rows.imag], [rows.imag, rows.real]]))
    # real form of the stacked W_k: its rows give [Re W_k g; Im W_k g] per
    # projector, and its transpose is the real form of the stacked W_k^dag;
    # ``owner`` sums each projector's squared rows
    factors = np.concatenate(blocks)
    owner = np.repeat(np.eye(len(blocks)), [len(b) for b in blocks], axis=1)
    count, dim = kets.shape
    total = len(proj)
    minima, row = np.full(total, np.inf), np.zeros(total, dtype=int)
    best = np.zeros((total, 2 * dim))
    for lo in range(0, count, _CHUNK):
        chunk = kets[lo:lo + _CHUNK]
        parts = np.concatenate([chunk.real, chunk.imag], axis=1)
        # in each row's ascending order, the positions of its top-n set
        last = (total - levels[lo:lo + _CHUNK])[:, None] <= np.arange(total)
        top = np.empty(last.shape)
        for size in steps:
            amps = parts @ factors.T
            probs = np.square(amps) @ owner.T
            probs /= np.square(parts).sum(axis=1)[:, None]
            np.clip(probs, 0.0, 1.0, out=probs)
            order = probs.argsort(axis=1)
            prefix = np.cumsum(np.take_along_axis(probs, order[:, ::-1], axis=1), axis=1).T
            better = _pool_minima(minima, row, prefix, lo)
            best[better] = parts[row[better] - lo]
            np.put_along_axis(top, order, last, axis=1)
            grad = (amps * (top @ owner)) @ factors
            grad -= np.einsum("bi,bi->b", grad, parts)[:, None] * parts
            # a zero tangent part (a smooth stationary point) leaves the ket in place
            parts -= size / np.maximum(np.linalg.norm(grad, axis=1), 1e-300)[:, None] * grad
            parts /= np.linalg.norm(parts, axis=1)[:, None]
    return minima, best[:, :dim] + 1j * best[:, dim:], row, count * len(steps)


def _pure_ket_levels(proj, levels, cfg: SolverConfig, entropy: tuple):
    """Pure levels in d >= 3: ``cfg.multistarts`` random scan starts per
    level, then a settling scan from each level's best ket and perturbed
    copies of it, every draw from ``entropy``; both stages pool into the
    same minima, and a tie keeps the first stage's ket."""
    # child 1 keeps each seed's starts as earlier versions drew them
    rng = np.random.default_rng(np.random.SeedSequence(entropy).spawn(2)[1])
    dim, starts, levels = proj.shape[-1], cfg.multistarts, np.asarray(levels)
    kets = rng.standard_normal((len(levels), starts, 2 * dim)).view(complex)
    kets /= np.linalg.norm(kets, axis=2)[:, :, None]
    minima, best, row, evaluations = _ket_scan(
        proj, kets.reshape(-1, dim), levels.repeat(starts), _SCAN_STEPS)
    row %= starts
    copies = 1 + _SETTLE_COPIES  # the best ket itself, then its perturbed copies
    kets = best[levels - 1, None].repeat(copies, axis=1)
    kets[:, 1:] += _SETTLE_SCALE * rng.standard_normal((len(levels), copies - 1, 2 * dim)).view(complex)
    kets /= np.linalg.norm(kets, axis=2)[:, :, None]
    settled, settled_best, settled_row, more = _ket_scan(
        proj, kets.reshape(-1, dim), levels.repeat(copies), _SETTLE_STEPS)
    better = settled < minima
    minima[better], best[better], row[better] = (
        settled[better], settled_best[better], starts + settled_row[better] % copies)
    for n in levels:
        value, ket = float(minima[n - 1]), best[n - 1]
        diag = SolverDiagnostics(evaluations + more, int(row[n - 1]), 0.0)
        yield value, value, np.outer(ket, ket.conj()), diag


def _min_levels(observables, levels, constraint: StateConstraint, cfg: SolverConfig,
                entropy: tuple) -> list[tuple[BoundCertificate, float]]:
    """Certificate and assembly value per level: over all states the certified
    dual bound, which never exceeds the true minimum, else the minimum found.
    Only pure states in d >= 3 draw from ``entropy``."""
    proj = _projector_stack(observables)
    if constraint.kind == "all_states":
        solved = (_min_level_all_states(proj, n, cfg) for n in levels)
    elif proj.shape[-1] == 2:
        solved = _pure_qubit_levels(proj, levels, constraint)
    else:
        solved = _pure_ket_levels(proj, levels, cfg, entropy)
    return [
        (BoundCertificate(n, "min", float(value), DensityMatrix(state),
                          _choice_at(observables, proj, state, n), diag), float(assembly))
        for n, (value, assembly, state, diag) in zip(levels, solved)
    ]


def min_topn_over_states(observables, n: int,
                         constraint: StateConstraint = StateConstraint.all_states(),
                         cfg: SolverConfig = SolverConfig()) -> BoundCertificate:
    """Minimum over admissible states of the top-n sum of the direct-sum PDV."""
    observables = list(observables)
    _, total_outcomes = _check_observables(observables, constraint)
    _check_level(n, total_outcomes)
    [(cert, _)] = _min_levels(observables, [n], constraint, cfg, (cfg.seed, n))
    return cert


def _max_certificates(observables, levels, constraint: StateConstraint) -> list[BoundCertificate]:
    """Max certificates of the given levels from one streamed ``eigvalsh``
    sweep per level n = min(level, L - level).  It keeps the C_S with the
    largest lambda_max and the C_S with the smallest lambda_min (the
    earlier on a tie; values go through ``_at_radius`` with h half the
    trace).  The complement of S is a level-(L - n) choice with operator
    M I - C_S, so the second winner's complement wins level L - n.  Only
    winners are rebuilt, as sums of their projectors, for the certificate.
    """
    check_choice_budget(observables, levels)
    proj = _projector_stack(observables)
    total = len(proj)
    certs = {}
    for n in sorted({min(n, total - n) for n in levels}):
        top, bottom = (-np.inf, None), (np.inf, None)
        for rows in _subset_chunks(total, n):
            ops = _subset_sums(proj, rows)
            w = np.linalg.eigvalsh(ops)
            hi, lo = w[:, -1], w[:, 0]
            if constraint.r is not None:
                half = 0.5 * np.real(np.trace(ops, axis1=-2, axis2=-1))
                hi, lo = _at_radius(hi, half, constraint), _at_radius(lo, half, constraint)
            i, j = int(hi.argmax()), int(lo.argmin())
            if hi[i] > top[0]:
                top = (hi[i], rows[i])
            if lo[j] < bottom[0]:
                bottom = (lo[j], rows[j])
        # at n = L/2 both ends are one level, and its own maximum wins
        ends = [(n, top[1])]
        if 2 * n < total:
            ends.append((total - n, np.setdiff1d(np.arange(total), bottom[1])))
        for level, flat in ends:
            cmat = proj[flat].sum(axis=0)
            w, v = np.linalg.eigh(cmat)
            value = _at_radius(w[-1], 0.5 * np.real(np.trace(cmat)), constraint)
            state = DensityMatrix(_at_radius(np.outer(v[:, -1], v[:, -1].conj()),
                                             0.5 * np.eye(2), constraint))
            diag = SolverDiagnostics(iterations=0, multistart_index=0, residual=0.0)
            choice = ChoiceOperator(_index_sets(observables, flat.tolist()), cmat, level)
            certs[level] = BoundCertificate(level, "max", float(value), state, choice, diag)
    return [certs[n] for n in levels]


def max_topn_over_states(observables, n: int,
                         constraint: StateConstraint = StateConstraint.all_states()) -> BoundCertificate:
    """Maximum top-n sum: the largest eigenvalue over the level-n choices."""
    observables = list(observables)
    _check_level(n, _check_observables(observables, constraint)[1])
    return _max_certificates(observables, [n], constraint)[0]


# ---------------------------------------------------------------------------
# envelope assembly

def infimum_t(observables,
              constraint: StateConstraint = StateConstraint.all_states(),
              cfg: SolverConfig = SolverConfig()) -> tuple[mj.ProbVector, list[BoundCertificate]]:
    """Greatest lower bound of the direct-sum PDV over admissible states.

    Entries are differences of consecutive level minima (levels 0 and L
    are pinned to 0 and M); the resulting prefix curve is concave up to
    solver noise, which a pool-adjacent-violators pass removes.
    """
    observables = list(observables)
    _, total_outcomes = _check_observables(observables, constraint)
    n_obs = len(observables)
    solved = _min_levels(
        observables, range(1, total_outcomes), constraint, cfg, (cfg.seed, 0x1F)
    )
    certificates = [cert for cert, _ in solved]
    minima = [0.0] + [assembly for _, assembly in solved]
    minima.append(float(n_obs))
    return _envelope(np.maximum.accumulate(minima), 1e-6, n_obs), certificates


def supremum_s(observables,
               constraint: StateConstraint = StateConstraint.all_states()) -> tuple[mj.ProbVector, list[BoundCertificate]]:
    """Least upper bound of the direct-sum PDV over admissible states.

    Per-level maxima are exact largest eigenvalues; their sequence need
    not be concave, so the least concave majorant flattens it before
    differencing.
    """
    observables = list(observables)
    _, total_outcomes = _check_observables(observables, constraint)
    n_obs = len(observables)
    certificates = _max_certificates(observables, range(1, total_outcomes), constraint)
    maxima = [0.0] + [cert.value for cert in certificates]
    maxima.append(float(n_obs))
    return _envelope(mj.least_concave_majorant(np.array(maxima)), 1e-9, n_obs), certificates


def _envelope(curve: np.ndarray, tol: float, n_obs: int) -> mj.ProbVector:
    """The envelope of a level curve from 0 to ``n_obs``: its differences
    made nonincreasing up to ``tol`` by pool-adjacent-violators, clipped at
    0, with the rounding left over added to the first entry."""
    entries = mj._isotonic_nonincreasing(np.diff(curve), tol=tol)
    np.clip(entries, 0.0, None, out=entries)
    entries[0] += n_obs - entries.sum()
    return mj.ProbVector(entries, float(n_obs))


def two_basis_trivial_bound(dim: int) -> mj.ProbVector:
    """Uniform lower envelope (1/N, ..., 1/N) for any two orthonormal bases."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return mj.ProbVector(np.full(2 * dim, 1.0 / dim), 2.0)


# ---------------------------------------------------------------------------
# closed-form qubit envelopes (analytic oracles for the solver)

def planar_triple_observables(phi: float) -> list[ProjectiveObservable]:
    """Qubit triple: axis tilted by phi from x toward y, plus sigma_y, sigma_z."""
    tilted = observable_from_bloch_axis(
        (math.cos(phi), math.sin(phi), 0.0), f"tilted_{phi:.6g}"
    )
    return [tilted, pauli_observable("y"), pauli_observable("z")]


def qubit_planar_triple_t(phi: float, r_norm: float) -> mj.ProbVector:
    """Closed-form infimum for the tilted planar triple at Bloch radius r.

    The first level is minimized by the balanced direction with
    cos(theta) = 1 / sqrt(1 + 1/sin(pi/4 - phi/2)^2); the middle levels by
    the x axis, contributing cos(phi) cross terms.
    """
    if not 0.0 <= r_norm <= 1.0:
        raise ValueError("Bloch radius must lie in [0, 1]")
    azimuth = 0.25 * math.pi - 0.5 * phi
    s = math.sin(azimuth)
    cos_theta = s / math.sqrt(1.0 + s * s)
    c1 = r_norm * cos_theta
    c2 = r_norm * math.cos(phi)
    entries = [
        0.5 + 0.5 * c1,
        0.5 + 0.5 * (c2 - c1),
        0.5,
        0.5,
        0.5 - 0.5 * (c2 - c1),
        0.5 - 0.5 * c1,
    ]
    return mj.from_unsorted(entries, 3.0)


def qubit_mub_t(r_norm: float) -> mj.ProbVector:
    """Closed-form infimum for the three qubit MUBs at Bloch radius r."""
    if not 0.0 <= r_norm <= 1.0:
        raise ValueError("Bloch radius must lie in [0, 1]")
    a = r_norm / (2.0 * math.sqrt(3.0))
    b = r_norm / 2.0
    entries = [0.5 + a, 0.5 + b - a, 0.5, 0.5, 0.5 - b + a, 0.5 - a]
    return mj.from_unsorted(entries, 3.0)
