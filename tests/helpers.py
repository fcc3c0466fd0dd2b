"""Shared test utilities: independent oracles and random generators.

Everything here is deliberately written the slow, obvious way so the
library implementations are checked against a different code path.
"""

import importlib.util
import itertools
import math
import os

import numpy as np
from scipy import optimize

from uqcr import (
    CertaintyReport,
    ProbVector,
    ProjectiveObservable,
    from_unsorted,
    is_mub_pair,
    join,
    observable_from_basis,
    standard_mub_set,
    state_direct_sum_pdv,
)
from uqcr import bounds as bd
from uqcr import majorization as mj
from uqcr.quantum import DimensionMismatch


def prefix_majorized(a, b, tol=1e-10):
    """Loop-based prefix-sum check that a is majorized by b."""
    ea = list(a.entries) if isinstance(a, ProbVector) else list(a)
    eb = list(b.entries) if isinstance(b, ProbVector) else list(b)
    n = max(len(ea), len(eb))
    ea += [0.0] * (n - len(ea))
    eb += [0.0] * (n - len(eb))
    ca = cb = 0.0
    for x, y in zip(ea, eb):
        ca += x
        cb += y
        if ca > cb + tol:
            return False
    return True


def brute_least_concave_majorant(y):
    """O(n^3) least concave majorant of points (k, y[k]).

    A line through a pair of points is feasible when it lies on or above
    every point; the majorant at k is the smallest feasible line value.
    """
    y = list(map(float, y))
    n = len(y)
    out = []
    for k in range(n):
        best = None
        for i in range(n):
            for j in range(i + 1, n):
                slope = (y[j] - y[i]) / (j - i)
                line = [y[i] + slope * (m - i) for m in range(n)]
                if all(line[m] >= y[m] - 1e-12 for m in range(n)):
                    val = y[i] + slope * (k - i)
                    if best is None or val < best:
                        best = val
        out.append(max(best, y[k]))
    return out


def random_probvector(rng, n, total=1.0):
    raw = rng.uniform(0.05, 1.0, size=n)
    return from_unsorted(raw / raw.sum() * total, total)


def random_orthonormal_basis(dim, rng, name="random"):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return observable_from_basis(q.T, name)


def sample_mixed_states(dim, count, rng):
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    mats = g @ np.conj(np.swapaxes(g, -1, -2))
    tr = np.real(np.trace(mats, axis1=-2, axis2=-1))
    return mats / tr[:, None, None]


def sample_pure_states(dim, count, rng):
    kets = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    return kets[:, :, None] * kets[:, None, :].conj()


def sorted_prefix_matrix(observables, states):
    """Rows: cumulative sums of the sorted direct-sum PDV per state."""
    proj = np.concatenate([np.stack(obs.projectors) for obs in observables])
    probs = np.einsum("sij,pji->sp", states, proj).real
    np.clip(probs, 0.0, 1.0, out=probs)
    probs.sort(axis=1)
    probs = probs[:, ::-1]
    return np.cumsum(probs, axis=1)


def coarse_grained_basis(dim, ranks, rng, name="coarse"):
    """Random basis with consecutive kets merged into projectors of the given ranks."""
    kets = random_orthonormal_basis(dim, rng).basis_vectors()
    projectors, start = [], 0
    for rank in ranks:
        block = kets[start:start + rank]
        projectors.append(block.T @ block.conj())
        start += rank
    return ProjectiveObservable(tuple(projectors), name)


def kelley_choice_dual(cmats, max_cuts=80, tol=1e-12):
    """Largest lambda_min over convex mixtures of the C(L, n) choice operators.

    Reference for the L-weight dual: Kelley cutting planes with one
    mixture weight per choice operator, starting from the uniform one.
    """
    n = cmats.shape[0]
    q = np.full(n, 1.0 / n)
    grads, offsets = [], []
    best = -np.inf
    objective = np.zeros(n + 1)
    objective[n] = -1.0
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    for _ in range(max_cuts):
        w, v = np.linalg.eigh(np.einsum("c,cij->ij", q, cmats))
        best = max(best, float(w[0]))
        vec = v[:, 0]
        grad = np.einsum("cij,j,i->c", cmats, vec, vec.conj()).real
        grads.append(grad)
        offsets.append(float(w[0] - grad @ q))
        a_ub = np.zeros((len(grads), n + 1))
        a_ub[:, :n] = -np.stack(grads)
        a_ub[:, n] = 1.0
        res = optimize.linprog(
            objective, A_ub=a_ub, b_ub=np.array(offsets), A_eq=a_eq, b_eq=[1.0],
            bounds=[(0.0, None)] * n + [(None, None)], method="highs",
        )
        if not res.success:
            break
        q = np.maximum(res.x[:n], 0.0)
        q /= q.sum()
        if float(res.x[n]) - best <= tol:
            break
    return best


def reference_kelley_dual_bound(proj, n, target, max_lps, tol=1e-12):
    """Kelley cutting planes over the L capped-simplex weights, one
    ``linprog`` on the rebuilt cut matrix per cut: the reference for
    ``_kelley_dual_bound``, with its stopping rules, start and returns
    (best certified lambda_min, LP-multiplier state or None, LP count).
    """
    count = proj.shape[0]
    w = np.full(count, n / count)
    grads, offsets, kets = [], [], []
    best, state, lps = -np.inf, None, 0
    bounds = [(0.0, 1.0)] * count + [(None, None)]
    objective = np.zeros(count + 1)
    objective[count] = -1.0
    a_eq = np.zeros((1, count + 1))
    a_eq[0, :count] = 1.0
    while True:
        lam, vecs = np.linalg.eigh(np.einsum("k,kij->ij", w, proj))
        best = max(best, float(lam[0]))
        if best >= target or lps == max_lps:
            break
        vec = vecs[:, 0]
        grad = np.einsum("kij,j,i->k", proj, vec, vec.conj()).real
        grads.append(grad)
        offsets.append(float(lam[0] - grad @ w))
        kets.append(vec)
        a_ub = np.zeros((len(grads), count + 1))
        a_ub[:, :count] = -np.stack(grads)
        a_ub[:, count] = 1.0
        res = optimize.linprog(
            objective, A_ub=a_ub, b_ub=np.array(offsets), A_eq=a_eq, b_eq=[float(n)],
            bounds=bounds, method="highs",
        )
        lps += 1
        if not res.success:
            break
        mu = np.maximum(-res.ineqlin.marginals, 0.0)
        basis = np.stack(kets, axis=1)
        state = (basis * (mu / mu.sum())) @ basis.conj().T
        w = np.clip(res.x[:count], 0.0, 1.0)
        w *= min(1.0, n / w.sum())
        if float(res.x[count]) - best <= tol:
            break
    return best, state, lps


def fold_coherence_vector_mixed(rho, basis, samples, seed):
    """Pairwise-join fold over sampled decompositions, one Haar draw at a time.

    Reference for the batched mixed-state coherence vector: it draws the
    same unitaries from the same stream, builds each mixture vector on its
    own and folds ``join`` over them.
    """
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    rank = int(w.size)
    bmat = basis.basis_vectors().conj()
    ensemble = v * np.sqrt(w)[None, :]

    def mixture_vector(columns):
        weights = np.abs(bmat @ columns) ** 2  # (N outcomes, k members)
        weights[::-1].sort(axis=0)
        return from_unsorted(weights.sum(axis=1), 1.0)

    current = mixture_vector(ensemble)
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        q, r = np.linalg.qr(g)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        current = join(current, mixture_vector(ensemble @ u.conj().T))
    return current


def load_script(name):
    """The module of ``scripts/<name>``, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", name)
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binary_entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def sanchez_consistency_check(observables=None,
                              constraint: bd.StateConstraint | None = None,
                              cfg: bd.SolverConfig = bd.SolverConfig()):
    """Check the level-1 certificate of the qubit MUB triple against the
    known entropy cap 3 h(1/2 + 1/(2 sqrt 3)).

    Returns True/False for the qubit three-MUB pure-state configuration
    and None (skipped) for anything else.
    """
    if observables is None:
        observables = standard_mub_set(2)
    if constraint is None:
        constraint = bd.StateConstraint.pure_only()
    observables = list(observables)
    if constraint.kind != "pure_only":
        return None
    if len(observables) != 3 or any(obs.dim != 2 for obs in observables):
        return None
    for i in range(3):
        for j in range(i + 1, 3):
            if not is_mub_pair(observables[i], observables[j], tol=1e-9):
                return None
    cert = bd.min_topn_over_states(observables, 1, constraint, cfg)
    pdv = state_direct_sum_pdv(observables, cert.achieving_state)
    target = 3.0 * _binary_entropy_bits(0.5 + 0.5 / math.sqrt(3.0))
    return bool(abs(mj.shannon_entropy(pdv, "bits") - target) <= 1e-6)


def brute_level_maxima(observables, radius=None):
    """Per-level maxima over every n-subset of the L stacked projectors.

    Reference for the half sweep: ``itertools.combinations(range(L), n)``
    and ``eigvalsh`` on every subset operator, at every level 1..L-1.
    With a fixed Bloch radius r the value is h + r (lambda_max - h), h
    half the trace.
    """
    proj = np.concatenate([np.stack(obs.projectors) for obs in observables])
    total = proj.shape[0]
    maxima = []
    for n in range(1, total):
        ops = proj[np.array(list(itertools.combinations(range(total), n)))].sum(axis=1)
        values = np.linalg.eigvalsh(ops)[:, -1]
        if radius is not None:
            half = 0.5 * np.real(np.trace(ops, axis1=-2, axis2=-1))
            values = half + radius * (values - half)
        maxima.append(float(values.max()))
    return maxima


def assert_max_certificates(observables, constraint=bd.StateConstraint.all_states()):
    """Check supremum_s against brute-force level maxima and its certificates."""
    radius = constraint.r if constraint.kind == "fixed_bloch_norm" else None
    _, certs = bd.supremum_s(observables, constraint)
    expected = brute_level_maxima(observables, radius)
    assert [c.level for c in certs] == list(range(1, len(expected) + 1))
    assert np.max(np.abs(np.array([c.value for c in certs]) - expected)) <= 1e-12
    proj = np.concatenate([np.stack(obs.projectors) for obs in observables])
    offsets = np.cumsum([0] + [obs.outcome_count for obs in observables])
    for cert in certs:
        # the value is reproduced from the certificate's own index sets
        flat = [o + i for o, s in zip(offsets, cert.achieving_choice.index_sets) for i in s]
        assert len(flat) == cert.level
        op = proj[flat].sum(axis=0)
        value = np.linalg.eigvalsh(op)[-1]
        if radius is not None:
            half = 0.5 * np.real(np.trace(op))
            value = half + radius * (value - half)
        assert abs(cert.value - value) <= 1e-12
        assert np.max(np.abs(cert.achieving_choice.matrix - op)) <= 1e-12


def fibonacci_sphere(count):
    """``count`` unit vectors on a Fibonacci lattice of the sphere, shape (count, 3)."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    azimuth = math.pi * (3.0 - math.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)


def grid_pure_qubit_minima(observables, count=200_000, chunk=20_000):
    """Per-level minima of the top-n sum over the pure qubit states whose
    Bloch vectors form a Fibonacci lattice of ``count`` points.

    Reference for the pure qubit solve: every state is built as a density
    matrix and every level read from its sorted prefix sums.
    """
    paulis = np.stack([np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                       np.array([[1, 0], [0, -1]])]).astype(complex)
    vectors = fibonacci_sphere(count)
    minima = None
    for start in range(0, count, chunk):
        states = 0.5 * (np.eye(2) + np.einsum("sk,kij->sij", vectors[start:start + chunk], paulis))
        prefix = sorted_prefix_matrix(observables, states).min(axis=0)
        minima = prefix if minima is None else np.minimum(minima, prefix)
    return minima[:-1]


def brute_pure_qubit_minima(observables):
    """Per-level minima of the top-n sum over pure qubit states, from every
    candidate of every level at once.

    Reference for the exact pure qubit solve.  With Born probabilities
    base_k + W_k . x at Bloch vector x, outcomes j and k tie on the plane
    (W_j - W_k) . x = base_k - base_j.  The candidates are: the point
    (0, 0, 1); for every subset S of the outcomes, with g the sum of its
    W_k, the point -g / |g| and, on every tie circle (a tangent plane's
    circle is its point of contact), the point least in g (any point of
    the circle if g is normal to it); and both crossings of every two tie
    circles.  Every candidate is built as a density matrix and every level
    read from its sorted prefix sums.
    """
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    proj = [p for obs in observables for p in obs.projectors]
    base = np.array([0.5 * np.trace(p).real for p in proj])
    wvecs = np.array([[0.5 * np.trace(p @ s).real for s in paulis] for p in proj])
    planes = []
    for j, k in itertools.combinations(range(len(proj)), 2):
        normal = wvecs[j] - wvecs[k]
        size = np.linalg.norm(normal)
        if size > 1e-12 and abs(base[k] - base[j]) <= size:
            planes.append((normal / size, (base[k] - base[j]) / size))
    points = [np.array([0.0, 0.0, 1.0])]
    for (u, c), (v, e) in itertools.combinations(planes, 2):
        line = np.cross(u, v)
        if np.linalg.norm(line) < 1e-10:
            continue
        foot = np.linalg.lstsq(np.array([u, v]), np.array([c, e]), rcond=None)[0]
        if foot @ foot <= 1.0:
            step = math.sqrt(1.0 - foot @ foot) * line / np.linalg.norm(line)
            points += [foot + step, foot - step]
    normals = np.array([u for u, _ in planes]).reshape(-1, 3)
    offsets = np.array([c for _, c in planes])
    radii = np.sqrt(np.maximum(1.0 - offsets ** 2, 0.0))[:, None]
    # any unit vector in each plane, for circles along which g is constant
    spare = np.cross(normals, np.eye(3)[np.argmin(np.abs(normals), axis=1)])
    spare /= np.maximum(np.linalg.norm(spare, axis=1), 1e-300)[:, None]
    for n in range(1, len(proj)):
        for subset in itertools.combinations(range(len(proj)), n):
            g = wvecs[list(subset)].sum(axis=0)
            if np.linalg.norm(g) > 1e-12:
                points.append(-g / np.linalg.norm(g))
            flat = g - (normals @ g)[:, None] * normals
            size = np.linalg.norm(flat, axis=1)[:, None]
            toward = np.where(size > 1e-12, -flat / np.maximum(size, 1e-300), spare)
            points += list(offsets[:, None] * normals + radii * toward)
    vectors = np.array(points)
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    states = 0.5 * (np.eye(2) + np.einsum("sk,kij->sij", vectors, np.array(paulis, dtype=complex)))
    return sorted_prefix_matrix(observables, states).min(axis=0)[:-1]


def loop_born_probabilities(obs, rho):
    """Tr[P_i rho] one projector at a time, clamped into [0, 1]."""
    if obs.dim != rho.dim:
        raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    probs = np.array([float(np.real(np.trace(op @ rho.matrix))) for op in obs.projectors])
    return np.clip(probs, 0.0, 1.0)


def reference_certify_state(observables, rho, bounds_pair, unit="bits"):
    """Per-observable certainty report: the reference for ``certify_state``.

    One sorted, validated PDV per observable, then their direct sum, two
    loop-based padded order checks and one entropy per observable.
    """
    observables = list(observables)
    t, s = bounds_pair
    for obs in observables:
        if obs.dim != rho.dim:
            raise DimensionMismatch(f"observable dim {obs.dim} vs state dim {rho.dim}")
    pdvs = [from_unsorted(loop_born_probabilities(obs, rho), 1.0) for obs in observables]
    P = mj.direct_sum(pdvs)
    lower_ok, upper_ok = prefix_majorized(t, P), prefix_majorized(P, s)
    entropy_sum = float(sum(mj.shannon_entropy(p, unit) for p in pdvs))
    entropy_cap = mj.shannon_entropy(t, unit)
    try:
        tightened_cap = entropy_cap - mj.relative_entropy_term(P, t, unit)
    except mj.SupportMismatch:
        tightened_cap = None
    slack = {
        "cap_minus_sum": entropy_cap - entropy_sum,
        "tightened_minus_sum": None if tightened_cap is None else tightened_cap - entropy_sum,
    }
    return CertaintyReport(P, t, s, (lower_ok, upper_ok), entropy_sum, entropy_cap,
                           tightened_cap, slack, unit)
