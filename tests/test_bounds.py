import dataclasses
import itertools
import math
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from uqcr import (
    DensityMatrix,
    ProbVector,
    ProjectiveObservable,
    bloch_to_density,
    density_to_bloch,
    enumerate_choices,
    infimum_t,
    max_topn_over_states,
    min_topn_over_states,
    observable_from_bloch_axis,
    pauli_observable,
    qubit_mub_t,
    qubit_planar_triple_t,
    random_density,
    standard_mub_set,
    state_direct_sum_pdv,
    supremum_s,
    top_n_sum,
    two_basis_trivial_bound,
)
from uqcr.bounds import (
    LevelOutOfRange,
    SolverConfig,
    StateConstraint,
    _CHUNK,
    _born,
    _kelley_dual_bound,
    _max_certificates,
    _projector_stack,
    _subset_chunks,
    _top_n_sum,
    planar_triple_observables,
)
from uqcr import bounds as bounds_module
from uqcr.quantum import PAULIS

from helpers import (
    assert_max_certificates,
    brute_level_maxima,
    brute_pure_qubit_minima,
    coarse_grained_basis,
    grid_pure_qubit_minima,
    kelley_choice_dual,
    load_script,
    prefix_majorized,
    random_orthonormal_basis,
    reference_kelley_dual_bound,
    sample_mixed_states,
    sample_pure_states,
    sorted_prefix_matrix,
)

# closed-form constants, evaluated independently of the library
COS_THETA = math.sqrt((2 - math.sqrt(2)) / (6 - math.sqrt(2)))
M1_TILTED = 0.5 + 0.5 * COS_THETA          # 0.678703...
M2_TILTED = 1.0 + 0.5 * math.cos(math.pi / 4)  # 1.353553...
MUB_HI = 0.5 + 0.5 / math.sqrt(3)          # 0.788675...

XZ = [pauli_observable("x"), pauli_observable("z")]
FAST = SolverConfig(seed=5)
I2 = np.eye(2, dtype=complex)
# an identity and a zero projector (tr Pi / 2 = 1 and 0) between two axes
TRIVIAL_PROJECTORS = [
    observable_from_bloch_axis((1.0, 0.3, -0.2)),
    ProjectiveObservable((I2,)),
    ProjectiveObservable((I2, 0 * I2)),
    observable_from_bloch_axis((0.1, -1.0, 0.5)),
]


@pytest.fixture(scope="module")
def tilted_pure():
    obs = planar_triple_observables(math.pi / 4)
    t, certs = infimum_t(obs, StateConstraint.pure_only(), FAST)
    return obs, t, certs


@pytest.fixture(scope="module")
def mub_pure():
    obs = standard_mub_set(2)
    t, certs = infimum_t(obs, StateConstraint.pure_only(), FAST)
    return obs, t, certs


# ---------------------------------------------------------------------------
# enumeration

def test_choice_counts():
    assert len(enumerate_choices(XZ, 1)) == 4
    assert len(enumerate_choices(XZ, 2)) == 6
    three = planar_triple_observables(0.5)
    assert len(enumerate_choices(three, 3)) == 20
    with pytest.raises(LevelOutOfRange):
        enumerate_choices(XZ, 0)
    with pytest.raises(LevelOutOfRange):
        enumerate_choices(XZ, 4)


def test_choice_operator_invariants():
    for n in (1, 2, 3):
        for choice in enumerate_choices(XZ, n):
            w = np.linalg.eigvalsh(choice.matrix)
            assert w[0] >= -1e-10
            assert w[-1] <= 2 + 1e-10
            assert sum(choice.n_alpha) == n


@pytest.mark.parametrize("observables", [
    XZ,
    planar_triple_observables(0.5),
    standard_mub_set(3),
    [coarse_grained_basis(4, (2, 1, 1), np.random.default_rng(i)) for i in range(3)],
    [pauli_observable("z")],
], ids=["xz", "planar_triple", "qutrit_mubs", "coarse_d4x3", "single"])
def test_choice_order_matches_product(observables):
    # the n-subsets of the L stacked projectors in itertools.combinations
    # order, each split into per-observable index sets, each operator the
    # sum of its projectors bit for bit
    total = sum(obs.outcome_count for obs in observables)
    proj = _projector_stack(observables)
    offsets = np.cumsum([0] + [obs.outcome_count for obs in observables])
    for n in range(1, total):
        choices = enumerate_choices(observables, n)
        flats = [[o + i for o, s in zip(offsets, c.index_sets) for i in s] for c in choices]
        assert flats == [list(s) for s in itertools.combinations(range(total), n)]
        for c, flat in zip(choices, flats):
            assert c.matrix.tobytes() == proj[flat].sum(axis=0).tobytes()


def test_top_n_sum_basics():
    p = ProbVector(np.array([0.7, 0.6, 0.4, 0.3]), 2.0)
    assert top_n_sum(p, 2) == pytest.approx(1.3)
    uniform = ProbVector(np.full(6, 0.5), 3.0)
    for n in range(1, 7):
        assert top_n_sum(uniform, n) == pytest.approx(n * 0.5)
    with pytest.raises(LevelOutOfRange):
        top_n_sum(p, 5)


def test_top_n_equals_choice_maximum(rng):
    # sorted prefix sums coincide with the best subset-operator trace
    choices = {n: enumerate_choices(XZ, n) for n in (1, 2, 3)}
    for _ in range(200):
        rho = random_density(2, int(rng.integers(1, 3)), rng)
        pdv = state_direct_sum_pdv(XZ, rho)
        for n, level_choices in choices.items():
            traces = [
                float(np.real(np.trace(c.matrix @ rho.matrix)))
                for c in level_choices
            ]
            assert top_n_sum(pdv, n) == pytest.approx(max(traces), abs=1e-10)


# ---------------------------------------------------------------------------
# level minima

def test_min_level_two_paulis():
    cert = min_topn_over_states(XZ, 1, StateConstraint.all_states(), FAST)
    assert cert.value == pytest.approx(0.5, abs=1e-6)
    cert2 = min_topn_over_states(XZ, 2, StateConstraint.all_states(), FAST)
    assert cert2.value == pytest.approx(1.0, abs=1e-6)


def test_min_certificate_reproduces_value(tilted_pure):
    _, _, certs = tilted_pure
    for cert in certs:
        reproduced = float(
            np.real(np.trace(cert.achieving_choice.matrix @ cert.achieving_state.matrix))
        )
        assert abs(reproduced - cert.value) <= 1e-7


def test_min_levels_tilted_triple(tilted_pure):
    _, _, certs = tilted_pure
    m = {c.level: c.value for c in certs}
    assert m[1] == pytest.approx(M1_TILTED, abs=1e-6)
    assert m[2] == pytest.approx(M2_TILTED, abs=1e-6)


def test_min_level_fixed_norm_matches_pure():
    obs = planar_triple_observables(math.pi / 4)
    cert = min_topn_over_states(obs, 1, StateConstraint.fixed_bloch_norm(1.0), FAST)
    assert cert.value == pytest.approx(M1_TILTED, abs=1e-6)


# ---------------------------------------------------------------------------
# infimum assembly

def test_infimum_two_paulis_trivial():
    t, certs = infimum_t(XZ, StateConstraint.all_states(), FAST)
    assert np.allclose(t.entries, 0.5, atol=1e-6)
    values = [0.0] + [c.value for c in certs] + [2.0]
    assert np.all(np.diff(values) >= -1e-9)          # level consistency
    assert np.all(np.diff(values, 2) <= 1e-8)        # concavity


def test_infimum_tilted_triple_closed_form(tilted_pure):
    _, t, _ = tilted_pure
    closed = qubit_planar_triple_t(math.pi / 4, 1.0)
    assert np.allclose(t.entries, closed.entries, atol=1e-6)


def test_infimum_mub_closed_form(mub_pure):
    _, t, _ = mub_pure
    closed = qubit_mub_t(1.0)
    assert np.allclose(t.entries, closed.entries, atol=1e-6)
    expected = [MUB_HI, 1 - 1 / (2 * math.sqrt(3)), 0.5, 0.5,
                1 / (2 * math.sqrt(3)), 0.5 - 1 / (2 * math.sqrt(3))]
    assert np.allclose(closed.entries, expected, atol=1e-12)


def test_infimum_mub_mixed_is_trivial():
    t, _ = infimum_t(standard_mub_set(2), StateConstraint.all_states(), FAST)
    assert np.allclose(t.entries, 0.5, atol=1e-6)


def test_infimum_sandwiches_samples(mub_pure, rng):
    obs, t, _ = mub_pure
    states = sample_pure_states(2, 500, rng)
    prefix = sorted_prefix_matrix(obs, states)
    t_prefix = np.cumsum(t.entries)
    assert np.all(prefix >= t_prefix[None, :] - 1e-8)


def test_complement_symmetry_identity():
    # +/- symmetric qubit configurations: m_n + M - m_{L-n} = n,
    # verified against an independently seeded second solve
    for obs in (planar_triple_observables(math.pi / 4), standard_mub_set(2)):
        _, certs = infimum_t(obs, StateConstraint.pure_only(), FAST)
        _, certs2 = infimum_t(
            obs, StateConstraint.pure_only(), SolverConfig(seed=91)
        )
        m = {c.level: c.value for c in certs}
        m2 = {c.level: c.value for c in certs2}
        for n in (1, 2):
            assert m[n] + 3.0 - m2[6 - n] == pytest.approx(n, abs=1e-5)


def test_solver_determinism():
    t1, _ = infimum_t(XZ, StateConstraint.all_states(), FAST)
    t2, _ = infimum_t(XZ, StateConstraint.all_states(), FAST)
    assert np.array_equal(t1.entries, t2.entries)


# ---------------------------------------------------------------------------
# supremum

def test_supremum_two_paulis():
    s, certs = supremum_s(XZ)
    expected = [1.0, 1 / math.sqrt(2), 1 - 1 / math.sqrt(2), 0.0]
    assert np.allclose(s.entries, expected, atol=1e-9)
    # certificate values are exact top eigenvalues
    for cert in certs:
        w = np.linalg.eigvalsh(cert.achieving_choice.matrix)
        assert cert.value == pytest.approx(w[-1], abs=1e-9)


def test_supremum_mub_eigen_sequence():
    s, certs = supremum_s(standard_mub_set(2))
    maxima = [0.0] + [c.value for c in certs] + [3.0]
    expected = [0.0, 1.0, 1 + 1 / math.sqrt(2), 1.5 + math.sqrt(3) / 2,
                2 + 1 / math.sqrt(2), 3.0, 3.0]
    assert np.allclose(maxima, expected, atol=1e-9)
    assert np.allclose(np.cumsum(s.entries), np.maximum.accumulate(expected[1:]), atol=1e-9)


def test_supremum_single_observable():
    s, _ = supremum_s([pauli_observable("z")])
    assert np.allclose(s.entries, [1.0, 0.0], atol=1e-12)


def test_supremum_fixed_norm_interpolates():
    s1, _ = supremum_s(XZ, StateConstraint.fixed_bloch_norm(1.0))
    s_all, _ = supremum_s(XZ)
    assert np.allclose(s1.entries, s_all.entries, atol=1e-9)
    s0, _ = supremum_s(XZ, StateConstraint.fixed_bloch_norm(0.0))
    assert np.allclose(s0.entries, 0.5, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_supremum_matches_brute_force_random_bases(dim, count, seed):
    rng = np.random.default_rng(seed)
    assert_max_certificates([random_orthonormal_basis(dim, rng) for _ in range(count)])


@pytest.mark.parametrize("observables", [
    [coarse_grained_basis(4, (2, 1, 1), np.random.default_rng(i)) for i in range(3)],
    [coarse_grained_basis(6, (3, 2, 1), np.random.default_rng(i)) for i in range(3)],
    [coarse_grained_basis(4, (3, 1), np.random.default_rng(7)),
     random_orthonormal_basis(4, np.random.default_rng(8))],
    [random_orthonormal_basis(4, np.random.default_rng(9))],
    [coarse_grained_basis(5, (2, 2, 1), np.random.default_rng(10))],
], ids=["coarse_d4x3", "coarse_d6x3", "coarse_and_fine", "single_basis", "single_coarse"])
def test_supremum_matches_brute_force(observables):
    assert_max_certificates(observables)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("observables", [
    XZ,
    planar_triple_observables(0.4),
    standard_mub_set(2),
    [random_orthonormal_basis(2, np.random.default_rng(i)) for i in range(4)],
    TRIVIAL_PROJECTORS,
], ids=["xz", "planar_triple", "qubit_mubs", "random_qubit_x4", "trivial_projectors"])
def test_supremum_fixed_norm_matches_brute_force(observables, r):
    assert_max_certificates(observables, StateConstraint.fixed_bloch_norm(r))


def test_max_topn_levels_match_supremum():
    # each level, below and above L/2, from the sweep of level min(n, L - n)
    obs = [coarse_grained_basis(4, (2, 1, 1), np.random.default_rng(i)) for i in range(3)]
    _, certs = supremum_s(obs)
    for cert in certs:
        single = max_topn_over_states(obs, cert.level)
        assert single.value == cert.value
        assert single.achieving_choice.index_sets == cert.achieving_choice.index_sets


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_subset_chunks_keep_combinations_order(monkeypatch, chunk):
    # chunks far smaller than the operator counts: every chunk but a
    # level's last is full, the subsets stay in combinations order, and
    # the max certificates stay put; a one-outcome observable adds the
    # identity to the stack
    observables = [coarse_grained_basis(4, (2, 1, 1), np.random.default_rng(i)) for i in range(3)]
    observables.append(ProjectiveObservable((np.eye(4, dtype=complex),), "trivial"))
    total = sum(o.outcome_count for o in observables)
    certs = _max_certificates(observables, range(1, total), StateConstraint.all_states())
    monkeypatch.setattr(bounds_module, "_CHUNK", chunk)
    for n in range(1, total):
        chunks = list(_subset_chunks(total, n))
        assert all(len(rows) == chunk for rows in chunks[:-1])
        assert 0 < len(chunks[-1]) <= chunk
        assert [tuple(row) for rows in chunks for row in rows.tolist()] == list(
            itertools.combinations(range(total), n))
    small = _max_certificates(observables, range(1, total), StateConstraint.all_states())
    for a, b in zip(certs, small):
        assert (a.value, a.achieving_choice.index_sets) == (b.value, b.achieving_choice.index_sets)
        assert a.achieving_choice.matrix.tobytes() == b.achieving_choice.matrix.tobytes()


def test_supremum_memory_is_one_chunk():
    # the sweep streams each level in chunks; four Haar bases in d=4 have
    # C(16, 8) = 12,870 operators at level 8 and 65,534 in all
    rng = np.random.default_rng(16)
    obs = [random_orthonormal_basis(4, rng) for _ in range(4)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        supremum_s(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 8 * _CHUNK * 16 * 16


# ---------------------------------------------------------------------------
# closed forms and the trivial two-basis bound

def test_two_basis_trivial_bound_values():
    b2 = two_basis_trivial_bound(2)
    assert np.allclose(b2.entries, 0.5) and b2.total == 2.0
    b3 = two_basis_trivial_bound(3)
    assert np.allclose(b3.entries, 1 / 3) and len(b3) == 6


def test_two_basis_random_pair_matches_trivial(rng):
    pair = [random_orthonormal_basis(2, rng, "a"), random_orthonormal_basis(2, rng, "b")]
    t, _ = infimum_t(pair, StateConstraint.all_states(), FAST)
    assert np.allclose(t.entries, two_basis_trivial_bound(2).entries, atol=1e-5)


def test_planar_triple_closed_form_properties():
    first = qubit_planar_triple_t(math.pi / 4, 1.0).entries[0]
    assert first == pytest.approx(M1_TILTED, abs=1e-12)
    assert np.allclose(qubit_planar_triple_t(math.pi / 4, 0.0).entries, 0.5)
    for r in (0.0, 0.3, 0.7, 1.0):
        assert np.allclose(
            qubit_planar_triple_t(0.0, r).entries, qubit_mub_t(r).entries, atol=1e-12
        )
    with pytest.raises(ValueError):
        qubit_mub_t(1.5)


def test_solver_matches_closed_form_general_phi():
    obs = planar_triple_observables(0.3)
    t, _ = infimum_t(obs, StateConstraint.pure_only(), FAST)
    assert np.allclose(t.entries, qubit_planar_triple_t(0.3, 1.0).entries, atol=1e-6)


def test_fixed_norm_mid_radius_matches_closed_form():
    obs = planar_triple_observables(math.pi / 4)
    t, _ = infimum_t(obs, StateConstraint.fixed_bloch_norm(0.6), FAST)
    assert np.allclose(t.entries, qubit_planar_triple_t(math.pi / 4, 0.6).entries, atol=1e-6)


@pytest.mark.parametrize("observables", [
    standard_mub_set(2),
    planar_triple_observables(0.4),
    [random_orthonormal_basis(2, np.random.default_rng(i)) for i in range(4)],
    TRIVIAL_PROJECTORS,
], ids=["qubit_mubs", "planar_triple", "random_qubit_x4", "trivial_projectors"])
def test_fixed_norm_minima_are_mapped_pure_minima(observables):
    # rho_r = r |psi><psi| + (1 - r) I/2, so each level minimum at Bloch
    # norm r is H_n + r (pure minimum - H_n), H_n the top-n sum of tr(Pi_k) / 2
    cfg = SolverConfig(seed=5, multistarts=16)
    half = 0.5 * np.real(np.trace(_projector_stack(observables), axis1=1, axis2=2))
    mixed = np.cumsum(np.sort(half)[::-1])[:-1]
    _, certs = infimum_t(observables, StateConstraint.pure_only(), cfg)
    pure = np.array([c.value for c in certs])
    rng = np.random.default_rng(23)
    for r in (0.0, 0.3, 0.7, 1.0):
        constraint = StateConstraint.fixed_bloch_norm(r)
        t, certs = infimum_t(observables, constraint, cfg)
        values = np.array([c.value for c in certs])
        assert np.max(np.abs(values - (mixed + r * (pure - mixed)))) <= 1e-9
        # Bloch vectors of norm r, drawn here rather than by the library's sampler
        s, _ = supremum_s(observables, constraint)
        dirs = rng.standard_normal((20_000, 3))
        dirs *= r / np.linalg.norm(dirs, axis=1)[:, None]
        states = 0.5 * (I2 + np.einsum("sk,kij->sij", dirs, np.stack(PAULIS)))
        prefix = sorted_prefix_matrix(observables, states)
        assert np.all(prefix >= np.cumsum(t.entries)[None, :] - 1e-8)
        assert np.all(prefix <= np.cumsum(s.entries)[None, :] + 1e-8)


QUBIT_SETS = {
    "qubit_mubs": standard_mub_set(2),
    "planar_triple_0.4": planar_triple_observables(0.4),
    "planar_triple_pi/4": planar_triple_observables(math.pi / 4),
    **{f"random_axes_{seed}": [
        observable_from_bloch_axis(tuple(np.random.default_rng(seed).standard_normal((4, 3))[i]))
        for i in range(2 + seed % 3)] for seed in (*range(6), 14)},
}


@pytest.mark.parametrize("observables", QUBIT_SETS.values(), ids=QUBIT_SETS.keys())
def test_pure_qubit_levels_reach_the_grid_minimum(observables):
    # no local minimum the solver stops in lies above the best of 200k
    # Bloch-sphere lattice points; at seed 14 a scan of 50 steps of
    # 0.3 / sqrt(k + 1) alone picks a start 1.3e-3 above that
    cfg = SolverConfig(seed=5, multistarts=16)
    _, certs = infimum_t(observables, StateConstraint.pure_only(), cfg)
    grid = grid_pure_qubit_minima(observables)
    assert np.all(np.array([c.value for c in certs]) <= grid + 1e-12)


@pytest.mark.parametrize("r", [None, 0.3, 0.7])
@pytest.mark.parametrize("observables, closed", [
    (standard_mub_set(2), qubit_mub_t),
    (planar_triple_observables(0.4), lambda r: qubit_planar_triple_t(0.4, r)),
    (planar_triple_observables(math.pi / 4), lambda r: qubit_planar_triple_t(math.pi / 4, r)),
], ids=["qubit_mubs", "planar_triple_0.4", "planar_triple_pi/4"])
def test_pure_qubit_closed_forms_across_starts_and_seeds(observables, closed, r):
    constraint = StateConstraint.pure_only() if r is None else StateConstraint.fixed_bloch_norm(r)
    expected = closed(1.0 if r is None else r).entries
    for multistarts in (1, 4, 16):
        for seed in range(5):
            cfg = SolverConfig(seed=seed, multistarts=multistarts)
            t, certs = infimum_t(observables, constraint, cfg)
            assert np.max(np.abs(t.entries - expected)) <= 1e-9
        t2, certs2 = infimum_t(observables, constraint, cfg)
        assert np.array_equal(t.entries, t2.entries)
        for c1, c2 in zip(certs, certs2, strict=True):
            assert c1.value == c2.value
            assert np.array_equal(c1.achieving_state.matrix, c2.achieving_state.matrix)
            assert c1.achieving_choice.index_sets == c2.achieving_choice.index_sets
            assert c1.diagnostics == c2.diagnostics


def test_tie_point_lands_on_the_mub_vertex():
    # level 1 of the qubit MUBs is least where the three largest
    # probabilities tie, at the Bloch vectors (+-1, +-1, +-1) / sqrt 3
    cert = min_topn_over_states(standard_mub_set(2), 1, StateConstraint.pure_only())
    vertex = density_to_bloch(cert.achieving_state)
    assert np.max(np.abs(np.abs(vertex) - 1 / math.sqrt(3))) <= 1e-15
    assert cert.value == pytest.approx(MUB_HI, abs=1e-15)
    assert cert.diagnostics.multistart_index == 2  # a crossing of two tie circles


# an identity projector ties with each rank-1 outcome on a plane tangent to
# the Bloch sphere, at the Bloch vector where that outcome is certain
TANGENT_PLANE = [observable_from_bloch_axis((0.3, -0.5, 0.8)), ProjectiveObservable((I2,)),
                 pauli_observable("x")]
BRUTE_SETS = {
    "qubit_mubs": standard_mub_set(2),
    "trivial_projectors": TRIVIAL_PROJECTORS,
    "tangent_plane": TANGENT_PLANE,
    "planar_triple_0.4": planar_triple_observables(0.4),
    **{f"random_axes_{seed}": [
        observable_from_bloch_axis(tuple(np.random.default_rng(100 + seed).standard_normal(3)))
        for _ in range(2 + seed % 5)] for seed in range(10)},
    "random_bases_x5": [random_orthonormal_basis(2, np.random.default_rng(110 + i)) for i in range(5)],
}


@pytest.mark.parametrize("observables", BRUTE_SETS.values(), ids=BRUTE_SETS.keys())
def test_pure_qubit_levels_match_brute_force(observables):
    # the arc walk's candidates against every subset's cell and circle
    # points and every crossing; the MUBs tie on coincident planes
    # (x+ = y+ where x- = y-), the trivial projectors have W_k = 0
    _, certs = infimum_t(observables, StateConstraint.pure_only())
    values = np.array([c.value for c in certs])
    assert np.max(np.abs(values - brute_pure_qubit_minima(observables))) <= 1e-12
    # each value is the top-n sum at its own pure state
    states = np.stack([c.achieving_state.matrix for c in certs])
    assert np.max(np.abs(np.einsum("sij,sji->s", states, states).real - 1.0)) <= 1e-14
    prefix = sorted_prefix_matrix(observables, states)
    assert np.max(np.abs(prefix[np.arange(len(values)), np.arange(len(values))] - values)) <= 1e-14
    assert {c.diagnostics.multistart_index for c in certs} <= {0, 1, 2}


def test_pure_qubit_levels_need_no_oracle(monkeypatch):
    # pure and fixed-norm qubit levels are exact: no ket is scanned, and no
    # seed or number of starts changes the result
    from uqcr import bounds

    def no_scan(*args, **kwargs):
        raise AssertionError("qubit levels must not run the ket scan")

    monkeypatch.setattr(bounds, "_ket_scan", no_scan)
    obs = planar_triple_observables(0.4)
    for constraint in (StateConstraint.pure_only(), StateConstraint.fixed_bloch_norm(0.6)):
        (t1, certs1), *others = [
            infimum_t(obs, constraint, SolverConfig(seed=seed, multistarts=starts))
            for seed in (0, 5) for starts in (1, 64)
        ]
        for t2, certs2 in others:
            assert np.array_equal(t1.entries, t2.entries)
            for c1, c2 in zip(certs1, certs2, strict=True):
                assert c1.value == c2.value
                assert np.array_equal(c1.achieving_state.matrix, c2.achieving_state.matrix)
                assert c1.achieving_choice.index_sets == c2.achieving_choice.index_sets
                assert c1.diagnostics == c2.diagnostics


# ---------------------------------------------------------------------------
# constraint validation

def coarse_and_fine_qutrit():
    blocks = ProjectiveObservable(
        (np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex)),
        "coarse",
    )
    fine = ProjectiveObservable(
        tuple(np.outer(e, e.conj()) for e in np.eye(3, dtype=complex)), "fine"
    )
    return [blocks, fine]


def test_degenerate_projectors_need_real_solve():
    # coarse outcome (rank-2) plus a fine basis: the uniform-mixture dual
    # floor (0.4) sits below the true level-1 minimum (0.5)
    obs = coarse_and_fine_qutrit()
    cfg = SolverConfig(seed=1)
    cert = min_topn_over_states(obs, 1, StateConstraint.all_states(), cfg)
    assert cert.value == pytest.approx(0.5, abs=1e-6)
    assert cert.diagnostics.dual_gap is not None and cert.diagnostics.dual_gap <= 1e-6
    t, _ = infimum_t(obs, StateConstraint.all_states(), cfg)
    assert np.allclose(t.entries, [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_projector_dual_matches_choice_dual():
    # the dual over L projector weights equals the dual over C(L, n)
    # choice-operator mixtures at every level; at this seed the uniform
    # weights are loose on every level of the d=4 config
    rng = np.random.default_rng(18)
    d4_coarse = [coarse_grained_basis(4, (2, 1, 1), rng, f"c{i}") for i in range(3)]
    for obs in (coarse_and_fine_qutrit(), d4_coarse):
        proj = np.concatenate([np.stack(o.projectors) for o in obs])
        for n in range(1, len(proj)):
            cmats = np.stack([c.matrix for c in enumerate_choices(obs, n)])
            dual, _, _ = _kelley_dual_bound(proj, n, np.inf, 80)
            assert dual == pytest.approx(kelley_choice_dual(cmats), abs=1e-7)


def test_lp_multiplier_state_closes_the_gap():
    # at this seed the uniform weights are loose on every level, so the
    # primal has to come from the cutting-plane LP
    rng = np.random.default_rng(18)
    obs = [coarse_grained_basis(4, (2, 1, 1), rng, f"c{i}") for i in range(3)]
    _, certs = infimum_t(obs, StateConstraint.all_states(), FAST)
    proj = np.concatenate([np.stack(o.projectors) for o in obs])
    for cert in certs:
        probs = np.real(np.einsum("kij,ji->k", proj, cert.achieving_state.matrix))
        assert cert.value == pytest.approx(np.sort(probs)[-cert.level:].sum(), abs=1e-12)
        assert cert.diagnostics.dual_gap <= 1e-6
    assert any(c.diagnostics.multistart_index == 1 for c in certs)


@pytest.mark.parametrize("dim, ranks", [(4, (2, 1, 1)), (6, (3, 2, 1))])
@pytest.mark.parametrize("seed", range(4))
def test_kelley_matches_linprog_reference(dim, ranks, seed):
    # the warm-started model solves the same LPs as one linprog per cut:
    # same LP count and certified value on every level, at the solver's target
    rng = np.random.default_rng(seed)
    obs = [coarse_grained_basis(dim, ranks, rng, f"c{i}") for i in range(3)]
    proj = _projector_stack(obs)
    mixed = _born(np.eye(dim)[None] / dim, proj)
    for n in range(1, len(proj)):
        target = float(_top_n_sum(mixed, n)[0]) - 1e-9
        best, state, lps = _kelley_dual_bound(proj, n, target, 80)
        ref_best, _, ref_lps = reference_kelley_dual_bound(proj, n, target, 80)
        assert lps == ref_lps
        assert best == pytest.approx(ref_best, abs=1e-7)
        if state is not None:
            assert best <= _top_n_sum(_born(state[None], proj), n)[0] + 1e-12


def test_all_states_levels_need_no_oracle(monkeypatch):
    # minimax duality certifies every all-states level, so no ket is
    # scanned and neither the seed nor the number of starts changes the result
    from uqcr import bounds

    def no_scan(*args, **kwargs):
        raise AssertionError("all-states levels must not run the ket scan")

    monkeypatch.setattr(bounds, "_ket_scan", no_scan)
    obs = coarse_and_fine_qutrit()
    runs = [
        infimum_t(obs, StateConstraint.all_states(), cfg)
        for cfg in (SolverConfig(seed=0, multistarts=1), SolverConfig(seed=7))
    ]
    (t1, certs1), (t2, certs2) = runs
    assert np.array_equal(t1.entries, t2.entries)
    for c1, c2 in zip(certs1, certs2, strict=True):
        assert c1.value == c2.value
        assert np.array_equal(c1.achieving_state.matrix, c2.achieving_state.matrix)
        assert c1.achieving_choice.index_sets == c2.achieving_choice.index_sets
        assert c1.diagnostics == c2.diagnostics


def test_qutrit_mub_set_envelopes(rng):
    # four observables in dimension 3 (largest shipped configuration)
    obs = standard_mub_set(3)
    t, _ = infimum_t(obs, StateConstraint.all_states(), SolverConfig(seed=3))
    s, _ = supremum_s(obs)
    assert np.allclose(t.entries, 1 / 3, atol=1e-6)
    states = sample_mixed_states(3, 2_000, rng)
    prefix = sorted_prefix_matrix(obs, states)
    assert np.all(prefix >= np.cumsum(t.entries)[None, :] - 1e-8)
    assert np.all(prefix <= np.cumsum(s.entries)[None, :] + 1e-8)


def test_dim3_pure_pair_uniform(rng):
    # a vector unbiased to both bases exists, so every level minimum is n/3
    pair = standard_mub_set(3)[:2]
    cfg = SolverConfig(seed=3, multistarts=24)
    t, certs = infimum_t(pair, StateConstraint.pure_only(), cfg)
    assert np.allclose(t.entries, 1 / 3, atol=1e-6)
    states = sample_pure_states(3, 2_000, rng)
    prefix = sorted_prefix_matrix(pair, states)
    assert np.all(prefix >= np.cumsum(t.entries)[None, :] - 1e-8)


def test_pure_ket_minima_are_concave():
    # three Haar d=4 bases where per-level local searches left minima up to
    # 8.6e-3 above a concave sequence, and assembling t raised; pooled
    # minima over one candidate set are concave by construction
    rng = np.random.default_rng(4)
    obs = [random_orthonormal_basis(4, rng, f"b{i}") for i in range(3)]
    _, certs = infimum_t(obs, StateConstraint.pure_only(), SolverConfig(seed=0))
    minima = np.array([0.0] + [c.value for c in certs] + [len(obs)])
    assert np.max(np.diff(minima, 2)) <= 1e-12
    states = np.stack([c.achieving_state.matrix for c in certs])
    prefix = sorted_prefix_matrix(obs, states)
    own = prefix[np.arange(len(certs)), np.arange(len(certs))]
    assert np.max(np.abs(own - minima[1:-1])) <= 1e-14


# pure qutrit MUB level minima from the former per-level Nelder-Mead
# multistart at default settings, and the fractions they approach; at seed 1
# that search left level 11 2.6e-9 above 35/9
QUTRIT_PURE_MINIMA = {
    0: [0.5000000000000001, 1.0000000000000002, 1.5, 2.0, 2.333333333333334, 2.666666666666667,
        3.0000000000000004, 3.333333333333345, 3.6000000000000005, 3.7777777777778887,
        3.888888888889052],
    1: [0.5, 1.0000000000000004, 1.5000000000000004, 2.0, 2.333333333333334, 2.666666666666667,
        3.0000000000000004, 3.333333333333335, 3.600000000000021, 3.777777777777942,
        3.888888891445335],
}
QUTRIT_PURE_FRACTIONS = [1 / 2, 1, 3 / 2, 2, 7 / 3, 8 / 3, 3, 10 / 3, 18 / 5, 34 / 9, 35 / 9]


@pytest.mark.parametrize("seed", sorted(QUTRIT_PURE_MINIMA))
def test_qutrit_mub_pure_minima_are_pinned(seed):
    obs = standard_mub_set(3)
    runs = [infimum_t(obs, StateConstraint.pure_only(), SolverConfig(seed=seed)) for _ in range(2)]
    values = np.array([c.value for c in runs[0][1]])
    pinned = np.array(QUTRIT_PURE_MINIMA[seed])
    # within 1e-9 of the pinned values, or below them by what they sat above the fraction
    assert np.all(values <= pinned + 1e-12)
    assert np.all(values >= pinned - 1e-9 - np.maximum(pinned - QUTRIT_PURE_FRACTIONS, 0.0))
    (t1, certs1), (t2, certs2) = runs
    assert np.array_equal(t1.entries, t2.entries)
    for c1, c2 in zip(certs1, certs2, strict=True):
        assert c1.value == c2.value
        assert np.array_equal(c1.achieving_state.matrix, c2.achieving_state.matrix)
        assert c1.diagnostics == c2.diagnostics


# seed-0 pure level minima of three Haar-basis configs (drawn as
# random_orthonormal_basis draws them) from the scan that a 100k-sample
# oracle seeded, before the settling stage replaced that seed
HAAR_PURE_MINIMA = {
    (4, 4): [0.28833462191082887, 0.5766692438216577, 0.8650038657324866, 1.1533384876433153,
             1.409690511450992, 1.6607480235945027, 1.9113557271015311, 2.142627124907297,
             2.3575530078506897, 2.571702005233793, 2.785851002616896],
    (5, 4): [0.27621819499674116, 0.5524363899934822, 0.8286545849902232, 1.1009414819813428,
             1.3677922954426622, 1.6300305411710743, 1.8673118182992021, 2.093849454639362,
             2.3203870909795214, 2.5469247273196807, 2.77346236365984],
    (6, 5): [0.2112795262349402, 0.42255905246988035, 0.6338385787048204, 0.8451181049397605,
             1.0558818382573474, 1.257521874335059, 1.4575285418434674, 1.65625982370388,
             1.8492819479244034, 2.0410684791311264, 2.232854783304901, 2.4246410874786757,
             2.6164273916524503, 2.808213695826225],
}


def haar_triple(seed, dim):
    rng = np.random.default_rng(seed)
    return [random_orthonormal_basis(dim, rng, f"b{i}") for i in range(3)]


@pytest.mark.parametrize("seed, dim", sorted(HAAR_PURE_MINIMA))
def test_settled_pure_minima_never_rise(seed, dim):
    _, certs = infimum_t(haar_triple(seed, dim), StateConstraint.pure_only(), SolverConfig(seed=0))
    values = np.array([c.value for c in certs])
    assert np.all(values <= np.array(HAAR_PURE_MINIMA[seed, dim]) + 1e-12)
    # the winner is a start or a settling copy, numbered after the starts
    assert all(0 <= c.diagnostics.multistart_index < 64 + 4 for c in certs)


@pytest.mark.parametrize("observables", [standard_mub_set(3), haar_triple(4, 4)],
                         ids=["qutrit_mubs", "haar_d4_rng4"])
def test_pure_t_holds_on_fresh_haar_kets(observables):
    # an independent check: kets from a generator the solver never sees
    t, _ = infimum_t(observables, StateConstraint.pure_only())
    states = sample_pure_states(observables[0].dim, 20_000, np.random.default_rng(2718))
    prefix = sorted_prefix_matrix(observables, states)
    assert np.all(prefix >= np.cumsum(t.entries)[None, :] - 1e-8)


def test_state_constraint_validation():
    with pytest.raises(ValueError):
        StateConstraint("everything")
    with pytest.raises(ValueError):
        StateConstraint.fixed_bloch_norm(1.5)
    with pytest.raises(ValueError):
        StateConstraint("pure_only", 0.5)
    assert StateConstraint.all_states().kind == "all_states"


def test_solver_config_defaults():
    cfg = SolverConfig()
    assert cfg.max_iter == 80
    assert cfg.multistarts == 64
    assert cfg.seed == 0
    assert [f.name for f in dataclasses.fields(cfg)] == ["max_iter", "multistarts", "seed"]


# ---------------------------------------------------------------------------
# the sandwich script's sampler

@pytest.mark.parametrize("observables, constraint", [
    (standard_mub_set(3), StateConstraint.all_states()),
    (standard_mub_set(3), StateConstraint.pure_only()),
])
@pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 123])
def test_streamed_oracle_matches_full_tables(observables, constraint, count):
    # scripts/sandwich_sampling.py streams Hilbert-Schmidt states or Haar
    # kets in chunks; each chunk's prefix sums match the full table of the
    # same draws from the test helpers
    script = load_script("sandwich_sampling.py")
    assert script.CHUNK == _CHUNK
    dim = observables[0].dim
    chunks = list(script.prefix_chunks(_projector_stack(observables), constraint.kind, count,
                                       np.random.default_rng(9)))
    assert [len(c) for c in chunks] == [min(_CHUNK, count - lo) for lo in range(0, count, _CHUNK)]
    rng = np.random.default_rng(9)
    sample = sample_mixed_states if constraint.kind == "all_states" else sample_pure_states
    for prefix in chunks:
        expected = sorted_prefix_matrix(observables, sample(dim, len(prefix), rng))
        assert np.max(np.abs(prefix - expected)) <= 1e-14


def test_oracle_memory_is_the_draws():
    # the script's sampler holds one chunk of draws at a time: 100k
    # Hilbert-Schmidt states in d=6 peak at a few chunks' worth, not at the
    # 100k states' 58 MB
    script = load_script("sandwich_sampling.py")
    rng = np.random.default_rng(4)
    proj = _projector_stack([random_orthonormal_basis(6, rng) for _ in range(3)])
    chunk_bytes = 16 * 36 * _CHUNK
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = sum(len(p) for p in script.prefix_chunks(proj, "all_states", 100_000,
                                                         np.random.default_rng(0)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 100_000
    assert peak - before <= 6 * chunk_bytes
