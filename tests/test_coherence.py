import math
import tracemalloc

import numpy as np
import pytest

from uqcr import (
    CoherenceSampling,
    DensityMatrix,
    coherence_complementarity_bounds,
    coherence_vector_mixed_approx,
    coherence_vector_pure,
    infimum_t,
    pauli_observable,
    qubit_mub_t,
    random_density,
    shannon_entropy,
    standard_mub_set,
    supremum_s,
)
from uqcr.bounds import SolverConfig, StateConstraint
from uqcr import coherence as coh
from uqcr.coherence import NotNormalized
from uqcr.quantum import random_ket

from helpers import fold_coherence_vector_mixed, prefix_majorized, random_orthonormal_basis

Z = pauli_observable("z")
XZ = [pauli_observable("x"), pauli_observable("z")]
FAST = SolverConfig(seed=13)


def test_pure_read_offs():
    basis_ket = coherence_vector_pure(np.array([1.0, 0.0]), Z)
    assert np.allclose(basis_ket.vector.entries, [1.0, 0.0])
    assert basis_ket.exactness == "exact"
    uniform = coherence_vector_pure(np.array([1.0, 1.0]) / math.sqrt(2), Z)
    assert np.allclose(uniform.vector.entries, [0.5, 0.5])
    skew = coherence_vector_pure(np.array([math.sqrt(0.8), math.sqrt(0.2)]), Z)
    assert np.allclose(skew.vector.entries, [0.8, 0.2])


def test_pure_requires_normalization():
    with pytest.raises(NotNormalized):
        coherence_vector_pure(np.array([1.0, 1.0]), Z)


def test_mixed_approx_of_pure_state_is_exact(rng):
    ket = random_ket(2, rng)
    rho = DensityMatrix.from_ket(ket)
    approx = coherence_vector_mixed_approx(rho, Z, CoherenceSampling(samples=8, seed=0))
    exact = coherence_vector_pure(ket, Z)
    assert approx.exactness == "exact"
    assert np.allclose(approx.vector.entries, exact.vector.entries, atol=1e-12)


def test_incoherent_states_give_point_mass():
    for rho in (DensityMatrix.maximally_mixed(2), DensityMatrix(np.diag([0.7, 0.3]).astype(complex))):
        cv = coherence_vector_mixed_approx(rho, Z, CoherenceSampling(samples=16, seed=1))
        assert cv.vector.entries.tolist() == [1.0, 0.0]
        assert cv.exactness == "approximate_lower"


def test_mixed_approx_monotone_in_samples(rng):
    rho = random_density(2, 2, rng)
    basis = pauli_observable("x")
    small = coherence_vector_mixed_approx(rho, basis, CoherenceSampling(samples=8, seed=7))
    large = coherence_vector_mixed_approx(rho, basis, CoherenceSampling(samples=64, seed=7))
    assert prefix_majorized(small.vector, large.vector, tol=1e-10)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_mixed_approx_matches_pairwise_fold(dim):
    gen = np.random.default_rng(100 + dim)
    rho = random_density(dim, dim, gen)
    basis = random_orthonormal_basis(dim, gen)
    for seed in (0, 5, 7):
        for samples in (0, 8, 64, 256):
            got = coherence_vector_mixed_approx(rho, basis, CoherenceSampling(samples, seed))
            ref = fold_coherence_vector_mixed(rho, basis, samples, seed)
            assert got.exactness == "approximate_lower"
            assert np.allclose(
                got.vector.prefix_sums(), ref.prefix_sums(), rtol=0.0, atol=1e-12
            )


def test_cached_haar_blocks_match_fresh_draws():
    # calls that interleave samples, seed and rank, so the cache holds
    # several blocks at once, against the same calls on an empty cache
    gen = np.random.default_rng(17)
    calls = []
    for dim in (2, 3, 4, 6):
        basis = random_orthonormal_basis(dim, gen)
        for rank in sorted({2, dim}):
            rho = random_density(dim, rank, gen)
            for samples, seed in ((0, 0), (8, 3), (256, 0), (8, 0), (256, 5)):
                calls.append((rho, basis, CoherenceSampling(samples, seed)))
    order = np.random.default_rng(18).permutation(len(calls))
    cached = {int(i): coherence_vector_mixed_approx(*calls[i]).vector.prefix_sums()
              for i in np.concatenate((order, order[::-1]))}
    for i, call in enumerate(calls):
        coh._haar_block.cache_clear()
        fresh = coherence_vector_mixed_approx(*call).vector.prefix_sums()
        assert np.array_equal(cached[i], fresh)


def test_sliced_haar_block_matches_one_draw():
    # 40,000 rank-2 samples span three slices of the block
    samples, seed, rank = 40_000, 9, 2
    assert samples > 2 * (coh._HAAR_SLICE_BYTES // (16 * rank * rank))
    g = np.random.default_rng(seed).standard_normal((samples, 2, rank, rank))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[:, None, :]
    one_draw = np.concatenate((np.eye(rank)[None], u.conj())).reshape(-1, rank)
    coh._haar_block.cache_clear()
    try:
        assert coh._haar_block(samples, seed, rank).tobytes() == one_draw.tobytes()
    finally:
        coh._haar_block.cache_clear()


def test_haar_block_memory_is_near_the_block():
    # 2^16 samples at rank 6 make a 37.7 MB block; one draw of all the
    # samples peaked at about 6x that
    coh._haar_block.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        block = coh._haar_block(1 << 16, 0, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        coh._haar_block.cache_clear()
    assert peak - before < 2 * block.nbytes


def test_haar_block_is_read_only_and_prefix_extends():
    block = coh._haar_block(8, 3, 2)
    assert block.shape == (9 * 2, 2)
    assert np.array_equal(block[:2], np.eye(2))
    assert np.array_equal(coh._haar_block(4, 3, 2), block[:5 * 2])
    units = block.reshape(9, 2, 2)
    assert np.allclose(units @ units.conj().swapaxes(-1, -2), np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        block[0, 0] = 0.0


@pytest.mark.parametrize("dim, expected", [
    (3, [0.7933810008912954, 0.9786091275987241, 1.0]),
    (4, [0.5550211351314192, 0.8853679522607683, 0.9845688564374374, 1.0]),
])
def test_mixed_approx_pinned_values(dim, expected):
    # values of the per-mixing stacked products this join replaced
    if dim == 3:
        rho = random_density(3, 3, np.random.default_rng(31))
        basis, cfg = standard_mub_set(3)[2], CoherenceSampling(64, 4)
    else:
        rho = random_density(4, 3, np.random.default_rng(41))
        basis = random_orthonormal_basis(4, np.random.default_rng(42))
        cfg = CoherenceSampling(256, 0)
    got = coherence_vector_mixed_approx(rho, basis, cfg)
    assert got.exactness == "approximate_lower"
    assert np.allclose(got.vector.prefix_sums(), expected, rtol=0.0, atol=1e-15)


def test_sampling_rejects_negative_fields():
    for kwargs, field in (({"samples": -5}, "samples"), ({"seed": -1}, "seed")):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
            CoherenceSampling(**kwargs)


def test_complementarity_two_paulis():
    mu_t, mu_s = coherence_complementarity_bounds(XZ, FAST)
    assert np.allclose(mu_t.entries, 0.5, atol=1e-6)
    expected_s = [1.0, 1 / math.sqrt(2), 1 - 1 / math.sqrt(2), 0.0]
    assert np.allclose(mu_s.entries, expected_s, atol=1e-9)


def test_complementarity_needs_two_bases():
    with pytest.raises(ValueError):
        coherence_complementarity_bounds([Z], FAST)


def test_complementarity_mub_triple_matches_envelopes():
    bases = standard_mub_set(2)
    mu_t, mu_s = coherence_complementarity_bounds(bases, FAST)
    assert np.allclose(mu_t.entries, qubit_mub_t(1.0).entries, atol=1e-6)
    s_ref, _ = supremum_s(bases, StateConstraint.pure_only())
    assert np.allclose(mu_s.entries, s_ref.entries, atol=1e-12)


def test_coherence_sandwich_on_random_pure_states(rng):
    mu_t, mu_s = coherence_complementarity_bounds(XZ, FAST)
    from uqcr.majorization import direct_sum

    for _ in range(200):
        ket = random_ket(2, rng)
        mus = [coherence_vector_pure(ket, b).vector for b in XZ]
        combined = direct_sum(mus)
        assert prefix_majorized(mu_t, combined, tol=1e-8)
        assert prefix_majorized(combined, mu_s, tol=1e-8)
        h_pair = sum(shannon_entropy(m) for m in mus)
        assert shannon_entropy(mu_s) <= h_pair + 1e-9
        assert h_pair <= shannon_entropy(mu_t) + 1e-7
