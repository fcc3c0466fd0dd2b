import math

import numpy as np
import pytest

from uqcr import (
    DensityMatrix,
    ProjectiveObservable,
    bloch_to_density,
    born_probabilities,
    density_to_bloch,
    is_mub_pair,
    observable_from_basis,
    observable_from_bloch_axis,
    pauli_observable,
    random_density,
    standard_mub_set,
)
from uqcr.quantum import (
    PAULIS,
    BadRank,
    BlochNormExceeded,
    DimensionMismatch,
    NotRankOne,
    UnsupportedDimension,
    WrongDimension,
    random_ket,
)

from helpers import coarse_grained_basis, loop_born_probabilities, random_orthonormal_basis


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace 1.2
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_projective_validation():
    z = pauli_observable("z")
    assert z.dim == 2 and z.outcome_count == 2 and z.is_rank_one
    with pytest.raises(ValueError):
        ProjectiveObservable((np.eye(2) * 0.5, np.eye(2) * 0.5))  # not idempotent
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        ProjectiveObservable((p0, p0))  # not orthogonal, wrong sum


def test_degenerate_projectors_allowed():
    blocks = (np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex))
    obs = ProjectiveObservable(blocks, "coarse")
    assert obs.outcome_count == 2
    assert not obs.is_rank_one
    for _ in range(2):  # the check runs on every call, not only the first
        with pytest.raises(NotRankOne):
            obs.basis_vectors()


def test_basis_vectors_are_cached_and_read_only(rng):
    obs = random_orthonormal_basis(3, rng)
    kets = obs.basis_vectors()
    assert obs.basis_vectors() is kets
    assert np.allclose(kets.conj() @ kets.T, np.eye(3), atol=1e-12)
    for i, p in enumerate(obs.projectors):
        assert np.allclose(np.outer(kets[i], kets[i].conj()), p, atol=1e-12)
    with pytest.raises(ValueError):
        kets[0, 0] = 0.0


def test_born_eigenstate_and_unbiased():
    z = pauli_observable("z")
    x = pauli_observable("x")
    z_plus = bloch_to_density((0, 0, 1))
    assert np.allclose(born_probabilities(z, z_plus), [1.0, 0.0], atol=1e-12)
    assert np.allclose(born_probabilities(x, z_plus), [0.5, 0.5], atol=1e-12)


def test_born_matches_bloch_formula(rng):
    for _ in range(50):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        obs = observable_from_bloch_axis(axis)
        probs = born_probabilities(obs, bloch_to_density(r))
        overlap = float(np.dot(r, axis))
        assert probs[0] == pytest.approx(0.5 + 0.5 * overlap, abs=1e-12)
        assert probs[1] == pytest.approx(0.5 - 0.5 * overlap, abs=1e-12)


def test_born_normalization_bulk(rng):
    for _ in range(1000):
        dim = int(rng.integers(2, 4))
        obs = random_orthonormal_basis(dim, rng)
        rho = random_density(dim, dim, rng)
        probs = born_probabilities(obs, rho)
        assert abs(probs.sum() - 1.0) <= 1e-9
    with pytest.raises(DimensionMismatch):
        born_probabilities(pauli_observable("x"), DensityMatrix.maximally_mixed(3))


def test_born_matches_per_projector_trace(rng):
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        obs = (coarse_grained_basis(dim, (dim - 1, 1), rng) if rng.integers(2)
               else random_orthonormal_basis(dim, rng))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), rng)
        np.testing.assert_allclose(born_probabilities(obs, rho), loop_born_probabilities(obs, rho),
                                   rtol=0.0, atol=1e-15)


def test_projector_rows_are_cached_and_read_only():
    obs = standard_mub_set(3)[1]
    rows = obs.projector_rows
    assert rows.shape == (3, 9) and obs.projector_rows is rows
    np.testing.assert_array_equal(rows, np.stack(obs.projectors).conj().reshape(3, 9))
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_projector_eigenstate_indicator(rng):
    obs = random_orthonormal_basis(3, rng)
    ket = obs.basis_vectors()[1]
    probs = born_probabilities(obs, DensityMatrix.from_ket(ket))
    assert np.allclose(probs, [0.0, 1.0, 0.0], atol=1e-10)


def test_mub_pairs():
    x, y, z = (pauli_observable(w) for w in "xyz")
    assert is_mub_pair(x, z, 1e-9)
    assert not is_mub_pair(z, z, 1e-9)
    tilted = observable_from_bloch_axis(
        (math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0)
    )
    assert is_mub_pair(tilted, z, 1e-9)
    assert not is_mub_pair(tilted, y, 1e-9)


def test_mub_requires_rank_one():
    blocks = (np.diag([1.0, 1.0, 0.0]).astype(complex), np.diag([0.0, 0.0, 1.0]).astype(complex))
    coarse = ProjectiveObservable(blocks)
    fine = observable_from_basis(np.eye(3))
    with pytest.raises(NotRankOne):
        is_mub_pair(coarse, fine)


def test_bloch_round_trips(rng):
    assert np.allclose(bloch_to_density((0, 0, 0)).matrix, np.eye(2) / 2)
    z_plus = bloch_to_density((0, 0, 1))
    assert np.allclose(z_plus.matrix, [[1, 0], [0, 0]], atol=1e-14)
    for _ in range(100):
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        back = density_to_bloch(bloch_to_density(r))
        assert np.allclose(back, r, atol=1e-12)
    with pytest.raises(BlochNormExceeded):
        bloch_to_density((1.0, 1.0, 0.0))
    with pytest.raises(WrongDimension):
        density_to_bloch(DensityMatrix.maximally_mixed(3))


def test_random_density_contract():
    pure = random_density(2, 1, 42)
    assert np.allclose(sorted(np.linalg.eigvalsh(pure.matrix)), [0.0, 1.0], atol=1e-10)
    mixed = random_density(2, 2, 42)
    assert abs(np.trace(mixed.matrix) - 1.0) <= 1e-12
    again = random_density(2, 2, 42)
    assert np.array_equal(mixed.matrix, again.matrix)
    with pytest.raises(BadRank):
        random_density(2, 3, 0)
    with pytest.raises(BadRank):
        random_density(2, 0, 0)


def test_random_ket_normalized(rng):
    for _ in range(20):
        assert np.linalg.norm(random_ket(3, rng)) == pytest.approx(1.0)


def test_standard_mub_sets():
    for dim in (2, 3):
        bases = standard_mub_set(dim)
        assert len(bases) == dim + 1
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                assert is_mub_pair(bases[i], bases[j], 1e-10)
    with pytest.raises(UnsupportedDimension):
        standard_mub_set(5)


def test_paulis_are_involutions():
    for s in PAULIS:
        assert np.allclose(s @ s, np.eye(2))
