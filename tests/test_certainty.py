import math

import numpy as np
import pytest

from uqcr import (
    DensityMatrix,
    ProbVector,
    bloch_to_density,
    certify_state,
    entropic_certainty_bound,
    infimum_t,
    pauli_observable,
    qubit_mub_t,
    random_density,
    shannon_entropy,
    standard_mub_set,
    state_direct_sum_pdv,
    supremum_s,
)
from uqcr.bounds import SolverConfig, StateConstraint
from uqcr.quantum import DimensionMismatch

from helpers import sanchez_consistency_check

XZ = [pauli_observable("x"), pauli_observable("z")]
FAST = SolverConfig(seed=9, oracle_samples=20_000)


@pytest.fixture(scope="module")
def xz_bounds():
    t, _ = infimum_t(XZ, StateConstraint.all_states(), FAST)
    s, _ = supremum_s(XZ)
    return t, s


@pytest.fixture(scope="module")
def mub_pure_bounds():
    obs = standard_mub_set(2)
    t, _ = infimum_t(obs, StateConstraint.pure_only(), FAST)
    s, _ = supremum_s(obs, StateConstraint.pure_only())
    return obs, t, s


def test_equality_case_maximally_mixed(xz_bounds):
    report = certify_state(XZ, DensityMatrix.maximally_mixed(2), xz_bounds)
    assert report.sandwich_ok == (True, True)
    assert report.entropy_sum == pytest.approx(2.0, abs=1e-9)
    assert report.entropy_cap == pytest.approx(2.0, abs=1e-7)
    assert report.tightened_cap == pytest.approx(2.0, abs=1e-7)
    assert report.slack["cap_minus_sum"] == pytest.approx(0.0, abs=1e-7)


def test_mub_pure_bounds_certify_eigenstate(mub_pure_bounds):
    obs, t, s = mub_pure_bounds
    report = certify_state(obs, bloch_to_density((0, 0, 1)), (t, s))
    assert report.sandwich_ok == (True, True)
    assert np.allclose(report.P.entries, [1, 0.5, 0.5, 0.5, 0.5, 0], atol=1e-12)
    assert report.entropy_sum == pytest.approx(2.0, abs=1e-9)
    assert report.entropy_cap >= 2.0


def test_peaked_state_tightened_cap(xz_bounds):
    # P = (1, .5, .5, 0) against uniform t: the probability-weighted
    # divergence is defined (t has full support) and equals 1 bit
    report = certify_state(XZ, bloch_to_density((0, 0, 1)), xz_bounds)
    assert report.sandwich_ok == (True, True)
    assert report.entropy_sum == pytest.approx(1.0, abs=1e-9)
    assert report.entropy_cap == pytest.approx(2.0, abs=1e-7)
    assert report.tightened_cap == pytest.approx(1.0, abs=1e-7)
    assert report.entropy_sum <= report.tightened_cap + 1e-9 <= report.entropy_cap + 2e-9


def test_tightened_cap_unavailable_on_support_mismatch():
    # a lower envelope with a zero entry where the state has mass
    t = ProbVector(np.array([1.0, 1.0, 0.0, 0.0]), 2.0)
    s = ProbVector(np.array([1.0, 1.0, 0.0, 0.0]), 2.0)
    report = certify_state(XZ, DensityMatrix.maximally_mixed(2), (t, s))
    assert report.tightened_cap is None
    assert report.slack["tightened_minus_sum"] is None


def test_entropy_chain_on_random_states(xz_bounds, rng):
    t, s = xz_bounds
    for _ in range(2000):
        rho = random_density(2, int(rng.integers(1, 3)), rng)
        report = certify_state(XZ, rho, (t, s))
        assert report.sandwich_ok == (True, True)
        if report.tightened_cap is not None:
            assert report.entropy_sum <= report.tightened_cap + 1e-9
            assert report.tightened_cap <= report.entropy_cap + 1e-9
        # entropy is monotone along the majorization order
        assert shannon_entropy(s) - 1e-9 <= shannon_entropy(report.P)
        assert shannon_entropy(report.P) <= shannon_entropy(t) + 1e-7


def test_entropic_certainty_bound_values():
    assert entropic_certainty_bound(ProbVector(np.full(4, 0.5), 2.0)) == pytest.approx(2.0)
    # frozen from an independent evaluation of the closed form
    assert entropic_certainty_bound(qubit_mub_t(1.0)) == pytest.approx(2.611011226397345, abs=1e-9)
    assert entropic_certainty_bound(ProbVector(np.array([1.0, 0.0]))) == 0.0
    assert entropic_certainty_bound(
        ProbVector(np.full(4, 0.5), 2.0), unit="nats"
    ) == pytest.approx(2.0 * math.log(2))


def test_report_unit_switch(xz_bounds):
    report = certify_state(XZ, DensityMatrix.maximally_mixed(2), xz_bounds, unit="nats")
    assert report.entropy_sum == pytest.approx(2.0 * math.log(2), abs=1e-9)
    assert report.unit == "nats"


def test_dimension_mismatch(xz_bounds):
    with pytest.raises(DimensionMismatch):
        certify_state(XZ, DensityMatrix.maximally_mixed(3), xz_bounds)


def test_report_determinism(xz_bounds):
    rho = bloch_to_density((0.3, 0.2, 0.1))
    r1 = certify_state(XZ, rho, xz_bounds)
    r2 = certify_state(XZ, rho, xz_bounds)
    assert np.array_equal(r1.P.entries, r2.P.entries)
    assert r1.entropy_sum == r2.entropy_sum
    assert r1.tightened_cap == r2.tightened_cap


def test_sanchez_check_and_guards():
    assert sanchez_consistency_check(cfg=FAST) is True
    # perturbed (non-MUB) basis: skipped
    tilted = [
        pauli_observable("x"),
        pauli_observable("y"),
        standard_mub_set(2)[0],
    ]
    assert sanchez_consistency_check(tilted, cfg=FAST) is None
    # mixed-state constraint: skipped
    assert (
        sanchez_consistency_check(constraint=StateConstraint.all_states(), cfg=FAST)
        is None
    )
