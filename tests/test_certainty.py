import glob
import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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
from uqcr import cli
from uqcr import majorization as mj
from uqcr.bounds import SolverConfig, StateConstraint
from uqcr.quantum import DimensionMismatch

from helpers import (
    coarse_grained_basis,
    random_orthonormal_basis,
    reference_certify_state,
    sample_mixed_states,
    sample_pure_states,
    sanchez_consistency_check,
)

XZ = [pauli_observable("x"), pauli_observable("z")]
FAST = SolverConfig(seed=9)


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


# ---------------------------------------------------------------------------
# the one-pass report against the per-observable reference


def _observable_sets():
    gen = np.random.default_rng(1107)
    return {
        "pauli_xz": XZ,
        "qubit_mubs": standard_mub_set(2),
        "qutrit_mubs": standard_mub_set(3),
        "random_d4": [random_orthonormal_basis(4, gen, f"b{i}") for i in range(3)],
        "coarse_211": [coarse_grained_basis(4, (2, 1, 1), gen, f"c{i}") for i in range(3)],
        # unequal outcome counts: L = 2 + 3
        "coarse_21_and_basis": [coarse_grained_basis(3, (2, 1), gen, "c"),
                                random_orthonormal_basis(3, gen, "b")],
    }


@pytest.fixture(scope="module")
def observable_sets():
    out = {}
    for name, obs in _observable_sets().items():
        t, _ = infimum_t(obs, StateConstraint.all_states(), FAST)
        s, _ = supremum_s(obs)
        out[name] = (obs, t, s)
    return out


def _assert_same_report(got, ref):
    assert got.sandwich_ok == ref.sandwich_ok
    assert (got.tightened_cap is None) == (ref.tightened_cap is None)
    assert got.P.total == ref.P.total and len(got.P) == len(ref.P)
    np.testing.assert_allclose(got.P.entries, ref.P.entries, rtol=0.0, atol=1e-15)
    for field in ("entropy_sum", "entropy_cap"):
        assert abs(getattr(got, field) - getattr(ref, field)) <= 1e-14
    if ref.tightened_cap is not None:
        assert abs(got.tightened_cap - ref.tightened_cap) <= 1e-14
        assert abs(got.slack["tightened_minus_sum"] - ref.slack["tightened_minus_sum"]) <= 1e-14
    else:
        assert got.slack["tightened_minus_sum"] is None
    assert abs(got.slack["cap_minus_sum"] - ref.slack["cap_minus_sum"]) <= 1e-14


def _envelope_pairs(obs, t, s, gen):
    """The computed envelopes plus pairs whose verdicts are not all True:
    swapped, two other states' direct sums, and a lower envelope one entry
    longer than P with zeros from entry n on, next to an upper one two
    entries longer (SupportMismatch and the padded comparison)."""
    total, n = t.total, len(t)
    others = [reference_certify_state(obs, random_density(obs[0].dim, obs[0].dim, gen), (t, s)).P
              for _ in range(2)]
    zero_tail = ProbVector(np.append(np.full(n - 1, total / (n - 1)), [0.0, 0.0]), total)
    return [(t, s), (s, t), tuple(others), (zero_tail, s.padded(n + 2))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_observable_sets())), st.integers(0, 2 ** 32 - 1),
       st.booleans(), st.sampled_from(["bits", "nats"]))
def test_certify_state_matches_per_observable_reference(observable_sets, name, seed, pure, unit):
    obs, t, s = observable_sets[name]
    gen = np.random.default_rng(seed)
    dim = obs[0].dim
    rho = random_density(dim, 1 if pure else int(gen.integers(1, dim + 1)), gen)
    for pair in _envelope_pairs(obs, t, s, gen):
        ref = reference_certify_state(obs, rho, pair, unit)
        _assert_same_report(certify_state(obs, rho, pair, unit), ref)
        pdv = state_direct_sum_pdv(iter(obs), rho)
        np.testing.assert_allclose(pdv.entries, ref.P.entries, rtol=0.0, atol=1e-15)


CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "*.json")))


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_certify_state_matches_reference_on_shipped_configs(path):
    with open(path, encoding="utf-8") as fh:
        dim, obs = cli.parse_observable_file(json.load(fh), path)
    t, _ = infimum_t(obs, StateConstraint.all_states(), FAST)
    s, _ = supremum_s(obs)
    gen = np.random.default_rng(2026)
    mats = np.concatenate([sample_mixed_states(dim, 5000, gen), sample_pure_states(dim, 5000, gen)])
    for m in mats:
        rho = DensityMatrix(0.5 * (m + m.conj().T))
        _assert_same_report(certify_state(obs, rho, (t, s)), reference_certify_state(obs, rho, (t, s)))


def test_alternating_observable_lists(observable_sets):
    gen = np.random.default_rng(5)
    names = ["pauli_xz", "qutrit_mubs", "qubit_mubs", "coarse_21_and_basis"]
    for k in range(40):
        obs, t, s = observable_sets[names[k % len(names)]]
        rho = random_density(obs[0].dim, obs[0].dim, gen)
        _assert_same_report(certify_state(obs, rho, (t, s)), reference_certify_state(obs, rho, (t, s)))


def test_mixed_dimensions_raise(xz_bounds):
    mixed = [pauli_observable("x"), standard_mub_set(3)[0]]
    for rho in (DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3)):
        with pytest.raises(DimensionMismatch):
            certify_state(mixed, rho, xz_bounds)
        with pytest.raises(DimensionMismatch):
            state_direct_sum_pdv(mixed, rho)


def test_envelope_of_wrong_total_raises():
    rho = DensityMatrix.maximally_mixed(2)
    uniform = ProbVector(np.full(4, 0.75), 3.0)
    with pytest.raises(mj.TotalMismatch):
        certify_state(XZ, rho, (uniform, uniform))


def test_empty_observable_list_raises(xz_bounds):
    with pytest.raises(mj.EmptySet):
        certify_state([], DensityMatrix.maximally_mixed(2), xz_bounds)


def test_outcome_sum_mismatch_raises(xz_bounds):
    # rows of 0.6 * I: each outcome of this stand-in reads 0.6, so its
    # distribution sums to 1.2 in every state
    scaled = SimpleNamespace(dim=2, outcome_count=2,
                             projector_rows=np.tile(0.6 * np.eye(2).ravel(), (2, 1)))
    with pytest.raises(mj.SumMismatch):
        certify_state([XZ[0], scaled], DensityMatrix.maximally_mixed(2), xz_bounds)
