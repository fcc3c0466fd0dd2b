"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time

import numpy as np
import pytest

from uqcr import (
    coherence_complementarity_bounds,
    coherence_vector_pure,
    infimum_t,
    join,
    meet,
    meet_all,
    pauli_observable,
    qubit_planar_triple_t,
    shannon_entropy,
    standard_mub_set,
    supremum_s,
    two_basis_trivial_bound,
)
from uqcr.bounds import SolverConfig, StateConstraint, planar_triple_observables
from uqcr.cli import main as cli_main
from uqcr.majorization import direct_sum

from helpers import (
    brute_least_concave_majorant,
    prefix_majorized,
    random_orthonormal_basis,
    random_probvector,
    sample_mixed_states,
    sample_pure_states,
    sanchez_consistency_check,
    sorted_prefix_matrix,
)

COS_THETA = math.sqrt((2 - math.sqrt(2)) / (6 - math.sqrt(2)))
XZ = [pauli_observable("x"), pauli_observable("z")]
CFG = SolverConfig(seed=2024)


def _report(line):
    print(f"\n[PASS] {line}")


@pytest.fixture(scope="module")
def tilted_pure():
    obs = planar_triple_observables(math.pi / 4)
    t, certs = infimum_t(obs, StateConstraint.pure_only(), CFG)
    return obs, t, certs


@pytest.fixture(scope="module")
def mub_pure():
    obs = standard_mub_set(2)
    t, certs = infimum_t(obs, StateConstraint.pure_only(), CFG)
    return obs, t, certs


def test_criterion_01_two_pauli_infimum():
    start = time.perf_counter()
    t, _ = infimum_t(XZ, StateConstraint.all_states(), CFG)
    elapsed = time.perf_counter() - start
    assert np.all(np.abs(t.entries - 0.5) <= 1e-5)
    assert elapsed < 5.0
    _report(f"criterion 1: two-Pauli infimum = (0.5,0.5,0.5,0.5) +/- 1e-5 in {elapsed:.2f}s")


def test_criterion_02_two_basis_triviality():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        for trial in range(10):
            rng = np.random.default_rng(5_000 + 97 * trial + dim)
            pair = [
                random_orthonormal_basis(dim, rng, "a"),
                random_orthonormal_basis(dim, rng, "b"),
            ]
            t, _ = infimum_t(pair, StateConstraint.all_states(), CFG)
            worst = max(worst, float(np.abs(t.entries - two_basis_trivial_bound(dim).entries).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-4
    assert elapsed < 120.0
    _report(
        f"criterion 2: 20 random basis pairs (dims 2,3) uniform within {worst:.2e} in {elapsed:.1f}s"
    )


def test_criterion_03_tilted_triple_reproduction(tilted_pure):
    # closed forms built from cos(theta) and cos(pi/4); the level-2
    # minimum evaluates to 1 + cos(pi/4)/2 (see decisions ledger on the
    # misprinted decimal this replaces)
    _, t, certs = tilted_pure
    m = {c.level: c.value for c in certs}
    m1_closed = 0.5 + 0.5 * COS_THETA
    m2_closed = 1.0 + 0.5 * math.cos(math.pi / 4)
    assert abs(m[1] - m1_closed) <= 1e-4, f"m1 {m[1]} vs {m1_closed}"
    assert abs(m[2] - m2_closed) <= 1e-4, f"m2 {m[2]} vs {m2_closed}"
    closed = qubit_planar_triple_t(math.pi / 4, 1.0)
    assert np.all(np.abs(t.entries - closed.entries) <= 1e-4)
    _report(
        "criterion 3: tilted-triple m1="
        f"{m[1]:.6f} (target {m1_closed:.6f}), m2={m[2]:.6f} (target {m2_closed:.6f}), "
        "full t matches closed form within 1e-4"
    )


def test_criterion_04_mub_triple_reproduction(mub_pure):
    _, t, _ = mub_pure
    expected = np.array([0.788675, 0.711325, 0.5, 0.5, 0.288675, 0.211325])
    assert np.all(np.abs(t.entries - expected) <= 1e-4)
    t_mixed, _ = infimum_t(standard_mub_set(2), StateConstraint.all_states(), CFG)
    assert np.all(np.abs(t_mixed.entries - 0.5) <= 1e-4)
    _report("criterion 4: MUB-triple pure t' matches closed decimals; mixed run is uniform")


def test_criterion_05_supremum_cross_check():
    s, _ = supremum_s(XZ)
    # independent eigen-enumeration oracle over raw projector subsets
    projectors = [p for obs in XZ for p in obs.projectors]
    maxima = [0.0]
    for n in range(1, 4):
        best = max(
            float(np.linalg.eigvalsh(sum(sub))[-1])
            for sub in itertools.combinations(projectors, n)
        )
        maxima.append(best)
    maxima.append(2.0)
    oracle = np.diff(brute_least_concave_majorant(maxima))
    assert np.all(np.abs(s.entries - oracle) <= 1e-6)
    assert np.all(np.abs(s.entries - np.array([1.0, 0.707107, 0.292893, 0.0])) <= 1e-6)

    rng = np.random.default_rng(777)
    states = sample_mixed_states(2, 100_000, rng)
    prefix = sorted_prefix_matrix(XZ, states)
    s_prefix = np.cumsum(s.entries)
    violations = int(np.sum(np.any(prefix > s_prefix[None, :] + 1e-8, axis=1)))
    assert violations == 0
    _report(
        "criterion 5: two-Pauli supremum matches eigen oracle within 1e-6; "
        "0/100000 sampled states violate P below s"
    )


def _sandwich_violations(observables, t, s, states):
    prefix = sorted_prefix_matrix(observables, states)
    t_prefix = np.cumsum(t.entries)
    s_prefix = np.cumsum(s.entries)
    lower_bad = np.any(prefix < t_prefix[None, :] - 1e-8, axis=1)
    upper_bad = np.any(prefix > s_prefix[None, :] + 1e-8, axis=1)
    return int(np.sum(lower_bad | upper_bad)), prefix


@pytest.fixture(scope="module")
def sandwich_suite():
    """Bounds plus 10^4 admissible sample states for five configurations."""
    start = time.perf_counter()
    rng3 = np.random.default_rng(31_337)
    configs = []
    pair3 = [random_orthonormal_basis(3, rng3, "p1"), random_orthonormal_basis(3, rng3, "p2")]
    triple3 = [random_orthonormal_basis(3, rng3, f"t{i}") for i in range(3)]
    spec = [
        ("two-Pauli", XZ, StateConstraint.all_states()),
        ("tilted triple", planar_triple_observables(math.pi / 4), StateConstraint.pure_only()),
        ("qubit MUBs", standard_mub_set(2), StateConstraint.pure_only()),
        ("dim-3 pair", pair3, StateConstraint.all_states()),
        ("dim-3 triple", triple3, StateConstraint.all_states()),
    ]
    out = []
    for i, (label, obs, constraint) in enumerate(spec):
        t, _ = infimum_t(obs, constraint, CFG)
        s, _ = supremum_s(obs, constraint)
        dim = obs[0].dim
        srng = np.random.default_rng(61_000 + i)
        if constraint.kind == "pure_only":
            states = sample_pure_states(dim, 10_000, srng)
        else:
            states = sample_mixed_states(dim, 10_000, srng)
        out.append((label, obs, t, s, states))
    return out, time.perf_counter() - start


def test_criterion_06_sandwich_suite(sandwich_suite):
    configs, setup_time = sandwich_suite
    start = time.perf_counter()
    total_bad = 0
    for label, obs, t, s, states in configs:
        bad, _ = _sandwich_violations(obs, t, s, states)
        assert bad == 0, f"{label}: {bad} sandwich violations"
        total_bad += bad
    elapsed = setup_time + (time.perf_counter() - start)
    assert elapsed < 600.0
    _report(
        f"criterion 6: 5 configurations x 10^4 states, {total_bad} sandwich "
        f"violations at 1e-8 in {elapsed:.1f}s"
    )


def test_criterion_07_entropic_chain(sandwich_suite):
    configs, _ = sandwich_suite
    checked = 0
    for label, obs, t, s, states in configs:
        _, prefix = _sandwich_violations(obs, t, s, states)
        probs = np.diff(prefix, axis=1, prepend=0.0)
        safe = np.where(probs > 0.0, probs, 1.0)
        entropy_sum = -(safe * np.log2(safe)).sum(axis=1)
        t_entries = t.entries
        defined = np.all((probs <= 1e-15) | (t_entries[None, :] > 0.0), axis=1)
        ratio = np.where(
            (probs > 0.0) & (t_entries[None, :] > 0.0),
            probs / np.maximum(t_entries[None, :], 1e-300),
            1.0,
        )
        divergence = (np.where(probs > 0.0, probs, 0.0) * np.log2(ratio)).sum(axis=1)
        cap = shannon_entropy(t)
        tightened = cap - divergence
        ok = (~defined) | (
            (entropy_sum <= tightened + 1e-9) & (tightened <= cap + 1e-9)
        )
        bad = int(np.sum(~ok))
        assert bad == 0, f"{label}: {bad} entropic-chain violations"
        checked += int(np.sum(defined))
    _report(
        f"criterion 7: entropic chain sum <= H(t)-D(P||t) <= H(t) held on "
        f"{checked} states with D defined (tolerance 1e-9)"
    )


def test_criterion_08_lattice_law_suite():
    rng = np.random.default_rng(4242)
    checked = 0
    for dim in range(2, 9):
        for _ in range(1000):
            a = random_probvector(rng, dim)
            b = random_probvector(rng, dim)
            c = random_probvector(rng, dim)
            m, j = meet(a, b), join(a, b)
            pa, pb = np.cumsum(a.entries), np.cumsum(b.entries)
            pm, pj = np.cumsum(m.entries), np.cumsum(j.entries)
            assert np.all(pm <= pa + 1e-10) and np.all(pm <= pb + 1e-10)
            assert np.all(pa <= pj + 1e-10) and np.all(pb <= pj + 1e-10)
            assert np.allclose(pm, np.cumsum(meet(b, a).entries), atol=1e-10)
            assert np.allclose(pj, np.cumsum(join(b, a).entries), atol=1e-10)
            assert np.allclose(np.cumsum(meet(a, join(a, b)).entries), pa, atol=1e-10)
            assert np.allclose(np.cumsum(join(a, meet(a, b)).entries), pa, atol=1e-10)
            assert np.allclose(np.cumsum(meet(a, a).entries), pa, atol=1e-10)
            assert np.allclose(np.cumsum(join(a, a).entries), pa, atol=1e-10)
            assert np.all(np.diff(m.entries) <= 1e-10)
            assert np.all(np.diff(j.entries) <= 1e-10)
            # triple: the set meet stays below every member
            g = meet_all([a, b, c])
            pg = np.cumsum(g.entries)
            assert np.all(pg <= pa + 1e-10) and np.all(pg <= pb + 1e-10)
            assert np.all(pg <= np.cumsum(c.entries) + 1e-10)
            checked += 1
    _report(f"criterion 8: lattice laws exact to 1e-10 on {checked} pair/triple draws")


def test_criterion_09_entropy_cap_consistency():
    assert sanchez_consistency_check(cfg=CFG) is True
    target = 3.0 * (
        -(0.5 + 0.5 / math.sqrt(3)) * math.log2(0.5 + 0.5 / math.sqrt(3))
        - (0.5 - 0.5 / math.sqrt(3)) * math.log2(0.5 - 0.5 / math.sqrt(3))
    )
    _report(
        f"criterion 9: level-1 certificate entropy equals 3 h(1/2+1/(2 sqrt 3)) = "
        f"{target:.6f} bits within 1e-6"
    )


def test_criterion_10_coherence_sandwich():
    mu_t, mu_s = coherence_complementarity_bounds(XZ, CFG)
    rng = np.random.default_rng(8_888)
    violations = 0
    entropic_bad = 0
    h_t, h_s = shannon_entropy(mu_t), shannon_entropy(mu_s)
    for _ in range(1000):
        ket = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ket /= np.linalg.norm(ket)
        mus = [coherence_vector_pure(ket, b).vector for b in XZ]
        combined = direct_sum(mus)
        if not (
            prefix_majorized(mu_t, combined, tol=1e-8)
            and prefix_majorized(combined, mu_s, tol=1e-8)
        ):
            violations += 1
        h_pair = sum(shannon_entropy(m) for m in mus)
        if not (h_s <= h_pair + 1e-9 and h_pair <= h_t + 1e-9):
            entropic_bad += 1
    assert violations == 0
    assert entropic_bad == 0
    _report(
        "criterion 10: coherence sandwich and entropic form held on 1000 pure states"
    )


def test_criterion_11_cli_round_trip_determinism(tmp_path):
    import os

    configs_dir = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "configs"))
    jobs = [
        ("pauli_xz.json", "all", "states/maximally_mixed_d2.json"),
        ("example2_ABC.json", "pure", "states/ket_z_plus.json"),
        ("mub3_qubit.json", "pure", "states/ket_z_plus.json"),
    ]
    for cfg_name, constraint, state_name in jobs:
        blobs = []
        for run in range(2):
            bounds_path = tmp_path / f"{cfg_name}.{run}.bounds.json"
            report_path = tmp_path / f"{cfg_name}.{run}.report.json"
            csv_path = tmp_path / f"{cfg_name}.{run}.csv"
            assert cli_main(
                [
                    "bounds",
                    "--observables", os.path.join(configs_dir, cfg_name),
                    "--constraint", constraint,
                    "--out", str(bounds_path),
                    "--seed", "12",
                ]
            ) == 0
            code = cli_main(
                [
                    "verify",
                    "--observables", os.path.join(configs_dir, cfg_name),
                    "--state", os.path.join(configs_dir, state_name),
                    "--bounds", str(bounds_path),
                    "--out", str(report_path),
                ]
            )
            assert code == 0
            assert cli_main(
                [
                    "lorenz",
                    "--bounds", str(bounds_path),
                    "--state", os.path.join(configs_dir, state_name),
                    "--csv", str(csv_path),
                ]
            ) == 0
            blobs.append(
                bounds_path.read_bytes() + report_path.read_bytes() + csv_path.read_bytes()
            )
        assert blobs[0] == blobs[1], f"{cfg_name}: outputs differ between runs"
    _report("criterion 11: CLI outputs byte-identical across seeded re-runs for all shipped configs")
