"""The benchmark's stored envelopes, checked in the test suite.

``perfbench/workloads.py`` defines the 99 reference jobs and
``perfbench/references.json`` holds their ``t`` and ``s`` as
``perfbench/make_references.py`` wrote them; both are only read here.
``s`` is checked on every job, ``t`` on the rank-1 all-states jobs,
which close at the uniform dual.  The tolerances are the benchmark's.
The jobs also pin the gathered ``s`` sweep and the one-matmul Born
probabilities bit for bit to the code paths they replaced.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from uqcr import bounds as bd
from uqcr.cli import _parse_constraint

from helpers import reference_level_operators, reference_max_certificates

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
S_TOL = 1e-9
T_TOL = 1e-7


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
JOBS = wl.reference_jobs()
with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)["references"]
RANK1_ALL = [job for job in JOBS if job.constraint == "all" and not job.flags
             and all(obs.is_rank_one for obs in wl.parse_checked(job))]


def test_reference_jobs_are_all_stored():
    assert len(JOBS) == 99
    assert {job.ref_key for job in JOBS} == set(REFS)
    assert len(RANK1_ALL) == 34


@pytest.mark.parametrize("job", JOBS, ids=[job.ref_key for job in JOBS])
def test_reference_s(job):
    s, _ = bd.supremum_s(wl.parse_checked(job), _parse_constraint(job.constraint))
    assert np.max(np.abs(s.entries - REFS[job.ref_key]["s"])) <= S_TOL


@pytest.mark.parametrize("job", RANK1_ALL, ids=[job.ref_key for job in RANK1_ALL])
def test_reference_t_rank1_all_states(job):
    cfg = bd.SolverConfig(seed=REFS[job.ref_key]["seed"])
    t, _ = bd.infimum_t(wl.parse_checked(job), bd.StateConstraint.all_states(), cfg)
    assert np.max(np.abs(t.entries - REFS[job.ref_key]["t"])) <= T_TOL


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("job", JOBS, ids=[job.ref_key for job in JOBS])
def test_gathered_sweep_matches_split_sweep(job):
    observables = wl.parse_checked(job)
    constraint = _parse_constraint(job.constraint)
    total = sum(obs.outcome_count for obs in observables)
    tables = bd._choice_tables(observables, total // 2)
    for n in range(1, total // 2 + 1):
        ref = list(reference_level_operators(observables, n))
        chunks = list(bd._choice_chunks(tables, n))
        assert len(chunks) == len(ref)
        for (rows, ops), (sets, ref_ops) in zip(chunks, ref):
            assert _same_bits(ops, ref_ops)
            assert [tuple(t.sets[r] for t, r in zip(tables, row))
                    for row in zip(*(r.tolist() for r in rows))] == sets
    levels = range(1, total)
    certs = bd._max_certificates(observables, levels, constraint)
    for cert, (value, sets, cmat, state) in zip(
            certs, reference_max_certificates(observables, levels, constraint)):
        assert cert.value == value
        assert cert.achieving_choice.index_sets == sets
        assert _same_bits(cert.achieving_choice.matrix, cmat)
        assert _same_bits(cert.achieving_state.matrix, state)
    for n in levels:
        choices = bd.enumerate_choices(observables, n)
        ref = [(s, op) for sets, ops in reference_level_operators(observables, n)
               for s, op in zip(sets, ops)]
        assert [c.index_sets for c in choices] == [s for s, _ in ref]
        assert all(_same_bits(c.matrix, op) for c, (_, op) in zip(choices, ref))


@pytest.mark.parametrize("job", JOBS, ids=[job.ref_key for job in JOBS])
def test_born_matches_optimized_einsum(job):
    proj = bd._projector_stack(wl.parse_checked(job))
    dim = proj.shape[-1]
    rng = np.random.default_rng(len(job.ref_key))
    for batch in (1, 2, 5):
        g = rng.standard_normal((batch, dim, dim)) + 1j * rng.standard_normal((batch, dim, dim))
        states = g @ np.conj(np.swapaxes(g, -1, -2))
        states /= np.trace(states, axis1=-2, axis2=-1)[:, None, None]
        for rho in (states, np.eye(dim, dtype=complex)[None] / dim):
            want = np.einsum("sij,pji->sp", rho, proj, optimize=True).real
            assert _same_bits(bd._born(rho, proj), want)
