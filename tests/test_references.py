"""The benchmark's stored envelopes, checked in the test suite.

``perfbench/workloads.py`` defines the 99 reference jobs and
``perfbench/references.json`` holds their ``t`` and ``s`` as
``perfbench/make_references.py`` wrote them; both are only read here.
``s`` is checked on every job, ``t`` on the rank-1 all-states jobs,
which close at the uniform dual.  The tolerances are the benchmark's.
The jobs also check the gathered ``s`` sweep against brute force, and
pin the one-matmul Born probabilities bit for bit to the code path they
replaced.
"""

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from uqcr import bounds as bd
from uqcr.cli import _parse_constraint

from helpers import assert_max_certificates

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
    # the sweep gathers flat subsets of the stacked projectors; brute force
    # over itertools.combinations gives every level's maximum, and each
    # winner's subset, split into per-observable index sets, reproduces it
    assert_max_certificates(wl.parse_checked(job), _parse_constraint(job.constraint))


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
