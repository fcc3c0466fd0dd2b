"""Workload definitions: seeded inputs, bounds jobs and read-side state pools.

Every input the program sees is an observable JSON file in the format
``uqcr bounds --observables`` reads (``basis``, ``projectors``,
``bloch_axis`` or ``preset`` entries).  Random bases come from a pool of
``POOL`` instances; the workload seed picks the instance, so every seed
has a stored reference envelope (see ``make_references.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from uqcr import bounds as bd
from uqcr import cli
from uqcr.quantum import DensityMatrix, observable_from_basis

# Random-basis instances with a stored reference; seed -> seed % POOL.
POOL = 32
# Workloads whose bounds pass k solves instance (seed + k % ROTATION) % POOL:
# Kelley needs from a few to 80 cuts per level depending on the instance,
# so one instance per run would make bounds_s depend on the seed.  Cycling
# through three makes a dear instance one of three figures that bounds_s
# takes the median of, and runs each instance again for the byte-identity
# check.
ROTATING = ("degenerate_all",)
ROTATION = 3
# Flags that keep one bounds pass within a few seconds; see README.md.
DEGENERATE_FLAGS = ("--max-iter", "100")
PURE_FLAGS = ("--multistarts", "16")
# Read-side pool sizes and the fixed batch one traced unit runs.
STATE_POOL = 512
SANDWICH_SAMPLES = 2000
UNIT_CERTIFY = 400
UNIT_COHERENCE = 8
COHERENCE_SAMPLES = 256  # the library default


@dataclass
class Job:
    """One ``uqcr bounds`` invocation and what its output is checked against."""

    name: str
    ref_key: str
    doc: dict
    constraint: str
    flags: tuple = ()
    closed_t: np.ndarray | None = None
    fine_bases: list = field(default_factory=list)

    def argv(self, obs_path: str, out_path: str, seed: int) -> list:
        return ["bounds", "--observables", obs_path, "--constraint", self.constraint,
                "--seed", str(seed), *self.flags, "--out", out_path]

    @property
    def dim(self) -> int:
        return self.doc["dimension"]


# ---------------------------------------------------------------------------
# generators

def rng(*tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(t) for t in tags]))


def haar_basis(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are the kets of a Haar-random orthonormal basis."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q.T


def _cjson(z) -> list:
    return [float(z.real), float(z.imag)]


def basis_entry(name: str, kets: np.ndarray) -> dict:
    return {"name": name, "basis": [[_cjson(z) for z in ket] for ket in kets]}


def coarse_entry(name: str, kets: np.ndarray, ranks) -> dict:
    """Projectors summing consecutive kets in groups of the given ranks."""
    projectors, start = [], 0
    for rank in ranks:
        block = kets[start:start + rank]
        p = block.T @ block.conj()
        projectors.append([[_cjson(z) for z in row] for row in p])
        start += rank
    return {"name": name, "projectors": projectors}


def _random_rank1(family: str, dim: int, count: int, instance: int) -> Job:
    tag = {"d4x3": 43}[family]
    gen = rng(tag, instance)
    kets = [haar_basis(dim, gen) for _ in range(count)]
    doc = {"dimension": dim,
           "observables": [basis_entry(f"b{i}", k) for i, k in enumerate(kets)]}
    return Job(family, f"{family}/{instance}", doc, "all", fine_bases=kets)


def _random_coarse(family: str, dim: int, ranks, instance: int) -> Job:
    tag = {"d4c211x3": 421, "d6c321x3": 621}[family]
    gen = rng(tag, instance)
    kets = [haar_basis(dim, gen) for _ in range(3)]
    doc = {"dimension": dim,
           "observables": [coarse_entry(f"c{i}", k, ranks) for i, k in enumerate(kets)]}
    return Job(family, f"{family}/{instance}", doc, "all", DEGENERATE_FLAGS, fine_bases=kets)


def pauli_xz() -> Job:
    doc = {"dimension": 2, "observables": [{"name": "X", "preset": "pauli_x"},
                                           {"name": "Z", "preset": "pauli_z"}]}
    return Job("pauli_xz", "pauli_xz", doc, "all",
               closed_t=bd.two_basis_trivial_bound(2).entries)


def mub3_all() -> Job:
    doc = {"dimension": 3, "observables": [{"name": "mub", "preset": "mub_set"}]}
    return Job("mub3_all", "mub3_all", doc, "all")


def mub2_pure() -> Job:
    doc = {"dimension": 2, "observables": [{"name": "mub", "preset": "mub_set"}]}
    return Job("mub2_pure", "mub2_pure", doc, "pure", PURE_FLAGS,
               closed_t=bd.qubit_mub_t(1.0).entries)


def jobs_for(workload: str, seed: int) -> list[Job]:
    inst = seed % POOL
    if workload == "rank1_all":
        return [pauli_xz(), mub3_all(), _random_rank1("d4x3", 4, 3, inst)]
    if workload == "degenerate_all":
        return [_random_coarse("d4c211x3", 4, (2, 1, 1), inst),
                _random_coarse("d6c321x3", 6, (3, 2, 1), inst)]
    if workload == "certify_stream":
        return [mub3_all(), mub2_pure()]
    raise ValueError(f"unknown workload {workload!r}")


def reference_jobs() -> list[Job]:
    """Every job whose output is compared with a stored reference."""
    jobs = [pauli_xz(), mub3_all(), mub2_pure()]
    for inst in range(POOL):
        jobs += [_random_rank1("d4x3", 4, 3, inst),
                 _random_coarse("d4c211x3", 4, (2, 1, 1), inst),
                 _random_coarse("d6c321x3", 6, (3, 2, 1), inst)]
    return jobs


def parse_checked(job: Job):
    """Observables as ``parse_observable_file`` reads them; raises on rejection."""
    dim, observables = cli.parse_observable_file(job.doc, job.name)
    if dim != job.dim:
        raise ValueError(f"{job.name}: parsed dimension {dim} != {job.dim}")
    return observables


# ---------------------------------------------------------------------------
# admissible states

def sample_states(constraint: str, dim: int, count: int, rng) -> np.ndarray:
    """Admissible density matrices, drawn independently of the program's sampler."""
    if constraint == "all":
        g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
        mats = g @ np.conj(np.swapaxes(g, -1, -2))
        return mats / np.real(np.trace(mats, axis1=-2, axis2=-1))[:, None, None]
    if constraint == "pure":
        kets = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        return kets[:, :, None] * kets[:, None, :].conj()
    radius = float(constraint.split("=")[1])
    dirs = rng.standard_normal((count, 3))
    dirs *= radius / np.linalg.norm(dirs, axis=1)[:, None]
    eye = np.eye(2, dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return 0.5 * (eye + np.einsum("sk,kij->sij", dirs, np.stack([sx, sy, sz])))


def density_pool(mats: np.ndarray) -> list[DensityMatrix]:
    out = []
    for m in mats:
        m = 0.5 * (m + m.conj().T)
        out.append(DensityMatrix(m))
    return out


# Read side per workload: (job, weight) pairs the certify phase cycles
# through, and the job whose bases the coherence phase uses.  In
# certify_stream three mixed qutrit states per pure qubit state keep the
# median latency inside one mode of the two-mode latency distribution.
READ_PLANS = {
    "rank1_all": ([("d4x3", 1)], "d4x3"),
    "degenerate_all": ([("d6c321x3", 1)], "d6c321x3"),
    "certify_stream": ([("mub3_all", 3), ("mub2_pure", 1)], "mub3_all"),
}


def coherence_bases(job: Job, observables) -> list:
    """Rank-1 bases for the coherence phase: the job's own, or for coarse
    observables the random bases they were coarse-grained from."""
    if all(obs.is_rank_one for obs in observables):
        return list(observables)
    return [observable_from_basis(k, f"fine{i}") for i, k in enumerate(job.fine_bases)]
