"""Coherence vectors and the complementarity envelope between bases.

For a pure state the coherence vector with respect to a basis is just
its sorted outcome distribution, so the envelope machinery applies
verbatim over pure states.  For mixed states the defining supremum runs
over all pure-state decompositions; here it is approximated from below
by one lattice join over sampled decompositions and labelled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bounds as bd
from . import majorization as mj
from .errors import UqcrError
from .quantum import DensityMatrix, ProjectiveObservable


class NotNormalized(UqcrError):
    """State vector is not unit length."""


@dataclass(frozen=True)
class CoherenceSampling:
    """Decomposition sampling knobs for the mixed-state approximation."""

    samples: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        # messages start with the field name, which the CLI maps to its flag
        for name in ("samples", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class CoherenceVector:
    basis_name: str
    vector: mj.ProbVector
    exactness: str  # "exact" | "approximate_lower"


def coherence_vector_pure(psi, basis: ProjectiveObservable) -> CoherenceVector:
    """Sorted squared amplitudes of a unit vector in a rank-1 basis."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise NotNormalized(f"|psi| = {np.linalg.norm(vec)!r}")
    coords = basis.basis_vectors().conj() @ vec
    probs = np.abs(coords) ** 2
    return CoherenceVector(basis.name, mj.from_unsorted(probs, 1.0), "exact")


# bytes a mixed state's Haar block may take, 16 (samples + 1) d^2 at rank d
HAAR_BLOCK_BYTES = 1 << 30
# bytes of Ginibre draws per slice of the Haar block; QR and its temporaries
# then take a few MB beside the block, whatever the sample count
_HAAR_SLICE_BYTES = 1 << 20


@lru_cache(maxsize=8)
def _haar_block(samples: int, seed: int, rank: int) -> np.ndarray:
    """Read-only ((samples + 1) rank, rank) block: the identity, then the
    conjugate of each Haar unitary (QR of a complex Ginibre matrix drawn
    from ``seed``, phases fixed by diag(R)); the last 8 keys stay cached.
    Slices of samples are drawn and factored into the block in turn, in
    the order of one draw of all samples."""
    rng = np.random.default_rng(seed)
    block = np.empty((samples + 1, rank, rank), dtype=complex)
    block[0] = np.eye(rank)
    step = max(1, _HAAR_SLICE_BYTES // (16 * rank * rank))
    for lo in range(0, samples, step):
        g = rng.standard_normal((min(step, samples - lo), 2, rank, rank))
        q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        d = np.diagonal(r, axis1=-2, axis2=-1)
        np.conjugate(q * (d / np.abs(d))[:, None, :], out=block[1 + lo:1 + lo + len(g)])
    block = block.reshape(-1, rank)
    block.setflags(write=False)
    return block


def coherence_vector_mixed_approx(rho: DensityMatrix, basis: ProjectiveObservable,
                                  cfg: CoherenceSampling = CoherenceSampling()) -> CoherenceVector:
    """Join over sampled pure-state decompositions of ``rho``.

    Every finite decomposition arises from a unitary mixing of the eigen
    ensemble, so the returned vector is majorized by the true coherence
    vector.  The eigen ensemble and ``cfg.samples`` Haar mixings give one
    prefix-sum row each (per-member sorted outcome weights, summed); a
    single lattice join over all rows finishes.  The mixing unitaries
    depend only on ``(cfg.samples, cfg.seed, rank)``; they are drawn once
    per key (the last 8 keys stay cached, 16 (samples + 1) rank^2 bytes
    each) and one matrix product gives every member's amplitudes under
    every mixing.  Sample s+1 extends the draws of sample s, so the
    vector is monotone in the sample count for a fixed seed.
    """
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    rank = int(w.size)
    if rank == 1:
        return coherence_vector_pure(v[:, 0], basis)
    members = basis.basis_vectors().conj() @ (v * np.sqrt(w)[None, :])  # (outcome, member)
    amp = _haar_block(cfg.samples, cfg.seed, rank) @ members.T  # (mix * member, outcome)
    weights = amp.real ** 2 + amp.imag ** 2
    weights.sort(axis=1)
    sums = np.einsum("kmi->ki", weights.reshape(-1, rank, weights.shape[1]))
    prefixes = np.cumsum(sums[:, ::-1], axis=1)
    return CoherenceVector(basis.name, mj.join_prefix_sums(prefixes, 1.0), "approximate_lower")


def coherence_complementarity_bounds(bases, cfg: bd.SolverConfig = bd.SolverConfig()):
    """Envelopes (mu_t, mu_s) for the direct sum of coherence vectors.

    Evaluated over pure states, where coherence vectors coincide with
    sorted outcome distributions; needs at least two bases.
    """
    bases = list(bases)
    if len(bases) < 2:
        raise ValueError("complementarity needs at least two bases")
    constraint = bd.StateConstraint.pure_only()
    mu_t, _ = bd.infimum_t(bases, constraint, cfg)
    mu_s, _ = bd.supremum_s(bases, constraint)
    return mu_t, mu_s
