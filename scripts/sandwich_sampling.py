#!/usr/bin/env python3
"""Large-scale sandwich verification against random states.

Computes the envelopes for a chosen configuration, samples admissible
states, and counts prefix-sum violations of t below P below s at a given
tolerance.  Exits non-zero when any violation shows up.
"""

import argparse
import math
import sys

import numpy as np

from uqcr import infimum_t, observable_from_basis, pauli_observable, standard_mub_set, supremum_s
from uqcr.bounds import SolverConfig, StateConstraint, planar_triple_observables

# states per chunk: the Born probabilities of a chunk are one matmul
CHUNK = 4096


def haar_bases(seed, dim, count):
    """``count`` Haar-random bases in dimension ``dim``, each drawn from
    ``default_rng(seed)`` as a QR of a Ginibre matrix with the phases of R
    divided out (as ``perfbench/workloads.haar_basis`` draws them)."""
    rng, bases = np.random.default_rng(seed), []
    for i in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        bases.append(observable_from_basis((q * (np.diagonal(r) / np.abs(np.diagonal(r)))).T, f"b{i}"))
    return bases


CONFIGS = {
    "two_paulis": lambda: ([pauli_observable("x"), pauli_observable("z")], "all_states"),
    "tilted_triple": lambda: (planar_triple_observables(math.pi / 4), "pure_only"),
    "qubit_mubs": lambda: (standard_mub_set(2), "pure_only"),
    "qutrit_mubs": lambda: (standard_mub_set(3), "all_states"),
    "qutrit_mubs_pure": lambda: (standard_mub_set(3), "pure_only"),
    "haar4_pure": lambda: (haar_bases(4, 4, 3), "pure_only"),
}


def prefix_chunks(proj, kind, count, rng):
    """Sorted prefix sums of the Born probabilities of ``count`` random
    states, one (chunk, L) array per ``CHUNK`` states.  A state is
    G G^dag / tr(G G^dag) with G complex Gaussian: d x 1 gives a Haar ket
    (pure states), d x d a Hilbert-Schmidt state (all states)."""
    dim = proj.shape[-1]
    # row k is vec(Pi_k^T), so vec(rho) . row k = tr(Pi_k rho)
    flat = proj.transpose(0, 2, 1).reshape(len(proj), -1)
    cols = dim if kind == "all_states" else 1
    for lo in range(0, count, CHUNK):
        size = min(CHUNK, count - lo)
        g = rng.standard_normal((size, dim, cols)) + 1j * rng.standard_normal((size, dim, cols))
        rho = g @ g.conj().transpose(0, 2, 1)
        probs = (rho.reshape(size, -1) @ flat.T).real
        probs /= np.trace(rho, axis1=1, axis2=2).real[:, None]
        probs.sort(axis=1)
        yield np.cumsum(probs[:, ::-1], axis=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", choices=sorted(CONFIGS), default="qubit_mubs")
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    observables, kind = CONFIGS[args.config]()
    constraint = StateConstraint(kind)
    cfg = SolverConfig(seed=args.seed)
    t, _ = infimum_t(observables, constraint, cfg)
    s, _ = supremum_s(observables, constraint)

    proj = np.concatenate([np.stack(obs.projectors) for obs in observables])
    t_prefix, s_prefix = np.cumsum(t.entries), np.cumsum(s.entries)
    lower_bad = upper_bad = 0
    for prefix in prefix_chunks(proj, kind, args.samples, np.random.default_rng(args.seed)):
        lower_bad += int(np.sum(np.any(prefix < t_prefix - args.tolerance, axis=1)))
        upper_bad += int(np.sum(np.any(prefix > s_prefix + args.tolerance, axis=1)))
    print(f"config={args.config} samples={args.samples} tolerance={args.tolerance:g}")
    print(f"t = {np.array2string(t.entries, precision=6)}")
    print(f"s = {np.array2string(s.entries, precision=6)}")
    print(f"lower violations: {lower_bad}")
    print(f"upper violations: {upper_bad}")
    return 0 if lower_bad == 0 and upper_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
