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

from uqcr import infimum_t, pauli_observable, standard_mub_set, supremum_s
from uqcr.bounds import SolverConfig, StateConstraint, _Oracle, planar_triple_observables

CONFIGS = {
    "two_paulis": lambda: ([pauli_observable("x"), pauli_observable("z")], "all_states"),
    "tilted_triple": lambda: (planar_triple_observables(math.pi / 4), "pure_only"),
    "qubit_mubs": lambda: (standard_mub_set(2), "pure_only"),
    "qutrit_mubs": lambda: (standard_mub_set(3), "all_states"),
    "qutrit_mubs_pure": lambda: (standard_mub_set(3), "pure_only"),
}


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
    dim = observables[0].dim
    if kind == "all_states":
        # a Hilbert-Schmidt state is the partial trace of a Haar ket on C^d (x) C^d,
        # whose Born probabilities under Pi_k (x) I are the state's under Pi_k
        proj, dim = np.kron(proj, np.eye(dim)), dim * dim
    oracle = _Oracle(proj, dim, args.samples, np.random.default_rng(args.seed))

    t_prefix, s_prefix = np.cumsum(t.entries)[:, None], np.cumsum(s.entries)[:, None]
    lower_bad = upper_bad = 0
    for prefix in oracle.prefix_chunks():  # (L, chunk), one column per state
        lower_bad += int(np.sum(np.any(prefix < t_prefix - args.tolerance, axis=0)))
        upper_bad += int(np.sum(np.any(prefix > s_prefix + args.tolerance, axis=0)))
    print(f"config={args.config} samples={args.samples} tolerance={args.tolerance:g}")
    print(f"t = {np.array2string(t.entries, precision=6)}")
    print(f"s = {np.array2string(s.entries, precision=6)}")
    print(f"lower violations: {lower_bad}")
    print(f"upper violations: {upper_bad}")
    return 0 if lower_bad == 0 and upper_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
