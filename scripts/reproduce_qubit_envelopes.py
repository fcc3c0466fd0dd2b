#!/usr/bin/env python3
"""Reproduce the three shipped qubit configurations end to end, and the
qubit MUBs at Bloch norm 1/2.

For each configuration this computes the envelope vectors t and s,
compares the solver output against the closed forms where one exists,
prints the entropy caps, and writes the Lorenz-curve CSV next to the
requested output directory.
"""

import argparse
import math
import os
import sys

import numpy as np

from uqcr import (
    DensityMatrix,
    bloch_to_density,
    certify_state,
    infimum_t,
    lorenz,
    pauli_observable,
    qubit_mub_t,
    qubit_planar_triple_t,
    shannon_entropy,
    standard_mub_set,
    supremum_s,
)
from uqcr.bounds import SolverConfig, StateConstraint, planar_triple_observables


def run_config(label, observables, constraint, cfg, closed_form, outdir):
    t, certs = infimum_t(observables, constraint, cfg)
    s, _ = supremum_s(observables, constraint)
    print(f"== {label} (constraint: {constraint.kind}) ==")
    print("  t =", np.array2string(t.entries, precision=6))
    print("  s =", np.array2string(s.entries, precision=6))
    if closed_form is not None:
        err = float(np.abs(t.entries - closed_form.entries).max())
        print(f"  closed-form deviation: {err:.2e}")
    print(f"  entropy cap H(t) = {shannon_entropy(t):.6f} bits")
    levels = ", ".join(f"m{c.level}={c.value:.6f}" for c in certs)
    print(f"  level minima: {levels}")
    path = os.path.join(outdir, f"lorenz_{label}.csv")
    lt, ls = lorenz(t).values, lorenz(s).values
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,L_t,L_s\n")
        for k in range(len(lt)):
            fh.write(f"{k},{lt[k]:.12g},{ls[k]:.12g}\n")
    print(f"  wrote {path}")
    if constraint.kind == "all_states":
        rho = DensityMatrix.maximally_mixed(2)
    else:
        rho = bloch_to_density((0, 0, 1.0 if constraint.r is None else constraint.r))
    report = certify_state(observables, rho, (t, s))
    print(
        f"  spot state: sandwich={report.sandwich_ok}, "
        f"entropy_sum={report.entropy_sum:.6f}, cap={report.entropy_cap:.6f}"
    )
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    cfg = SolverConfig(seed=args.seed)

    run_config(
        "two_paulis",
        [pauli_observable("x"), pauli_observable("z")],
        StateConstraint.all_states(),
        cfg,
        None,
        args.outdir,
    )
    run_config(
        "tilted_triple",
        planar_triple_observables(math.pi / 4),
        StateConstraint.pure_only(),
        cfg,
        qubit_planar_triple_t(math.pi / 4, 1.0),
        args.outdir,
    )
    run_config(
        "qubit_mubs",
        standard_mub_set(2),
        StateConstraint.pure_only(),
        cfg,
        qubit_mub_t(1.0),
        args.outdir,
    )
    run_config(
        "qubit_mubs_bloch_0.5",
        standard_mub_set(2),
        StateConstraint.fixed_bloch_norm(0.5),
        cfg,
        qubit_mub_t(0.5),
        args.outdir,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
