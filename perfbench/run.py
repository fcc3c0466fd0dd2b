"""uqcr benchmark: envelope solves and read-side certification, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller process: every call waits for the previous one.
Bounds are computed through ``uqcr.cli.main(["bounds", ...])`` on
observable files generated from the seed; states are then certified
with ``certainty.certify_state`` plus ``majorization.lorenz``, and
coherence vectors come from ``coherence.coherence_vector_mixed_approx``.
Every output is checked.  The last line of stdout is the result object;
the line before it is the run record (machine, versions, failures,
accuracy and, with ``--trace 1``, the tracing overhead).  Exit code 0
when every check passed, 1 when one failed, 2 when the program or the
arguments are unusable.  README.md says why each workload exists.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pinned before numpy loads OpenBLAS: on these small matrices one thread
# is faster and steadier than one thread per core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("rank1_all", "degenerate_all", "certify_stream")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run only the first job of the workload (self-test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "uqcr", "__init__.py")):
        print(f"error: no uqcr sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    return harness.run(args, import_s=time.perf_counter() - _T0, blas_threads=BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
