"""Regenerate ``references.json``: reference envelopes t and s per job.

Runs ``uqcr bounds`` on every job in ``workloads.reference_jobs()`` with
the flags the benchmark uses and stores the resulting vectors.  Run it
from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_references.py

Fixed configurations are solved with solver seed 0 and pool instance i
with solver seed i.  All-states envelopes do not depend on the solver
seed (they are assembled from the dual bound), and the pure-state ones
differ between seeds by less than the check tolerance in ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from uqcr import cli  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    refs = {}
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for job in wl.reference_jobs():
            seed = int(job.ref_key.split("/")[1]) if "/" in job.ref_key else 0
            obs_path = os.path.join(tmp, "obs.json")
            out_path = os.path.join(tmp, "bounds.json")
            with open(obs_path, "w", encoding="utf-8") as fh:
                json.dump(job.doc, fh)
            code = cli.main(job.argv(obs_path, out_path, seed))
            if code != 0:
                print(f"{job.ref_key}: uqcr bounds exited {code}", file=sys.stderr)
                return 1
            with open(out_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            refs[job.ref_key] = {"seed": seed, "t": doc["t"], "s": doc["s"]}
            print(job.ref_key, flush=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump({"pool": wl.POOL, "references": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
