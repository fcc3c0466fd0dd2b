#!/usr/bin/env python3
"""SHA-256 digests of the benchmark's reference bounds files.

    python3 scripts/reference_digests.py OUTDIR > digests.txt

Writes the bounds file of every reference job in ``perfbench/workloads.py``
to OUTDIR through ``uqcr.cli.main`` (the job's flags, seed 0) and prints
one ``sha256  ref_key`` line per job.  Run it in two checkouts and
``diff`` the outputs: an empty diff means every file is byte-identical.
Only reads ``perfbench/``.  Exits 1 when a job's ``uqcr bounds`` fails.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import sys

from uqcr import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def write_digests(jobs, outdir: str, out=None) -> bool:
    """Write each job's bounds file to ``outdir`` and print its digest to ``out``
    (default stdout); False if one failed."""
    os.makedirs(outdir, exist_ok=True)
    ok = True
    for job in jobs:
        stem = os.path.join(outdir, job.ref_key.replace("/", "-"))
        with open(stem + ".observables.json", "w", encoding="utf-8") as fh:
            json.dump(job.doc, fh)
        code = cli.main(job.argv(stem + ".observables.json", stem + ".bounds.json", 0))
        if code != 0:
            print(f"{job.ref_key}: uqcr bounds exited {code}", file=sys.stderr)
            ok = False
            continue
        with open(stem + ".bounds.json", "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {job.ref_key}", file=out)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir")
    args = parser.parse_args(argv)
    return 0 if write_digests(load_workloads().reference_jobs(), args.outdir) else 1


if __name__ == "__main__":
    sys.exit(main())
