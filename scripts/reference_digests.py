#!/usr/bin/env python3
"""SHA-256 digests of the benchmark's reference bounds files.

    python3 scripts/reference_digests.py OUTDIR > digests.txt
    python3 scripts/reference_digests.py OUTDIR --compare OTHER_OUTDIR

Writes the bounds file of every reference job in ``perfbench/workloads.py``
to OUTDIR through ``uqcr.cli.main`` (the job's flags, seed 0) and prints
one ``sha256  ref_key`` line per job.  Run it in two checkouts and
``diff`` the outputs: an empty diff means every file is byte-identical.
With ``--compare`` it writes nothing: for each job whose bounds file in
OUTDIR differs from the one in OTHER_OUTDIR it prints the differing
fields (top-level keys, or ``key.sub`` inside an object) and the largest
|dt| and |ds| between the two files, then a count of differing files.
Only reads ``perfbench/``.  Exits 1 when a job's ``uqcr bounds`` fails
or a file to compare cannot be read.
"""

import argparse
import hashlib
import importlib.util
import json
import math
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


def _text(value) -> str:
    # canonical JSON text: equal texts mean equal bytes in a bounds file,
    # down to the sign of a zero
    return json.dumps(value, sort_keys=True)


def differing_fields(a: dict, b: dict) -> list:
    """Top-level keys whose values differ; inside an object, its differing ``key.sub``."""
    fields = []
    for key in sorted(set(a) | set(b)):
        x, y = a.get(key), b.get(key)
        if _text(x) == _text(y):
            continue
        if isinstance(x, dict) and isinstance(y, dict):
            fields += [f"{key}.{sub}" for sub in sorted(set(x) | set(y))
                       if _text(x.get(sub)) != _text(y.get(sub))]
        else:
            fields.append(key)
    return fields


def _max_delta(x, y) -> float:
    if not isinstance(x, list) or not isinstance(y, list) or len(x) != len(y):
        return math.inf
    return max((abs(p - q) for p, q in zip(x, y)), default=0.0)


def compare(jobs, outdir: str, other: str, out=None) -> bool:
    """Print each job whose bounds file differs between ``outdir`` and ``other``,
    with its differing fields and largest |dt| and |ds|, then the count of
    such files (to ``out``, default stdout); False if a file cannot be read."""
    ok, differing = True, 0
    for job in jobs:
        name = job.ref_key.replace("/", "-") + ".bounds.json"
        try:
            docs = []
            for directory in (outdir, other):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    docs.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"{job.ref_key}: {exc}", file=sys.stderr)
            ok = False
            continue
        fields = differing_fields(*docs)
        if fields:
            differing += 1
            dt, ds = (_max_delta(docs[0].get(k), docs[1].get(k)) for k in ("t", "s"))
            print(f"{job.ref_key}: {', '.join(fields)}; max |dt| {dt:.3g}, max |ds| {ds:.3g}",
                  file=out)
    print(f"{differing} of {len(jobs)} bounds files differ", file=out)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir")
    parser.add_argument("--compare", metavar="OTHER_OUTDIR",
                        help="compare OUTDIR's bounds files with OTHER_OUTDIR's; write nothing")
    args = parser.parse_args(argv)
    jobs = load_workloads().reference_jobs()
    if args.compare is not None:
        return 0 if compare(jobs, args.outdir, args.compare) else 1
    return 0 if write_digests(jobs, args.outdir) else 1


if __name__ == "__main__":
    sys.exit(main())
