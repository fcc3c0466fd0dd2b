"""Benchmark self-test: a tiny smoke pass of every workload, both modes.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs ``run.py --smoke`` (first job
only) with ``--trace 0`` and ``--trace 1`` and checks that the run exits
0, reports ``correct``, and prints exactly the end-to-end (untraced) or
per-layer (traced) metric names and units that BENCHMARK.json lists.  It
then copies BENCHMARK.json and this directory, without the program, to a
directory under ``out/`` and checks that the benchmark exits
non-zero there without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            result = last_json(proc.stdout)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != RESULT_KEYS or result["correct"] is not True \
                    or result["attempted"] < 1 or got != want:
                problems.append(f"{label}: unexpected result {json.dumps(result)[:2000]}")
            print(f"{label}: ok, {result['attempted']} operations checked", flush=True)
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"without the program: exit {proc.returncode}, no result printed")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
