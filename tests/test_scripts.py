import hashlib
import io
import json
import os
import re
import subprocess
import sys

from helpers import load_script

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_sandwich_sampling_qutrit_mubs():
    proc = run_script("sandwich_sampling.py", "--config", "qutrit_mubs", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout


def test_sandwich_sampling_qubit_mubs_pure():
    proc = run_script("sandwich_sampling.py", "--config", "qubit_mubs", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout
    assert "upper violations: 0" in proc.stdout


def test_sandwich_sampling_qutrit_mubs_pure():
    proc = run_script("sandwich_sampling.py", "--config", "qutrit_mubs_pure", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout
    assert "upper violations: 0" in proc.stdout


def test_sandwich_sampling_haar4_pure():
    # three Haar d=4 bases (default_rng(4)), pure: the scan's t holds
    # against states it never saw
    proc = run_script("sandwich_sampling.py", "--config", "haar4_pure", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout
    assert "upper violations: 0" in proc.stdout


def test_reproduce_qubit_envelopes_matches_closed_forms(tmp_path):
    proc = run_script("reproduce_qubit_envelopes.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    deviations = re.findall(r"closed-form deviation: (\S+)", proc.stdout)
    # tilted triple and qubit MUBs, pure and at Bloch norm 1/2
    assert len(deviations) == 3
    assert all(float(d) <= 1e-6 for d in deviations), deviations
    assert "== qubit_mubs_bloch_0.5 (constraint: fixed_bloch_norm) ==" in proc.stdout


def test_reference_digests_two_jobs(tmp_path):
    script = load_script("reference_digests.py")
    wl = script.load_workloads()
    jobs = [wl.pauli_xz(), wl.mub3_all()]
    out = io.StringIO()
    assert script.write_digests(jobs, str(tmp_path), out)
    lines = out.getvalue().splitlines()
    assert [line.split("  ")[1] for line in lines] == ["pauli_xz", "mub3_all"]
    for line, job in zip(lines, jobs):
        blob = (tmp_path / f"{job.ref_key}.bounds.json").read_bytes()
        assert line.split("  ")[0] == hashlib.sha256(blob).hexdigest()
        assert json.loads(blob)["solver_config"]["seed"] == 0
    again = io.StringIO()
    assert script.write_digests(jobs, str(tmp_path / "again"), again)
    assert again.getvalue() == out.getvalue()
    same = io.StringIO()
    assert script.compare(jobs, str(tmp_path), str(tmp_path / "again"), same)
    assert same.getvalue() == "0 of 2 bounds files differ\n"
    # a moved s entry, a dropped solver_config field and a flipped zero sign
    path = tmp_path / "again" / "mub3_all.bounds.json"
    doc = json.loads(path.read_text())
    doc["s"][0] += 1e-3
    del doc["solver_config"]["seed"]
    assert doc["certificates"]["min"][0]["diagnostics"]["residual"] == 0.0
    doc["certificates"]["min"][0]["diagnostics"]["residual"] = -0.0
    path.write_text(json.dumps(doc))
    diff = io.StringIO()
    assert script.compare(jobs, str(tmp_path), str(tmp_path / "again"), diff)
    assert diff.getvalue().splitlines() == [
        "mub3_all: certificates.min, s, solver_config.seed; max |dt| 0, max |ds| 0.001",
        "1 of 2 bounds files differ",
    ]
    path.unlink()
    assert not script.compare(jobs, str(tmp_path), str(tmp_path / "again"), io.StringIO())
