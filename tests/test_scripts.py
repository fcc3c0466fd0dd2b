import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def run_sandwich_sampling(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "sandwich_sampling.py"), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_sandwich_sampling_qutrit_mubs():
    proc = run_sandwich_sampling("--config", "qutrit_mubs", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout


def test_sandwich_sampling_qubit_mubs_pure():
    proc = run_sandwich_sampling("--config", "qubit_mubs", "--samples", "2000")
    assert proc.returncode == 0, proc.stderr
    assert "lower violations: 0" in proc.stdout
    assert "upper violations: 0" in proc.stdout
