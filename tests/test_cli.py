import json
import math
import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from uqcr import cli, infimum_t, min_topn_over_states, standard_mub_set
from uqcr.bounds import SolverConfig, StateConstraint
from uqcr.cli import _dump_json, main

from helpers import coarse_grained_basis, random_orthonormal_basis

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config(name):
    return os.path.abspath(os.path.join(CONFIGS, name))


def run(args):
    return main(args)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.fixture(autouse=True, scope="module")
def documents_match_json():
    # every document the tests here write, through the direct writer, has json's bytes
    def checked(obj):
        text = _dump_json(obj)
        assert text == _json_dumps(obj)
        return text

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_dump_json", checked)
        yield


@pytest.fixture()
def xz_bounds_file(tmp_path):
    out = tmp_path / "bounds.json"
    code = run(
        ["bounds", "--observables", config("pauli_xz.json"), "--out", str(out), "--seed", "3"]
    )
    assert code == 0
    return out


def test_bounds_output_schema(xz_bounds_file):
    doc = json.loads(xz_bounds_file.read_text())
    assert doc["schema"] == "uqcr.bounds/1"
    assert doc["dimension"] == 2
    assert doc["total"] == 2.0
    assert np.allclose(doc["t"], [0.5, 0.5, 0.5, 0.5], atol=1e-6)
    expected_s = [1.0, 1 / math.sqrt(2), 1 - 1 / math.sqrt(2), 0.0]
    assert np.allclose(doc["s"], expected_s, atol=1e-9)
    assert len(doc["certificates"]["min"]) == 3
    assert len(doc["certificates"]["max"]) == 3
    state = doc["certificates"]["min"][0]["achieving_state"]
    assert isinstance(state[0][0], list) and len(state[0][0]) == 2  # [re, im]
    assert doc["solver_config"]["seed"] == 3


def test_verify_equality_case(tmp_path, xz_bounds_file, capsys):
    report_path = tmp_path / "report.json"
    code = run(
        [
            "verify",
            "--observables", config("pauli_xz.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            "--bounds", str(xz_bounds_file),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["sandwich_ok"] == [True, True]
    assert report["entropy_sum"] == pytest.approx(2.0)
    assert report["slack"]["cap_minus_sum"] == pytest.approx(0.0, abs=1e-6)
    # round trip: vectors echo the bounds file bit-for-bit
    bounds_doc = json.loads(xz_bounds_file.read_text())
    assert report["t"] == bounds_doc["t"]
    assert report["s"] == bounds_doc["s"]


def test_verify_detects_inadmissible_state(tmp_path, capsys):
    bounds_path = tmp_path / "mub_pure.json"
    assert run(
        [
            "bounds",
            "--observables", config("mub3_qubit.json"),
            "--constraint", "pure",
            "--out", str(bounds_path),
            "--seed", "3",
        ]
    ) == 0
    code = run(
        [
            "verify",
            "--observables", config("mub3_qubit.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            "--bounds", str(bounds_path),
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "not admissible" in err
    assert "violated" in err


def test_verify_missing_bounds_file(tmp_path, capsys):
    code = run(
        [
            "verify",
            "--observables", config("pauli_xz.json"),
            "--state", config("states/ket_z_plus.json"),
            "--bounds", str(tmp_path / "nope.json"),
        ]
    )
    assert code == 1


def test_lorenz_csv(tmp_path, xz_bounds_file):
    csv_path = tmp_path / "curves.csv"
    code = run(
        [
            "lorenz",
            "--bounds", str(xz_bounds_file),
            "--state", config("states/ket_z_plus.json"),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "n,L_t,L_s,L_P1"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[1]) for r in rows] == pytest.approx([0, 0.5, 1.0, 1.5, 2.0], abs=1e-6)
    assert [float(r[3]) for r in rows] == pytest.approx([0, 1.0, 1.5, 2.0, 2.0], abs=1e-9)
    assert all(float(r[1]) <= float(r[3]) + 1e-9 or i == 0 for i, r in enumerate(rows))
    # final row carries the total in every column
    assert [float(x) for x in rows[-1][1:]] == pytest.approx([2.0, 2.0, 2.0])


def test_lorenz_without_states(tmp_path, xz_bounds_file):
    csv_path = tmp_path / "two.csv"
    assert run(["lorenz", "--bounds", str(xz_bounds_file), "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[0] == "n,L_t,L_s"


def test_entropy_stdout(xz_bounds_file, capsys):
    code = run(
        [
            "entropy",
            "--observables", config("pauli_xz.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            "--bounds", str(xz_bounds_file),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entropy_sum"] == pytest.approx(2.0)
    assert doc["entropy_cap"] == pytest.approx(2.0, abs=1e-6)
    assert doc["tightened_cap"] == pytest.approx(2.0, abs=1e-6)


def test_coherence_stdout(capsys):
    code = run(
        [
            "coherence",
            "--bases", config("pauli_xz.json"),
            "--state", config("states/ket_z_plus.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            "--samples", "16",
            "--seed", "2",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.allclose(doc["mu_t"], 0.5, atol=1e-6)
    assert doc["states"][0]["per_basis"][0]["exactness"] == "exact"
    assert doc["states"][1]["per_basis"][0]["exactness"] == "approximate_lower"


@pytest.mark.parametrize("flag, value", [("--samples", "-5"), ("--seed", "-1")])
def test_bad_coherence_flag_is_input_error(capsys, flag, value):
    code = run(
        [
            "coherence",
            "--bases", config("pauli_xz.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            flag, value,
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: {flag}: {flag[2:]} must be >= 0" in captured.err
    assert captured.out == ""


def test_coherence_rejects_coarse_bases_before_solving(tmp_path, capsys, monkeypatch):
    from uqcr import coherence

    def no_solve(*args, **kwargs):
        raise AssertionError("the bases must be checked before any solve")

    monkeypatch.setattr(coherence, "coherence_complementarity_bounds", no_solve)
    coarse = [[[[float(z), 0.0] for z in row] for row in np.diag(diag)]
              for diag in ((1, 1, 0), (0, 0, 1))]
    bases = tmp_path / "bases.json"
    bases.write_text(json.dumps({"dimension": 3, "observables": [
        {"name": "m", "preset": "mub_set"}, {"name": "c", "projectors": coarse}]}))
    state = tmp_path / "mixed.json"
    state.write_text(json.dumps({"density": [[[z / 3, 0.0] for z in row] for row in np.eye(3)]}))
    for extra in ([], ["--state", str(state)]):
        assert run(["coherence", "--bases", str(bases), *extra]) == 1
        captured = capsys.readouterr()
        assert "error: --bases: observable 'c' has degenerate outcomes" in captured.err
        assert captured.out == ""


def test_coherence_rejects_a_single_basis_before_solving(tmp_path, capsys, monkeypatch):
    from uqcr import coherence

    def no_solve(*args, **kwargs):
        raise AssertionError("the basis count must be checked before any solve")

    monkeypatch.setattr(coherence, "coherence_complementarity_bounds", no_solve)
    bases = tmp_path / "one.json"
    bases.write_text(json.dumps({"dimension": 2, "observables": [
        {"name": "z", "preset": "pauli_z"}]}))
    assert run(["coherence", "--bases", str(bases), "--state", config("states/ket_z_plus.json")]) == 1
    captured = capsys.readouterr()
    assert f"error: --bases: complementarity needs at least two bases, {bases} has 1" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_coherence_refuses_oversized_samples(capsys, monkeypatch):
    from uqcr import coherence

    def no_block(*args, **kwargs):
        raise AssertionError("--samples must be checked before any allocation")

    monkeypatch.setattr(coherence, "_haar_block", no_block)
    monkeypatch.setattr(coherence, "coherence_complementarity_bounds", no_block)
    # 16 (samples + 1) d^2 bytes in d=2: 2^24 samples is just over 1 GiB
    code = run(["coherence", "--bases", config("pauli_xz.json"),
                "--state", config("states/maximally_mixed_d2.json"),
                "--samples", str(1 << 24), "--seed", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: --samples: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_coherence_same_seed_same_bytes(capsys):
    args = ["coherence", "--bases", config("pauli_xz.json"),
            "--state", config("states/bloch_tilted.json"),
            "--state", config("states/maximally_mixed_d2.json"),
            "--state", config("states/ket_z_plus.json"), "--seed", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["verify", "entropy"])
def test_observables_default_to_bounds_file(xz_bounds_file, capsys, command):
    args = [
        command,
        "--state", config("states/bloch_tilted.json"),
        "--bounds", str(xz_bounds_file),
    ]
    assert run(args + ["--observables", config("pauli_xz.json")]) == 0
    with_file = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == with_file
    assert json.loads(with_file)["entropy_sum"] > 0.0


@pytest.mark.parametrize("entry, message", [
    ('{"name": "A", "bloch_axis": [1, 0]}', "bloch_axis"),
    ('{"name": "a", "basis": 5}', "bad.json.observables[0]: "),
    ('{"name": "a", "projectors": 5}', "bad.json.observables[0]: "),
], ids=["bloch_axis", "basis", "projectors"])
def test_malformed_json_names_field(tmp_path, capsys, entry, message):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "observables": [%s]}' % entry)
    code = run(["bounds", "--observables", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert message in capsys.readouterr().err


def test_non_finite_numbers_name_field(tmp_path, xz_bounds_file, capsys):
    obs = tmp_path / "obs.json"
    obs.write_text(
        '{"dimension": 2, "observables": [{"name": "Z", "basis": '
        '[[[1, 0], [0, 0]], [[0, 0], [NaN, 0]]]}]}'
    )
    assert run(["bounds", "--observables", str(obs), "--out", str(tmp_path / "o.json")]) == 1
    assert "observables[0].basis[1][1]: complex parts must be finite" in capsys.readouterr().err
    state = tmp_path / "state.json"
    huge = "1" + "0" * 400  # a JSON integer too large for a float
    for text, message in (
        ('{"bloch": [0, 0, Infinity]}', "state.json.bloch: entries must be finite"),
        ('{"bloch": [0, 0, 1], "norm": NaN}', "state.json.norm: must be finite"),
        ('{"bloch": [0, 0, 1], "norm": [0.5]}', "state.json.norm: expected a number"),
        ('{"bloch": [0, 0, %s]}' % huge, "state.json.bloch: entries must be finite"),
        ('{"bloch": [0, 0, 1], "norm": %s}' % huge, "state.json.norm: must be finite"),
        ('{"ket": [[1, 0], [%s, 0]]}' % huge, "state.json.ket[1]: complex parts must be finite"),
    ):
        state.write_text(text)
        code = run(
            [
                "verify",
                "--observables", config("pauli_xz.json"),
                "--state", str(state),
                "--bounds", str(xz_bounds_file),
            ]
        )
        assert code == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, entries", [
    ("verify", [{"name": "X", "preset": "pauli_x"}, {"name": "Y", "preset": "pauli_y"}]),
    ("entropy", [{"name": "mub", "preset": "mub_set"}]),  # X, Y, Z
])
def test_mismatched_observables_name_field(tmp_path, xz_bounds_file, capsys, command, entries):
    # the bounds file holds X and Z; both inputs first differ at index 1
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"dimension": 2, "observables": entries}))
    code = run(
        [
            command,
            "--observables", str(obs),
            "--state", config("states/maximally_mixed_d2.json"),
            "--bounds", str(xz_bounds_file),
        ]
    )
    assert code == 1
    assert "error: --observables: observables[1] differs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--multistarts", "0", "multistarts"),
        ("--max-iter", "-1", "max_iter"),
        ("--seed", "-1", "seed"),
    ],
)
def test_bad_solver_flag_is_input_error(tmp_path, capsys, flag, value, field):
    out = tmp_path / "o.json"
    code = run(
        [
            "bounds",
            "--observables", config("mub3_qubit.json"),
            "--constraint", "pure",
            flag, value,
            "--out", str(out),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: {flag}: {field} must be" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("total", "two"),
    ("total", [2.0]),
    ("observables", {"name": "X"}),
    ("observables", "pauli_xz"),
    ("observables[0]", 5),
    ("observables[0]", {"name": "X", "projectors": 5}),
    pytest.param("total", 10**400, id="total-too-large-for-float"),
    # a short s once passed verify with exit 0, and a long t broke lorenz
    pytest.param("s", [1.0, 1.0], id="short_s"),
    pytest.param("t", [0.5] * 6, id="long_t"),
    pytest.param("t", [1.0, 0.5, 0.5], id="short_t"),
    pytest.param("total", 3.0, id="total_not_M"),
])
def test_malformed_bounds_file_names_field(tmp_path, xz_bounds_file, capsys, field, value):
    doc = json.loads(xz_bounds_file.read_text())
    if field == "observables[0]":
        doc["observables"][0] = value
    else:
        doc[field] = value
    bad = tmp_path / "bad_bounds.json"
    bad.write_text(json.dumps(doc))
    state = config("states/maximally_mixed_d2.json")
    for argv in (
        ["verify", "--state", state, "--bounds", str(bad)],
        ["lorenz", "--bounds", str(bad), "--csv", str(tmp_path / "l.csv")],
        ["entropy", "--state", state, "--bounds", str(bad)],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {bad}.{field}: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("field", ["t", "s"])
def test_nan_envelope_is_input_error(tmp_path, xz_bounds_file, capsys, field):
    # json reads the NaN literal, and NaN passes every comparison
    doc = json.loads(xz_bounds_file.read_text())
    doc[field][0] = math.nan
    bad = tmp_path / "nan_bounds.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text()
    state = config("states/maximally_mixed_d2.json")
    csv = tmp_path / "l.csv"
    for argv in (
        ["verify", "--state", state, "--bounds", str(bad)],
        ["lorenz", "--bounds", str(bad), "--csv", str(csv)],
        ["entropy", "--state", state, "--bounds", str(bad)],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {bad}.{field}: entries must be finite" in captured.err
        assert captured.out == ""
        assert not csv.exists()


def test_bounds_file_with_oracle_samples_still_verifies(tmp_path, xz_bounds_file, capsys):
    # files written while the solver had a sampling oracle and a --tol flag
    # carry solver_config.oracle_samples and .tol; readers ignore solver_config
    state = config("states/maximally_mixed_d2.json")
    assert run(["verify", "--state", state, "--bounds", str(xz_bounds_file)]) == 0
    expected = capsys.readouterr()
    doc = json.loads(xz_bounds_file.read_text())
    assert "tol" not in doc["solver_config"]
    doc["solver_config"]["oracle_samples"] = 100_000
    doc["solver_config"]["tol"] = 1e-7
    old = tmp_path / "old_bounds.json"
    old.write_text(json.dumps(doc, indent=2))
    assert run(["verify", "--state", state, "--bounds", str(old)]) == 0
    assert capsys.readouterr() == expected


def test_choice_budget_rejects_before_solving(tmp_path, capsys, monkeypatch):
    # 10 random bases in d=6: L=60, and level 30 alone would need
    # C(60, 30) * 30 subset-operator blocks of 6x6 complex entries
    from uqcr import bounds

    def no_solve(*args, **kwargs):
        raise AssertionError("the size guard must fire before t is solved")

    monkeypatch.setattr(bounds, "infimum_t", no_solve)
    rng = np.random.default_rng(60)
    entries = []
    for i in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        entries.append({"name": f"b{i}", "basis": [[[z.real, z.imag] for z in row] for row in q.T]})
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps({"dimension": 6, "observables": entries}))
    out = tmp_path / "o.json"
    assert run(["bounds", "--observables", str(obs), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: --observables: L=60 outcomes: level 30 has {math.comb(60, 30)} subset" in err
    assert not out.exists()


def _write_bases(path, dim, bases):
    entries = [{"name": f"b{i}", "basis": [[[z.real, z.imag] for z in row] for row in kets]}
               for i, kets in enumerate(bases)]
    path.write_text(json.dumps({"dimension": dim, "observables": entries}))
    return str(path)


def test_choice_budget_accepts_one_d20_basis():
    # one 20-outcome basis in d=20: level 10 has C(20, 10) = 184,756
    # operators, under the per-level limit; the sweep streams them in
    # chunks, so no other size guard applies
    from uqcr import bounds, observable_from_basis

    bounds.check_choice_budget([observable_from_basis(np.eye(20))])


def _real_pairs(rows):
    return [[[float(x), 0.0] for x in row] for row in rows]


@pytest.mark.parametrize("doc, field", [
    ({"ket": [[1, 0], [0, 0], [0, 0]]}, "ket"),
    ({"density": _real_pairs(np.eye(3) / 3)}, "density"),
    ({"density": _real_pairs([[0.5, 0, 0], [0, 0.5, 0]])}, "density"),
], ids=["ket_d3", "density_d3", "density_2x3"])
def test_state_of_wrong_dimension_names_field(tmp_path, xz_bounds_file, capsys, doc, field):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(doc))
    for argv in (
        ["verify", "--state", str(state), "--bounds", str(xz_bounds_file)],
        ["lorenz", "--bounds", str(xz_bounds_file), "--state", str(state),
         "--csv", str(tmp_path / "l.csv")],
        ["entropy", "--state", str(state), "--bounds", str(xz_bounds_file)],
        ["coherence", "--bases", config("pauli_xz.json"), "--state", str(state)],
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert f"error: {state}.{field}: " in captured.err
        assert captured.out == ""
    assert not (tmp_path / "l.csv").exists()


def test_coherence_checks_states_before_solving(tmp_path, capsys, monkeypatch):
    from uqcr import coherence

    def no_solve(*args, **kwargs):
        raise AssertionError("the states must be checked before any solve")

    monkeypatch.setattr(coherence, "coherence_complementarity_bounds", no_solve)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"ket": [[1, 0], [0, 0], [0, 0]]}))
    assert run(["coherence", "--bases", config("pauli_xz.json"),
                "--state", config("states/ket_z_plus.json"), "--state", str(state)]) == 1
    captured = capsys.readouterr()
    assert f"error: {state}.ket: dimension 3 != the observables' 2" in captured.err
    assert captured.out == ""


def _set(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` (keys and indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _one_observable(entry):
    return {"dimension": 2, "observables": [{"name": "A", **entry}]}


# (field, file, document or None for the bounds file, path to a number, message after the file)
_NUMBER_FIELDS = [
    ("basis", "observables", _one_observable({"basis": _real_pairs(np.eye(2))}),
     ("observables", 0, "basis", 0, 0, 0), ".observables[0].basis[0][0]: complex parts"),
    ("projectors", "observables",
     _one_observable({"projectors": [_real_pairs(np.diag(d)) for d in ((1, 0), (0, 1))]}),
     ("observables", 0, "projectors", 0, 0, 0, 0), ".observables[0].projectors[0][0][0]: complex parts"),
    ("bloch_axis", "observables", _one_observable({"bloch_axis": [0, 0, 1]}),
     ("observables", 0, "bloch_axis", 0), ".observables[0].bloch_axis: entries"),
    ("ket", "state", {"ket": [[1, 0], [0, 0]]}, ("ket", 0, 0), ".ket[0]: complex parts"),
    ("density", "state", {"density": _real_pairs([[1, 0], [0, 0]])}, ("density", 0, 0, 0),
     ".density[0][0]: complex parts"),
    ("bloch", "state", {"bloch": [0, 0, 1]}, ("bloch", 0), ".bloch: entries"),
    ("norm", "state", {"bloch": [0, 0, 1], "norm": 0.5}, ("norm",), ".norm:"),
    ("total", "bounds", None, ("total",), ".total:"),
    ("t", "bounds", None, ("t", 0), ".t: entries"),
    ("s", "bounds", None, ("s", 0), ".s: entries"),
]


@pytest.mark.parametrize("value", [True, "1", None, {}], ids=["true", "string", "null", "object"])
@pytest.mark.parametrize("field, kind, doc, path, message", _NUMBER_FIELDS,
                         ids=[case[0] for case in _NUMBER_FIELDS])
def test_non_number_names_field(tmp_path, xz_bounds_file, capsys, field, kind, doc, path,
                                message, value):
    # true and "1" once read as 1.0 in vectors, and an object in t ended in a traceback
    if doc is None:
        doc = json.loads(xz_bounds_file.read_text())
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(_set(doc, path, value)))
    out = tmp_path / "out.json"
    argv = {
        "observables": ["bounds", "--observables", str(bad), "--out", str(out)],
        "state": ["verify", "--state", str(bad), "--bounds", str(xz_bounds_file)],
        "bounds": ["verify", "--state", config("states/maximally_mixed_d2.json"),
                   "--bounds", str(bad)],
    }[kind]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {bad}{message} expected a number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_parser_is_built_once_and_state_lists_start_empty(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["coherence", "--bases", config("pauli_xz.json"), "--seed", "1"]
    assert run([*argv, "--state", config("states/ket_z_plus.json")]) == 0
    assert len(json.loads(capsys.readouterr().out)["states"]) == 1
    assert cli.build_parser().parse_args(argv).state is None
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["states"] == []


def test_fixed_bloch_norm_off_qubit_names_constraint(tmp_path, capsys, monkeypatch):
    from uqcr import bounds

    def no_solve(*args, **kwargs):
        raise AssertionError("the constraint must be checked before any solve")

    monkeypatch.setattr(bounds, "infimum_t", no_solve)
    obs = _write_bases(tmp_path / "obs.json", 3, [o.basis_vectors() for o in standard_mub_set(3)])
    out = tmp_path / "o.json"
    assert run(["bounds", "--observables", obs, "--constraint", "bloch=0.5",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: --constraint: " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_pure_haar_d4_triple_exits_zero(tmp_path, capsys):
    # per-level local searches left these minima non-concave, and assembling
    # t ended in a traceback
    rng = np.random.default_rng(4)
    bases = [random_orthonormal_basis(4, rng).basis_vectors() for _ in range(3)]
    out = tmp_path / "o.json"
    code = run(["bounds", "--observables", _write_bases(tmp_path / "obs.json", 4, bases),
                "--constraint", "pure", "--seed", "0", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert len(json.loads(out.read_text())["t"]) == 12


def test_invalid_json_syntax(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["bounds", "--observables", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_flag_is_input_error(capsys):
    assert run(["bounds", "--nonsense"]) == 1


def _assert_same_seed_bytes(tmp_path, observables, *flags):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(
            ["bounds", "--observables", config(observables), *flags, "--out", str(out),
             "--seed", "11"]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_determinism_byte_identical(tmp_path):
    _assert_same_seed_bytes(tmp_path, "pauli_xz.json")


def test_determinism_byte_identical_fixed_norm(tmp_path):
    # fixed-norm solves are the exact pure qubit solve mapped to radius r
    _assert_same_seed_bytes(tmp_path, "mub3_qubit.json", "--constraint", "bloch=0.5",
                            "--multistarts", "16")


def test_determinism_byte_identical_pure_qutrit_mubs(tmp_path):
    # the scan and its settling stage draw every start from the seed
    obs = _write_bases(tmp_path / "obs.json", 3, [o.basis_vectors() for o in standard_mub_set(3)])
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["bounds", "--observables", obs, "--constraint", "pure", "--seed", "3",
                    "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert "oracle_samples" not in json.loads(outs[0])["solver_config"]


def test_coarse_levels_are_isolated_and_deterministic(tmp_path):
    # each Kelley level builds its own LP model: a level solved alone
    # matches the same level inside a whole envelope bit for bit, and two
    # runs in one process write the same bytes
    rng = np.random.default_rng(18)
    observables = [coarse_grained_basis(4, (2, 1, 1), rng, f"c{i}") for i in range(3)]
    _, certs = infimum_t(observables, StateConstraint.all_states(), SolverConfig(seed=3))
    assert any(cert.diagnostics.iterations > 0 for cert in certs)
    for cert in certs:
        alone = min_topn_over_states(observables, cert.level, StateConstraint.all_states(),
                                     SolverConfig(seed=3))
        assert alone.value == cert.value
        assert alone.diagnostics == cert.diagnostics
        assert np.array_equal(alone.achieving_state.matrix, cert.achieving_state.matrix)
        assert alone.achieving_choice.index_sets == cert.achieving_choice.index_sets
    path = tmp_path / "coarse.json"
    entries = [{"name": obs.name, "projectors": [[[[z.real, z.imag] for z in row] for row in p]
                                                for p in obs.projectors]}
               for obs in observables]
    path.write_text(json.dumps({"dimension": 4, "observables": entries}))
    _assert_same_seed_bytes(tmp_path, str(path))


def test_env_seed_default(tmp_path, monkeypatch):
    monkeypatch.setenv("UQCR_SEED", "77")
    out = tmp_path / "env.json"
    assert run(["bounds", "--observables", config("pauli_xz.json"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solver_config"]["seed"] == 77


def test_module_entry_point():
    # run from src/ so that the checkout's package is found without an install
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "uqcr", "--help"], capture_output=True, text=True, cwd=src
    )
    assert proc.returncode == 0
    assert "bounds" in proc.stdout


def test_tilted_triple_config_round_trip(tmp_path):
    bounds_path = tmp_path / "tilted.json"
    assert run(
        [
            "bounds",
            "--observables", config("example2_ABC.json"),
            "--constraint", "pure",
            "--out", str(bounds_path),
            "--seed", "3",
        ]
    ) == 0
    doc = json.loads(bounds_path.read_text())
    cos_theta = math.sqrt((2 - math.sqrt(2)) / (6 - math.sqrt(2)))
    expected_first = 0.5 + 0.5 * cos_theta
    assert doc["t"][0] == pytest.approx(expected_first, abs=1e-4)
    assert run(
        [
            "verify",
            "--observables", config("example2_ABC.json"),
            "--state", config("states/ket_z_plus.json"),
            "--bounds", str(bounds_path),
            "--out", str(tmp_path / "r.json"),
        ]
    ) == 0


_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 5e-324, math.nan, math.inf, -math.inf]))
_TEXT = st.text() | st.sampled_from(["", "\u03c8", "\u540d", "tab\tquote\"", "\u2028", "\ud800", "\x7f"])
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_writer_matches_json_dumps(doc):
    assert _dump_json(doc) == _json_dumps(doc)


def test_writer_matches_json_on_subclasses_tuples_and_keys():
    class Float(float):
        def __repr__(self):
            return "not used"

    class Int(int):
        def __repr__(self):
            return "not used"

    docs = [
        {"f": Float(0.1), "i": Int(3), "np": np.float64(-2.5), "t": (1, [2.0, Float(3.0)]),
         "floats": (1.0, math.nan, -0.0), "empty": [[], {}, ()], "b": [True, False, None]},
        {1: "a", 10: "b", -2: [1.5]},
        {1.5: 0, -0.0: 1, math.inf: 2, -math.inf: 3},
        {False: 0, True: 1},
        {None: [None]},
        [np.float64(1e16), np.float64(5e-324)],
        "\u00e9",
        -0.0,
        [],
    ]
    for doc in docs:
        assert _dump_json(doc) == _json_dumps(doc)


@pytest.mark.parametrize("bad", [np.int64(3), {1, 2}, 1j, b"x", object(), {"a": [np.float32(1)]},
                                 {(1, 2): 1}, [1.0, np.float32(2)]],
                         ids=["np_int64", "set", "complex", "bytes", "object", "np_float32",
                              "tuple_key", "float32_in_floats"])
def test_writer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        _json_dumps(bad)
    with pytest.raises(TypeError):
        _dump_json(bad)


def test_import_and_rank1_bounds_leave_scipy_optimize_unloaded(tmp_path):
    # the HiGHS binding, and with it all of scipy.optimize, loads at a
    # level's first Kelley cut; run from src/ to find the checkout's package
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = str(tmp_path / "xz.json")
    code = ("import sys, uqcr\n"
            "assert 'scipy.optimize' not in sys.modules, 'import uqcr'\n"
            "from uqcr.cli import main\n"
            f"assert main(['bounds', '--observables', {config('pauli_xz.json')!r}, "
            f"'--out', {out!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'rank-1 bounds'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0, proc.stderr
