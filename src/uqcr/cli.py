"""Command-line front end: bounds, verify, lorenz, entropy, coherence.

File formats use JSON with complex numbers as [re, im] pairs and
matrices row-major; CSV output carries 12 significant digits.  Exit
codes: 0 success, 1 input error, 3 sandwich violation.  All file
writes go through write-temp-then-rename.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds as bd
from . import certainty
from . import coherence as coh
from . import majorization as mj
from .errors import UqcrError
from .quantum import (
    DensityMatrix,
    ProjectiveObservable,
    bloch_to_density,
    density_to_bloch,
    observable_from_basis,
    observable_from_bloch_axis,
    pauli_observable,
    standard_mub_set,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 3

BOUNDS_SCHEMA = "uqcr.bounds/1"
REPORT_SCHEMA = "uqcr.report/1"


class InputError(UqcrError):
    """Malformed or inconsistent input file; message names the field."""


# ---------------------------------------------------------------------------
# JSON <-> numpy

def _matrix_to_json(m: np.ndarray) -> list:
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()

def _number(x, field: str) -> float:
    """``x`` as a finite float.  Only JSON ints and floats pass: a bool,
    string, null, list or object is refused, and so are NaN, +-inf and ints
    too large for a float.  ``field`` opens the message: ``"PATH.norm:"``,
    or ``"PATH.bloch: entries"`` for a vector's entries."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InputError(f"{field} expected a number")
        try:
            x = float(x)
        except OverflowError:
            raise InputError(f"{field} must be finite") from None
    if not math.isfinite(x):
        raise InputError(f"{field} must be finite")
    return x

def _json_to_complex(x, field: str) -> complex:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise InputError(f"{field}: complex numbers are [re, im] pairs")
    parts = f"{field}: complex parts"
    return complex(_number(x[0], parts), _number(x[1], parts))

def _json_to_vector(x, field: str) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise InputError(f"{field}: expected a non-empty list")
    return np.array([_json_to_complex(z, f"{field}[{i}]") for i, z in enumerate(x)])

def _json_to_matrix(x, field: str) -> np.ndarray:
    if not isinstance(x, list) or not x:
        raise InputError(f"{field}: expected a non-empty row-major matrix")
    rows = [_json_to_vector(row, f"{field}[{i}]") for i, row in enumerate(x)]
    if len({r.size for r in rows}) != 1:
        raise InputError(f"{field}: rows differ in length")
    return np.stack(rows)

def _real_vector(x, field: str, size: int) -> np.ndarray:
    if not isinstance(x, list) or len(x) != size:
        raise InputError(f"{field}: expected {size} numbers")
    return np.array([_number(v, f"{field}: entries") for v in x])


def _one_of(doc: dict, keys: tuple, field: str) -> str:
    """The one key of ``keys`` that ``doc`` has."""
    found = [key for key in keys if key in doc]
    if len(found) != 1:
        raise InputError(f"{field}: exactly one of {'/'.join(keys)} required")
    return found[0]


@contextlib.contextmanager
def _naming(field: str | None):
    """Re-raise a library error in the block as an ``InputError`` naming
    ``field``; ``None`` names the flag that starts a config error's message
    ("max_iter must be >= 0" names --max-iter)."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, UqcrError) as exc:
        field = field or "--" + str(exc).split()[0].replace("_", "-")
        raise InputError(f"{field}: {exc}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    return doc


def _dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, bit for bit: ``json``
    itself turns to its pure-Python encoder whenever it indents."""
    return _json_text(obj, "\n") + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


def _json_key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return f'"{_json_float(key)}"'
    if key is None or key is True or key is False:
        return '"null"' if key is None else '"true"' if key else '"false"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj, newline: str) -> str:
    """``obj`` as ``json`` indents it, each line starting with ``newline``;
    types are tested in ``json``'s order."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if type(obj[0]) is float and all(type(x) is float for x in obj):
            # vectors and [re, im] pairs in one join; only nan and inf put an "n" in a repr
            text = sep.join(map(float.__repr__, obj))
            if "n" in text:
                text = sep.join(map(_json_float, obj))
        else:
            text = sep.join([_json_text(x, inner) for x in obj])
        return f"[{inner}{text}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{_json_key(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".uqcr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# input-file parsing

def parse_observable_file(doc: dict, origin: str = "observables"):
    dim = doc.get("dimension")
    if not isinstance(dim, int) or dim < 2:
        raise InputError(f"{origin}.dimension: expected an integer >= 2")
    entries = doc.get("observables")
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{origin}.observables: expected a non-empty list")
    observables: list[ProjectiveObservable] = []
    for i, entry in enumerate(entries):
        field = f"{origin}.observables[{i}]"
        if not isinstance(entry, dict):
            raise InputError(f"{field}: expected an object")
        name = entry.get("name", f"obs{i}")
        kind = _one_of(entry, ("basis", "projectors", "bloch_axis", "preset"), field)
        with _naming(field):
            if kind == "preset":
                observables.extend(_expand_preset(entry["preset"], dim, name, field))
                continue
            if kind == "bloch_axis":
                if dim != 2:
                    raise InputError(f"{field}.bloch_axis: only valid in dimension 2")
                axis = _real_vector(entry["bloch_axis"], f"{field}.bloch_axis", 3)
                obs = observable_from_bloch_axis(axis, name)
            elif kind == "basis":
                vecs = [
                    _json_to_vector(v, f"{field}.basis[{j}]")
                    for j, v in enumerate(entry["basis"])
                ]
                obs = observable_from_basis(vecs, name)
            else:
                mats = [
                    _json_to_matrix(m, f"{field}.projectors[{j}]")
                    for j, m in enumerate(entry["projectors"])
                ]
                obs = ProjectiveObservable(tuple(mats), name)
        if obs.dim != dim:
            raise InputError(f"{field}: dimension {obs.dim} != declared {dim}")
        observables.append(obs)
    return dim, observables


def _expand_preset(preset, dim: int, name: str, field: str):
    if preset in ("pauli_x", "pauli_y", "pauli_z"):
        if dim != 2:
            raise InputError(f"{field}.preset: {preset} is two-dimensional")
        obs = pauli_observable(preset[-1])
        return [ProjectiveObservable(obs.projectors, name or obs.name)]
    if preset == "mub_set":
        with _naming(f"{field}.preset"):
            return standard_mub_set(dim)
    raise InputError(f"{field}.preset: unknown preset {preset!r}")


def parse_state_file(doc: dict, dim: int, origin: str = "state") -> DensityMatrix:
    kind = _one_of(doc, ("density", "ket", "bloch"), origin)
    field = f"{origin}.{kind}"
    with _naming(field):
        if kind != "bloch":
            rho = (DensityMatrix(_json_to_matrix(doc[kind], field)) if kind == "density"
                   else DensityMatrix.from_ket(_json_to_vector(doc[kind], field)))
            if rho.dim != dim:
                raise InputError(f"{field}: dimension {rho.dim} != the observables' {dim}")
            return rho
        if dim != 2:
            raise InputError(f"{field}: only valid in dimension 2")
        vec = _real_vector(doc["bloch"], field, 3)
        if "norm" in doc:
            norm = _number(doc["norm"], f"{origin}.norm:")
            length = np.linalg.norm(vec)
            if length == 0.0:
                raise InputError(f"{field}: zero direction with a norm")
            vec = vec / length * norm
        return bloch_to_density(vec)


def _parse_constraint(text: str) -> bd.StateConstraint:
    if text == "all":
        return bd.StateConstraint.all_states()
    if text == "pure":
        return bd.StateConstraint.pure_only()
    if text.startswith("bloch="):
        with _naming("--constraint"):
            return bd.StateConstraint.fixed_bloch_norm(float(text[6:]))
    raise InputError(f"--constraint: expected all, pure or bloch=R, got {text!r}")


def _default_seed() -> int:
    raw = os.environ.get("UQCR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"UQCR_SEED: expected an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# serialization of results

def _probvector_to_json(p: mj.ProbVector) -> list:
    return [float(x) for x in p.entries]


def _fields(obj) -> dict:
    """A flat dataclass's fields by name (``dataclasses.asdict`` deep-copies)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _certificate_to_json(cert: bd.BoundCertificate) -> dict:
    return {
        "level": cert.level,
        "kind": cert.bound_kind,
        "value": cert.value,
        "achieving_state": _matrix_to_json(cert.achieving_state.matrix),
        "achieving_choice": {
            "level": cert.achieving_choice.level,
            "index_sets": [list(s) for s in cert.achieving_choice.index_sets],
        },
        # uqcr.bounds/1 keeps two fields no solver fills any more
        "diagnostics": {**_fields(cert.diagnostics), "residual": 0.0, "oracle_min": None},
    }


def _constraint_from_json(doc, field: str) -> bd.StateConstraint:
    with _naming(field):
        kind, r = doc["kind"], doc.get("r")
        return bd.StateConstraint(kind, r if r is None else _number(r, f"{field}.r:"))


def _bounds_from_file(path: str):
    doc = _load_json(path)
    for key in ("t", "s", "total", "constraint", "observables", "dimension"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    total = _number(doc["total"], f"{path}.total:")
    _, observables = parse_observable_file(doc, path)
    if total != len(observables):
        raise InputError(f"{path}.total: expected {len(observables)}, the observable count, "
                         f"got {total!r}")
    count = sum(obs.outcome_count for obs in observables)
    with _naming(f"{path}.t"):
        t = mj.ProbVector(_real_vector(doc["t"], f"{path}.t", count), total)
    with _naming(f"{path}.s"):
        s = mj.ProbVector(_real_vector(doc["s"], f"{path}.s", count), total)
    constraint = _constraint_from_json(doc["constraint"], f"{path}.constraint")
    return t, s, constraint, observables


def _observables_for(args, embedded):
    """The bounds file's observables, or --observables if it matches them in order."""
    if args.observables is None:
        return embedded
    _, observables = parse_observable_file(_load_json(args.observables), args.observables)
    for i in range(max(len(observables), len(embedded))):
        if i < min(len(observables), len(embedded)):
            ours = np.stack(observables[i].projectors)
            theirs = np.stack(embedded[i].projectors)
            if ours.shape == theirs.shape and np.max(np.abs(ours - theirs)) <= 1e-9:
                continue
        raise InputError(
            f"--observables: observables[{i}] differs from the one in {args.bounds}"
        )
    return observables


def _report_to_json(report: certainty.CertaintyReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "unit": report.unit,
        "P": _probvector_to_json(report.P),
        "t": _probvector_to_json(report.t),
        "s": _probvector_to_json(report.s),
        "sandwich_ok": [bool(report.sandwich_ok[0]), bool(report.sandwich_ok[1])],
        "entropy_sum": report.entropy_sum,
        "entropy_cap": report.entropy_cap,
        "tightened_cap": report.tightened_cap,
        "slack": report.slack,
    }


def _state_admissible(rho: DensityMatrix, constraint: bd.StateConstraint) -> bool:
    if constraint.kind == "all_states":
        return True
    if constraint.kind == "pure_only":
        return rho.is_pure(1e-8)
    return abs(np.linalg.norm(density_to_bloch(rho)) - constraint.r) <= 1e-8


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds(args) -> int:
    dim, observables = parse_observable_file(_load_json(args.observables), args.observables)
    constraint = _parse_constraint(args.constraint)
    if constraint.r is not None and dim != 2:
        raise InputError(f"--constraint: bloch=R needs dimension 2, the observables have {dim}")
    with _naming(None):
        cfg = bd.SolverConfig(
            max_iter=args.max_iter,
            multistarts=args.multistarts,
            seed=args.seed if args.seed is not None else _default_seed(),
        )
    with _naming("--observables"):
        bd.check_choice_budget(observables)
    try:
        t, t_certs = bd.infimum_t(observables, constraint, cfg)
    except mj.NotConcave as exc:
        raise InputError(f"--max-iter: {exc}; allow more LPs per level") from None
    s, s_certs = bd.supremum_s(observables, constraint)
    doc = {
        "schema": BOUNDS_SCHEMA,
        "dimension": dim,
        "observables": [
            {"name": obs.name, "projectors": [_matrix_to_json(p) for p in obs.projectors]}
            for obs in observables
        ],
        "constraint": _fields(constraint),
        "solver_config": _fields(cfg),
        "total": t.total,
        "t": _probvector_to_json(t),
        "s": _probvector_to_json(s),
        "certificates": {
            "min": [_certificate_to_json(c) for c in t_certs],
            "max": [_certificate_to_json(c) for c in s_certs],
        },
    }
    _atomic_write(args.out, _dump_json(doc))
    return EXIT_OK


def _certify(args):
    """``verify``/``entropy``: the state's report, the state, the bounds' constraint."""
    t, s, constraint, embedded = _bounds_from_file(args.bounds)
    observables = _observables_for(args, embedded)
    rho = parse_state_file(_load_json(args.state), observables[0].dim, args.state)
    return certainty.certify_state(observables, rho, (t, s), unit=args.unit), rho, constraint


def cmd_verify(args) -> int:
    report, rho, constraint = _certify(args)
    text = _dump_json(_report_to_json(report))
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    if not _state_admissible(rho, constraint):
        print(
            f"note: state is not admissible under bounds constraint "
            f"{constraint.kind!r}",
            file=sys.stderr,
        )
    if not all(report.sandwich_ok):
        print(
            f"sandwich violated: lower bound holds {report.sandwich_ok[0]}, "
            f"upper bound holds {report.sandwich_ok[1]}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_lorenz(args) -> int:
    t, s, _constraint, observables = _bounds_from_file(args.bounds)
    columns = [("L_t", mj.lorenz(t).values), ("L_s", mj.lorenz(s).values)]
    for i, path in enumerate(args.state or []):
        rho = parse_state_file(_load_json(path), observables[0].dim, path)
        pdv = certainty.state_direct_sum_pdv(observables, rho)
        columns.append((f"L_P{i + 1}", mj.lorenz(pdv).values))
    header = "n," + ",".join(name for name, _ in columns)
    lines = [header]
    for k in range(len(t) + 1):
        lines.append(
            f"{k}," + ",".join(f"{vals[k]:.12g}" for _, vals in columns)
        )
    _atomic_write(args.csv, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_entropy(args) -> int:
    report = _report_to_json(_certify(args)[0])
    keys = ("unit", "entropy_sum", "entropy_cap", "tightened_cap", "slack")
    sys.stdout.write(_dump_json({key: report[key] for key in keys}))
    return EXIT_OK


def cmd_coherence(args) -> int:
    dim, bases = parse_observable_file(_load_json(args.bases), args.bases)
    if len(bases) < 2:
        raise InputError(f"--bases: complementarity needs at least two bases, "
                         f"{args.bases} has {len(bases)}")
    for basis in bases:
        if not basis.is_rank_one:
            raise InputError(f"--bases: observable {basis.name!r} has degenerate outcomes; "
                             "coherence needs rank-1 bases")
    seed = args.seed if args.seed is not None else _default_seed()
    with _naming(None):
        cfg = bd.SolverConfig(seed=seed)
        sampling = coh.CoherenceSampling(samples=args.samples, seed=seed)
    # a mixed state's Haar block takes up to 16 (samples + 1) d^2 bytes
    block_bytes = 16 * (args.samples + 1) * dim * dim
    if block_bytes > coh.HAAR_BLOCK_BYTES:
        raise InputError(f"--samples: {args.samples} samples in d={dim} need {block_bytes} "
                         f"bytes of mixing unitaries, over the limit of {coh.HAAR_BLOCK_BYTES}")
    states = [(path, parse_state_file(_load_json(path), dim, path)) for path in args.state or []]
    mu_t, mu_s = coh.coherence_complementarity_bounds(bases, cfg)
    doc = {
        "unit": args.unit,
        "mu_t": _probvector_to_json(mu_t),
        "mu_s": _probvector_to_json(mu_s),
        "entropy_mu_t": mj.shannon_entropy(mu_t, args.unit),
        "entropy_mu_s": mj.shannon_entropy(mu_s, args.unit),
        "states": [],
    }
    for path, rho in states:
        per_basis = []
        for basis in bases:
            mu = coh.coherence_vector_mixed_approx(rho, basis, sampling)
            per_basis.append(
                {
                    "basis": basis.name,
                    "mu": _probvector_to_json(mu.vector),
                    "exactness": mu.exactness,
                    "entropy": mj.shannon_entropy(mu.vector, args.unit),
                }
            )
        doc["states"].append({"state": path, "per_basis": per_basis})
    sys.stdout.write(_dump_json(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; a usage error is an input error
        raise InputError(message)


@functools.cache  # one parser per process; each parse fills a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uqcr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute envelope vectors t and s")
    p_bounds.add_argument("--observables", required=True)
    p_bounds.add_argument("--constraint", default="all", help="all | pure | bloch=R")
    p_bounds.add_argument("--seed", type=int, default=None)
    p_bounds.add_argument("--multistarts", type=int, default=64,
                          help="subgradient-scan starts per level, pure states in d >= 3 only")
    p_bounds.add_argument("--max-iter", type=int, default=80,
                          help="cutting-plane LPs per level over all states")
    p_bounds.add_argument("--out", required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    for name, func, text in (("verify", cmd_verify, "sandwich-check a state against bounds"),
                             ("entropy", cmd_entropy, "entropy caps for a state")):
        p_cert = sub.add_parser(name, help=text)
        p_cert.add_argument("--observables", help="default: the bounds file's")
        p_cert.add_argument("--state", required=True)
        p_cert.add_argument("--bounds", required=True)
        p_cert.add_argument("--unit", choices=("bits", "nats"), default="bits")
        if name == "verify":
            p_cert.add_argument("--out", default=None)
        p_cert.set_defaults(func=func)

    p_lorenz = sub.add_parser("lorenz", help="export Lorenz curves as CSV")
    p_lorenz.add_argument("--bounds", required=True)
    p_lorenz.add_argument("--state", action="append", default=None)
    p_lorenz.add_argument("--csv", required=True)
    p_lorenz.set_defaults(func=cmd_lorenz)

    p_coh = sub.add_parser("coherence", help="coherence complementarity envelopes")
    p_coh.add_argument("--bases", required=True)
    p_coh.add_argument("--state", action="append", default=None)
    p_coh.add_argument("--samples", type=int, default=256)
    p_coh.add_argument("--seed", type=int, default=None)
    p_coh.add_argument("--unit", choices=("bits", "nats"), default="bits")
    p_coh.set_defaults(func=cmd_coherence)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UqcrError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
