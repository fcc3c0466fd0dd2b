"""Command-line front end: bounds, verify, lorenz, entropy, coherence.

File formats use JSON with complex numbers as [re, im] pairs and
matrices row-major; CSV output carries 12 significant digits.  Exit
codes: 0 success, 1 input error, 3 sandwich violation.  All file
writes go through write-temp-then-rename.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
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

def _json_to_complex(x, field: str) -> complex:
    if (not isinstance(x, (list, tuple))) or len(x) != 2:
        raise InputError(f"{field}: complex numbers are [re, im] pairs")
    try:
        z = complex(float(x[0]), float(x[1]))
    except OverflowError:
        raise InputError(f"{field}: complex parts must be finite") from None
    except (TypeError, ValueError):
        raise InputError(f"{field}: complex parts must be numbers") from None
    if not np.isfinite(z):
        raise InputError(f"{field}: complex parts must be finite")
    return z

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
    try:
        vec = np.array([float(v) for v in x])
    except OverflowError:
        raise InputError(f"{field}: entries must be finite") from None
    except (TypeError, ValueError):
        raise InputError(f"{field}: entries must be numbers") from None
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{field}: entries must be finite")
    return vec


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
        keys = [k for k in ("basis", "projectors", "bloch_axis", "preset") if k in entry]
        if len(keys) != 1:
            raise InputError(
                f"{field}: exactly one of basis/projectors/bloch_axis/preset required"
            )
        kind = keys[0]
        try:
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
        except (TypeError, ValueError, UqcrError) as exc:
            if isinstance(exc, InputError):
                raise
            raise InputError(f"{field}: {exc}") from None
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
        try:
            return standard_mub_set(dim)
        except UqcrError as exc:
            raise InputError(f"{field}.preset: {exc}") from None
    raise InputError(f"{field}.preset: unknown preset {preset!r}")


def parse_state_file(doc: dict, dim: int, origin: str = "state") -> DensityMatrix:
    keys = [k for k in ("density", "ket", "bloch") if k in doc]
    if len(keys) != 1:
        raise InputError(f"{origin}: exactly one of density/ket/bloch required")
    kind = keys[0]
    try:
        if kind != "bloch":
            field = f"{origin}.{kind}"
            rho = (DensityMatrix(_json_to_matrix(doc[kind], field)) if kind == "density"
                   else DensityMatrix.from_ket(_json_to_vector(doc[kind], field)))
            if rho.dim != dim:
                raise InputError(f"{field}: dimension {rho.dim} != the observables' {dim}")
            return rho
        if dim != 2:
            raise InputError(f"{origin}.bloch: only valid in dimension 2")
        vec = _real_vector(doc["bloch"], f"{origin}.bloch", 3)
        if "norm" in doc:
            norm = doc["norm"]
            if isinstance(norm, bool) or not isinstance(norm, (int, float)):
                raise InputError(f"{origin}.norm: expected a number")
            try:
                norm = float(norm)
            except OverflowError:
                norm = np.inf
            if not np.isfinite(norm):
                raise InputError(f"{origin}.norm: must be finite")
            length = np.linalg.norm(vec)
            if length == 0.0:
                raise InputError(f"{origin}.bloch: zero direction with a norm")
            vec = vec / length * norm
        return bloch_to_density(vec)
    except (ValueError, UqcrError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"{origin}.{kind}: {exc}") from None


def _parse_constraint(text: str) -> bd.StateConstraint:
    if text == "all":
        return bd.StateConstraint.all_states()
    if text == "pure":
        return bd.StateConstraint.pure_only()
    if text.startswith("bloch="):
        try:
            return bd.StateConstraint.fixed_bloch_norm(float(text[6:]))
        except ValueError as exc:
            raise InputError(f"--constraint: {exc}") from None
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
        "diagnostics": _fields(cert.diagnostics),
    }


def _constraint_from_json(doc, field: str) -> bd.StateConstraint:
    try:
        return bd.StateConstraint(doc["kind"], doc.get("r"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{field}: {exc}") from None


def _bounds_from_file(path: str):
    doc = _load_json(path)
    for key in ("t", "s", "total", "constraint", "observables", "dimension"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    total = doc["total"]
    if isinstance(total, bool) or not isinstance(total, (int, float)):
        raise InputError(f"{path}.total: expected a number")
    try:
        total = float(total)
    except OverflowError:
        total = np.inf
    if not np.isfinite(total):
        raise InputError(f"{path}.total: must be finite")
    _, observables = parse_observable_file(doc, path)
    if total != len(observables):
        raise InputError(f"{path}.total: expected {len(observables)}, the observable count, "
                         f"got {total!r}")
    count = sum(obs.outcome_count for obs in observables)
    for key in ("t", "s"):
        if not isinstance(doc[key], list) or len(doc[key]) != count:
            raise InputError(f"{path}.{key}: expected a list of {count} entries, "
                             "one per outcome of the observables")
    try:
        t = mj.ProbVector(np.array(doc["t"], dtype=float), total)
        s = mj.ProbVector(np.array(doc["s"], dtype=float), total)
    except (ValueError, UqcrError) as exc:
        raise InputError(f"{path}: t/s: {exc}") from None
    constraint = _constraint_from_json(doc["constraint"], f"{path}.constraint")
    return doc, t, s, constraint, observables


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
    from .quantum import density_to_bloch

    return abs(np.linalg.norm(density_to_bloch(rho)) - constraint.r) <= 1e-8


# ---------------------------------------------------------------------------
# subcommands

def cmd_bounds(args) -> int:
    dim, observables = parse_observable_file(_load_json(args.observables), args.observables)
    constraint = _parse_constraint(args.constraint)
    if constraint.r is not None and dim != 2:
        raise InputError(f"--constraint: bloch=R needs dimension 2, the observables have {dim}")
    try:
        cfg = bd.SolverConfig(
            max_iter=args.max_iter,
            multistarts=args.multistarts,
            seed=args.seed if args.seed is not None else _default_seed(),
        )
    except ValueError as exc:
        field = str(exc).split()[0]
        raise InputError(f"--{field.replace('_', '-')}: {exc}") from None
    try:
        bd.check_choice_budget(observables)
    except bd.EnumerationTooLarge as exc:
        raise InputError(f"--observables: {exc}") from None
    t, t_certs = bd.infimum_t(observables, constraint, cfg)
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


def cmd_verify(args) -> int:
    _, t, s, constraint, embedded = _bounds_from_file(args.bounds)
    observables = _observables_for(args, embedded)
    rho = parse_state_file(_load_json(args.state), observables[0].dim, args.state)
    report = certainty.certify_state(observables, rho, (t, s), unit=args.unit)
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
    _, t, s, _constraint, observables = _bounds_from_file(args.bounds)
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
    _, t, s, _constraint, embedded = _bounds_from_file(args.bounds)
    observables = _observables_for(args, embedded)
    rho = parse_state_file(_load_json(args.state), observables[0].dim, args.state)
    report = certainty.certify_state(observables, rho, (t, s), unit=args.unit)
    doc = {
        "unit": report.unit,
        "entropy_sum": report.entropy_sum,
        "entropy_cap": report.entropy_cap,
        "tightened_cap": report.tightened_cap,
        "slack": report.slack,
    }
    sys.stdout.write(_dump_json(doc))
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
    try:
        cfg = bd.SolverConfig(seed=seed)
        sampling = coh.CoherenceSampling(samples=args.samples, seed=seed)
    except ValueError as exc:
        raise InputError(f"--{str(exc).split()[0]}: {exc}") from None
    # a mixed state's Haar block takes up to 16 (samples + 1) d^2 bytes
    block_bytes = 16 * (args.samples + 1) * dim * dim
    if block_bytes > coh.HAAR_BLOCK_BYTES:
        raise InputError(f"--samples: {args.samples} samples in d={dim} need {block_bytes} "
                         f"bytes of mixing unitaries, over the limit of {coh.HAAR_BLOCK_BYTES}")
    mu_t, mu_s = coh.coherence_complementarity_bounds(bases, cfg)
    doc = {
        "unit": args.unit,
        "mu_t": _probvector_to_json(mu_t),
        "mu_s": _probvector_to_json(mu_s),
        "entropy_mu_t": mj.shannon_entropy(mu_t, args.unit),
        "entropy_mu_s": mj.shannon_entropy(mu_s, args.unit),
        "states": [],
    }
    for path in args.state or []:
        rho = parse_state_file(_load_json(path), dim, path)
        ket = np.linalg.eigh(rho.matrix)[1][:, -1] if rho.is_pure(1e-10) else None
        per_basis = []
        for basis in bases:
            if ket is not None:
                mu = coh.coherence_vector_pure(ket, basis)
            else:
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

    p_verify = sub.add_parser("verify", help="sandwich-check a state against bounds")
    p_verify.add_argument("--observables", help="default: the bounds file's")
    p_verify.add_argument("--state", required=True)
    p_verify.add_argument("--bounds", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--unit", choices=("bits", "nats"), default="bits")
    p_verify.set_defaults(func=cmd_verify)

    p_lorenz = sub.add_parser("lorenz", help="export Lorenz curves as CSV")
    p_lorenz.add_argument("--bounds", required=True)
    p_lorenz.add_argument("--state", action="append", default=None)
    p_lorenz.add_argument("--csv", required=True)
    p_lorenz.set_defaults(func=cmd_lorenz)

    p_entropy = sub.add_parser("entropy", help="entropy caps for a state")
    p_entropy.add_argument("--observables", help="default: the bounds file's")
    p_entropy.add_argument("--state", required=True)
    p_entropy.add_argument("--bounds", required=True)
    p_entropy.add_argument("--unit", choices=("bits", "nats"), default="bits")
    p_entropy.set_defaults(func=cmd_entropy)

    p_coh = sub.add_parser("coherence", help="coherence complementarity envelopes")
    p_coh.add_argument("--bases", required=True)
    p_coh.add_argument("--state", action="append", default=None)
    p_coh.add_argument("--samples", type=int, default=256)
    p_coh.add_argument("--seed", type=int, default=None)
    p_coh.add_argument("--unit", choices=("bits", "nats"), default="bits")
    p_coh.set_defaults(func=cmd_coherence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UqcrError as exc:  # InputError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
