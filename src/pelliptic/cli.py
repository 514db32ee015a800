"""Command-line front end with JSON input and output.

Subcommands: check | range | lame | solvability | falsify. Tensor and
field files use one versioned schema ({"schema": 1, ...}); infinity is
serialized as the string "inf". Every output embeds a run manifest; the
result payload is byte-identical across reruns with the same inputs and
seed (the manifest's duration_ms field is the one timing-dependent value).

Exit codes: 0 success, 1 refuted / empty range (still valid output),
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .conditions import SearchConfig, lh_margin, scalar_p_margin, strong_margin
from .errors import InputError, NumericalFailureError, PellipticError
from .integral import falsify_integral
from .lame import admissibility, sufficient_constant
from .prange import condition_range, field_range, t_of_p
from .solvability import (
    SolvabilityQuery,
    extrapolation_range,
    homogenization_range,
    lame_dirichlet_upper,
    worst_case_over_ratio,
)
from .tensors import CoefficientTensor, TensorField

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _complex_to_json(z: np.ndarray) -> list:
    """Nested lists with every complex entry as [re, im]."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _entries_from_json(node) -> np.ndarray:
    arr = np.asarray(node, dtype=float)
    if arr.ndim != 5 or arr.shape[-1] != 2:
        raise InputError("entries must be nested [h][k][alpha][beta] -> [re, im]")
    return arr[..., 0] + 1j * arr[..., 1]


def tensor_to_json(A: CoefficientTensor) -> dict:
    return {"schema": SCHEMA_VERSION, "n": A.n, "m": A.m,
            "entries": _complex_to_json(A.entries)}


def field_to_json(F: TensorField) -> dict:
    if F.is_constant:
        return tensor_to_json(CoefficientTensor(F.samples))
    body = F.samples.reshape((-1,) + F.samples.shape[len(F.grid):])
    return {
        "schema": SCHEMA_VERSION,
        "n": F.n,
        "m": F.m,
        "grid": list(F.grid),
        "periodic": F.periodic,
        "samples": _complex_to_json(body),
    }


def parse_input_document(doc: dict) -> TensorField:
    """Tensor documents load as constant fields; field documents carry a
    grid, a periodic flag and one sample per lattice point (row-major)."""
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema: {doc.get('schema')!r}")
    try:
        return _parse_document(doc)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed document: {exc}") from exc


def _parse_document(doc: dict) -> TensorField:
    n, m = int(doc["n"]), int(doc["m"])
    if "grid" not in doc:
        entries = _entries_from_json(doc["entries"])
        if entries.shape != (n, n, m, m):
            raise InputError(f"entries shape {entries.shape} does not match n={n}, m={m}")
        return TensorField.constant(CoefficientTensor(entries))
    grid = tuple(int(g) for g in doc["grid"])
    samples = doc.get("samples")
    if samples is None:
        raise InputError("field document needs a samples list")
    count = int(np.prod(grid))
    if len(samples) != count:
        raise InputError(f"expected {count} samples, got {len(samples)}")
    arrs = []
    for node in samples:
        entries = _entries_from_json(node)
        if entries.shape != (n, n, m, m):
            raise InputError("sample tensor does not match n, m")
        arrs.append(entries)
    stacked = np.stack(arrs).reshape(grid + (n, n, m, m))
    return TensorField(stacked, grid, periodic=bool(doc.get("periodic", False)))


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        name = path
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{name}: JSON parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _read_input(path: str) -> TensorField:
    return parse_input_document(_read_json(path))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _finite_or_inf(x: float):
    return "inf" if x == math.inf else x


def _emit(command: str, config: dict, seed, result: dict, started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "duration_ms": round(1000.0 * (time.monotonic() - started), 3),
    }
    print(json.dumps({"manifest": manifest, "result": result},
                     sort_keys=True, default=_json_default))


def _witness_json(witness) -> dict:
    out = {}
    if witness.xi is not None:
        out["xi"] = _complex_to_json(witness.xi.components)
    if witness.eta is not None:
        out["eta"] = _complex_to_json(witness.eta)
    if witness.omega is not None:
        out["omega"] = _complex_to_json(witness.omega.components)
    if witness.q is not None:
        out["q"] = [float(x) for x in witness.q]
    return out


def _cmd_check(args) -> int:
    started = time.monotonic()
    field = _read_input(args.input)
    if not field.is_constant:
        raise InputError("check expects a single tensor document")
    A = field.tensor_at_index(())
    t = t_of_p(args.p)
    cfg = SearchConfig(t=t, outer_starts=args.starts, seed=args.seed, test_field=args.field)
    strong = strong_margin(A, cfg)
    lh = lh_margin(A, cfg)
    result = {
        "p": args.p,
        "t": t,
        "strong_margin": strong.value,
        "lh_margin": lh.value,
        "strong_witness": _witness_json(strong.witness),
        "lh_witness": _witness_json(lh.witness),
        "evaluations": strong.evaluations + lh.evaluations,
    }
    if A.m == 1:
        result["scalar_margin"] = scalar_p_margin(A, args.p)
    if strong.value > 1e-9:
        result["classification"] = "strong-p-elliptic (certified-by-margin)"
        code = EXIT_OK
    elif strong.value < -1e-9:
        result["classification"] = "refuted"
        code = EXIT_REFUTED
    else:
        result["classification"] = "inconclusive"
        code = EXIT_OK
    _emit("check", {"input": args.input, "p": args.p,
                    "starts": args.starts, "field": args.field},
          args.seed, result, started)
    return code


def _cmd_range(args) -> int:
    started = time.monotonic()
    field = _read_input(args.input)
    cfg = SearchConfig(seed=args.seed, test_field=args.field)
    if field.is_constant:
        rng = condition_range(field.tensor_at_index(()), args.kind, cfg)
    else:
        rng = field_range(field, args.kind, cfg)
    _emit("range", {"input": args.input, "kind": args.kind, "field": args.field},
          args.seed, rng.as_dict(), started)
    return EXIT_REFUTED if rng.empty else EXIT_OK


def _load_scalar_field(path: str) -> np.ndarray:
    if path is None:
        return None
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION or "values" not in doc:
        raise InputError(f"{path}: expected a schema-1 scalar field with values")
    try:
        return np.asarray(doc["values"], dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed values: {exc}") from exc


def _cmd_lame(args) -> int:
    started = time.monotonic()
    lam_samples = _load_scalar_field(args.lambda_field)
    mu_samples = _load_scalar_field(args.mu_field)
    if (lam_samples is None) != (mu_samples is None):
        raise InputError("provide both --lambda-field and --mu-field or neither")
    if lam_samples is not None:
        if lam_samples.shape != mu_samples.shape:
            raise InputError("lambda and mu fields must share a lattice")
        pairs = list(zip(lam_samples, mu_samples))
    elif args.lam is None or args.mu is None:
        raise InputError("lame needs --lambda and --mu, or --lambda-field and --mu-field")
    else:
        pairs = [(args.lam, args.mu)]
    reports = [sufficient_constant(args.n, la, mu) for la, mu in pairs]
    worst = min(reports, key=lambda r: r.c_lower)
    c_lower = min(r.c_lower for r in reports)
    c_upper = min(r.c_upper for r in reports)
    adm = admissibility([la for la, _ in pairs], [mu for _, mu in pairs], args.mu0)
    result = {
        "n": args.n,
        "c_lower": c_lower,
        "c_upper": c_upper,
        "gamma_star": worst.gamma_star,
        "r_star": worst.r_star,
        "branch": worst.branch,
        "p_interval": worst.p_interval.as_dict(),
        "samples": len(pairs),
        "admissibility": {
            "admissible": adm.admissible,
            "lower_combination": adm.lower_combination,
            "upper_combination": adm.upper_combination,
            "poisson_ratio": adm.poisson_ratio,
            "poisson_ok": adm.poisson_ok,
        },
    }
    _emit("lame", {"n": args.n, "lambda": args.lam, "mu": args.mu, "mu0": args.mu0,
                   "lambda_field": args.lambda_field, "mu_field": args.mu_field},
          None, result, started)
    return EXIT_OK


def _cmd_solvability(args) -> int:
    started = time.monotonic()
    if args.theorem == "extrapolation":
        if args.q is None or args.p0 is None:
            raise InputError("extrapolation needs --q and --p0")
        try:
            p0 = float(args.p0)
        except ValueError:
            raise InputError(f"--p0 must be a number or inf, got {args.p0!r}") from None
        report = extrapolation_range(SolvabilityQuery(n=args.n, q=args.q, p0=p0))
        result = report.as_dict()
    elif args.theorem == "homogenization":
        if args.q_strong is None:
            raise InputError("homogenization needs --q-strong")
        report = homogenization_range(args.n, args.m, args.q_strong)
        result = report.as_dict()
    else:  # lame-corollary
        if args.worst_case:
            wr = worst_case_over_ratio(args.n, grid_points=args.grid_points)
            result = {
                "theorem": "lame-corollary",
                "worst_ratio": wr.a_star,
                "c_star": wr.c_star,
                "p_up": _finite_or_inf(wr.p_up_star),
                "asymptotic_constant": wr.asymptotic_constant,
                "asymptotic_endpoint": wr.asymptotic_endpoint,
                "notes": list(wr.notes),
            }
        else:
            if args.lam is None or args.mu is None:
                raise InputError("lame-corollary needs --lambda and --mu (or --worst-case)")
            result = {
                "theorem": "lame-corollary",
                "p_up": _finite_or_inf(lame_dirichlet_upper(args.n, args.lam, args.mu)),
            }
    _emit("solvability", {k: v for k, v in vars(args).items() if k != "func"},
          None, result, started)
    return EXIT_OK


def _cmd_falsify(args) -> int:
    started = time.monotonic()
    field = _read_input(args.input)
    hit = falsify_integral(field, args.p, args.trials, seed=args.seed, N=args.points)
    if hit is None:
        result = {"counterexample": None, "trials": args.trials, "p": args.p,
                  "note": "no counterexample found; this does not certify the condition"}
        code = EXIT_OK
    else:
        result = {
            "counterexample": {
                "quotient": hit.quotient,
                "trial": hit.trial,
                "seed": hit.seed,
                "p": hit.p,
                "n": hit.grid.n,
                "N": hit.grid.N,
                "m": hit.grid.m,
                "values": _complex_to_json(hit.grid.values.ravel()),
            },
            "trials": args.trials,
            "p": args.p,
        }
        code = EXIT_REFUTED
    _emit("falsify", {"input": args.input, "p": args.p, "trials": args.trials,
                      "points": args.points},
          args.seed, result, started)
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they exit 2 with one line; the
    subcommand parsers inherit the class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pelliptic",
        description="Strengthened-ellipticity margins, exponent ranges and "
                    "solvability arithmetic for second-order elliptic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="pointwise margins at one exponent")
    p_check.add_argument("input", help="tensor JSON file or - for stdin")
    p_check.add_argument("--p", type=float, required=True)
    p_check.add_argument("--starts", type=int, default=64)
    p_check.add_argument("--field", choices=["auto", "complex", "real"], default="auto")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_range = sub.add_parser("range", help="admissible exponent interval")
    p_range.add_argument("input")
    p_range.add_argument("--kind", choices=["strong", "legendre-hadamard", "lh"],
                         default="strong")
    p_range.add_argument("--field", choices=["auto", "complex", "real"], default="auto")
    add_common(p_range)
    p_range.set_defaults(func=_cmd_range)

    p_lame = sub.add_parser("lame", help="elasticity constants and admissibility")
    p_lame.add_argument("--n", type=int, required=True)
    p_lame.add_argument("--lambda", dest="lam", type=float, default=None)
    p_lame.add_argument("--mu", type=float, default=None)
    p_lame.add_argument("--mu0", type=float, default=1e-8)
    p_lame.add_argument("--lambda-field", default=None)
    p_lame.add_argument("--mu-field", default=None)
    p_lame.set_defaults(func=_cmd_lame)

    p_solv = sub.add_parser("solvability", help="exponent-range arithmetic")
    p_solv.add_argument("--theorem", required=True,
                        choices=["extrapolation", "homogenization", "lame-corollary"])
    p_solv.add_argument("--n", type=int, required=True)
    p_solv.add_argument("--m", type=int, default=1)
    p_solv.add_argument("--q", type=float, default=None)
    p_solv.add_argument("--p0", default=None)
    p_solv.add_argument("--q-strong", type=float, default=None)
    p_solv.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solv.add_argument("--mu", type=float, default=None)
    p_solv.add_argument("--worst-case", action="store_true")
    p_solv.add_argument("--grid-points", type=int, default=10000)
    p_solv.set_defaults(func=_cmd_solvability)

    p_fal = sub.add_parser("falsify", help="randomized integral-condition refuter")
    p_fal.add_argument("input")
    p_fal.add_argument("--p", type=float, required=True)
    p_fal.add_argument("--trials", type=int, default=500)
    p_fal.add_argument("--points", type=int, default=33)
    add_common(p_fal)
    p_fal.set_defaults(func=_cmd_falsify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PellipticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
