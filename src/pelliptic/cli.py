"""Command-line front end with JSON input and output.

Subcommands: check | range | lame | solvability | falsify. Tensor and
field files use one versioned schema ({"schema": 1, ...}); infinity is
serialized as the string "inf". Every number a document carries (tensor
entries, field samples, modulus values) is read by one decoder that admits
JSON numbers only.

Each ``_cmd_*`` returns ``(result, exit_code, facts)``; ``main`` alone times
the run and prints ``{"manifest": ..., "result": ...}``. The manifest holds
the command, every other parsed option but the seed (``config``), the seed,
the version, ``duration_ms`` and the command's run counters (``facts``).
The result payload is byte-identical across reruns with the same inputs and
seed (``duration_ms`` is the one timing-dependent value).

Exit codes: 0 success, 1 refuted / empty range (still valid output),
2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .conditions import SearchConfig, lh_margin, scalar_p_margin, strong_margin
from .errors import InputError, NumericalFailureError, PellipticError
from .integral import falsify_integral
from .lame import _c_bounds, admissibility, sufficient_constant
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


def _numbers_from_json(node, what: str) -> np.ndarray:
    """Float array of a regular nested list of JSON numbers; a string, a
    boolean, null, a ragged list or an integer beyond the float range is an
    input error."""
    arr = np.asarray(node, dtype=object)
    if not set(map(type, arr.ravel().tolist())) <= {int, float}:
        raise InputError(f"{what} must be a regular nested list of JSON numbers")
    try:
        return arr.astype(float)
    except OverflowError as exc:
        raise InputError(f"{what}: {exc}") from exc


def _complex_from_json(node, shape: tuple, what: str) -> np.ndarray:
    """Complex array of the given shape from nested [re, im] pairs."""
    arr = _numbers_from_json(node, what)
    if arr.shape != shape + (2,):
        raise InputError(f"{what} -> [re, im] must have shape {shape + (2,)}, got {arr.shape}")
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
    if not _is_schema(doc.get("schema")):
        raise InputError(f"unsupported schema: {doc.get('schema')!r}")
    try:
        return _parse_document(doc)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"missing field: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed document: {exc}") from exc


def _is_int(value) -> bool:
    """Whether value is a JSON integer; json reads true and false as bools,
    which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_schema(value) -> bool:
    return _is_int(value) and value == SCHEMA_VERSION


def _integer(value, name: str) -> int:
    if not _is_int(value):
        raise InputError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _parse_document(doc: dict) -> TensorField:
    n, m = _integer(doc["n"], "n"), _integer(doc["m"], "m")
    if "grid" not in doc:
        entries = _complex_from_json(doc["entries"], (n, n, m, m), "entries [h][k][alpha][beta]")
        return TensorField.constant(CoefficientTensor(entries))
    grid = tuple(_integer(g, "grid entry") for g in doc["grid"])
    periodic = doc.get("periodic", False)
    if not isinstance(periodic, bool):
        raise InputError(f"periodic must be a JSON boolean, got {periodic!r}")
    body = _complex_from_json(doc["samples"], (int(np.prod(grid)), n, n, m, m),
                              "samples [point][h][k][alpha][beta]")
    return TensorField(body.reshape(grid + (n, n, m, m)), grid, periodic=periodic)


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


def _cmd_check(args):
    if not 1.0 < args.p < math.inf:
        raise InputError(f"p must lie in (1, inf), got {args.p}")
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
    }
    if A.m == 1:
        result["scalar_margin"] = scalar_p_margin(A, args.p)
    if strong.value > 1e-9:
        result["classification"] = "strong-p-elliptic (estimated)"
        code = EXIT_OK
    elif strong.value < -1e-9:
        result["classification"] = "refuted"
        code = EXIT_REFUTED
    else:
        result["classification"] = "inconclusive"
        code = EXIT_OK
    return result, code, {"evaluations": strong.evaluations + lh.evaluations,
                          "polish_steps": {"strong": strong.polish_steps, "lh": lh.polish_steps}}


def _cmd_range(args):
    field = _read_input(args.input)
    cfg = SearchConfig(seed=args.seed, test_field=args.field)
    if field.is_constant:
        rng = condition_range(field.tensor_at_index(()), args.kind, cfg)
    else:
        rng = field_range(field, args.kind, cfg)
    return rng.as_dict(), EXIT_REFUTED if rng.empty else EXIT_OK, {}


def _load_scalar_field(path: str) -> np.ndarray:
    if path is None:
        return None
    doc = _read_json(path)
    if not isinstance(doc, dict) or not _is_schema(doc.get("schema")) or "values" not in doc:
        raise InputError(f"{path}: expected a schema-1 scalar field with values")
    return _numbers_from_json(doc["values"], f"{path}: values").ravel()


def _cmd_lame(args):
    lam = _load_scalar_field(args.lambda_field)
    mu = _load_scalar_field(args.mu_field)
    if (lam is None) != (mu is None):
        raise InputError("provide both --lambda-field and --mu-field or neither")
    if lam is not None:
        if lam.shape != mu.shape:
            raise InputError("lambda and mu fields must share a lattice")
        if lam.size == 0:
            raise InputError("lambda and mu fields must not be empty")
        # bounds for every sample at once, the full report at the worst one
        c_lowers, c_uppers = _c_bounds(args.n, lam, mu)
        i = int(np.argmin(c_lowers))
        worst = sufficient_constant(args.n, lam[i], mu[i])
        c_upper = float(np.min(c_uppers))
    elif args.lam is None or args.mu is None:
        raise InputError("lame needs --lambda and --mu, or --lambda-field and --mu-field")
    else:
        lam, mu = args.lam, args.mu
        worst = sufficient_constant(args.n, lam, mu)
        c_upper = worst.c_upper
    adm = admissibility(lam, mu, args.mu0)
    result = {
        "n": args.n,
        "c_lower": worst.c_lower,
        "c_upper": c_upper,
        "gamma_star": worst.gamma_star,
        "r_star": worst.r_star,
        "branch": worst.branch,
        "p_interval": worst.p_interval.as_dict(),
        "samples": int(np.size(lam)),
        "admissibility": {
            "admissible": adm.admissible,
            "lower_combination": adm.lower_combination,
            "upper_combination": adm.upper_combination,
            "poisson_ratio": adm.poisson_ratio,
            "poisson_ok": adm.poisson_ok,
        },
    }
    return result, EXIT_OK, {}


def _cmd_solvability(args):
    if args.theorem == "extrapolation":
        if args.q is None or args.p0 is None:
            raise InputError("extrapolation needs --q and --p0")
        report = extrapolation_range(SolvabilityQuery(n=args.n, q=args.q, p0=args.p0))
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
    return result, EXIT_OK, {}


def _cmd_falsify(args):
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
    return result, code, {}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError, so they exit 2 with one line; the
    subcommand parsers inherit the class."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
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
    p_solv.add_argument("--p0", type=float, default=None)
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
        started = time.monotonic()
        result, code, facts = args.func(args)
        manifest = {
            "command": args.command,
            "config": {k: _finite_or_inf(v) for k, v in vars(args).items()
                       if k not in ("func", "command", "seed")},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "duration_ms": round(1000.0 * (time.monotonic() - started), 3),
            **facts,
        }
        print(json.dumps({"manifest": manifest, "result": result},
                         sort_keys=True, default=_json_default))
        return code
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
