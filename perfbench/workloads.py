"""Workload inputs and query rounds.

``build`` generates a workload's input documents from the seed and writes
them; every round then replays one fixed list of CLI queries on its own
inputs. A round is a generator: it yields a Query and receives that query's
result payload, or None when the query failed, so that probes can be placed
inside a range the program has just answered. Failed answers fall back to
p = 2, which keeps the number of queries in a round fixed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

A_RANGE = (-1.5, 3.5)    # lam / mu, inside mu > 0 and lam + 2 mu > 0
MU_RANGE = (0.5, 2.0)
OK, REFUTED = 0, 1       # accepted exit codes: answered, refuted or empty


@dataclass(frozen=True)
class Query:
    kind: str
    argv: list
    codes: tuple
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    rounds: list          # callables returning a fresh round generator
    trace_rounds: int     # rounds replayed by a traced run


def _p(t: float) -> str:
    return repr(2.0 / (1.0 - t))


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _moduli(rng, count: int, a_range=A_RANGE) -> list:
    """(lam, mu) pairs, stratified over a = lam / mu so each round spans the grid."""
    lo, hi = a_range
    a = lo + (np.arange(count) + rng.random(count)) * (hi - lo) / count
    mu = MU_RANGE[0] + rng.random(count) * (MU_RANGE[1] - MU_RANGE[0])
    return [(float(ai * mi), float(mi)) for ai, mi in zip(a, mu)]


def _lame_entries(pe, n: int, lam: float, mu: float) -> np.ndarray:
    r_star = pe.sufficient_constant(n, lam, mu).r_star
    return pe.lame_tensor(lam, mu, r_star, n).entries


def _field_doc(pe, cli, samples: np.ndarray, grid) -> dict:
    return cli.field_to_json(pe.TensorField(samples, tuple(grid), periodic=True))


def _seed_arg(rng) -> list:
    return ["--seed", str(int(rng.integers(0, 2**31)))]


# ---------------------------------------------------------------------------
# lame-range


def _lame_round(pe, cli, rng, directory, r):
    queries = []
    for n, count in ((2, 6), (3, 3)):
        for i, (lam, mu) in enumerate(_moduli(rng, count)):
            path = _write(directory, f"r{r}-lame{n}-{i}.json",
                          cli.tensor_to_json(pe.CoefficientTensor(_lame_entries(pe, n, lam, mu))))
            check = checks.lame_n2_range if n == 2 else checks.lame_n3_range
            queries.append(Query(f"range/lame-n{n}", ["range", path] + _seed_arg(rng), (OK,),
                                 lambda res, c=check, lam=lam, mu=mu: c(res, lam, mu)))
    moduli = _moduli(rng, 4)
    samples = np.stack([_lame_entries(pe, 2, lam, mu) for lam, mu in moduli]).reshape((2, 2) + (2,) * 4)
    path = _write(directory, f"r{r}-lamefield.json", _field_doc(pe, cli, samples, (2, 2)))
    queries.append(Query("range/lame-field", ["range", path] + _seed_arg(rng), (OK,),
                         lambda res: checks.lame_field_range(res, moduli)))
    for n in (3, 4):
        (lam, mu), = _moduli(rng, 1)
        queries.append(Query(f"lame/n{n}", ["lame", "--n", str(n), "--lambda", repr(lam), "--mu", repr(mu)],
                             (OK,), lambda res, n=n, lam=lam, mu=mu: checks.lame_constants(res, n, lam, mu)))
        queries.append(Query(f"solvability/worst-n{n}",
                             ["solvability", "--theorem", "lame-corollary", "--n", str(n), "--worst-case"],
                             (OK,), lambda res, n=n: checks.worst_ratio(res, n)))

    def play():
        for query in queries:
            yield query

    return play


# ---------------------------------------------------------------------------
# complex-chain

CHAIN_PLAN = [  # (name, n, m, style): the same in every round
    ("a", 2, 2, "hermitian-positive"),
    ("b", 2, 2, "legendre-perturbed"),
    ("c", 2, 3, "hermitian-positive"),
    ("d", 3, 2, "legendre-perturbed"),
    ("e", 3, 3, "hermitian-positive"),
    ("f", 3, 3, "legendre-perturbed"),
]


def _chain(path: str, entries: np.ndarray, seed_arg: list, falsify: bool, phi=None):
    """Strong range, then checks at p = 2 and at probes inside the range."""
    if phi is None:
        def range_check(res):
            checks.endpoints(res)
    else:
        def range_check(res):
            checks.phase_range(res, phi)
    rng_res = yield Query("range/strong", ["range", path] + seed_arg, (OK,), range_check)
    lo, hi = (rng_res["t_lo"], rng_res["t_hi"]) if rng_res else (0.0, 0.0)
    yield Query("check/p2", ["check", path, "--p", "2.0"] + seed_arg, (OK,),
                lambda res: checks.margins_at_p2(res, entries))
    for t in (0.5 * lo, 0.5 * hi):
        yield Query("check/probe", ["check", path, "--p", _p(t)] + seed_arg, (OK,),
                    checks.margins_inside)
    if falsify:
        yield Query("falsify/constant", ["falsify", path, "--p", _p(0.5 * hi), "--trials", "64"] + seed_arg,
                    (OK,), checks.no_counterexample)
    return rng_res


def _against(reference, check):
    """Check that needs the strong range answered earlier in the round."""
    def run(res):
        if reference is None:
            checks.fail("strong range unavailable for comparison")
        check(res, reference)
    return run


def _chain_round(pe, cli, rng, directory, r):
    docs = {}
    for name, n, m, style in CHAIN_PLAN:
        A = pe.random_elliptic_tensor(n, m, style, seed=int(rng.integers(0, 2**31)))
        docs[name] = (_write(directory, f"r{r}-{name}.json", cli.tensor_to_json(A)), A.entries)
    phases = {}
    for name, n in (("phase2", 2), ("phase3", 3)):
        phi = float(0.2 + 1.1 * rng.random())
        A = pe.CoefficientTensor.from_matrix(np.exp(1j * phi) * np.eye(n))
        docs[name] = (_write(directory, f"r{r}-{name}.json", cli.tensor_to_json(A)), A.entries)
        phases[name] = phi
    seeds = {name: _seed_arg(rng) for name in docs}

    def play():
        strong = {}
        for name in docs:
            path, entries = docs[name]
            n = entries.shape[0]
            strong[name] = yield from _chain(path, entries, seeds[name], n == 2, phases.get(name))
        yield Query("range/lh", ["range", docs["a"][0], "--kind", "lh"] + seeds["a"], (OK,),
                    _against(strong["a"], checks.contains_range))

    return play


# ---------------------------------------------------------------------------
# integral-falsify


def _integral_round(pe, cli, rng, directory, r):
    queries = []
    for i, sign in enumerate((1.0, -1.0)):
        moduli = _moduli(rng, 16)
        samples = np.stack([_lame_entries(pe, 2, lam, mu) for lam, mu in moduli]).reshape((4, 4) + (2,) * 4)
        path = _write(directory, f"r{r}-field2-{i}.json", _field_doc(pe, cli, samples, (4, 4)))
        t = sign * 0.5 * min(checks.lame_n2_bound(lam, mu) for lam, mu in moduli)
        queries.append(Query("falsify/n2-inside",
                             ["falsify", path, "--p", _p(t), "--trials", "4", "--points", "33"] + _seed_arg(rng),
                             (OK,), checks.no_counterexample))
    moduli = _moduli(rng, 27)
    samples = np.stack([_lame_entries(pe, 3, lam, mu) for lam, mu in moduli]).reshape((3, 3, 3) + (3,) * 4)
    path = _write(directory, f"r{r}-field3.json", _field_doc(pe, cli, samples, (3, 3, 3)))
    t = 0.5 * min(checks.lame_dim_bound(lam, mu) for lam, mu in moduli)
    queries.append(Query("falsify/n3-inside",
                         ["falsify", path, "--p", _p(t), "--trials", "3", "--points", "10"] + _seed_arg(rng),
                         (OK,), checks.no_counterexample))
    # identical samples beyond the exact n = 2 threshold: a counterexample exists;
    # a trial hits with probability ~0.1 here, so the budget is one or two batches
    (lam, mu), = _moduli(rng, 1, a_range=(8.0, 12.0))
    samples = np.broadcast_to(_lame_entries(pe, 2, lam, mu), (4, 4) + (2,) * 4).copy()
    path = _write(directory, f"r{r}-field2-uniform.json", _field_doc(pe, cli, samples, (4, 4)))
    t_star = checks.lame_n2_bound(lam, mu)
    p = 2.0 / (1.0 - (t_star + 0.9 * (1.0 - t_star)))
    queries.append(Query("falsify/n2-beyond",
                         ["falsify", path, "--p", repr(p), "--trials", "192", "--points", "17"] + _seed_arg(rng),
                         (REFUTED,),
                         lambda res: checks.counterexample(res, samples, (4, 4), True, p, 17)))

    def play():
        for query in queries:
            yield query

    return play


# ---------------------------------------------------------------------------

WORKLOADS = {
    # name: (round builder, rounds generated, rounds replayed when traced)
    "lame-range": (_lame_round, 16, 2),
    "complex-chain": (_chain_round, 8, 1),
    "integral-falsify": (_integral_round, 32, 4),
}
_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def build(name: str, seed: int, directory: str) -> Workload:
    """Generate and write every input of the workload; the same seed gives the same inputs."""
    import pelliptic as pe
    import pelliptic.cli as cli

    make_round, rounds, trace_rounds = WORKLOADS[name]
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng([int(seed) % 2**64, _IDS[name]])
    return Workload([make_round(pe, cli, rng, directory, r) for r in range(rounds)], trace_rounds)
