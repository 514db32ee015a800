"""Self-test of the benchmark's correctness checks.

Every check gets one right answer, which it must accept, and deliberately
wrong ones, which it must reject. A last case confirms that the reference
quotient follows the program's convention on fields whose samples differ.
It needs no workload and runs in seconds:

    python3 perfbench/selftest.py

Exit code 0 when every verdict is as expected, 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

import checks


def _range(lo: float, hi: float) -> dict:
    return {"empty": False, "t_lo": lo, "t_hi": hi, "p_lo": 2.0 / (1.0 - lo),
            "p_hi": "inf" if hi == 1.0 else 2.0 / (1.0 - hi)}


def _moved(result: dict, **shifts) -> dict:
    out = copy.deepcopy(result)
    for key, delta in shifts.items():
        out[key] += delta
    return out


def _lame_entries(n: int, lam: float, mu: float, r: float) -> np.ndarray:
    """A = mu d_hk d_ab + (lam + r) d_ha d_kb + (mu - r) d_hb d_ka."""
    d = np.eye(n)
    return (mu * np.einsum("hk,ab->hkab", d, d)
            + (lam + r) * np.einsum("ha,kb->hkab", d, d)
            + (mu - r) * np.einsum("hb,ka->hkab", d, d)).astype(complex)


def _counterexample_case():
    """A lattice test function with a non-positive quotient, found with the
    reference quotient alone, on n = 2 Lame samples beyond the exact threshold."""
    lam, mu, N = 10.0, 1.0, 17
    entries = _lame_entries(2, lam, mu, mu - mu * (lam + mu) / (lam + 3.0 * mu))
    samples = np.broadcast_to(entries, (4, 4, 2, 2, 2, 2)).copy()
    t_star = checks.lame_n2_bound(lam, mu)
    p = 2.0 / (1.0 - (t_star + 0.9 * (1.0 - t_star)))
    x = np.linspace(0.0, 1.0, N)
    X, Y = np.meshgrid(x, x, indexing="ij")
    bump = np.sin(np.pi * X) * np.sin(np.pi * Y)
    bump[0, :] = bump[-1, :] = bump[:, 0] = bump[:, -1] = 0.0
    rng = np.random.default_rng(0)
    for _ in range(2000):
        carrier, rider = rng.standard_normal(2), rng.standard_normal(2)
        angle, freq, phase = rng.random() * np.pi, rng.integers(2, 5), rng.random() * 2 * np.pi
        wave = np.sin(2 * np.pi * freq * (np.cos(angle) * X + np.sin(angle) * Y) + phase)
        values = bump[..., None] * (carrier + rng.random() * wave[..., None] * rider)
        q = checks.reference_quotient(samples, (4, 4), True, p, values.astype(complex))
        if q <= 0.0:
            break
    else:
        raise RuntimeError("no reference counterexample found")
    ce = {"quotient": q, "trial": 0, "seed": 0, "p": p, "n": 2, "N": N, "m": 2,
          "values": [[float(z.real), float(z.imag)] for z in values.astype(complex).ravel()]}
    result = {"counterexample": ce, "trials": 1, "p": p}

    def variant(**change):
        out = copy.deepcopy(result)
        out["counterexample"].update(change)
        return out

    bumped = copy.deepcopy(ce["values"])
    bumped[(N // 2) * N * 2 + (N // 2) * 2][0] += 1e-3
    wrong = {
        "quotient with its sign flipped": variant(quotient=-q),
        "quotient off by 1e-6": variant(quotient=q - 1e-6),
        "one lattice value moved by 1e-3": variant(values=bumped),
        "answer for another p": variant(p=p * 1.01),
        "no counterexample": {"counterexample": None, "trials": 1, "p": p},
    }
    return (lambda res: checks.counterexample(res, samples, (4, 4), True, p, N)), result, wrong


def _counterexample_n3_case():
    """n = 3 samples -(1 + k) I on a 2x3x2 lattice, where every test function
    has a quotient <= 0; the scales make the nearest-sample gather matter."""
    N, grid, p = 9, (2, 3, 2), 3.0
    identity = np.einsum("hk,ab->hkab", np.eye(3), np.eye(3))
    scale = 1.0 + np.arange(12.0).reshape(grid)
    samples = (-scale[..., None, None, None, None] * identity).astype(complex)
    bump = np.sin(np.pi * np.linspace(0.0, 1.0, N))
    bump[[0, -1]] = 0.0
    profile = bump[:, None, None] * bump[None, :, None] * bump[None, None, :] * (1.0 + np.linspace(0.0, 1.0, N))
    values = profile[..., None] * np.array([1.0, 0.5j, -0.3])
    q = checks.reference_quotient(samples, grid, True, p, values)
    flipped = checks.reference_quotient(samples[::-1], grid, True, p, values)
    ce = {"quotient": q, "trial": 0, "seed": 0, "p": p, "n": 3, "N": N, "m": 3,
          "values": [[float(z.real), float(z.imag)] for z in values.ravel()]}
    result = {"counterexample": ce, "trials": 1, "p": p}
    wrong = {"quotient of the mirrored field": {**result, "counterexample": {**ce, "quotient": flipped}}}
    return (lambda res: checks.counterexample(res, samples, grid, True, p, N)), result, wrong


def cases():
    lam, mu = 1.3, 0.8
    b2 = checks.lame_n2_bound(lam, mu)
    yield "lame n=2 range", (lambda r: checks.lame_n2_range(r, lam, mu)), _range(-b2, b2), {
        "upper endpoint moved by 1e-2": _range(-b2, b2 + 1e-2),
        "lower endpoint moved by 1e-2": _range(-b2 - 1e-2, b2),
        "empty range": {"empty": True},
    }

    lower, upper = checks.lame_dim_bound(1.0, 1.0), checks.lame_n2_bound(1.0, 1.0)
    mid = 0.5 * (lower + upper)
    yield "lame n=3 range", (lambda r: checks.lame_n3_range(r, 1.0, 1.0)), _range(-mid, mid), {
        "endpoint 1e-2 above the necessary bound": _range(-mid, upper + 1e-2),
        "endpoint 1e-2 below the dimension-independent bound": _range(-(lower - 1e-2), mid),
    }

    moduli = [(1.0, 1.0), (0.5, 1.5), (2.0, 0.7), (-0.4, 1.1)]
    ends = [checks.lame_n2_bound(la, m) for la, m in moduli]
    yield "lame field range", (lambda r: checks.lame_field_range(r, moduli)), _range(-min(ends), min(ends)), {
        "largest sample range": _range(-max(ends), max(ends)),
        "endpoint moved by 1e-2": _range(-min(ends), min(ends) - 1e-2),
    }

    for n, got in ((3, 11.508327389173528), (4, 8.056326182038829)):
        yield f"worst ratio n={n}", (lambda r, n=n: checks.worst_ratio(r, n)), {"p_up": got}, {
            "endpoint moved by 1e-2": {"p_up": got + 1e-2},
            "infinite endpoint": {"p_up": "inf"},
        }

    lam, mu = 0.7, 1.2
    c_up, c_dim = checks.lame_n2_bound(lam, mu) ** 2, checks.lame_dim_bound(lam, mu) ** 2
    c_low = 0.5 * (c_up + c_dim)
    right = {"n": 3, "c_lower": c_low, "c_upper": c_up, "p_interval": _range(-math.sqrt(c_low), math.sqrt(c_low))}
    yield "lame constants", (lambda r: checks.lame_constants(r, 3, lam, mu)), right, {
        "c_upper off by 1e-6": _moved(right, c_upper=1e-6),
        "c_lower 1e-3 below the dimension-independent bound": {**right, "c_lower": c_dim - 1e-3},
        "interval not sqrt(c_lower)": {**right, "p_interval": _range(-math.sqrt(c_low), math.sqrt(c_low) + 1e-3)},
        "answer for another n": {**right, "n": 4},
    }

    phi = 0.9
    yield "e^{i phi} I range", (lambda r: checks.phase_range(r, phi)), _range(-math.cos(phi), math.cos(phi)), {
        "endpoint moved by 1e-2": _range(-math.cos(phi), math.cos(phi) + 1e-2),
        "full range": _range(-1.0, 1.0),
    }

    rng = np.random.default_rng(1)
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = B.conj().T @ B + 0.1 * np.eye(4)
    entries = H.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1)   # Re<A xi, xi> = xi^H H xi
    lmin = float(np.linalg.eigvalsh(H)[0])
    right = {"strong_margin": lmin, "lh_margin": lmin + 0.05}
    yield "margins at p=2", (lambda r: checks.margins_at_p2(r, entries)), right, {
        "strong margin off by 1e-3": _moved(right, strong_margin=1e-3),
        "lh margin below strong": {**right, "lh_margin": lmin - 1e-3},
    }
    scalar = np.exp(0.4j) * np.eye(2)[:, :, None, None]
    cos = math.cos(0.4)
    right = {"strong_margin": cos, "lh_margin": cos, "scalar_margin": cos}
    yield "margins at p=2, m=1", (lambda r: checks.margins_at_p2(r, scalar)), right, {
        "scalar margin off by 1e-3": _moved(right, scalar_margin=1e-3),
    }

    right = {"strong_margin": 0.2, "lh_margin": 0.3}
    yield "margins inside the range", checks.margins_inside, right, {
        "negative strong margin": {"strong_margin": -0.01, "lh_margin": 0.3},
        "lh margin below strong": {"strong_margin": 0.2, "lh_margin": 0.19},
    }

    strong = _range(-0.4, 0.35)
    yield "lh range contains strong", (lambda r: checks.contains_range(r, strong)), _range(-0.45, 0.35), {
        "upper end 1e-2 inside the strong range": _range(-0.45, 0.34),
        "lower end 1e-2 inside the strong range": _range(-0.39, 0.35),
    }

    yield "adjoint range reflected", (lambda r: checks.reflected_range(r, strong)), _range(-0.35, 0.4), {
        "endpoint moved by 1e-2": _range(-0.35, 0.41),
        "not reflected": strong,
    }

    check, right, wrong = _counterexample_case()
    yield "counterexample", check, right, wrong
    yield ("counterexample, n=3 field",) + _counterexample_n3_case()

    yield "no counterexample", checks.no_counterexample, {"counterexample": None}, {
        "a counterexample": right,
    }


def _convention_mismatches() -> list:
    """Fields where reference_quotient and pelliptic.discrete_quotient disagree."""
    import run

    sys.path.insert(0, str(run.SRC))
    import pelliptic as pe

    rng = np.random.default_rng(2)
    mismatches = []
    for n, grid, periodic, N in ((2, (3, 3), True, 17), (2, (5, 4), False, 12), (3, (3, 2, 3), True, 9)):
        samples = rng.standard_normal(grid + (n, n, n, n)) + 3.0 * np.eye(n * n).reshape(n, n, n, n)
        field = pe.TensorField(samples, grid, periodic=periodic)
        values = pe.random_test_grid(n, N, n, rng, real=True)
        want = pe.discrete_quotient(field, 3.0, values)
        got = checks.reference_quotient(field.samples, grid, periodic, 3.0, values.values)
        if abs(got - want) > checks.QUOTIENT_RTOL * max(1.0, abs(want)):
            mismatches.append(f"n={n} grid={grid} periodic={periodic}: {got!r} != {want!r}")
    return mismatches


def main() -> int:
    bad = 0
    for name, check, right, wrong in cases():
        try:
            check(right)
        except checks.WRONG_ANSWER as exc:
            print(f"FAIL {name}: right answer rejected: {exc}")
            bad += 1
        for label, answer in wrong.items():
            try:
                check(answer)
            except checks.WRONG_ANSWER:
                print(f"ok   {name}: rejects {label}")
            else:
                print(f"FAIL {name}: accepted {label}")
                bad += 1
    mismatches = _convention_mismatches()
    for line in mismatches:
        print(f"FAIL reference quotient convention: {line}")
    if not mismatches:
        print("ok   reference quotient matches the program on heterogeneous fields")
    bad += len(mismatches)
    print(f"{bad} unexpected verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
