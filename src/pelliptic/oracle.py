"""Brute-force cross-validation minimizers and random tensor generators.

Deliberately shares no optimization code with the margin machinery: values
come from direct form evaluation at random unit draws plus coordinate
descent, so the two routes have independent failure modes. Test-support
quality, not a production surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenerationError, InputError
from .lame import SQRT8, lame_tensor, sufficient_constant
from .runtime import substream
from .tensors import CoefficientTensor

_STEP_LADDER = (0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4)


@dataclass(frozen=True)
class OracleConfig:
    samples: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1000:
            raise InputError("oracle needs at least 1000 samples")


def _strong_values(A, t, Xi, W):
    """Vectorized strong form over batched (xi, omega) draws."""
    C = np.real(np.einsum("sha,sa->sh", np.conj(Xi), W))
    Xo = np.einsum("sh,sa->sha", C, W)
    minus = Xi - t * Xo
    plus = Xi + t * Xo
    return np.real(np.einsum("hkab,sha,skb->s", A.entries, minus, np.conj(plus)))


def _lh_values(A, t, Eta, W, Q):
    Mq = np.einsum("hkab,sh,sk->sab", A.entries, Q, Q)
    C = np.real(np.einsum("sa,sa->s", W, np.conj(Eta)))
    Z = W * C[:, None]
    minus = Eta - t * Z
    plus = Eta + t * Z
    return np.real(np.einsum("sab,sa,sb->s", Mq, minus, np.conj(plus)))


def _scalar_values(A, t, Xi):
    c = abs(t)
    target = Xi + c * np.conj(Xi)
    return np.real(np.einsum("hk,sh,sk->s", A.entries[:, :, 0, 0], Xi, np.conj(target)))


def _draw_units(rng, count, shape, real):
    flat = int(np.prod(shape))
    X = rng.standard_normal((count, flat))
    if not real:
        X = X + 1j * rng.standard_normal((count, flat))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X.reshape((count,) + shape)


def brute_margin(A: CoefficientTensor, t: float, kind: str, cfg: OracleConfig) -> float:
    """Minimum form value over random unit test objects; an upper bound on
    the true infimum. Real tensors are probed with real test objects (the
    same convention the margin search uses)."""
    if not -1.0 < t < 1.0:
        raise InputError("t must lie in (-1, 1)")
    rng = substream(cfg.seed, 0x0A)
    real = A.is_real and kind != "scalar"
    n, m = A.n, A.m

    if kind == "strong":
        def batch(count, gen):
            Xi = _draw_units(gen, count, (n, m), real)
            W = _draw_units(gen, count, (m,), real)
            return _strong_values(A, t, Xi, W), (Xi, W)
    elif kind == "lh":
        def batch(count, gen):
            Eta = _draw_units(gen, count, (m,), real)
            W = _draw_units(gen, count, (m,), real)
            Q = _draw_units(gen, count, (n,), True)
            return _lh_values(A, t, Eta, W, Q), (Eta, W, Q)
    elif kind == "scalar":
        if m != 1:
            raise InputError("scalar kind requires m = 1")

        def batch(count, gen):
            Xi = _draw_units(gen, count, (n,), False)
            return _scalar_values(A, t, Xi), (Xi,)
    else:
        raise InputError(f"unknown kind: {kind}")

    keep = 6  # refine several basins, not just the single best draw
    leaders = []  # (value, point) pairs
    remaining = cfg.samples
    while remaining > 0:
        count = min(remaining, 200000)
        vals, pieces = batch(count, rng)
        for i in np.argsort(vals)[:keep]:
            leaders.append((float(vals[i]), tuple(p[i] for p in pieces)))
        remaining -= count
    leaders.sort(key=lambda item: item[0])
    best_val = leaders[0][0]
    for val, point in leaders[:keep]:
        best_val = min(best_val, _coordinate_descent(A, t, kind, point, val, real))
    return float(best_val)


def _coordinate_descent(A, t, kind, point, value, real):
    """Greedy descent sweeps with a shrinking step ladder.

    Each block of the test point is renormalized after every probe, so the
    iterates stay on their unit spheres.
    """
    blocks = [np.array(b, dtype=complex) for b in point]
    real_block = [real] * len(blocks)
    if kind == "lh":
        real_block[-1] = True  # frequency stays real
    if kind == "scalar":
        real_block = [False]

    def evaluate(bs):
        args = [b[None] for b in bs]
        if kind == "strong":
            return float(_strong_values(A, t, *args)[0])
        if kind == "lh":
            return float(_lh_values(A, t, *args)[0])
        return float(_scalar_values(A, t, *args)[0])

    def normalized(b):
        nrm = np.linalg.norm(b)
        return b if nrm == 0 else b / nrm

    for step in _STEP_LADDER + _STEP_LADDER:
        improved = True
        sweeps = 0
        while improved and sweeps < 40:
            improved = False
            sweeps += 1
            for bi, block in enumerate(blocks):
                flat = block.ravel()
                for j in range(flat.size):
                    units = (1.0,) if real_block[bi] else (1.0, 1j)
                    for unit in units:
                        for sign in (+1.0, -1.0):
                            trial = [b.copy() for b in blocks]
                            tf = trial[bi].ravel()
                            tf[j] += sign * step * unit
                            trial[bi] = normalized(trial[bi].reshape(block.shape))
                            val = evaluate(trial)
                            if val < value - 1e-14:
                                value = val
                                blocks = trial
                                improved = True
    return value


def random_elliptic_tensor(n: int, m: int, style: str, seed: int = 0) -> CoefficientTensor:
    """Seeded generator of test tensors with a known classical margin.

    hermitian-positive: composite-matrix B*B + 0.1 I, so the p = 2 margin is
    at least 0.1. legendre-perturbed: the same plus an anti-Hermitian
    perturbation (which cannot lower the p = 2 margin). lame-like: a real
    elasticity tensor at an admissible random (lam, mu) with its optimal
    rewrite parameter.
    """
    if n < 1 or m < 1:
        raise InputError("need n, m >= 1")
    rng = substream(seed, 0xE1)
    if style == "lame-like":
        if n < 2:
            raise InputError("lame-like tensors need n >= 2")
        mu = 0.5 + 1.5 * rng.random()
        a = (1.0 - SQRT8) + 2.0 * SQRT8 * rng.random()
        lam = a * mu
        r_star = sufficient_constant(n, lam, mu).r_star
        return lame_tensor(lam, mu, r_star, n)
    if style not in ("hermitian-positive", "legendre-perturbed"):
        raise InputError(f"unknown style: {style}")

    d = n * m
    for attempt in range(20):
        B = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        B /= np.sqrt(d)
        H = B.conj().T @ B + 0.1 * np.eye(d)
        if style == "legendre-perturbed":
            P = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            P = 0.5 * (P - P.conj().T) / np.sqrt(d)
            H = H + P
        # pairing(A, xi, xi) = xi^H H xi with composite index (h, a)
        entries = H.reshape(n, m, n, m).transpose(2, 0, 3, 1)
        A = CoefficientTensor(entries)
        floor = 0.1 if style == "hermitian-positive" else 0.05
        herm = 0.5 * (H + H.conj().T)
        if float(np.linalg.eigvalsh(herm)[0]) >= floor - 1e-8:
            return A
    raise GenerationError(f"could not meet the margin floor for style {style}")
