"""Linear-elasticity coefficient tensors and their admissible-exponent
constants.

The elasticity operator with moduli (lam, mu) admits a one-parameter family
of divergence-form rewrites indexed by r; the tensor is

    A[h,k,a,b] = mu d_hk d_ab + (lam + r) d_ha d_kb + (mu - r) d_hb d_ka,

with m = n and the symmetry A[h,k,a,b] = A[k,h,b,a] for every real r.
The best constant C(n, lam, mu) bounding (1 - 2/p)^2 from above is known
in closed form for n = 2 and bracketed for n >= 3; the lower bound comes
from optimizing the rewrite parameter, whose reduced variable x = gamma/mu
(gamma = mu - r) solves a cubic with the trivial root x = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .prange import PRange
from .tensors import CoefficientTensor

SQRT8 = math.sqrt(8.0)
POISSON_LIMIT = 0.396


def _check_moduli(lam: float, mu: float):
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise InputError(f"moduli must be finite, got lam={lam}, mu={mu}")
    if not (mu > 0.0 and lam + 2.0 * mu > 0.0):
        raise InputError(f"need mu > 0 and lam + 2 mu > 0, got lam={lam}, mu={mu}")


def _check_samples(lam: np.ndarray, mu: np.ndarray):
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
        raise InputError("moduli must be finite")
    if not (np.all(mu > 0.0) and np.all(lam + 2.0 * mu > 0.0)):
        raise InputError("every sample needs mu > 0 and lam + 2 mu > 0")


def lame_tensor(lam: float, mu: float, r: float, n: int) -> CoefficientTensor:
    """Elasticity tensor for the rewrite parameter r (m = n; r = 0 is the
    plain divergence form). Real and pairing-symmetric for all real r."""
    _check_moduli(lam, mu)
    if n < 2:
        raise InputError("dimension must be >= 2")
    d = np.eye(n)
    entries = (
        mu * np.einsum("hk,ab->hkab", d, d)
        + (lam + r) * np.einsum("ha,kb->hkab", d, d)
        + (mu - r) * np.einsum("hb,ka->hkab", d, d)
    )
    return CoefficientTensor(entries.astype(complex))


def necessary_constant(n: int, lam: float, mu: float) -> float:
    """Upper bound 1 - ((lam+mu)/(lam+3mu))^2, dimension independent."""
    _check_moduli(lam, mu)
    return _upper(lam, mu)


def _upper(lam, mu):
    s = (lam + mu) / (lam + 3.0 * mu)
    return 1.0 - s * s


def cubic_coefficients(n: int, a: float) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the rewrite-parameter cubic in
    x = gamma/mu, with a = lam/mu."""
    if n < 3:
        raise InputError("the cubic applies for n >= 3")
    c3 = (n - 2.0) / (n - 1.0)
    c2 = 1.0 / (a + 2.0) - a - n / (n - 1.0)
    c1 = -2.0 * (a + 1.0) / (a + 2.0)
    c0 = (a + 1.0) * (a + 1.0) / (a + 2.0)
    return c3, c2, c1, c0


def cubic_residual(n: int, a: float, x: float) -> float:
    c3, c2, c1, c0 = cubic_coefficients(n, a)
    return abs(((c3 * x + c2) * x + c1) * x + c0)


def lame_cubic_roots(n: int, lam: float, mu: float) -> tuple[float, float, float]:
    """The three roots (-1, x_minus, x_plus) of the rewrite-parameter cubic.

    x = -1 is always a root; the other two come from the deflated quadratic,

        x_pm = (n-1)/(2(n-2)) * (lam+mu)/(mu(lam+2mu))
               * [ (lam+3mu) +- sqrt((lam+mu)^2 + 4mu(lam+2mu)/(n-1)) ].
    """
    _check_moduli(lam, mu)
    if n < 3:
        raise InputError("the cubic applies for n >= 3")
    return (-1.0,) + _deflated_roots(n, lam, mu, math.sqrt)


def _deflated_roots(n: int, lam, mu, sqrt) -> tuple:
    """(x_minus, x_plus) for floats (sqrt=math.sqrt) or arrays (np.sqrt);
    the discriminant is positive whenever mu > 0 and lam + 2mu > 0. x_minus
    uses Vieta's form 2(lam+mu) / ((lam+3mu) + root), since pref * ((lam+3mu)
    - root) cancels catastrophically as lam + 2mu -> 0."""
    root = sqrt((lam + mu) * (lam + mu) + 4.0 * mu * (lam + 2.0 * mu) / (n - 1.0))
    pref = (n - 1.0) / (2.0 * (n - 2.0)) * (lam + mu) / (mu * (lam + 2.0 * mu))
    return 2.0 * (lam + mu) / ((lam + 3.0 * mu) + root), pref * ((lam + 3.0 * mu) + root)


@dataclass(frozen=True)
class LameSufficiency:
    """Bracket [C_lower, C_upper] for the admissibility constant together
    with the optimizing rewrite parameters."""

    c_lower: float
    c_upper: float
    gamma_star: float
    r_star: float
    branch: str
    p_interval: PRange

    def __post_init__(self):
        if not _in_bracket(self.c_lower, self.c_upper):
            raise InputError(_BRACKET_MESSAGE)


_BRACKET_MESSAGE = "need 0 <= C_lower <= C_upper <= 1"


def _in_bracket(c_lower, c_upper):
    """0 <= C_lower <= C_upper <= 1, up to 1e-12; floats or arrays."""
    return (0.0 <= c_lower) & (c_lower <= c_upper + 1e-12) & (c_upper <= 1.0 + 1e-12)


def _lh_parts(n: int, lam, mu, gamma) -> tuple:
    """(cap, den, s2) of the second branch of the min defining the lower
    bound at gamma, for n >= 3: the branch is 1 - s2/den, valid only where
    gamma < cap and den > s2. Floats and arrays alike."""
    cap = ((n - 1.0) * lam + n * mu) / (n - 2.0)
    s = lam + mu - gamma
    den = (lam + 2.0 * mu) * (s + (mu + gamma) / (n - 1.0))
    return cap, den, s * s


def sufficient_constant(n: int, lam: float, mu: float) -> LameSufficiency:
    """Best known lower bound on C(n, lam, mu) and the rewrite achieving it.

    n = 2 admits the exact constant 1 - ((lam+mu)/(lam+3mu))^2 (necessary =
    sufficient); n >= 3 takes the max of the dimension-independent bound
    1 - ((lam+mu)/max(mu, lam+2mu))^2 and the cubic-root bound, each valid
    only where its gamma constraints hold. The reported interval is open.
    """
    if n < 2:
        raise InputError("dimension must be >= 2")
    _check_moduli(lam, mu)
    c_upper = _upper(lam, mu)
    if n == 2:
        gamma = mu * (lam + mu) / (lam + 3.0 * mu)
        c = c_upper
        branch = "n2"
    else:
        cands = []
        # limit form of the merged two-case bound (open-interval semantics)
        gamma_dim = mu * (lam + mu) / (lam + 2.0 * mu) if lam + mu >= 0.0 else lam + mu
        s = (lam + mu) / max(mu, lam + 2.0 * mu)
        cands.append((1.0 - s * s, gamma_dim, "case1" if lam + mu < 0.0 else "dim-independent"))
        for x in _deflated_roots(n, lam, mu, math.sqrt):
            if abs(x) >= 1.0:
                continue
            gamma = x * mu
            cap, den, s2 = _lh_parts(n, lam, mu, gamma)
            if not (gamma < cap and den > s2):
                continue
            cands.append((min(1.0 - x * x, 1.0 - s2 / den), gamma, "cubic"))
        c, gamma, branch = max(cands, key=lambda item: item[0])
        c = min(c, c_upper)
    bound = math.sqrt(max(c, 0.0))
    interval = PRange(-bound, bound) if c > 0.0 else PRange(empty=True)
    return LameSufficiency(
        c_lower=c,
        c_upper=c_upper,
        gamma_star=gamma,
        r_star=mu - gamma,
        branch=branch,
        p_interval=interval,
    )


def _c_bounds(n: int, lam, mu) -> tuple[np.ndarray, np.ndarray]:
    """(C_lower, C_upper) of sufficient_constant for arrays of moduli, with
    the same operations in the same order, so every element is bit-identical
    to the scalar path. Candidates whose gamma constraints fail are computed
    and then masked out. Squares in this module are written as products:
    Python's float ** calls libm pow, which can differ from x * x in the
    last bit, and the two paths must agree."""
    if n < 2:
        raise InputError("dimension must be >= 2")
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    _check_samples(lam, mu)
    c_upper = _upper(lam, mu)
    c = c_upper
    if n > 2:
        s = (lam + mu) / np.maximum(mu, lam + 2.0 * mu)
        c = 1.0 - s * s
        with np.errstate(divide="ignore", invalid="ignore"):
            for x in _deflated_roots(n, lam, mu, np.sqrt):
                gamma = x * mu
                cap, den, s2 = _lh_parts(n, lam, mu, gamma)
                ok = (np.abs(x) < 1.0) & (gamma < cap) & (den > s2)
                c = np.where(ok, np.maximum(c, np.minimum(1.0 - x * x, 1.0 - s2 / den)), c)
        c = np.minimum(c, c_upper)
    if not np.all(_in_bracket(c, c_upper)):
        raise InputError(_BRACKET_MESSAGE)
    return c, c_upper


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    lower_combination: float   # min over samples of (sqrt8 - 1) mu + lam
    upper_combination: float   # min over samples of (sqrt8 + 1) mu - lam
    mu0: float
    poisson_ratio: Optional[float]
    poisson_ok: Optional[bool]


def admissibility(lam, mu, mu0: float) -> AdmissibilityReport:
    """Check ess-inf{(sqrt8 - 1) mu + lam, (sqrt8 + 1) mu - lam} >= mu0
    and report the Poisson ratio nu = lam/(2(lam+mu)) against 0.396.

    For sampled moduli the Poisson predicate uses the worst (largest) ratio;
    it is reported as undefined when lam + mu = 0 anywhere.
    """
    if not (mu0 > 0.0 and math.isfinite(mu0)):
        raise InputError("mu0 must be positive and finite")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if lam.shape != mu.shape:
        raise InputError("lam and mu samples must share a shape")
    lo = float(np.min((SQRT8 - 1.0) * mu + lam))
    hi = float(np.min((SQRT8 + 1.0) * mu - lam))
    if np.any(lam + mu == 0.0):
        nu, nu_ok = None, None
    else:
        ratios = lam / (2.0 * (lam + mu))
        nu = float(ratios[np.argmax(ratios)])
        nu_ok = bool(nu < POISSON_LIMIT)
    return AdmissibilityReport(
        admissible=bool(min(lo, hi) >= mu0),
        lower_combination=lo,
        upper_combination=hi,
        mu0=mu0,
        poisson_ratio=nu,
        poisson_ok=nu_ok,
    )


@dataclass(frozen=True)
class OscillationReport:
    max_sum: float
    passes: bool
    lonely_points: tuple
    per_point: np.ndarray


def oscillation_scan(lam, mu, points, delta, K: float) -> OscillationReport:
    """Lattice scan of osc(lam) + osc(mu) over balls B(x, delta(x)/2).

    Oscillation of a sample set is max - min over lattice points inside the
    ball (always including the center), an under-approximation of the true
    oscillation. Points whose ball contains no other lattice point are
    flagged and contribute zero.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    delta = np.asarray(delta, dtype=float)
    S = pts.shape[0]
    if not (lam.shape == mu.shape == (S,) and delta.shape == (S,)):
        raise InputError("lam, mu, delta must be per-point arrays matching points")
    if np.any(delta <= 0.0):
        raise InputError("delta must be positive")
    sums = np.empty(S)
    lonely = []
    for i in range(S):
        dist = np.linalg.norm(pts - pts[i], axis=1)
        inside = dist <= delta[i] / 2.0
        if np.count_nonzero(inside) <= 1:
            lonely.append(i)
            sums[i] = 0.0
            continue
        osc_l = float(lam[inside].max() - lam[inside].min())
        osc_m = float(mu[inside].max() - mu[inside].min())
        sums[i] = osc_l + osc_m
    max_sum = float(sums.max())
    return OscillationReport(
        max_sum=max_sum,
        passes=bool(max_sum <= K),
        lonely_points=tuple(lonely),
        per_point=sums,
    )


def dissipativity_bounds(lam: float, mu: float) -> tuple[float, float]:
    """Constant-coefficient comparison pair (squared bound, plain bound):
    1 - ((lam+mu)/M)^2 and 1 - |lam+mu|/M with M = max(mu, lam+2mu).

    The first is never smaller on the admissible set, strictly larger when
    0 < |lam+mu| < M.
    """
    _check_moduli(lam, mu)
    M = max(mu, lam + 2.0 * mu)
    s = (lam + mu) / M
    return 1.0 - s * s, 1.0 - abs(s)
