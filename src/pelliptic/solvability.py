"""Exponent-range arithmetic for boundary-value solvability upgrades.

Given a base exponent q where the boundary problem is known solvable and a
supremal admissibility exponent p0, the upgraded range is
[q, p0 (n-1)/(n-2)) for n >= 3 and [q, inf) when n = 2 or p0 = inf. The
unquantified epsilon/delta slack terms around baseline ranges are carried
symbolically in the notes; numeric endpoints are the conservative ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .lame import sufficient_constant, SQRT8, _c_bounds, _check_moduli
from .prange import PRange, t_of_p

# dimension-independent worst-ratio constant 2/(1 - sqrt(8 sqrt2 - 11))
ASYMPTOTIC_CONSTANT = 2.0 / (1.0 - math.sqrt(8.0 * math.sqrt(2.0) - 11.0))

# grid points per vectorised pass of the worst-ratio scan
_SCAN_BLOCK = 1 << 16

_DISPLAY_NOTE = (
    "upper endpoint follows the chain p0 = 2/(1 - sqrt(C)), "
    "p_up = p0 (n-1)/(n-2); the alternative closed form "
    "2(n-1)/((n-2) sqrt(1-C)) does not reproduce the benchmark endpoints "
    "(11.51 at n=3, 8.055 at n=4) and is not used"
)


@dataclass(frozen=True)
class SolvabilityQuery:
    """Inputs of the range upgrade; drift_bound only documents the
    first-order smallness hypothesis, it does not enter the arithmetic."""

    n: int
    q: float
    p0: float
    drift_bound: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise InputError("dimension must be >= 2")
        if not self.q > 1.0:
            raise InputError("q must exceed 1")
        if not (self.p0 > 1.0 or self.p0 == math.inf):
            raise InputError("p0 must exceed 1 (or be inf)")
        if self.drift_bound is not None and self.drift_bound < 0.0:
            raise InputError("drift bound must be >= 0")
        if self.n >= 3 and self.p0 != math.inf:
            cap = self.p0 * (self.n - 1.0) / (self.n - 2.0)
            if not self.q < cap:
                raise InputError(
                    f"need q < p0 (n-1)/(n-2) = {cap}, got q = {self.q}"
                )


@dataclass(frozen=True)
class SolvabilityReport:
    theorem: str
    p_lo: float
    p_hi: float              # math.inf allowed
    lower_closed: bool
    notes: tuple = ()

    def __post_init__(self):
        if self.p_lo < 1.0:
            raise InputError("range lower endpoint must be >= 1")
        if self.p_hi < self.p_lo:
            raise InputError("range upper endpoint below lower endpoint")

    @property
    def range(self) -> PRange:
        return PRange(t_of_p(self.p_lo), t_of_p(self.p_hi) if self.p_hi != math.inf else 1.0)

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "p_lo": self.p_lo,
            "p_hi": "inf" if self.p_hi == math.inf else self.p_hi,
            "lower_closed": self.lower_closed,
            "notes": list(self.notes),
        }


def extrapolation_range(query: SolvabilityQuery) -> SolvabilityReport:
    """[q, p0 (n-1)/(n-2)) for n >= 3 with finite p0, else [q, inf)."""
    if query.n == 2 or query.p0 == math.inf:
        hi = math.inf
        note = "n = 2 or p0 = inf: upper endpoint unbounded"
    else:
        hi = query.p0 * (query.n - 1.0) / (query.n - 2.0)
        note = "upper endpoint open"
    return SolvabilityReport(
        theorem="extrapolation",
        p_lo=query.q,
        p_hi=hi,
        lower_closed=True,
        notes=(note,),
    )


def homogenization_range(n: int, m: int, q_strong: float) -> SolvabilityReport:
    """Oscillating-coefficient upgrade: (2, q_strong (n-1)/(n-2)) plus the
    known baseline (2-delta, inf) for m = 1 or n in {2, 3} and
    (2-delta, 2(n-1)/(n-3) + delta) for m >= 2, n >= 4; delta stays
    symbolic and the numeric union uses the conservative endpoints."""
    if n < 2:
        raise InputError("dimension must be >= 2")
    if m < 1:
        raise InputError("system size must be >= 1")
    if math.isnan(q_strong):
        raise InputError("q_strong must be a number, got nan")
    notes = []
    if q_strong > 2.0:
        improvement = math.inf if n == 2 else q_strong * (n - 1.0) / (n - 2.0)
        notes.append(
            "improvement interval (2, "
            + ("inf" if improvement == math.inf else f"{improvement:.12g}")
            + ") from the admissibility range"
        )
    else:
        improvement = 2.0
        notes.append("q_strong <= 2: no improvement over the baseline")
    if m == 1 or n in (2, 3):
        baseline = math.inf
        notes.append("baseline (2 - delta, inf), delta > 0 unquantified")
    else:
        baseline = 2.0 * (n - 1.0) / (n - 3.0)
        notes.append(
            f"baseline (2 - delta, {baseline:.12g} + delta), delta > 0 unquantified"
        )
    hi = max(improvement, baseline)
    notes.append("numeric union uses conservative endpoints (lower 2, no +delta)")
    return SolvabilityReport(
        theorem="homogenization",
        p_lo=2.0,
        p_hi=hi,
        lower_closed=False,
        notes=tuple(notes),
    )


def lame_dirichlet_upper(n: int, lam: float, mu: float) -> float:
    """Upper solvability endpoint for the elasticity system.

    Chain: C = C_lower(n, lam, mu), p0 = 2/(1 - sqrt(C)),
    p_up = p0 (n-1)/(n-2); n = 2 and C = 1 give inf.
    """
    _check_moduli(lam, mu)
    if n == 2:
        return math.inf
    c = sufficient_constant(n, lam, mu).c_lower
    if c >= 1.0:
        return math.inf
    p0 = 2.0 / (1.0 - math.sqrt(c))
    return p0 * (n - 1.0) / (n - 2.0)


@dataclass(frozen=True)
class WorstRatioResult:
    a_star: float
    c_star: float
    p_up_star: float
    asymptotic_constant: float
    asymptotic_endpoint: float
    notes: tuple = (_DISPLAY_NOTE,)


def worst_case_over_ratio(n: int, a_lo: float = 1.0 - SQRT8, a_hi: float = 1.0 + SQRT8,
                          grid_points: int = 10000) -> WorstRatioResult:
    """Minimize the upper solvability endpoint over the modulus ratio
    a = lam/mu on a uniform grid of the open interval (a_lo, a_hi).

    One vectorised pass per block of _SCAN_BLOCK grid points, so memory
    stays flat for any grid size. Ties resolve to the smaller ratio. Also
    reports the dimension-independent asymptotic endpoint
    ~ 4.546 (n-1)/(n-2).
    """
    if grid_points < 100:
        raise InputError("grid_points must be >= 100")
    if n < 3:
        raise InputError("the worst-ratio scan applies for n >= 3")
    if not a_lo < a_hi:
        raise InputError("need a_lo < a_hi")
    best = None  # (p_up, a, c)
    for start in range(1, grid_points + 1, _SCAN_BLOCK):
        i = np.arange(start, min(start + _SCAN_BLOCK, grid_points + 1))
        a = a_lo + (a_hi - a_lo) * i / (grid_points + 1)
        c = _c_bounds(n, a, 1.0)[0]
        with np.errstate(divide="ignore"):
            p_up = np.where(c >= 1.0, np.inf,
                            (2.0 / (1.0 - np.sqrt(c))) * (n - 1.0) / (n - 2.0))
        k = int(np.argmin(p_up))
        if best is None or p_up[k] < best[0]:
            best = (float(p_up[k]), float(a[k]), float(c[k]))
    return WorstRatioResult(
        a_star=best[1],
        c_star=best[2],
        p_up_star=best[0],
        asymptotic_constant=ASYMPTOTIC_CONSTANT,
        asymptotic_endpoint=ASYMPTOTIC_CONSTANT * (n - 1.0) / (n - 2.0),
    )
