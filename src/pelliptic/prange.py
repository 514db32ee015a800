"""Admissible-exponent intervals in the t = 1 - 2/p parametrization.

For a fixed direction the form is the smallest eigenvalue of
S(t) = S0 + t S1 + t^2 S2, concave in t once S0 is positive definite, so
it is positive exactly between the first t on each side of 0 where S(t)
turns singular; the interval's ends are the extreme thresholds over
directions. Where the t = 0 (classical) form is not positive definite both
thresholds are 0, so a range is empty exactly when an end reads 0; each end
is the first singular t of the best direction found by one threshold search
per side. An end within ``T_TOL`` of +-1 is reported as +-1 (p = 1 or inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conditions import SearchConfig, threshold_ends
from .errors import InputError
from .runtime import parallel_map
from .tensors import CoefficientTensor, TensorField, adjoint

T_TOL = 1e-4   # ends this close to +-1 are reported as +-1 (p = 1 or inf)

# Placeholder for a deleted search that perfbench/trace.py still wraps by
# name (its three metrics read 0); ROADMAP item 1 retires it with the tracer.
pooled_margin = None


def t_of_p(p: float) -> float:
    """t = 1 - 2/p for p in (1, inf); p = inf maps to t = 1."""
    if p == math.inf:
        return 1.0
    if not p > 1.0:
        raise InputError(f"p must exceed 1, got {p}")
    return 1.0 - 2.0 / p


def p_of_t(t: float) -> float:
    """Inverse map p = 2/(1 - t); t = 1 maps to p = inf."""
    if t == 1.0:
        return math.inf
    if not -1.0 < t < 1.0:
        raise InputError(f"t must lie in (-1, 1], got {t}")
    return 2.0 / (1.0 - t)


@dataclass(frozen=True)
class PRange:
    """Open interval of admissible exponents, stored in t coordinates."""

    t_lo: float = 0.0
    t_hi: float = 0.0
    empty: bool = False

    def __post_init__(self):
        if self.empty:
            return
        if not (-1.0 <= self.t_lo <= self.t_hi <= 1.0):
            raise InputError("need -1 <= t_lo <= t_hi <= 1")

    @property
    def p_lo(self) -> float:
        if self.empty:
            raise InputError("empty range has no endpoints")
        return 2.0 / (1.0 - self.t_lo)  # t_lo = -1 gives exactly 1

    @property
    def p_hi(self) -> float:
        if self.empty:
            raise InputError("empty range has no endpoints")
        return p_of_t(self.t_hi)

    def contains_t(self, t: float) -> bool:
        return (not self.empty) and self.t_lo < t < self.t_hi

    def contains_p(self, p: float) -> bool:
        return self.contains_t(t_of_p(p))

    def intersect(self, other: "PRange") -> "PRange":
        if self.empty or other.empty:
            return PRange(empty=True)
        lo = max(self.t_lo, other.t_lo)
        hi = min(self.t_hi, other.t_hi)
        if lo > hi:
            return PRange(empty=True)
        return PRange(lo, hi)

    def as_dict(self) -> dict:
        if self.empty:
            return {"empty": True}
        return {
            "empty": False,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
            "p_lo": self.p_lo,
            "p_hi": "inf" if self.t_hi == 1.0 else self.p_hi,
        }


def condition_range(A: CoefficientTensor, kind: str = "strong",
                    cfg: SearchConfig = SearchConfig()) -> PRange:
    """Open t-interval on which the chosen pointwise condition holds.

    Empty when the threshold search finds a direction whose t = 0 form is
    not positive definite, that is, where the classical condition fails.
    """
    t_lo, t_hi = threshold_ends(A, kind, cfg)
    if t_lo == 0.0 or t_hi == 0.0:
        return PRange(empty=True)
    return PRange(-1.0 if 1.0 + t_lo <= T_TOL else t_lo, 1.0 if 1.0 - t_hi <= T_TOL else t_hi)


def field_range(F: TensorField, kind: str = "strong",
                cfg: SearchConfig = SearchConfig()) -> PRange:
    """Intersection of condition_range over every lattice sample.

    Samples are searched in lattice order, and the search stops at the first
    one that empties the intersection.
    """
    tensors = list(F.iter_tensors())
    if not tensors:
        raise InputError("field has no samples")

    def per_sample(item):
        idx, tensor = item
        try:
            return condition_range(tensor, kind, cfg)
        except Exception as exc:
            # keep the exception itself, so its type and attributes survive
            exc.args = (f"sample {idx}: {exc}",) + exc.args[1:]
            raise

    out = PRange(-1.0, 1.0)  # every range lies inside, so the first intersect copies it
    for r in parallel_map(per_sample, enumerate(tensors)):
        out = out.intersect(r)
        if out.empty:
            break
    return out


def duality_residual(A: CoefficientTensor, kind: str = "strong",
                     cfg: SearchConfig = SearchConfig()) -> float:
    """Hausdorff mismatch between the range of A* and the reflected range of A.

    The form of A* at (t, omega) is the form of A at (-t, omega), so the
    thresholds of A* are the reflected thresholds of A, direction by
    direction. The residual is inf when the range of A* is empty.
    """
    r_a = condition_range(A, kind, cfg)
    if r_a.empty:
        raise InputError("duality residual needs a non-empty range for A")
    r_s = condition_range(adjoint(A), kind, cfg)
    if r_s.empty:
        return math.inf
    return max(abs(r_s.t_lo + r_a.t_hi), abs(r_s.t_hi + r_a.t_lo))
