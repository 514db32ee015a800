"""Admissible-exponent intervals in the t = 1 - 2/p parametrization.

The margin of a fixed tensor is a pointwise infimum of concave quadratics
in t, hence concave; positivity at t = 0 (the classical condition) plus
sign bisection toward each end of (-1, 1) determines the full open
interval. Reported endpoints are the last certified-positive t; when that
lands within one bisection tolerance of +-1 the endpoint is clamped to
+-1 (exponent range (1, inf)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import SearchConfig, WitnessPool, pooled_margin
from .errors import InputError, InternalInconsistencyError
from .runtime import parallel_map
from .tensors import CoefficientTensor, TensorField, adjoint

T_TOL = 1e-4
CONCAVITY_SLACK = 1e-6


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


def _bisect_edge(A, kind, cfg, pool, sign_dir: int) -> float:
    """Last certified-positive t between 0 and sign_dir * 1."""
    lo, hi = 0.0, float(sign_dir)  # margin(lo) > 0 already certified; hi is a sentinel
    while abs(hi - lo) > T_TOL:
        mid = 0.5 * (lo + hi)
        if pooled_margin(A, kind, cfg, mid, pool) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _range_with_pool(A, kind, cfg, warm_directions=()):
    pool = WitnessPool(directions=list(warm_directions))
    for _ in range(3):
        m0 = pooled_margin(A, kind, cfg, 0.0, pool)
        if m0 <= 0.0:
            return PRange(empty=True), pool
        hi = _bisect_edge(A, kind, cfg, pool, +1)
        lo = _bisect_edge(A, kind, cfg, pool, -1)
        # late witnesses can expose an earlier overestimate; re-certify the
        # anchor and both endpoints against the final pool, retry if needed
        # (the pool is kept, so a retry only sharpens the estimates)
        if all(pool.envelope(t) > 0.0 for t in {0.0, hi, lo}):
            break
    else:
        raise InternalInconsistencyError(
            "bisection could not stabilize; sampled margins keep moving"
        )
    _check_concavity(pool, lo, hi)
    t_hi = 1.0 if 1.0 - hi <= T_TOL else hi
    t_lo = -1.0 if 1.0 + lo <= T_TOL else lo
    return PRange(t_lo, t_hi), pool


def condition_range(A: CoefficientTensor, kind: str = "strong",
                    cfg: SearchConfig = SearchConfig()) -> PRange:
    """Open t-interval on which the chosen pointwise condition holds.

    Empty when the t = 0 margin is not positive (no anchor for the
    concavity argument). Raises InternalInconsistencyError when the sampled
    margins visibly violate concavity, which indicates an outer-search miss.
    """
    rng, _ = _range_with_pool(A, kind, cfg)
    return rng


def _check_concavity(pool: WitnessPool, lo: float, hi: float):
    if hi <= lo:
        return
    ts = np.linspace(lo, hi, 9)
    vals = np.array([pool.envelope(t) for t in ts])
    mids = 0.5 * (vals[:-2] + vals[2:])
    if np.any(vals[1:-1] < mids - CONCAVITY_SLACK):
        raise InternalInconsistencyError(
            "sampled margin violates midpoint concavity beyond tolerance"
        )


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

    A witness for A at t is a witness for A* at -t with the same form value,
    so the adjoint search is warm-started from the primal witnesses (and the
    primal re-run from the adjoint's); the sharing only tightens estimates.
    """
    r_a, pool_a = _range_with_pool(A, kind, cfg)
    if r_a.empty:
        raise InputError("duality residual needs a non-empty range for A")
    A_star = adjoint(A)
    r_s, pool_s = _range_with_pool(A_star, kind, cfg, warm_directions=pool_a.directions)
    r_a, _ = _range_with_pool(A, kind, cfg, warm_directions=pool_s.directions)
    if r_a.empty or r_s.empty:
        raise InternalInconsistencyError("range emptied out after warm-started re-run")
    return max(abs(r_s.t_lo + r_a.t_hi), abs(r_s.t_hi + r_a.t_lo))
