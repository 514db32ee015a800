"""Discretized coercivity quotient, randomized falsifier, and the
weighted-gradient identities used to bound the coercivity constant.

Test functions live on a regular lattice over [0,1]^n with N points per
axis (spacing h = 1/(N-1)) and vanish identically on the boundary layer.
Gradients are forward differences anchored at the cell's base corner; the
direction field v/|v| and the degenerate-cell threshold are evaluated at
the same base corner, and coefficient tensors are sampled at cell
midpoints. Desk-scale limits: n in {2, 3}, 8 <= N <= 65, m <= 4.

A positive strong margin at t(p) certifies the integral condition, so the
falsifier can only ever refute: "no counterexample found" is not a proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailureError
from .runtime import parallel_map, substream
from .tensors import TensorField, _nearest_index
from .tensors import sample_field  # noqa: F401  (wrapped by name in perfbench/trace.py)

MAX_POINTS = 65
MIN_POINTS = 8
MAX_CHANNELS = 4
DEGENERATE_REL = 1e-12
_MAX_FREQ = 4


@dataclass(frozen=True)
class TestFunctionGrid:
    """Complex m-vector samples on the lattice, zero on the boundary."""

    values: np.ndarray  # shape (N, ..., N, m), n spatial axes

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        n = arr.ndim - 1
        if n not in (2, 3):
            raise InputError("test grids support n in {2, 3}")
        shape = arr.shape[:-1]
        if len(set(shape)) != 1:
            raise InputError("lattice must have equal points per axis")
        N = shape[0]
        if not MIN_POINTS <= N <= MAX_POINTS:
            raise InputError(f"points per axis must lie in [{MIN_POINTS}, {MAX_POINTS}]")
        if arr.shape[-1] > MAX_CHANNELS:
            raise InputError(f"at most {MAX_CHANNELS} channels supported")
        if not np.all(np.isfinite(arr)):
            raise InputError("test grid contains non-finite values")
        for axis in range(n):
            for edge in (0, N - 1):
                face = np.take(arr, edge, axis=axis)
                if np.any(face != 0):
                    raise InputError("test grid must vanish on the boundary layer")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.ndim - 1

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class Counterexample:
    """A test function with non-positive quotient at the given exponent."""

    grid: TestFunctionGrid
    quotient: float
    p: float
    trial: int
    seed: int

    def __post_init__(self):
        if self.quotient > 0:
            raise InputError("counterexample quotient must be <= 0")


def _forward_gradient(arr: np.ndarray, n: int, h: float) -> np.ndarray:
    """Forward differences co-located at cell base corners.

    Input (N,..,N[,m]); output (N-1,..,N-1, n[, m]).
    """
    N = arr.shape[0]
    cells = tuple(slice(0, N - 1) for _ in range(n))
    comps = []
    for d in range(n):
        hi = tuple(
            slice(1, N) if a == d else slice(0, N - 1) for a in range(n)
        )
        comps.append((arr[hi] - arr[cells]) / h)
    return np.stack(comps, axis=n)


def _cell_tensors(F: TensorField, n: int, N: int) -> np.ndarray:
    """Coefficient tensor per cell midpoint, flattened shape (cells, n, n, m, m)."""
    if F.is_constant:
        return F.samples[None]
    h = 1.0 / (N - 1)
    axes = [(np.arange(N - 1) + 0.5) * h for _ in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return F.samples[_nearest_index(pts, F.grid, F.periodic)]


def _check_field(F: TensorField, n: int, m: int):
    if F.n != n or F.m != m:
        raise InputError(f"field is ({F.n},{F.m}), test grid is ({n},{m})")
    if F.m > MAX_CHANNELS:
        raise InputError(f"at most {MAX_CHANNELS} channels supported")
    if not F.is_constant and len(F.grid) != n:
        raise InputError("sampled fields must have an n-dimensional lattice here")


def _quotient_pieces(F: TensorField, p: float, v: TestFunctionGrid):
    """Per-cell gradient xi, projected term g, and cell tensors."""
    if not p > 1.0:
        raise InputError("p must exceed 1")
    arr = v.values
    if not np.any(arr):
        raise InputError("test function is identically zero")
    n, N, m = v.n, v.N, v.m
    _check_field(F, n, m)
    h = 1.0 / (N - 1)

    grad = _forward_gradient(arr, n, h)              # (.., n, m)
    mag = np.abs(np.sqrt(np.einsum("...a,...a->...", arr, np.conj(arr)).real))
    grad_mag = _forward_gradient(mag, n, h)          # (.., n)

    cells = tuple(slice(0, N - 1) for _ in range(n))
    base = arr[cells]                                # (.., m)
    base_mag = mag[cells]
    thresh = DEGENERATE_REL * float(mag.max())
    ok = base_mag > thresh
    direction = np.zeros_like(base)
    direction[ok] = base[ok] / base_mag[ok][..., None]
    g = direction[..., None, :] * grad_mag[..., :, None]   # (.., n, m)

    xi = grad.reshape(-1, n, m)
    g = g.reshape(-1, n, m)
    if not (np.all(np.isfinite(xi)) and np.all(np.isfinite(g))):
        raise NumericalFailureError("non-finite finite differences", partial=None)
    A_cells = _cell_tensors(F, n, N)
    return xi, g, A_cells


def _pair_cells(A_cells: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Re sum over cells of <A(cell) x_cell, y_cell>."""
    if A_cells.shape[0] == 1:
        return float(np.real(np.einsum("hkab,cha,ckb->", A_cells[0], x, np.conj(y))))
    total = 0.0
    step = 32768
    for i in range(0, x.shape[0], step):
        total += float(
            np.real(
                np.einsum(
                    "chkab,cha,ckb->",
                    A_cells[i : i + step],
                    x[i : i + step],
                    np.conj(y[i : i + step]),
                )
            )
        )
    return total


def discrete_quotient(F: TensorField, p: float, v: TestFunctionGrid) -> float:
    """Coercivity quotient of the test function at exponent p.

    Q(v) = Re sum_cells <A (grad v - t g), grad v + t g> / sum_cells |grad v|^2
    with t = 1 - 2/p and g the base-anchored direction term; cells whose
    base magnitude falls under the degenerate threshold contribute g = 0.
    """
    xi, g, A_cells = _quotient_pieces(F, p, v)
    t = 1.0 - 2.0 / p
    denom = float(np.sum(np.abs(xi) ** 2))
    if denom == 0.0:
        raise InputError("test function has zero gradient energy")
    num = _pair_cells(A_cells, xi - t * g, xi + t * g)
    if not np.isfinite(num):
        raise NumericalFailureError("quotient numerator is non-finite", partial=None)
    return num / denom


def _random_direction(rng, dim, real):
    v = rng.standard_normal(dim)
    if not real:
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_test_grid(n: int, N: int, m: int, rng: np.random.Generator,
                     real: bool = False) -> TestFunctionGrid:
    """Random low-frequency Fourier sum times a boundary bump profile.

    Two draw shapes, mixed per trial: a plain tensor-product sine sum with
    frequency-decaying random coefficients, and a "carrier plus rider" draw,
    a large fundamental-mode carrier along one channel direction with a
    plane-wave oscillation (random direction, frequency <= 4) riding on it.
    The second shape stresses the direction-projection term, which is where
    the pointwise conditions bite; both vanish exactly on the boundary.
    """
    x = np.linspace(0.0, 1.0, N)
    sines = np.stack([np.sin(np.pi * f * x) for f in range(1, _MAX_FREQ + 1)])
    sines[:, 0] = 0.0
    sines[:, -1] = 0.0  # exact boundary vanishing despite sin(pi*f) roundoff
    bump = sines[0]
    for _ in range(n - 1):
        bump = np.multiply.outer(bump, sines[0])

    def coeff():
        if real:
            return rng.standard_normal()
        return rng.standard_normal() + 1j * rng.standard_normal()

    values = np.zeros((N,) * n + (m,), dtype=complex)
    for freqs in itertools.product(range(_MAX_FREQ), repeat=n):
        scale = 1.0 / (1.0 + sum(freqs))
        mode = sines[freqs[0]]
        for f in freqs[1:]:
            mode = np.multiply.outer(mode, sines[f])
        for a in range(m):
            values[..., a] += coeff() * scale * mode

    if rng.random() < 0.6:
        carrier_dir = _random_direction(rng, m, real)
        rider_dir = _random_direction(rng, m, real)
        q = _random_direction(rng, n, True)
        freq = float(rng.integers(2, _MAX_FREQ + 1))
        phase = 2.0 * np.pi * rng.random()
        mesh = np.meshgrid(*([x] * n), indexing="ij")
        wave = np.sin(2.0 * np.pi * freq * sum(qd * g for qd, g in zip(q, mesh)) + phase)
        carrier_amp = 0.2 + 2.0 * rng.random()
        ratio = 0.15 + 0.75 * rng.random()
        rider = carrier_amp * ratio * np.multiply.outer(wave * bump, rider_dir)
        noise_level = 0.02 * rng.random() * carrier_amp
        values = (
            carrier_amp * np.multiply.outer(bump, carrier_dir)
            + rider
            + noise_level * values / max(np.abs(values).max(), 1e-300)
        )
    return TestFunctionGrid(values)


def falsify_integral(F: TensorField, p: float, trials: int, seed: int = 0,
                     N: int = 33) -> Counterexample | None:
    """Search for a test function with non-positive quotient.

    Returns the lowest-index hit, running no trial after it, or None.
    None does not certify the condition; a positive strong margin does, and
    a returned counterexample soundly refutes. Real fields are probed with
    real test functions, complex fields with complex ones.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    n, m = F.n, F.m
    real = F.is_real

    def run(trial: int):
        rng = substream(seed, trial)
        grid = random_test_grid(n, N, m, rng, real=real)
        q = discrete_quotient(F, p, grid)
        return (trial, q, grid)

    for trial, q, grid in parallel_map(run, range(trials)):
        if q <= 0.0:
            return Counterexample(grid=grid, quotient=q, p=p, trial=trial, seed=seed)
    return None


# ---------------------------------------------------------------------------
# weighted-gradient identity


def _weighted_gradient_pieces(u: np.ndarray, grads: np.ndarray, p: float):
    u = np.asarray(u, dtype=complex)
    grads = np.asarray(grads, dtype=complex)
    if u.ndim != 2 or grads.ndim != 3 or grads.shape[0] != u.shape[0] or grads.shape[2] != u.shape[1]:
        raise InputError("expected u of shape (S, m) and gradients of shape (S, n, m)")
    if not p > 1.0:
        raise InputError("p must exceed 1")
    w = np.linalg.norm(u, axis=1)
    keep = w > 0.0
    if not np.any(keep):
        raise InputError("all samples vanish")
    u, grads, w = u[keep], grads[keep], w[keep]
    # d_h |u| = Re<u, d_h u>/|u|
    dmag = np.real(np.einsum("sa,sha->sh", np.conj(u), grads)) / w[:, None]
    grad_sq = np.einsum("sha,sha->s", grads, np.conj(grads)).real
    dmag_sq = np.einsum("sh,sh->s", dmag, dmag)
    return u, grads, w, dmag, grad_sq, dmag_sq


def power_identity_residual(u, grads, p: float) -> float:
    """Max residual of |grad(|u|^{(p-2)/2} u)|^2 = |u|^{p-2}(|grad u|^2 + (p^2/4 - 1)|grad|u||^2).

    The left side is expanded by the chain rule at each sample; samples with
    |u| = 0 are skipped (vanishing-interpretation convention).
    """
    u, grads, w, dmag, grad_sq, dmag_sq = _weighted_gradient_pieces(u, grads, p)
    s = 0.5 * (p - 2.0)
    # grad(|u|^s u)[h,a] = s |u|^{s-1} d_h|u| u_a + |u|^s grad[h,a]
    lhs_field = (
        s * (w ** (s - 1.0))[:, None, None] * dmag[:, :, None] * u[:, None, :]
        + (w ** s)[:, None, None] * grads
    )
    lhs = np.einsum("sha,sha->s", lhs_field, np.conj(lhs_field)).real
    rhs = (w ** (p - 2.0)) * (grad_sq + (p * p / 4.0 - 1.0) * dmag_sq)
    return float(np.max(np.abs(lhs - rhs)))


def power_identity_bounds_slack(u, grads, p: float) -> tuple[float, float]:
    """Minimum slack of c1 w^{p-2}|grad u|^2 <= |grad(w^{(p-2)/2} u)|^2 <= c2 w^{p-2}|grad u|^2,
    with (c1, c2) = (1, p^2/4) for p >= 2 and (p^2/4, 1) for p < 2.

    Both returned slacks must be >= 0 (up to roundoff) for the identity's
    two-sided comparison to hold.
    """
    u, grads, w, dmag, grad_sq, dmag_sq = _weighted_gradient_pieces(u, grads, p)
    mid = (w ** (p - 2.0)) * (grad_sq + (p * p / 4.0 - 1.0) * dmag_sq)
    base = (w ** (p - 2.0)) * grad_sq
    c1, c2 = (1.0, p * p / 4.0) if p >= 2.0 else (p * p / 4.0, 1.0)
    lower = float(np.min(mid - c1 * base))
    upper = float(np.min(c2 * base - mid))
    return lower, upper


def lambda_p_estimate(F: TensorField, p: float, trials: int, seed: int = 0,
                      N: int = 17) -> float:
    """Sampled upper bound on the coercivity constant of the weighted form.

    Minimum over random test grids of
    Re sum <A grad u, grad(|u|^{p-2} u)> / sum |u|^{p-2} |grad u|^2,
    chain-rule expanded per cell; cells with degenerate base magnitude are
    dropped from both sums. Positive whenever the strong margin at t(p) is.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if not p > 1.0:
        raise InputError("p must exceed 1")
    n, m = F.n, F.m
    _check_field(F, n, m)
    real = F.is_real
    A_all = _cell_tensors(F, n, N)
    best = np.inf
    for trial in range(trials):
        rng = substream(seed, trial)
        grid = random_test_grid(n, N, m, rng, real=real)
        arr = grid.values
        h = 1.0 / (N - 1)
        grad = _forward_gradient(arr, n, h).reshape(-1, n, m)
        cells = tuple(slice(0, N - 1) for _ in range(n))
        base = arr[cells].reshape(-1, m)
        w = np.linalg.norm(base, axis=1)
        ok = w > DEGENERATE_REL * float(np.abs(arr).max())
        base, grad, w = base[ok], grad[ok], w[ok]
        dmag = np.real(np.einsum("sa,sha->sh", np.conj(base), grad)) / w[:, None]
        # grad(|u|^{p-2} u) = (p-2) w^{p-3} d|u| u + w^{p-2} grad u
        target = (
            (p - 2.0) * (w ** (p - 3.0))[:, None, None] * dmag[:, :, None] * base[:, None, :]
            + (w ** (p - 2.0))[:, None, None] * grad
        )
        A_cells = A_all[ok] if A_all.shape[0] > 1 else A_all
        num = _pair_cells(A_cells, grad, target)
        den = float(np.sum((w ** (p - 2.0)) * np.einsum("sha,sha->s", grad, np.conj(grad)).real))
        if den <= 0:
            continue
        best = min(best, num / den)
    if not np.isfinite(best):
        raise NumericalFailureError("no usable trial", partial=None)
    return float(best)
