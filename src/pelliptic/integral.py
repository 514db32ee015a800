"""Discretized coercivity quotient, randomized falsifier, and the
weighted-gradient identities used to bound the coercivity constant.

Test functions live on a regular lattice over [0,1]^n with N points per
axis (spacing h = 1/(N-1)) and vanish identically on the boundary layer.
Gradients are forward differences anchored at the cell's base corner; the
direction field v/|v| and the degenerate-cell threshold are evaluated at
the same base corner, and coefficient tensors are sampled at cell
midpoints. The discrete quotient and the weighted-coercivity estimate
share one per-cell decomposition (_cell_pieces). Desk-scale limits:
n in {2, 3}, 8 <= N <= 65, m <= 4, and 1 < p < inf.

The kernels work on chunks: trials stacked along a leading axis. The
falsifier draws and scores up to CHUNK_BUDGET lattice points x channels
of trials at a time; a single grid or quotient is a chunk of one.

A positive exact strong margin at t(p) certifies the integral condition;
the margin ``strong_margin`` estimates is an upper bound on it and
certifies nothing. The falsifier can only ever refute: "no counterexample
found" is not a proof.
"""

from __future__ import annotations

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
CHUNK_BUDGET = 2 ** 13  # lattice points x channels per stacked chunk of trials
_MAX_FREQ = 4


def _check_points(N: int) -> None:
    if not MIN_POINTS <= N <= MAX_POINTS:
        raise InputError(f"points per axis must lie in [{MIN_POINTS}, {MAX_POINTS}]")


def _check_grids(values: np.ndarray) -> None:
    """Checks a chunk of test grids, shape (K, N, ..., N, m)."""
    n = values.ndim - 2
    if n not in (2, 3):
        raise InputError("test grids support n in {2, 3}")
    shape = values.shape[1:-1]
    if len(set(shape)) != 1:
        raise InputError("lattice must have equal points per axis")
    N = shape[0]
    _check_points(N)
    if values.shape[-1] > MAX_CHANNELS:
        raise InputError(f"at most {MAX_CHANNELS} channels supported")
    if not np.all(np.isfinite(values)):
        raise InputError("test grid contains non-finite values")
    for axis in range(1, n + 1):
        for edge in (0, N - 1):
            if np.any(np.take(values, edge, axis=axis) != 0):
                raise InputError("test grid must vanish on the boundary layer")


def _chunk_size(n: int, N: int, m: int) -> int:
    """Trials per stacked chunk. It depends on the lattice alone, so reruns
    split the trials the same way."""
    return max(1, CHUNK_BUDGET // (N ** n * m))


@dataclass(frozen=True)
class TestFunctionGrid:
    """Complex m-vector samples on the lattice, zero on the boundary."""

    values: np.ndarray  # shape (N, ..., N, m), n spatial axes

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        _check_grids(arr[None])
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
    """Forward differences co-located at cell base corners, per trial of a chunk.

    Input (K, N,..,N[,m]); output (K, N-1,..,N-1, n[, m]).
    """
    N = arr.shape[1]
    cells = (slice(None),) + tuple(slice(0, N - 1) for _ in range(n))
    comps = []
    for d in range(n):
        hi = (slice(None),) + tuple(slice(1, N) if a == d else slice(0, N - 1) for a in range(n))
        comps.append((arr[hi] - arr[cells]) / h)
    return np.stack(comps, axis=1 + n)


def _cell_tensors(F: TensorField, n: int, N: int) -> np.ndarray:
    """Coefficient tensor per cell midpoint, flattened shape (cells, n, n, m, m)."""
    if F.is_constant:
        return F.samples[None]
    h = 1.0 / (N - 1)
    axes = [(np.arange(N - 1) + 0.5) * h for _ in range(n)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return F.samples[_nearest_index(pts, F.grid, F.periodic)]


def _pairing_matrices(F: TensorField, n: int, N: int) -> np.ndarray:
    """The cell tensors as (cells, n*m, n*m) matrices with rows (h, alpha)
    and columns (k, beta), so that <A x, y> over a cell is x M conj(y).
    A real field gives real matrices: the falsifier probes it with real test
    functions, which are then scored in real arithmetic."""
    nm = n * F.m
    A = _cell_tensors(F, n, N)
    return (A.real if F.is_real else A).transpose(0, 1, 3, 2, 4).reshape(-1, nm, nm)


def _check_field(F: TensorField, n: int, m: int):
    if n not in (2, 3):
        raise InputError("test grids support n in {2, 3}")
    if F.n != n or F.m != m:
        raise InputError(f"field is ({F.n},{F.m}), test grid is ({n},{m})")
    if F.m > MAX_CHANNELS:
        raise InputError(f"at most {MAX_CHANNELS} channels supported")
    if not F.is_constant and len(F.grid) != n:
        raise InputError("sampled fields must have an n-dimensional lattice here")


def _check_exponent(p: float):
    if not 1.0 < p < np.inf:
        raise InputError(f"p must lie in (1, inf), got {p}")


def _cell_pieces(values: np.ndarray):
    """Per trial of a chunk of grids (K, N, ..., N, m): the forward gradient
    per cell (K, cells, n, m), base values (K, cells, m) and their channel
    norms |v|, the non-degenerate cells (base |v| above DEGENERATE_REL times
    the trial's largest |v|), and |v| on the whole lattice."""
    K, N, n, m = len(values), values.shape[1], values.ndim - 2, values.shape[-1]
    mag = np.abs(np.sqrt(np.einsum("...a,...a->...", values, np.conj(values)).real))
    cells = (slice(None),) + tuple(slice(0, N - 1) for _ in range(n))
    base_mag = mag[cells].reshape(K, -1)
    ok = base_mag > DEGENERATE_REL * mag.reshape(K, -1).max(axis=1)[:, None]
    grad = _forward_gradient(values, n, 1.0 / (N - 1)).reshape(K, -1, n, m)
    return grad, values[cells].reshape(K, -1, m), base_mag, ok, mag


def _direction_pieces(values: np.ndarray):
    """Per trial and cell: the gradient xi (K, cells, n, m) and the projected
    term g, zero on cells under the degenerate threshold."""
    xi, base, base_mag, ok, mag = _cell_pieces(values)
    N, n = values.shape[1], values.ndim - 2
    grad_mag = _forward_gradient(mag, n, 1.0 / (N - 1)).reshape(len(values), -1, n)
    direction = np.divide(base, base_mag[..., None], out=np.zeros_like(base), where=ok[..., None])
    return xi, direction[:, :, None, :] * grad_mag[..., None]


def _pair_cells(M: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per trial, Re sum over cells of <A(cell) x_cell, y_cell>, with x and
    y of shape (K, cells, n*m); a constant field's single pairing matrix
    broadcasts over every cell, with the same arithmetic per cell."""
    Mx = (x[..., None, :] @ M)[..., 0, :]
    return np.sum((Mx * np.conj(y)).reshape(len(x), -1), axis=1).real


def _scored(M: np.ndarray, p: float, values: np.ndarray):
    """Quotients of a chunk of grids (K, N, ..., N, m), yielded in trial order
    as (index in the chunk, quotient).

    The whole chunk is computed at once. Each trial's checks run as it is
    yielded, so a trial raises what it would raise alone, and only after
    every earlier trial of the chunk has been handed out.
    """
    K, nm = len(values), (values.ndim - 2) * values.shape[-1]
    t = 1.0 - 2.0 / p
    nonzero = values.reshape(K, -1).any(axis=1)
    xi, g = _direction_pieces(values)
    finite = np.isfinite(xi).reshape(K, -1).all(axis=1) & np.isfinite(g).reshape(K, -1).all(axis=1)
    denom = np.sum((np.abs(xi) ** 2).reshape(K, -1), axis=1)
    tg = t * g
    num = _pair_cells(M, (xi - tg).reshape(K, -1, nm), (xi + tg).reshape(K, -1, nm))
    for k in range(K):
        if not nonzero[k]:
            raise InputError("test function is identically zero")
        if not finite[k]:
            raise NumericalFailureError("non-finite finite differences", partial=None)
        if denom[k] == 0.0:
            raise InputError("test function has zero gradient energy")
        if not np.isfinite(num[k]):
            raise NumericalFailureError("quotient numerator is non-finite", partial=None)
        yield k, float(num[k] / denom[k])


def discrete_quotient(F: TensorField, p: float, v: TestFunctionGrid) -> float:
    """Coercivity quotient of the test function at exponent p.

    Q(v) = Re sum_cells <A (grad v - t g), grad v + t g> / sum_cells |grad v|^2
    with t = 1 - 2/p and g the base-anchored direction term; cells whose
    base magnitude falls under the degenerate threshold contribute g = 0.
    """
    _check_exponent(p)
    _check_field(F, v.n, v.m)
    return next(_scored(_pairing_matrices(F, v.n, v.N), p, v.values[None]))[1]


def _random_direction(rng, dim, real):
    v = rng.standard_normal(dim)
    if not real:
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _draw_grids(n: int, N: int, m: int, rngs, real: bool) -> np.ndarray:
    """random_test_grid's values for each generator, stacked (K, N, ..., N, m).

    Each generator draws what random_test_grid draws, in the same order;
    the grids are then assembled at once: one sine contraction per axis
    over the stacked coefficients, and the carrier, rider and noise terms
    broadcast over the trials that drew a carrier. Real draws stay real.
    """
    x = np.linspace(0.0, 1.0, N)
    sines = np.stack([np.sin(np.pi * f * x) for f in range(1, _MAX_FREQ + 1)])
    sines[:, 0] = 0.0
    sines[:, -1] = 0.0  # exact boundary vanishing despite sin(pi*f) roundoff
    bump = sines[0]
    for _ in range(n - 1):
        bump = np.multiply.outer(bump, sines[0])

    shape = (_MAX_FREQ,) * n + (m,)
    coeffs, carriers = [], []
    for k, rng in enumerate(rngs):
        draws = rng.standard_normal(shape if real else shape + (2,))
        coeffs.append(draws if real else draws[..., 0] + 1j * draws[..., 1])
        if rng.random() < 0.6:
            carrier_dir = _random_direction(rng, m, real)
            rider_dir = _random_direction(rng, m, real)
            q = _random_direction(rng, n, True)
            freq = float(rng.integers(2, _MAX_FREQ + 1))
            phase = 2.0 * np.pi * rng.random()
            carrier_amp = 0.2 + 2.0 * rng.random()
            ratio = 0.15 + 0.75 * rng.random()
            noise_level = 0.02 * rng.random() * carrier_amp
            carriers.append((k, carrier_dir, rider_dir, q, freq, phase,
                             carrier_amp, ratio, noise_level))
    values = np.stack(coeffs) * (1.0 / (1.0 + np.indices(shape[:-1]).sum(axis=0)))[..., None]
    for _ in range(n):
        values = np.tensordot(values, sines, axes=(1, 0))
    values = np.moveaxis(values, 1, -1)

    if carriers:
        index, carrier_dir, rider_dir, q, freq, phase, carrier_amp, ratio, noise_level = (
            np.array(column) for column in zip(*carriers))
        lattice = (slice(None),) + (None,) * n        # a per-trial scalar over the lattice
        channels = lattice + (None,)                   # ... and over the channels
        vectors = lattice + (slice(None),)             # a per-trial channel vector
        mesh = np.meshgrid(*([x] * n), indexing="ij")
        wave = np.sin(2.0 * np.pi * freq[lattice] * sum(qd[lattice] * g for qd, g in zip(q.T, mesh))
                      + phase[lattice])
        rider = (carrier_amp * ratio)[channels] * ((wave * bump)[..., None] * rider_dir[vectors])
        sums = values[index]
        peak = np.maximum(np.abs(sums).reshape(len(index), -1).max(axis=1), 1e-300)
        values[index] = (
            carrier_amp[channels] * (bump[..., None] * carrier_dir[vectors])
            + rider
            + noise_level[channels] * sums / peak[channels]
        )
    return np.ascontiguousarray(values)


def random_test_grid(n: int, N: int, m: int, rng: np.random.Generator,
                     real: bool = False) -> TestFunctionGrid:
    """Random low-frequency Fourier sum times a boundary bump profile.

    Two draw shapes, mixed per trial: a plain tensor-product sine sum with
    frequency-decaying random coefficients, and a "carrier plus rider" draw,
    a large fundamental-mode carrier along one channel direction with a
    plane-wave oscillation (random direction, frequency <= 4) riding on it.
    The second shape stresses the direction-projection term, which is where
    the pointwise conditions bite; both vanish exactly on the boundary.

    The sine-sum coefficients come from one standard_normal call (complex
    ones real part first), matching one scalar draw per coefficient in value
    and stream position; the sum is one sine contraction per axis. The grid
    is a chunk of one of the falsifier's stacked draw (_draw_grids).
    """
    return TestFunctionGrid(_draw_grids(n, N, m, [rng], real)[0])


def falsify_integral(F: TensorField, p: float, trials: int, seed: int = 0,
                     N: int = 33) -> Counterexample | None:
    """Search for a test function with non-positive quotient.

    Returns the lowest-index hit or None. Trial k draws from
    substream(seed, k); the trials are drawn and scored in stacked chunks of
    _chunk_size(n, N, m), and no chunk after the first one holding a hit is
    drawn. None does not certify the condition (a positive exact strong
    margin would; an estimated one does not), and a returned counterexample
    soundly refutes. Real fields are probed with real test functions,
    complex fields with complex ones.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    _check_points(N)
    _check_exponent(p)
    n, m = F.n, F.m
    _check_field(F, n, m)
    M = _pairing_matrices(F, n, N)
    size = _chunk_size(n, N, m)

    def run(start: int):
        rngs = [substream(seed, trial) for trial in range(start, min(start + size, trials))]
        values = _draw_grids(n, N, m, rngs, F.is_real)
        _check_grids(values)
        for k, q in _scored(M, p, values):
            if q <= 0.0:
                return Counterexample(grid=TestFunctionGrid(values[k]), quotient=q, p=p,
                                      trial=start + k, seed=seed)
        return None

    for hit in parallel_map(run, range(0, trials, size)):
        if hit is not None:
            return hit
    return None


# ---------------------------------------------------------------------------
# weighted-gradient identity


def _weighted_gradient_pieces(u: np.ndarray, grads: np.ndarray, p: float):
    """Samples with |u| > 0 and, per sample, w = |u|, d|u|, |grad u|^2 and the
    middle term w^{p-2}(|grad u|^2 + (p^2/4 - 1)|grad|u||^2)."""
    u = np.asarray(u, dtype=complex)
    grads = np.asarray(grads, dtype=complex)
    if u.ndim != 2 or grads.ndim != 3 or grads.shape[0] != u.shape[0] or grads.shape[2] != u.shape[1]:
        raise InputError("expected u of shape (S, m) and gradients of shape (S, n, m)")
    _check_exponent(p)
    w = np.linalg.norm(u, axis=1)
    keep = w > 0.0
    if not np.any(keep):
        raise InputError("all samples vanish")
    u, grads, w = u[keep], grads[keep], w[keep]
    # d_h |u| = Re<u, d_h u>/|u|
    dmag = np.real(np.einsum("sa,sha->sh", np.conj(u), grads)) / w[:, None]
    grad_sq = np.einsum("sha,sha->s", grads, np.conj(grads)).real
    mid = (w ** (p - 2.0)) * (grad_sq + (p * p / 4.0 - 1.0) * np.einsum("sh,sh->s", dmag, dmag))
    return u, grads, w, dmag, grad_sq, mid


def power_identity_residual(u, grads, p: float) -> float:
    """Max residual of |grad(|u|^{(p-2)/2} u)|^2 = |u|^{p-2}(|grad u|^2 + (p^2/4 - 1)|grad|u||^2).

    The left side is expanded by the chain rule at each sample; samples with
    |u| = 0 are skipped (vanishing-interpretation convention).
    """
    u, grads, w, dmag, _, mid = _weighted_gradient_pieces(u, grads, p)
    s = 0.5 * (p - 2.0)
    # grad(|u|^s u)[h,a] = s |u|^{s-1} d_h|u| u_a + |u|^s grad[h,a]
    lhs_field = (
        s * (w ** (s - 1.0))[:, None, None] * dmag[:, :, None] * u[:, None, :]
        + (w ** s)[:, None, None] * grads
    )
    lhs = np.einsum("sha,sha->s", lhs_field, np.conj(lhs_field)).real
    return float(np.max(np.abs(lhs - mid)))


def power_identity_bounds_slack(u, grads, p: float) -> tuple[float, float]:
    """Minimum slack of c1 w^{p-2}|grad u|^2 <= |grad(w^{(p-2)/2} u)|^2 <= c2 w^{p-2}|grad u|^2,
    with (c1, c2) = (1, p^2/4) for p >= 2 and (p^2/4, 1) for p < 2.

    Both returned slacks must be >= 0 (up to roundoff) for the identity's
    two-sided comparison to hold.
    """
    _, _, w, _, grad_sq, mid = _weighted_gradient_pieces(u, grads, p)
    base = (w ** (p - 2.0)) * grad_sq
    c1, c2 = (1.0, p * p / 4.0) if p >= 2.0 else (p * p / 4.0, 1.0)
    return float(np.min(mid - c1 * base)), float(np.min(c2 * base - mid))


def lambda_p_estimate(F: TensorField, p: float, trials: int, seed: int = 0,
                      N: int = 17) -> float:
    """Sampled upper bound on the coercivity constant of the weighted form.

    Minimum over random test grids of
    Re sum <A grad u, grad(|u|^{p-2} u)> / sum |u|^{p-2} |grad u|^2,
    chain-rule expanded per cell on the quotient's cell pieces (base values
    and forward gradients); cells under the quotient's degenerate threshold
    are dropped from both sums. Positive whenever the strong margin at t(p) is.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    _check_points(N)
    n, m = F.n, F.m
    _check_field(F, n, m)
    M = _pairing_matrices(F, n, N)
    best = np.inf
    for trial in range(trials):
        grid = random_test_grid(n, N, m, substream(seed, trial), real=F.is_real)
        grad, base, _, ok, _ = (piece[0] for piece in _cell_pieces(grid.values[None]))
        u, grad, w, dmag, grad_sq, _ = _weighted_gradient_pieces(base[ok], grad[ok], p)
        # grad(|u|^{p-2} u) = (p-2) w^{p-3} d|u| u + w^{p-2} grad u
        target = (
            (p - 2.0) * (w ** (p - 3.0))[:, None, None] * dmag[:, :, None] * u[:, None, :]
            + (w ** (p - 2.0))[:, None, None] * grad
        )
        num = _pair_cells(M[ok] if len(M) > 1 else M,
                          grad.reshape(1, -1, n * m), target.reshape(1, -1, n * m))[0]
        den = float(np.sum((w ** (p - 2.0)) * grad_sq))
        if den <= 0:
            continue
        best = min(best, num / den)
    if not np.isfinite(best):
        raise NumericalFailureError("no usable trial", partial=None)
    return float(best)
