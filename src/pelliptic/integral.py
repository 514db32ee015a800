"""Discretized coercivity quotient, randomized falsifier, and the
weighted-gradient identities used to bound the coercivity constant.

Test functions live on a regular lattice over [0,1]^n with N points per
axis (spacing h = 1/(N-1)) and vanish identically on the boundary layer.
Gradients are forward differences anchored at the cell's base corner; the
direction field v/|v| and the degenerate-cell threshold are evaluated at
the same base corner, and each cell takes the field's sample nearest its
midpoint. The discrete quotient and the weighted-coercivity estimate
share one per-cell decomposition (_decompose). Desk-scale limits:
n in {2, 3}, 8 <= N <= 65, m <= 4, and 1 < p < inf.

The kernels work on chunks: trials stacked along a leading axis. The
falsifier draws and scores up to CHUNK_BUDGET lattice points x channels
of trials at a time; a single grid or quotient is a chunk of one. Inside
the kernels a grid is real planes, shape (K, parts, m, N, ..., N), with
parts 1 for a real grid and 2 (real part, imaginary part) for a complex
one, so every lattice operation runs on contiguous planes, and cell
quantities are real vectors in the (part, h, a) coordinates of
``conditions._pairing_matrix``. A field whose cells all hold one tensor is
paired with one Gram product per trial; other fields cell by cell. Only
``random_test_grid`` and a returned counterexample convert a grid to the
public layout (N, ..., N, m), complex.

Set-up happens once per call, and nothing is cached between calls: the
cell pairing pairs the field's S samples and gathers them by a per-cell
sample index (_cell_tensors, _cell_pairing), and the lattice's sine table,
bump and weights (_lattice_tables) serve every chunk's draw.

A positive exact strong margin at t(p) certifies the integral condition;
the margin ``strong_margin`` estimates is an upper bound on it and
certifies nothing. The falsifier can only ever refute: "no counterexample
found" is not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditions import _pairing_matrix
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


def _check_exponent(p: float):
    if not 1.0 < p < np.inf:
        raise InputError(f"p must lie in (1, inf), got {p}")


def _check_grids(planes: np.ndarray) -> None:
    """Checks a chunk of test grids as planes, shape (K, parts, m, N, ..., N)."""
    n = planes.ndim - 3
    if n not in (2, 3):
        raise InputError("test grids support n in {2, 3}")
    shape = planes.shape[3:]
    if len(set(shape)) != 1:
        raise InputError("lattice must have equal points per axis")
    N = shape[0]
    _check_points(N)
    if planes.shape[2] > MAX_CHANNELS:
        raise InputError(f"at most {MAX_CHANNELS} channels supported")
    if not np.all(np.isfinite(planes)):
        raise InputError("test grid contains non-finite values")
    for axis in range(3, 3 + n):
        for edge in (0, N - 1):
            if np.any(np.take(planes, edge, axis=axis) != 0):
                raise InputError("test grid must vanish on the boundary layer")


def _planes(values: np.ndarray) -> np.ndarray:
    """One grid in the public layout (N, ..., N, m) as a chunk of one in
    planes (1, parts, m, N, ..., N): parts is 1 when the grid is real."""
    values = np.atleast_1d(values)
    parts = (values.real, values.imag) if np.any(values.imag) else (values.real,)
    return np.moveaxis(np.stack(parts), -1, 1)[None]


def _complex(x: np.ndarray) -> np.ndarray:
    """Real planes with the part axis first, (parts, ...), as complex (...)."""
    return x[0] if len(x) == 1 else x[0] + 1j * x[1]


def _grid_values(planes: np.ndarray) -> np.ndarray:
    """One grid's planes (parts, m, N, ..., N) in the public layout (N, ..., N, m)."""
    return np.moveaxis(_complex(planes), 0, -1)


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
        _check_grids(_planes(arr))
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
        if not self.quotient <= 0:
            raise InputError("counterexample quotient must be <= 0")
        _check_exponent(self.p)
        if self.trial < 0:
            raise InputError("counterexample trial must be >= 0")


def _cell_tensors(F: TensorField, n: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The field's samples, flattened to shape (S, n, n, m, m), and each
    cell's sample index, shape (cells,), with the (N-1)^n cells in C order.
    Cell c holds samples[index[c]], the sample nearest its midpoint
    (``tensors._nearest_index``, taken per axis). A constant field is its one
    sample, S = 1, with an all-zero index."""
    if F.is_constant:
        return F.samples[None], np.zeros((N - 1) ** n, dtype=np.intp)
    mid = (np.arange(N - 1) + 0.5) * (1.0 / (N - 1))
    j = _nearest_index(mid[:, None], F.grid, F.periodic)
    index = np.ravel_multi_index(np.ix_(*j), F.grid).reshape(-1)
    return F.samples.reshape((-1,) + F.samples.shape[len(F.grid):]), index


def _cell_pairing(F: TensorField, n: int, N: int, parts: int) -> np.ndarray:
    """The cell tensors as real pairing matrices (``conditions._pairing_matrix``)
    in (part, h, a) coordinates, with the cells last: shape (d, d, cells),
    d = parts*n*m, so that Re<A x, y> over cell c is y . G[:, :, c] x. The
    samples are paired once each and the cells then gathered, which gives
    the same matrices as pairing every cell. A field whose cells all hold
    one tensor (a constant field, or one whose samples in use are equal)
    gives that one matrix, shape (d, d, 1)."""
    samples, index = _cell_tensors(F, n, N)
    first = samples[index[:1]]
    if np.all(samples[np.bincount(index, minlength=len(samples)) > 0] == first):
        return np.ascontiguousarray(np.moveaxis(_pairing_matrix(first, parts), 0, -1))
    return np.take(np.moveaxis(_pairing_matrix(samples, parts), 0, -1), index, axis=-1)


def _check_field(F: TensorField, n: int, m: int):
    if n not in (2, 3):
        raise InputError("test grids support n in {2, 3}")
    if F.n != n or F.m != m:
        raise InputError(f"field is ({F.n},{F.m}), test grid is ({n},{m})")
    if F.m > MAX_CHANNELS:
        raise InputError(f"at most {MAX_CHANNELS} channels supported")
    if not F.is_constant and len(F.grid) != n:
        raise InputError("sampled fields must have an n-dimensional lattice here")


def _decompose(planes: np.ndarray):
    """The per-cell decomposition of a chunk of grids, planes (K, parts, m,
    N, ..., N). Returns Z, shape (K, 2, d, cells) with d = parts*n*m in
    (part, h, a) coordinates, holding per trial the forward gradient xi
    (Z[:, 0]) and the direction term g (Z[:, 1]); the base-corner planes
    (K, parts, m, N-1, ..., N-1); and the non-degenerate cells (K, N-1, ...,
    N-1), whose base |v| exceeds DEGENERATE_REL times the trial's largest
    |v|. g is (v/|v|)(base) times the forward gradient of |v|, and zero on
    the other cells."""
    K, parts, m, N = planes.shape[:3] + planes.shape[-1:]
    n, h = planes.ndim - 3, 1.0 / (N - 1)
    lo = (Ellipsis,) + (slice(0, N - 1),) * n
    flat = planes.reshape(K, parts * m, -1)
    mag = np.sqrt(np.einsum("kjl,kjl->kl", flat, flat)).reshape((K,) + planes.shape[3:])
    ok = mag[lo] > DEGENERATE_REL * mag.reshape(K, -1).max(axis=1).reshape((K,) + (1,) * n)
    Z = np.empty((K, 2, parts, n, m) + (N - 1,) * n)
    grad_mag = np.empty((K, n) + (N - 1,) * n)
    for d in range(n):
        hi = (Ellipsis,) + tuple(slice(1, N) if a == d else slice(0, N - 1) for a in range(n))
        np.subtract(planes[hi], planes[lo], out=Z[:, 0, :, d])
        np.subtract(mag[hi], mag[lo], out=grad_mag[:, d])
    Z[:, 0] /= h
    grad_mag /= h
    base = planes[lo]
    direction = np.divide(base, mag[lo][:, None, None], out=np.zeros(base.shape),
                          where=ok[:, None, None])
    np.multiply(direction[:, :, None], grad_mag[:, None, :, None], out=Z[:, 1])
    return Z.reshape(K, 2, parts * n * m, -1), base, ok


def _pair_cells(G: np.ndarray, Z: np.ndarray, a, b):
    """Per trial of a chunk: the sum over cells of y . G(cell) x, with
    y = sum_i a_i Z_i and x = sum_j b_j Z_j, and the sum of |Z_0|^2.

    Z, shape (K, r, d, cells), holds r real fields per trial in (part, h, a)
    coordinates, and G is ``_cell_pairing``'s. One pairing matrix (a
    uniform field) takes one Gram product per trial, C = Z Z^T, and reads
    both sums off it: sum_ij a_i b_j <G, C_ij> and tr C_00. Per-cell
    matrices take a per-cell contraction along the cells.
    """
    K, r, d, _ = Z.shape
    if G.shape[-1] == 1:
        flat = Z.reshape(K, r * d, -1)
        C = (flat @ flat.transpose(0, 2, 1)).reshape(K, r, d, r, d)
        return np.einsum("i,j,kiajb,ab->k", a, b, C, G[..., 0]), np.einsum("kaa->k", C[:, 0, :, 0])
    y, x = np.einsum("i,kiac->kac", a, Z), np.einsum("i,kiac->kac", b, Z)
    Gx = np.einsum("abc,kbc->kac", G, x)
    return np.einsum("kac,kac->k", y, Gx), np.einsum("kac,kac->k", Z[:, 0], Z[:, 0])


def _scored(G: np.ndarray, p: float, planes: np.ndarray):
    """Quotients of a chunk of grids in planes (K, parts, m, N, ..., N),
    yielded in trial order as (index in the chunk, quotient), for the
    pairing matrices G of ``_cell_pairing`` in the same parts.

    The whole chunk is computed at once: one cell decomposition
    (``_decompose``), then, per trial, num = sum over cells of
    (xi + t g) . G (xi - t g) and denom = sum of |xi|^2 (``_pair_cells``),
    which for a uniform field are <G, C_xx - t C_xg + t C_gx - t^2 C_gg> and
    tr C_xx of the one Gram product C of [xi; g]. Each trial's checks run as
    it is yielded, so a trial raises what it would raise alone, and only
    after every earlier trial of the chunk has been handed out.
    """
    K = len(planes)
    t = 1.0 - 2.0 / p
    nonzero = planes.reshape(K, -1).any(axis=1)
    Z = _decompose(planes)[0]
    finite = np.isfinite(Z).reshape(K, -1).all(axis=1)
    num, denom = _pair_cells(G, Z, np.array([1.0, t]), np.array([1.0, -t]))
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
    planes = _planes(v.values)
    return next(_scored(_cell_pairing(F, v.n, v.N, planes.shape[1]), p, planes))[1]


def _random_direction(rng, dim, parts):
    """A random unit vector of R^dim (parts 1) or C^dim (parts 2), as its
    real and imaginary parts, shape (parts, dim)."""
    v = rng.standard_normal((parts, dim))
    return v / np.sqrt(v.ravel() @ v.ravel())


class _LatticeTables(NamedTuple):
    """What every random test grid on one lattice is built from, read-only:
    the sines sin(pi f x), f = 1..4, shape (4, N), with exact zeros on the
    boundary; the bump, the f = 1 sine's tensor product, shape (N, ..., N);
    the sine-sum weights 1/(1 + f_1 + ... + f_n), shape (4,) * n; and the
    coordinate x along each lattice axis, shaped to broadcast over the
    lattice."""

    sines: np.ndarray
    bump: np.ndarray
    weights: np.ndarray
    axes: tuple


def _lattice_tables(n: int, N: int) -> _LatticeTables:
    """The tables of the lattice with N points per axis in n dimensions."""
    x = np.linspace(0.0, 1.0, N)
    sines = np.stack([np.sin(np.pi * f * x) for f in range(1, _MAX_FREQ + 1)])
    sines[:, 0] = 0.0
    sines[:, -1] = 0.0  # exact boundary vanishing despite sin(pi*f) roundoff
    bump = sines[0]
    for _ in range(n - 1):
        bump = np.multiply.outer(bump, sines[0])
    weights = 1.0 / (1.0 + np.indices((_MAX_FREQ,) * n).sum(axis=0))
    for table in (x, sines, bump, weights):
        table.flags.writeable = False
    axes = tuple(x.reshape((N,) + (1,) * (n - 1 - d)) for d in range(n))
    return _LatticeTables(sines, bump, weights, axes)


def _draw_grids(tables: _LatticeTables, m: int, rngs, real: bool) -> np.ndarray:
    """random_test_grid's values for each generator, stacked as planes
    (K, parts, m, N, ..., N): parts is 1 for real draws and 2 (real part,
    imaginary part) for complex ones. The lattice is the one of ``tables``
    (``_lattice_tables``), which a caller drawing many chunks builds once.

    Each generator draws what random_test_grid draws, in the same order;
    the grids are then assembled at once: one sine contraction per axis
    over the stacked coefficients, which leaves the channels ahead of the
    lattice, and the carrier, rider and noise terms on whole planes of the
    trials that drew a carrier.
    """
    n = tables.bump.ndim
    parts = 1 if real else 2
    shape = (_MAX_FREQ,) * n + (m, parts)
    coeffs, carriers = [], []
    for k, rng in enumerate(rngs):
        coeffs.append(rng.standard_normal(shape))
        if rng.random() < 0.6:
            carrier_dir = _random_direction(rng, m, parts)
            rider_dir = _random_direction(rng, m, parts)
            q = _random_direction(rng, n, 1)[0]
            freq = float(rng.integers(2, _MAX_FREQ + 1))
            phase = 2.0 * np.pi * rng.random()
            carrier_amp = 0.2 + 2.0 * rng.random()
            ratio = 0.15 + 0.75 * rng.random()
            noise_level = 0.02 * rng.random() * carrier_amp
            carriers.append((k, carrier_dir, rider_dir, q, freq, phase,
                             carrier_amp, ratio, noise_level))
    values = np.moveaxis(np.stack(coeffs) * tables.weights[..., None, None], -1, 1)
    for _ in range(n):
        values = np.tensordot(values, tables.sines, axes=(2, 0))

    if carriers:
        index, carrier_dir, rider_dir, q, freq, phase, carrier_amp, ratio, noise_level = (
            np.array(column) for column in zip(*carriers))
        lattice = (slice(None),) + (None,) * n      # a per-trial scalar over the lattice
        whole = lattice + (None, None)              # ... and over the parts and channels
        vectors = (slice(None),) * 3 + (None,) * n  # a per-trial (parts, m) vector
        along = sum(qd[lattice] * x for qd, x in zip(q.T, tables.axes))   # q . x over the lattice
        wave = np.sin(2.0 * np.pi * freq[lattice] * along + phase[lattice])
        rider = (carrier_amp * ratio)[whole] * ((wave * tables.bump)[:, None, None] * rider_dir[vectors])
        sums = values[index]
        peak = np.maximum(np.sqrt(np.sum(sums * sums, axis=1)).reshape(len(index), -1).max(axis=1),
                          1e-300)
        values[index] = (
            carrier_amp[whole] * (tables.bump * carrier_dir[vectors])
            + rider
            + noise_level[whole] * sums / peak[whole]
        )
    return values


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
    return TestFunctionGrid(_grid_values(_draw_grids(_lattice_tables(n, N), m, [rng], real)[0]))


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
    real = F.is_real
    G = _cell_pairing(F, n, N, 1 if real else 2)
    tables = _lattice_tables(n, N)
    size = _chunk_size(n, N, m)

    def run(start: int):
        rngs = [substream(seed, trial) for trial in range(start, min(start + size, trials))]
        planes = _draw_grids(tables, m, rngs, real)
        _check_grids(planes)
        for k, q in _scored(G, p, planes):
            if q <= 0.0:
                return Counterexample(grid=TestFunctionGrid(_grid_values(planes[k])), quotient=q,
                                      p=p, trial=start + k, seed=seed)
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
    chain-rule expanded per cell on the quotient's cell decomposition
    (``_decompose``: base values and forward gradients); cells under the
    quotient's degenerate threshold are dropped from both sums. Positive whenever the strong margin at t(p) is.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    _check_points(N)
    n, m = F.n, F.m
    _check_field(F, n, m)
    real = F.is_real
    parts = 1 if real else 2
    G = _cell_pairing(F, n, N, parts)
    tables = _lattice_tables(n, N)
    best = np.inf
    for trial in range(trials):
        planes = _draw_grids(tables, m, [substream(seed, trial)], real)
        _check_grids(planes)
        Z, base, ok = _decompose(planes)
        ok = ok.reshape(-1)
        u, grad, w, dmag, grad_sq, _ = _weighted_gradient_pieces(
            _complex(base[0].reshape(parts, m, -1)[..., ok]).T,
            np.moveaxis(_complex(Z[0, 0].reshape(parts, n, m, -1)[..., ok]), -1, 0), p)
        # grad(|u|^{p-2} u) = (p-2) w^{p-3} d|u| u + w^{p-2} grad u
        target = (
            (p - 2.0) * (w ** (p - 3.0))[:, None, None] * dmag[:, :, None] * u[:, None, :]
            + (w ** (p - 2.0))[:, None, None] * grad
        )
        fields = np.stack([[z.real, z.imag][:parts] for z in (grad, target)])   # (2, parts, S, n, m)
        fields = np.moveaxis(fields, 2, -1).reshape(1, 2, -1, len(u))
        num = _pair_cells(G if G.shape[-1] == 1 else G[..., ok], fields,
                          np.array([0.0, 1.0]), np.array([1.0, 0.0]))[0][0]
        den = float(np.sum((w ** (p - 2.0)) * grad_sq))
        if den <= 0:
            continue
        best = min(best, num / den)
    if not np.isfinite(best):
        raise NumericalFailureError("no usable trial", partial=None)
    return float(best)
