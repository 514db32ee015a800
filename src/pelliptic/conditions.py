"""Pointwise strengthened-ellipticity forms and their estimated infima.

Three normalized forms are evaluated at a tensor ``A`` and a parameter
``t = 1 - 2/p`` in (-1, 1):

* the strong form  ``pairing(A, xi - t*xi(omega), xi + t*xi(omega))`` over
  gradient states ``xi`` and unit channel directions ``omega``;
* the direction-frozen (Legendre-Hadamard style) form built from the
  contracted matrix ``M_q = sum_hk A[h,k] q_h q_k`` over channel vectors
  ``eta``, directions ``omega`` and real unit frequencies ``q``;
* the scalar (m = 1) form ``Re <A xi, xi + |t| conj(xi)>``.

For a fixed direction the strong and direction-frozen forms are both the
quadratic form of one matrix over the real coordinates of the test state,

    S(t) = sym((I + t Pi)^T G (I - t Pi)),

with G a pairing matrix (of A, or of M_q for the direction-frozen form) and
Pi = V V^T the projection onto the direction, V an orthonormal basis of
its range. One assembly builds S(t) for both searches, so the inner
infimum is the smallest eigenvalue of S(t); only the compact direction set
needs a global search: seeded multistart, then one batched quasi-Newton
(BFGS) polish (``minimize``) of the best starts, whose gradients come from
the lowest eigenvector (``_FormProblem.slope``). The reported value is
therefore an upper bound on the true infimum and results carry
``certified=False``. At a fixed witness the form is an exact parabola in t,
read off the lowest eigenvector; ``margin_curve`` polishes every t of its
grid in one batch and bounds each point by the parabolas of all the grid's
witnesses.

The same assembly gives the ends of an admissible interval: per direction
the first t on each side of 0 where S(t) = S0 + t S1 + t^2 S2 turns
singular is a small eigenvalue solve, since S1 and S2 have low rank
(``_FormProblem.thresholds``; 0 where S0 is not positive definite, which
is the classical t = 0 condition), and ``threshold_ends`` polishes both
sides' best directions in one batch of the same polish.

Test-field convention: real tensors are tested with real states and real
directions, complex tensors with complex ones (``SearchConfig.test_field``
= "auto"); either choice can be forced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InputError, NumericalFailureError
from .runtime import substream
from .tensors import (
    CoefficientTensor,
    GradientState,
    UnitState,
    project_state,
    real_pairing,
)

_TEST_FIELDS = ("auto", "complex", "real")
POLISHED = 16       # best starts each search polishes
POLISH_STEPS = 300  # step cap per polished row
MAX_STARTS = 4096   # outer_starts cap: the start batch is allocated at once


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the margin search; results depend only on ``seed``."""

    t: float = 0.0
    outer_starts: int = 64
    seed: int = 0
    test_field: str = "auto"

    def __post_init__(self):
        if not -1.0 < float(self.t) < 1.0:
            raise InputError(f"t must lie in (-1, 1), got {self.t}")
        if not 1 <= self.outer_starts <= MAX_STARTS:
            raise InputError(f"outer_starts must lie in [1, {MAX_STARTS}]")
        if self.test_field not in _TEST_FIELDS:
            raise InputError(f"test_field must be one of {_TEST_FIELDS}")

    def resolve_field(self, A) -> str:
        if self.test_field != "auto":
            return self.test_field
        return "real" if A.is_real else "complex"


@dataclass(frozen=True)
class Witness:
    """Minimizing test objects found by a margin search."""

    xi: Optional[GradientState] = None      # strong form
    eta: Optional[np.ndarray] = None        # direction-frozen form, complex (m,)
    omega: Optional[UnitState] = None
    q: Optional[np.ndarray] = None          # real unit frequency, (n,)


@dataclass(frozen=True)
class MarginResult:
    """Estimated infimum of a normalized form plus its witness.

    ``value`` is an upper bound on the true infimum; ``certified`` stays
    False for the heuristic direction search.
    """

    value: float
    witness: Witness
    evaluations: int
    polish_steps: int   # batched steps of the search's polish
    certified: bool = False


def strong_form_value(A: CoefficientTensor, t: float, xi: GradientState, omega: UnitState) -> float:
    """Value of the strong form at one test pair.

    Exactly quadratic in t for fixed (xi, omega); the t^2 coefficient is
    -pairing(A, xi(omega), xi(omega)).
    """
    if not -1.0 < t < 1.0:
        raise InputError(f"t must lie in (-1, 1), got {t}")
    xo = project_state(xi, omega)
    minus = GradientState(xi.components - t * xo.components)
    plus = GradientState(xi.components + t * xo.components)
    return real_pairing(A, minus, plus)


def lh_form_value(A: CoefficientTensor, t: float, eta, omega: UnitState, q) -> float:
    """Value of the direction-frozen form Re<M_q (eta - t z), eta + t z>,
    z = omega * Re<omega, eta>."""
    if not -1.0 < t < 1.0:
        raise InputError(f"t must lie in (-1, 1), got {t}")
    eta = np.asarray(eta, dtype=complex)
    q = np.asarray(q, dtype=float)
    if eta.shape != (A.m,):
        raise DimensionMismatchError(f"eta must have shape ({A.m},)")
    if q.shape != (A.n,):
        raise DimensionMismatchError(f"q must have shape ({A.n},)")
    if abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise InputError("q must be a unit vector")
    Mq = np.einsum("hkab,h,k->ab", A.entries, q, q)
    c = float(np.real(np.sum(omega.components * np.conj(eta))))
    z = omega.components * c
    return float(np.real(np.einsum("ab,a,b->", Mq, eta - t * z, np.conj(eta + t * z))))


# ---------------------------------------------------------------------------
# quadratic-form assembly over the real coordinates of the test state


def _pairing_matrix(entries: np.ndarray, parts: int) -> np.ndarray:
    """Matrix G with Re<A x, y> = y_rep . G . x_rep.

    ``entries`` has shape (..., n, n, m, m); leading axes are batch axes and
    the result has shape (..., d, d). Real coordinates are flattened as
    (part, h, a), part-major; parts is 1 for real-state testing and 2
    (real, imaginary) otherwise.
    """
    *batch, n, _, m, _ = entries.shape
    lead = len(batch)
    rows_cols = (*range(lead), lead + 1, lead + 3, lead, lead + 2)  # [..., k, b, h, a]

    def block(part):
        return part.transpose(rows_cols).reshape(*batch, n * m, n * m)

    re = block(entries.real)
    if parts == 1:
        return re
    im = block(entries.imag)
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2)


def _direction_basis(W: np.ndarray, n: int, parts: int, m: int) -> np.ndarray:
    """Batched orthonormal bases V of the real-linear map xi -> xi(omega).

    W has shape (B, parts*m), rows are unit direction coordinates w. Column
    h of V (shape (B, d, n)) is e_h (x) w, so Pi = V V^T.
    """
    B = W.shape[0]
    V = W.reshape(B, parts, 1, m, 1) * np.eye(n)[:, None, :]
    return V.reshape(B, parts * n * m, n)


def _strong_matrices(G: np.ndarray, Pi: np.ndarray, t) -> np.ndarray:
    """S(t) = sym((I + t Pi)^T G (I - t Pi)); G may be one matrix or a batch,
    t a scalar or an array broadcasting against Pi (one value per row)."""
    d = Pi.shape[-1]
    eye = np.eye(d)
    right = eye - t * Pi   # applied to the first pairing slot
    left = eye + t * Pi    # applied to the second slot
    M = np.matmul(left.transpose(0, 2, 1), np.matmul(G, right))
    return 0.5 * (M + M.transpose(0, 2, 1))


def _eigvalsh_batch(S: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"eigenvalue solve failed: {exc}", partial=S) from exc


def _normalized(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def _starts(cfg: SearchConfig, count: int, dim: int) -> np.ndarray:
    """The seeded start batch: ``count`` unit rows of raw direction coordinates."""
    return _normalized(substream(cfg.seed, 0xD17).standard_normal((count, dim)))


def _coords_to_complex(x: np.ndarray, parts: int, size: int) -> np.ndarray:
    if parts == 1:
        return x.astype(complex)
    return x[:size] + 1j * x[size:]


class _FormProblem:
    """Smallest eigenvalue of S(t) = sym((I + t Pi)^T G (I - t Pi)) per candidate.

    A subclass supplies the pairing G and the direction basis V (Pi = V V^T)
    of a batch of normalized candidate directions (``_operands``), the
    candidate length ``dim`` and the columns where a candidate splits into
    separately normalized unit blocks (``splits``), and the witness built
    from an eigenvector (``_make_witness``).
    """

    def __init__(self, A: CoefficientTensor, parts: int, dim: int, splits=()):
        self.parts, self.dim, self.splits = parts, dim, splits
        self.n, self.m = A.n, A.m
        self.entries = A.entries.real.astype(complex) if parts == 1 else A.entries
        self._block_starts = [0, *splits]
        self._block_sizes = np.diff([0, *splits, dim])

    def _block_sums(self, P: np.ndarray) -> np.ndarray:
        """Row sums of P over each unit block, repeated across the block."""
        return np.repeat(np.add.reduceat(P, self._block_starts, axis=1), self._block_sizes, axis=1)

    def _normalize(self, W: np.ndarray) -> np.ndarray:
        """Each unit block of every row rescaled to norm 1 (the polish's retraction)."""
        norms = np.sqrt(self._block_sums(W * W))
        norms[norms == 0] = 1.0
        return W / norms

    def _tangent(self, W: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g with its component along each unit block of W removed."""
        return g - self._block_sums(W * g) * W

    def _split(self, G: np.ndarray):
        """sym(G), skew(G), F^T with F F^T = sym(G)^-1, and whether sym(G) is
        positive definite to working precision (elsewhere F is meaningless)."""
        Gt = np.swapaxes(G, -1, -2)
        S0 = 0.5 * (G + Gt)
        lam, Q = np.linalg.eigh(S0)
        definite = lam[..., 0] > 1e-12 * np.abs(lam).max(axis=-1)
        Ft = np.swapaxes(Q, -1, -2) / np.sqrt(np.where(lam > 0.0, lam, 1.0))[..., None]
        return S0, 0.5 * (G - Gt), Ft, definite

    def values(self, W: np.ndarray, t) -> np.ndarray:
        """lambda_min of S(t) per row of W; t is a scalar or one value per row."""
        G, V = self._operands(self._normalize(W))
        Pi = V @ V.transpose(0, 2, 1)
        return _eigvalsh_batch(_strong_matrices(G, Pi, np.reshape(t, (-1, 1, 1))))[:, 0]

    def _lowest(self, W: np.ndarray, t):
        """lambda_min of S(t), its eigenvector x, y = Pi x, G and V per normalized row."""
        G, V = self._operands(W)
        Pi = V @ V.transpose(0, 2, 1)
        lam, vecs = np.linalg.eigh(_strong_matrices(G, Pi, np.reshape(t, (-1, 1, 1))))
        x = vecs[..., 0]
        return lam[:, 0], x, np.einsum("bij,bj->bi", Pi, x), np.broadcast_to(G, Pi.shape), V

    def slope(self, W: np.ndarray, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lambda_min of S(t), its gradient in W and its t-derivative, per
        normalized row of W; t is a scalar or one value per row.

        With a = x + t y and b = x - t y, lambda = a.G b, so d lambda/dt =
        y.(G - G^T) x - 2t y.G y. The direction moves lambda through
        y = sum_h (V_h.x) V_h against the weight t (G b - G^T a); the
        direction-frozen q moves it through G (``_gradient``).
        """
        lam, x, y, G, V = self._lowest(W, t)
        t = np.reshape(t, (-1, 1))
        a, b = x + t * y, x - t * y
        Gb, aG = np.einsum("bij,bj->bi", G, b), np.einsum("bi,bij->bj", a, G)
        weight = t * (Gb - aG)
        blocks = (len(W), self.parts, V.shape[-1], self.m)
        grad = (np.einsum("bphm,bh->bpm", weight.reshape(blocks), np.einsum("bdh,bd->bh", V, x))
                + np.einsum("bphm,bh->bpm", x.reshape(blocks), np.einsum("bdh,bd->bh", V, weight)))
        dt = np.sum(y * Gb, axis=1) - np.sum(aG * y, axis=1)
        return lam, self._gradient(W, grad.reshape(len(W), -1), a, b), dt

    def _gradient(self, W, grad, a, b):
        return grad

    def witness(self, w: np.ndarray, t) -> tuple[Witness, tuple, float]:
        """Witness, exact parabola and lambda_min of S(t) at direction w.

        With x the lowest eigenvector of S(t) and y = Pi x, the form value at
        the frozen witness is a0 + a1 s + a2 s^2 for every s, where
        a0 = x.Gx, a1 = y.Gx - x.Gy and a2 = -y.Gy.
        """
        W = self._normalize(w[None])
        lam, x, y, G, _ = self._lowest(W, t)
        x, y, G = x[0], y[0], G[0]
        Gx, Gy = G @ x, G @ y
        parabola = (float(x @ Gx), float(y @ Gx - x @ Gy), float(-(y @ Gy)))
        return self._make_witness(x, W[0]), parabola, float(lam[0])

    def thresholds(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(t_lo, t_hi): first t on each side of 0 where S(t) is singular.

        With S0 = sym(G), Y = skew(G) V, U = [V, Y] and H = V^T S0 V,
        S(t) = S0 - t (V Y^T + Y V^T) - t^2 V H V^T, which by the determinant
        lemma is singular at t = 1/s for the eigenvalues s of J K, where
        K = U^T S0^-1 U + diag(0, H) = L L^T and J = [[0, I], [I, 0]]; they
        are the eigenvalues of the symmetric L^T J L. Ends beyond +-1 read
        +-1; a direction whose S0 is not positive definite to working
        precision reads 0.
        """
        G, V = self._operands(self._normalize(W))
        S0, N, Ft, definite = self._split(G)
        definite, k = np.broadcast_to(definite, V.shape[:1]), V.shape[-1]
        R = Ft @ np.concatenate([V, N @ V], axis=-1)
        K = R.transpose(0, 2, 1) @ R
        K[:, k:, k:] += V.transpose(0, 2, 1) @ S0 @ V
        K[~definite] = np.eye(2 * k)
        L = np.linalg.cholesky(K)
        s = _eigvalsh_batch(L.transpose(0, 2, 1) @ np.concatenate([L[:, k:], L[:, :k]], axis=1))
        t_lo = np.where(definite, -1.0 / np.maximum(1.0, -s[:, 0]), 0.0)
        t_hi = np.where(definite, 1.0 / np.maximum(1.0, s[:, -1]), 0.0)
        return t_lo, t_hi


class _StrongProblem(_FormProblem):
    """Strong form: a candidate is the coordinate vector of omega."""

    def __init__(self, A: CoefficientTensor, parts: int):
        super().__init__(A, parts, parts * A.m)
        self.G = _pairing_matrix(self.entries, parts)
        self._G_split = super()._split(self.G)

    def _split(self, G):
        return self._G_split   # G is always self.G

    def _operands(self, W):
        return self.G, _direction_basis(W, self.n, self.parts, self.m)

    def _make_witness(self, x, w) -> Witness:
        xi = _coords_to_complex(x, self.parts, self.n * self.m).reshape(self.n, self.m)
        omega = UnitState(_coords_to_complex(w, self.parts, self.m))
        return Witness(xi=GradientState(xi), omega=omega)


class _LHProblem(_FormProblem):
    """Direction-frozen form: a candidate is [omega coords | q], each block
    normalized separately, and G is the pairing of the contracted matrix
    M_q = sum_hk A[h,k] q_h q_k with a single direction index, assembled
    as sum_hk q_h q_k G_hk from the pairings G_hk of the blocks A[h,k]."""

    def __init__(self, A: CoefficientTensor, parts: int):
        super().__init__(A, parts, parts * A.m + A.n, (parts * A.m,))
        self.G_blocks = _pairing_matrix(self.entries[:, :, None, None], parts)

    def _operands(self, W):
        pm = self.parts * self.m
        Q = W[:, pm:]
        return (np.einsum("hkij,Bh,Bk->Bij", self.G_blocks, Q, Q),
                _direction_basis(W[:, :pm], 1, self.parts, self.m))

    def _gradient(self, W, grad, a, b):
        """Append the q part (T + T^T) q, T_hk = a.G_hk b."""
        T = np.einsum("hkij,bi,bj->bhk", self.G_blocks, a, b)
        T = T + T.transpose(0, 2, 1)
        return np.hstack([grad, np.einsum("bhk,bk->bh", T, W[:, self.splits[0]:])])

    def _make_witness(self, x, w) -> Witness:
        pm = self.parts * self.m
        omega = UnitState(_coords_to_complex(w[:pm], self.parts, self.m))
        return Witness(eta=_coords_to_complex(x, self.parts, self.m), omega=omega, q=w[pm:])


@dataclass(frozen=True)
class PolishResult:
    """Polished rows, their values, the batched steps taken and the rows evaluated."""

    x: np.ndarray
    fun: np.ndarray
    nit: int
    nfev: int


def minimize(problem: _FormProblem, fg, W: np.ndarray) -> PolishResult:
    """Batched Riemannian BFGS from every row of W (Huang, Gallivan & Absil,
    2015), retracted by ``problem._normalize``. Each row keeps an
    inverse-Hessian estimate H in ambient coordinates and steps along
    d = -tangent(H g), or -g where that is no descent direction (H = 0
    until the first update), trying the unit step first and halving it
    until the Armijo condition holds. An accepted step s with
    y = g+ - tangent+(g) (transport by projection) updates H by the BFGS
    formula when s.y > 0, the first update starting from (s.y / y.y) I;
    otherwise the row is concave along s, H stays and the next try doubles
    the step length. fg(X, rows) gives the values and Euclidean gradients at
    the normalized rows X, which are the rows ``rows`` (indices into W) of
    the batch, so a row may carry its own t. A row stops once an accepted
    step gains less than 1e-13 relative, once its step underflows, or after
    POLISH_STEPS steps. Rows never interact, so each ends where it would if
    polished alone."""
    x = problem._normalize(np.asarray(W, dtype=float))
    live = np.arange(len(x))
    f, g = fg(x, live)
    g = problem._tangent(x, g)
    H = np.zeros((*x.shape, x.shape[1]))
    step = np.ones(len(x))
    nit, nfev = 0, len(x)
    while live.size and nit < POLISH_STEPS:
        nit += 1
        gl = g[live]
        d = -problem._tangent(x[live], np.einsum("bij,bj->bi", H[live], gl))
        slope = np.sum(d * gl, axis=1)
        steep = ~(slope < 0.0)
        d[steep], slope[steep] = -gl[steep], -np.sum(gl[steep] ** 2, axis=1)
        trial = problem._normalize(x[live] + step[live, None] * d)
        ft, gt = fg(trial, live)
        gt = problem._tangent(trial, gt)
        nfev += live.size
        ok = ft <= f[live] + 1e-4 * step[live] * slope
        done = np.where(ok, f[live] - ft <= 1e-13 * np.abs(ft),
                        0.5 * step[live] * np.sqrt(np.sum(d * d, axis=1)) < 1e-15)
        step[live[~ok]] *= 0.5
        go = ok & ~done   # accepted rows that step on
        if go.any():
            acc = live[go]
            s, y = trial[go] - x[acc], gt[go] - problem._tangent(trial[go], g[acc])
            sy = np.sum(s * y, axis=1)
            up = sy > 0.0
            step[acc[~up]] *= 2.0
            acc, s, y, sy = acc[up], s[up], y[up], sy[up]
            step[acc] = 1.0
            fresh = ~H[acc].any(axis=(1, 2))
            H[acc[fresh]] = (sy / np.sum(y * y, axis=1))[fresh, None, None] * np.eye(x.shape[1])
            Hy = np.einsum("bij,bj->bi", H[acc], y)
            rho = 1.0 / sy[:, None, None]
            ss, sHy = s[:, :, None] * s[:, None, :], s[:, :, None] * Hy[:, None, :]
            H[acc] += rho * ((1.0 + rho * np.sum(y * Hy, axis=1)[:, None, None]) * ss
                             - sHy - sHy.transpose(0, 2, 1))
        acc = live[ok]
        x[acc], f[acc], g[acc] = trial[ok], ft[ok], gt[ok]
        live = live[~done]
    return PolishResult(x=x, fun=f, nit=nit, nfev=nfev)


def _search(problem: _FormProblem, cfg: SearchConfig, ts):
    """Margin search at every t of ts over the compact direction set: each t
    ranks the seeded starts and polishes its best POLISHED, all in one
    ``minimize`` with one t per row. Returns each t's best polished row, the
    directions evaluated and the polish's batched steps."""
    ts = np.asarray(ts, dtype=float)
    starts = _starts(cfg, cfg.outer_starts, problem.dim)
    ranked = problem.values(np.tile(starts, (len(ts), 1)), np.repeat(ts, len(starts)))
    rows = starts[np.argsort(ranked.reshape(len(ts), -1), axis=1)[:, :POLISHED]]
    row_t = np.repeat(ts, rows.shape[1])
    res = minimize(problem, lambda W, live: problem.slope(W, row_t[live])[:2],
                   rows.reshape(-1, problem.dim))
    fun = res.fun.reshape(rows.shape[:2])
    winners = res.x.reshape(rows.shape)[np.arange(len(ts)), np.argmin(fun, axis=1)]
    return winners, ranked.size + res.nfev, res.nit


def _minimize_directions(problem, cfg: SearchConfig) -> MarginResult:
    """Margin search at cfg.t: ``_search`` on the one-point grid."""
    winners, evaluations, nit = _search(problem, cfg, [cfg.t])
    wit, _, value = problem.witness(winners[0], cfg.t)
    return MarginResult(value=value, witness=wit, evaluations=evaluations, polish_steps=nit)


def _make_problem(A: CoefficientTensor, kind: str, field_mode: str):
    parts = 1 if field_mode == "real" else 2
    if kind == "strong":
        return _StrongProblem(A, parts)
    if kind in ("lh", "legendre-hadamard"):
        return _LHProblem(A, parts)
    raise InputError(f"unknown condition kind: {kind}")


def strong_margin(A: CoefficientTensor, cfg: SearchConfig) -> MarginResult:
    """Estimated inf over unit (xi, omega) of the strong form at cfg.t."""
    return _minimize_directions(_make_problem(A, "strong", cfg.resolve_field(A)), cfg)


def lh_margin(A: CoefficientTensor, cfg: SearchConfig) -> MarginResult:
    """Estimated inf over unit (eta, omega, q) of the direction-frozen form."""
    return _minimize_directions(_make_problem(A, "lh", cfg.resolve_field(A)), cfg)


def threshold_ends(A: CoefficientTensor, kind: str, cfg: SearchConfig) -> tuple[float, float]:
    """(t_lo, t_hi): the first singular t on each side of 0 at the best
    direction found per side, which estimates inf of t_hi(omega) (sup of
    t_lo), so a miss leaves it too wide. Both sides share one batch of
    4 * outer_starts starts; if any start reads 0 (the classical t = 0
    condition fails there) both ends are 0. Otherwise each side ranks the
    batch by its own end, and one ``minimize`` polishes both sides' best
    POLISHED starts along the implicit-function gradient of each row's end,
    -(d lambda/d omega) / (d lambda/dt) at (t*, x); ends at +-1 or 0 do not
    move. The polish minimizes t_hi and -t_lo.
    """
    problem = _make_problem(A, kind, cfg.resolve_field(A))
    starts = _starts(cfg, 4 * cfg.outer_starts, problem.dim)
    t_lo, t_hi = problem.thresholds(starts)
    if not t_hi.all():
        return 0.0, 0.0
    best = np.concatenate([starts[np.argsort(-t_lo)[:POLISHED]],
                           starts[np.argsort(t_hi)[:POLISHED]]])
    sign = np.repeat([-1.0, 1.0], len(best) // 2)   # -1 on t_lo rows, 1 on t_hi rows

    def fg(W, rows):
        lo, hi = problem.thresholds(W)
        t = np.where(sign[rows] > 0.0, hi, lo)
        _, grad, dt = problem.slope(W, t)
        moves = (np.abs(t) < 1.0) & (t != 0.0) & (dt != 0.0)
        grad = np.where(moves[:, None], -grad / np.where(moves, dt, 1.0)[:, None], 0.0)
        return sign[rows] * t, sign[rows, None] * grad

    fun = minimize(problem, fg, best).fun
    return -float(fun[sign < 0.0].min()), float(fun[sign > 0.0].min())


def scalar_p_margin(A: CoefficientTensor, p: float) -> float:
    """Smallest value of Re<A xi, xi + |1-2/p| conj(xi)> over unit xi in C^n.

    The conjugation map is real-linear, so this is the exact smallest
    eigenvalue of a 2n x 2n symmetric matrix; no direction search is
    involved. Requires m = 1.
    """
    if A.m != 1:
        raise InputError("scalar margin requires m = 1")
    if not p > 1.0:
        raise InputError("p must exceed 1")
    c = abs(1.0 - 2.0 / p)
    n = A.n
    G = _pairing_matrix(A.entries, 2)
    D = np.diag(np.concatenate([(1.0 + c) * np.ones(n), (1.0 - c) * np.ones(n)]))
    S = 0.5 * (D.T @ G + G.T @ D)
    return float(_eigvalsh_batch(S[None])[0, 0])


def margin_curve(A: CoefficientTensor, ts, kind: str = "strong",
                 cfg: SearchConfig = SearchConfig()) -> np.ndarray:
    """Margin estimates on a t-grid (cfg.t is not used), searched in one batch.

    ``_search`` polishes at every t the rows strong_margin / lh_margin would
    polish there, all in one ``minimize``, so each point's own value is the
    single-t search value. Each point is the minimum of its value and of the
    exact parabolas at every t's winner, so the curve is a pointwise minimum
    of concave quadratics (hence concave) whenever the tensor is
    Legendre-positive on projected states.
    """
    ts = np.asarray(ts, dtype=float)
    outside = ~((-1.0 < ts) & (ts < 1.0))
    if outside.any():
        raise InputError(f"t must lie in (-1, 1), got {ts[outside][0]}")
    if not ts.size:
        return np.empty(0)
    problem = _make_problem(A, kind, cfg.resolve_field(A))
    winners = _search(problem, cfg, ts)[0]
    parabolas, values = zip(*(problem.witness(w, t)[1:] for w, t in zip(winners, ts)))
    a0, a1, a2 = np.asarray(parabolas).T
    t = ts[:, None]
    return np.minimum(values, np.min(a0 + a1 * t + a2 * t * t, axis=1))
