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
its range. One assembly builds S(t) for both searches, so the inner infimum
is the smallest eigenvalue of S(t); only the compact direction set needs a
global search: seeded multistart, then one batched Riemannian Newton polish
(``minimize``) of the best starts, with exact gradients and Hessians from
the eigendecomposition of S(t) by eigenvalue perturbation (Overton &
Womersley 1995). Each coordinate moves I + t Pi or G, so one formula
differentiates S(t) in all of them (``_FormProblem.curvature``); a margin
search holds t fixed, so its gradients and Hessians carry no t row, which
only the range ends' implicit derivatives need. Values are
upper bounds on the true infimum (``certified=False``). At a fixed witness
the form is an exact parabola in t, read off the lowest eigenvector;
``margin_curve`` polishes every t of its grid in one batch and bounds each
point by the parabolas of all the grid's witnesses.

The same assembly gives the ends of an admissible interval: per direction
the first t on each side of 0 where S(t) = S0 + t S1 + t^2 S2 turns
singular is a small eigenvalue solve, since S1 and S2 have low rank
(``_FormProblem.thresholds``; 0 where S0 is not positive definite, which
is the classical t = 0 condition), and ``threshold_ends`` polishes both
sides' best directions in one batch of the same polish, with the
implicit-function derivatives of each end (``_end_derivatives``).

A strong problem whose direction set is one orbit of a symmetry that G
commutes with (m = 1; real fields on an n = m tensor invariant under
rotations, such as every Lame tensor) is ``collapsed``: S(t) has the same
spectrum at every direction, so a margin is one eigensolve and the ends one
threshold solve at the first coordinate direction, with no starts and no
polish. At t = 0 every strong problem is collapsed: I + 0 Pi = I exactly,
so S(0) = sym(G) bit for bit at every direction, and a strong margin at
t = 0 (p = 2) is one eigensolve at e_1. These values are exact up to
rounding but still carry ``certified=False``.

Test-field convention: real tensors are tested with real states and real
directions, complex tensors with complex ones (``SearchConfig.test_field``
= "auto"); either choice can be forced.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InputError, NumericalFailureError, finite_arithmetic
from .runtime import check_seed, substream
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
        check_seed(self.seed)

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


@functools.cache
def _rotation_generators(n: int) -> np.ndarray:
    """The generators J (x) I + I (x) J of SO(n) on (h, a) coordinates
    (J = e_j e_i^T - e_i e_j^T, i < j), shape (n(n-1)/2, n^2, n^2); built
    once per n and read-only."""
    i, j = np.triu_indices(n, 1)
    J = np.zeros((len(i), n, n))
    J[np.arange(len(i)), j, i], J[np.arange(len(i)), i, j] = 1.0, -1.0
    eye = np.eye(n)
    K = np.einsum("gij,kl->gikjl", J, eye) + np.einsum("ij,gkl->gikjl", eye, J)
    K = K.reshape(len(i), n * n, n * n)
    K.flags.writeable = False
    return K


def _rotation_invariant(G: np.ndarray, n: int) -> bool:
    """Whether the real pairing matrix G of an n = m tensor commutes, to
    rounding, with every generator K of SO(n) acting on its (h, a)
    coordinates (``_rotation_generators``): max |[G, K]| <= 1e-13 max |G|."""
    K = _rotation_generators(n)
    return bool(np.abs(G @ K - K @ G).max() <= 1e-13 * np.abs(G).max())


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The d x d identity, built once per d and read-only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _direction_basis(W: np.ndarray, n: int, parts: int, m: int) -> np.ndarray:
    """Batched orthonormal bases V of the real-linear map xi -> xi(omega).

    W has shape (B, parts*m), rows are unit direction coordinates w. Column
    h of V (shape (B, d, n)) is e_h (x) w, so Pi = V V^T.
    """
    B = W.shape[0]
    V = np.zeros((B, parts, n, m, n))
    h = np.arange(n)
    V[:, :, h, :, h] = W.reshape(B, parts, m)
    return V.reshape(B, parts * n * m, n)


@functools.cache
def _basis_derivative(n: int, parts: int, m: int) -> np.ndarray:
    """The constant E_i = dV/dw_i of ``_direction_basis`` as one read-only
    (n, parts*m*d) matrix: row h holds column h of every E_i in turn."""
    pm = parts * m
    E = _direction_basis(_eye(pm), n, parts, m)
    E = np.ascontiguousarray(E.transpose(2, 0, 1).reshape(n, -1))
    E.flags.writeable = False
    return E


def _strong_matrices(G: np.ndarray, Pi: np.ndarray, t) -> np.ndarray:
    """S(t) = sym((I + t Pi)^T G (I - t Pi)); G may be one matrix or a batch,
    t a scalar or an array broadcasting against Pi (one value per row)."""
    d = Pi.shape[-1]
    eye = _eye(d)
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
    of a batch of normalized candidate directions (``_operands``), with
    V = I_k (x) w for the leading parts*m coordinates w of a candidate, the
    candidate length ``dim`` and the columns where a candidate splits into
    separately normalized unit blocks (``splits``), and the witness built
    from an eigenvector (``_make_witness``).
    """

    collapsed = False   # every direction gives S(t) the same spectrum (``_StrongProblem``)

    def __init__(self, A: CoefficientTensor, parts: int, dim: int, splits=()):
        self.parts, self.dim, self.splits = parts, dim, splits
        self.n, self.m = A.n, A.m
        self.entries = A.entries.real.astype(complex) if parts == 1 else A.entries
        self._block_starts = [0, *splits]
        self._block_sizes = np.diff([0, *splits, dim])
        block = np.repeat(np.arange(len(self._block_sizes)), self._block_sizes)
        self._same_block = block[:, None] == block[None, :]

    def collapsed_at(self, ts: np.ndarray) -> np.ndarray:
        """Per t of ts, whether every direction gives S(t) the same spectrum."""
        return np.full(ts.shape, self.collapsed)

    def _block_sums(self, P: np.ndarray) -> np.ndarray:
        """Row sums of P over each unit block, repeated across the block (one
        column per row when the candidate is one unit block)."""
        if len(self._block_sizes) == 1:
            return P.sum(axis=1, keepdims=True)
        return np.repeat(np.add.reduceat(P, self._block_starts, axis=1), self._block_sizes, axis=1)

    def _normalize(self, W: np.ndarray) -> np.ndarray:
        """Each unit block of every row rescaled to norm 1 (the polish's retraction)."""
        norms = np.sqrt(self._block_sums(W * W))
        norms[norms == 0] = 1.0
        return W / norms

    def _tangent(self, W: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g with its component along each unit block of W removed."""
        return g - self._block_sums(W * g) * W

    def _halves(self, G: np.ndarray):
        """sym(G) and skew(G)."""
        Gt = np.swapaxes(G, -1, -2)
        return 0.5 * (G + Gt), 0.5 * (G - Gt)

    def _split(self, G: np.ndarray):
        """sym(G), skew(G), F^T with F F^T = sym(G)^-1, and whether sym(G) is
        positive definite to working precision (elsewhere F is meaningless)."""
        S0, N = self._halves(G)
        lam, Q = np.linalg.eigh(S0)
        definite = lam[..., 0] > 1e-12 * np.abs(lam).max(axis=-1)
        Ft = np.swapaxes(Q, -1, -2) / np.sqrt(np.where(lam > 0.0, lam, 1.0))[..., None]
        return S0, N, Ft, definite

    def values(self, W: np.ndarray, t) -> np.ndarray:
        """lambda_min of S(t) per row of W; t is a scalar or one value per row."""
        G, V = self._operands(self._normalize(W))
        Pi = V @ V.transpose(0, 2, 1)
        return _eigvalsh_batch(_strong_matrices(G, Pi, np.reshape(t, (-1, 1, 1))))[:, 0]

    def _eig(self, W: np.ndarray, t):
        """Eigenvalues and eigenvectors of S(t), Pi and G per normalized row."""
        G, V = self._operands(W)
        Pi = V @ V.transpose(0, 2, 1)
        lam, vecs = np.linalg.eigh(_strong_matrices(G, Pi, np.reshape(t, (-1, 1, 1))))
        return lam, vecs, Pi, G

    def _direction_terms(self, w: np.ndarray, z: np.ndarray):
        """E^T z (..., B, parts*m, k) and the rows dPi/dw_i z (..., B, parts*m,
        d) at the direction coordinates w, for z of shape (..., B, d). In
        (part, h, a) coordinates V = I_k (x) w and E_i = dV/dw_i picks
        coordinate i = (part, a), so E^T z is a reshape of z and
        dPi/dw_i z = E_i V^T z + V E_i^T z, two products with one nonzero
        term each (``_basis_derivative``)."""
        B, pm = w.shape
        lead, k = z.shape[:-2], z.shape[-1] // pm
        Ez = z.reshape(*lead, B, self.parts, k, self.m).swapaxes(-1, -2).reshape(*lead, B, pm, k)
        Vz = (w[:, None] @ Ez)[..., 0, :]
        V = _direction_basis(w, k, self.parts, self.m)
        EVz = Vz @ _basis_derivative(k, self.parts, self.m)
        return Ez, EVz.reshape(*lead, B, pm, -1) + Ez @ V.transpose(0, 2, 1)

    def curvature(self, W: np.ndarray, t, with_t: bool = True):
        """lambda_min of S(t), its gradient and Hessian in (W, t), t last, at
        the rows as they are (V is linear in W), and max |lambda| per row; t
        is a scalar or one value per row. A margin search holds t fixed and
        asks for no t coordinate (``with_t=False``): the gradient and Hessian
        are then those in W alone. S = sym(L G R) with L = I + t Pi
        and R = 2I - L, and a coordinate i moves L (L_i = t dPi/dw_i for a
        direction, Pi for t) or G (G_i for a frequency, ``_frequency_terms``).
        With x the lowest eigenvector, N = skew(G), S0 = sym(G), y = Pi x,
        v = N x - t S0 y, a = L x, b = R x, l_i = L_i x and
        Z_i = G_i b - G_i^T a: S_i x = L_i v + (L G_i b + R G_i^T a)/2 -
        (N + t Pi S0) l_i, the gradient is x.S_i x, and the Hessian of x.S x
        at frozen x is -2 l_i.S0 l_j + 2 x.L_ij v + l_i.Z_j + l_j.Z_i +
        a.G_ij b (L_ij = t d^2Pi/dw_i dw_j, dPi/dw_i with t, else 0; see
        ``_direction_terms``). The eigenvectors x_k above x add
        2 sum_k (x_k.S_i x)(x_k.S_j x) / (lambda_0 - lambda_k) over the gaps
        above 1e-9 max |lambda|, so a double lambda_min (complex
        direction-frozen rows at t = 0) leaves out its partner."""
        lam, X, Pi, G = self._eig(W, t)
        pm = self.parts * self.m
        t = np.reshape(t, (-1, 1, 1))
        S0, N = self._halves(G)
        x, y = X[:, :, :1], Pi @ X[:, :, :1]
        a, b = x + t * y, x - t * y
        v = N @ x - t * (S0 @ y)
        (Ex, Ev), D = self._direction_terms(W[:, :pm], np.stack([x[..., 0], v[..., 0]]))
        dGb, dGta, H_qq = self._frequency_terms(W, a[..., 0], b[..., 0])
        Z = dGb - dGta
        # rows i of l = L_i x and of L_i v: direction coordinates, then
        # frequencies (which move G, not L) and t
        rows = [t * D]
        if Z.shape[1]:
            rows.append(np.zeros((2, *Z.shape)))
        if with_t:
            rows.append(np.stack([y, Pi @ v]).transpose(0, 1, 3, 2))
        l, Lv = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=2)
        lS0 = l @ S0
        s = Lv + l @ N - t * (lS0 @ Pi)
        H = -2.0 * (lS0 @ l.transpose(0, 2, 1))
        cross = t * (Ev @ Ex.transpose(0, 2, 1))
        H[:, :pm, :pm] += 2.0 * (cross + cross.transpose(0, 2, 1))
        if with_t:
            H_dt = 2.0 * (D[0] @ v)[..., 0]
            H[:, :pm, -1] += H_dt
            H[:, -1, :pm] += H_dt
        if Z.shape[1]:
            q = slice(pm, pm + Z.shape[1])
            s[:, q] += 0.5 * (dGb + dGta + t * (Z @ Pi))
            lZ = l @ Z.transpose(0, 2, 1)
            H[:, :, q] += lZ
            H[:, q] += lZ.transpose(0, 2, 1)
            H[:, q, q] += H_qq
        grad = (s @ x)[..., 0]
        scale = np.abs(lam).max(axis=1)
        gap = lam[:, 1:] - lam[:, :1]
        inv = np.divide(-2.0, gap, out=np.zeros_like(gap), where=gap > 1e-9 * scale[:, None])
        C = X[:, :, 1:].transpose(0, 2, 1) @ s.transpose(0, 2, 1)
        H += C.transpose(0, 2, 1) @ (inv[:, :, None] * C)
        return lam[:, 0], grad, H, scale

    def _frequency_terms(self, W, a, b):
        """dG/dq b, dG/dq^T a and a.(d^2 G/dq^2) b for the coordinates that
        move G; the strong form has none."""
        empty = np.zeros((len(W), 0, a.shape[1]))
        return empty, empty, np.zeros((len(W), 0, 0))

    def _riemannian(self, W: np.ndarray, g: np.ndarray, H: np.ndarray):
        """Riemannian gradient and Hessian on the product of unit spheres at
        the normalized rows W, from the Euclidean g and H: P g and
        P H P - (w_b.g_b) P_b on each block b, P the tangent projection."""
        P = _eye(self.dim) - self._same_block * (W[:, :, None] * W[:, None, :])
        return self._tangent(W, g), P @ H @ P - self._block_sums(W * g)[:, :, None] * P

    def witness(self, w: np.ndarray, t) -> tuple[Witness, tuple, float]:
        """Witness, exact parabola and lambda_min of S(t) at direction w.

        With x the lowest eigenvector of S(t) and y = Pi x, the form value at
        the frozen witness is a0 + a1 s + a2 s^2 for every s, where
        a0 = x.Gx, a1 = y.Gx - x.Gy and a2 = -y.Gy.
        """
        W = self._normalize(w[None])
        lam, X, Pi, G = self._eig(W, t)
        x = X[0, :, 0]
        y, G = Pi[0] @ x, np.broadcast_to(G, Pi.shape)[0]
        Gx, Gy = G @ x, G @ y
        parabola = (float(x @ Gx), float(y @ Gx - x @ Gy), float(-(y @ Gy)))
        return self._make_witness(x, W[0]), parabola, float(lam[0, 0])

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
    """Strong form: a candidate is the coordinate vector of omega.

    ``collapsed`` when the direction set is one orbit of a symmetry that G
    commutes with, so that S(t) at any direction is an orthogonal conjugate
    of S(t) at e_1: for m = 1 (the phase orbit: a realified G commutes with
    multiplication by i; real directions are +-1, with one Pi), and for real
    fields with n = m when G commutes with the rotations R (x) R
    (``_rotation_invariant``, e.g. every Lame tensor), since
    (R (x) R) V(w) = V(R w) R and SO(n) is transitive on the unit sphere.
    """

    def __init__(self, A: CoefficientTensor, parts: int):
        super().__init__(A, parts, parts * A.m)
        self.G = _pairing_matrix(self.entries, parts)
        self._G_halves = super()._halves(self.G)
        self._G_split = super()._split(self.G)
        self.collapsed = self.m == 1 or (
            parts == 1 and self.n == self.m and _rotation_invariant(self.G, self.n))

    def _halves(self, G):
        return self._G_halves   # G is always self.G

    def _split(self, G):
        return self._G_split

    def collapsed_at(self, ts: np.ndarray) -> np.ndarray:
        # at t = 0, I + t Pi = I exactly: S(0) = sym(G) at every direction
        return self.collapsed | (ts == 0.0)

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
        self.G2 = self.G_blocks + self.G_blocks.transpose(1, 0, 2, 3)   # G_hk + G_kh

    def _operands(self, W):
        pm = self.parts * self.m
        Q = W[:, pm:]
        return (np.einsum("Bhk,hkij->Bij", Q[:, :, None] * Q[:, None, :], self.G_blocks),
                _direction_basis(W[:, :pm], 1, self.parts, self.m))

    def _frequency_terms(self, W, a, b):
        """With G = sum_hk q_h q_k G_hk: dG/dq_h = sum_k q_k (G_hk + G_kh)
        and d^2 G/dq_h dq_k = G_hk + G_kh."""
        dG = np.einsum("hkij,bk->bhij", self.G2, W[:, self.splits[0]:])
        return ((dG @ b[:, None, :, None])[..., 0], (a[:, None, None] @ dG)[:, :, 0],
                np.einsum("hkij,bi,bj->bhk", self.G2, a, b))

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


def _newton(problem: _FormProblem, fg, x: np.ndarray, rows: np.ndarray):
    """Values, tangent gradients and Newton steps at the normalized rows x:
    d = -|H|^-1 g with H the Riemannian Hessian, each eigenvalue mu of it
    replaced by max(|mu|, 1e-6 scale), and d shortened to length 1 at most."""
    f, g, H, scale = fg(x, rows)
    g, H = problem._riemannian(x, g, H)
    mu, Q = np.linalg.eigh(H)
    mu = np.maximum(np.abs(mu), 1e-6 * scale[:, None])
    Qg = (g[:, None] @ Q)[:, 0]
    step = np.divide(Qg, mu, out=np.zeros_like(Qg), where=mu > 0.0)
    d = problem._tangent(x, -(Q @ step[..., None])[..., 0])
    return f, g, d / np.maximum(1.0, np.sqrt(np.sum(d * d, axis=1, keepdims=True)))


def minimize(problem: _FormProblem, fg, W: np.ndarray) -> PolishResult:
    """Batched Riemannian Newton polish from every row of W on the product
    of ``problem``'s unit spheres (Absil, Mahony & Sepulchre 2008),
    retracted by ``problem._normalize``. fg(X, rows) gives the values,
    Euclidean gradients and Hessians at the normalized rows X, which are
    the rows ``rows`` (indices into W) of the batch, so a row may carry its
    own t, and each row's scale in the units of its value (max |lambda| for
    a margin, ``_end_derivatives``' for a range end), below 1e-6 of which a
    Hessian eigenvalue counts as flat (``_newton``). A row steps along
    d = -|H|^-1 g, trying the unit step first and halving it until the
    Armijo condition holds. A row stops once the decrease -g.d/2 predicted
    for its step is at most 1e-13 |f| (that step evaluates no trial but
    counts), once an accepted step gains less than 1e-13 relative, once its
    step underflows, or after POLISH_STEPS steps. Rows never interact, so
    each ends where it would if polished alone."""
    x = problem._normalize(np.asarray(W, dtype=float))
    live = np.arange(len(x))
    f, g, d = _newton(problem, fg, x, live)
    slope = np.sum(g * d, axis=1)   # g.d per row, updated when a row moves
    step = np.ones(len(x))
    nit, nfev = 0, len(x)
    while live.size and nit < POLISH_STEPS:
        nit += 1
        live = live[-0.5 * slope[live] > 1e-13 * np.abs(f[live])]
        if not live.size:
            break
        fl, sl, dl = f[live], step[live], d[live]
        trial = problem._normalize(x[live] + sl[:, None] * dl)
        ft, gt, dt = _newton(problem, fg, trial, live)
        nfev += live.size
        ok = ft <= fl + 1e-4 * sl * slope[live]
        done = np.where(ok, fl - ft <= 1e-13 * np.abs(ft),
                        0.5 * sl * np.sqrt(np.sum(dl ** 2, axis=1)) < 1e-15)
        step[live] = np.where(ok, 1.0, 0.5 * sl)
        acc, dt = live[ok], dt[ok]
        x[acc], f[acc], d[acc], slope[acc] = trial[ok], ft[ok], dt, np.sum(gt[ok] * dt, axis=1)
        live = live[~done]
    return PolishResult(x=x, fun=f, nit=nit, nfev=nfev)


def _search(problem: _FormProblem, cfg: SearchConfig, ts):
    """Margin search at every t of ts over the compact direction set: each t
    ranks the seeded starts and polishes its best POLISHED, all in one
    ``minimize`` with one t per row. Returns each t's best polished row, the
    directions evaluated and the polish's batched steps. A t where the
    problem is collapsed (``collapsed_at``) needs no search: e_1 wins there,
    with one evaluation."""
    ts = np.asarray(ts, dtype=float)
    winners = np.tile(np.eye(1, problem.dim), (len(ts), 1))
    flat = problem.collapsed_at(ts)
    ts = ts[~flat]
    if not ts.size:
        return winners, int(flat.sum()), 0
    starts = _starts(cfg, cfg.outer_starts, problem.dim)
    ranked = problem.values(np.tile(starts, (len(ts), 1)), np.repeat(ts, len(starts)))
    rows = starts[np.argsort(ranked.reshape(len(ts), -1), axis=1)[:, :POLISHED]]
    row_t = np.repeat(ts, rows.shape[1])
    res = minimize(problem, lambda W, live: problem.curvature(W, row_t[live], with_t=False),
                   rows.reshape(-1, problem.dim))
    fun = res.fun.reshape(rows.shape[:2])
    winners[~flat] = res.x.reshape(rows.shape)[np.arange(len(ts)), np.argmin(fun, axis=1)]
    return winners, int(flat.sum()) + ranked.size + res.nfev, res.nit


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


@finite_arithmetic()
def strong_margin(A: CoefficientTensor, cfg: SearchConfig) -> MarginResult:
    """Estimated inf over unit (xi, omega) of the strong form at cfg.t."""
    return _minimize_directions(_make_problem(A, "strong", cfg.resolve_field(A)), cfg)


@finite_arithmetic()
def lh_margin(A: CoefficientTensor, cfg: SearchConfig) -> MarginResult:
    """Estimated inf over unit (eta, omega, q) of the direction-frozen form."""
    return _minimize_directions(_make_problem(A, "lh", cfg.resolve_field(A)), cfg)


def _end_derivatives(problem: _FormProblem, W: np.ndarray, t: np.ndarray):
    """Gradient and Hessian in W of the end tau(W) with lambda(W, tau) = 0,
    at the normalized rows W and their ends t, and the Hessian's scale in
    t's units, max |lambda| / |lambda_t|, so that ``_newton``'s eigenvalue
    floor does not depend on the tensor's units:
    g = -grad lambda / lambda_t and H = -(hess lambda + m g^T + g m^T +
    lambda_tt g g^T) / lambda_t with m = d/dt grad lambda. Ends at +-1 or
    0, or where lambda_t = 0, do not move: g = 0 and H = 0."""
    _, grad, hess, scale = problem.curvature(W, t)
    lt = grad[:, -1]
    moves = (np.abs(t) < 1.0) & (t != 0.0) & (lt != 0.0)
    lt = np.where(moves, lt, 1.0)
    g = np.where(moves[:, None], -grad[:, :-1] / lt[:, None], 0.0)
    m = hess[:, :-1, -1, None] * g[:, None]
    H = -(hess[:, :-1, :-1] + m + m.transpose(0, 2, 1)
          + hess[:, -1:, -1:] * g[:, :, None] * g[:, None]) / lt[:, None, None]
    return g, np.where(moves[:, None, None], H, 0.0), scale / np.abs(lt)


@finite_arithmetic()
def threshold_ends(A: CoefficientTensor, kind: str, cfg: SearchConfig) -> tuple[float, float]:
    """(t_lo, t_hi): the first singular t on each side of 0 at the best
    direction found per side, which estimates inf of t_hi(omega) (sup of
    t_lo), so a miss leaves it too wide. Both sides share one batch of
    4 * outer_starts starts; if any start reads 0 (the classical t = 0
    condition fails there) both ends are 0. Otherwise each side ranks the
    batch by its own end, and one ``minimize`` polishes both sides' best
    POLISHED starts, with the implicit-function gradient and Hessian of each
    row's end (``_end_derivatives``); ends at +-1 or 0 do not move. The
    polish minimizes t_hi and -t_lo. A collapsed problem takes both ends
    from the one threshold solve at e_1, with no starts and no polish.
    """
    problem = _make_problem(A, kind, cfg.resolve_field(A))
    if problem.collapsed:
        t_lo, t_hi = problem.thresholds(np.eye(1, problem.dim))
        return float(t_lo[0]), float(t_hi[0])
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
        g, H, scale = _end_derivatives(problem, W, t)
        s = sign[rows]
        return s * t, s[:, None] * g, s[:, None, None] * H, scale

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
