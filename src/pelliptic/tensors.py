"""Complex coefficient tensors, test states, pairings and sampled fields.

Conventions
-----------
A coefficient tensor ``A`` has entries ``A[h, k, a, b]`` with direction
indices ``h, k`` in ``0..n-1`` and channel indices ``a, b`` in ``0..m-1``
(0-indexed storage of the 1-indexed math). A gradient-like state ``xi`` is
an ``(n, m)`` complex array, row ``h`` holding the channel vector ``xi_h``.
The real pairing is

    real_pairing(A, xi, eta) = Re sum_{h,k,a,b} A[h,k,a,b] xi[h,a] conj(eta[k,b])

and the direction projection of ``xi`` onto a unit channel vector ``omega``
is

    project_state(xi, omega)[h, a] = omega[a] * Re(sum_b omega[b] * conj(xi[h, b])),

which contracts each row onto the complex line through ``omega`` and never
increases the Frobenius norm.

All values are immutable after construction; every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError


def _as_finite_complex(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CoefficientTensor:
    """Pointwise coefficient tensor of a second-order system.

    ``entries`` has shape (n, n, m, m), indexed [h, k, alpha, beta].
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_finite_complex(self.entries, "tensor entries")
        if arr.ndim != 4 or arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise InputError(f"tensor entries must have shape (n, n, m, m), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[2] < 1:
            raise InputError("tensor requires n >= 1 and m >= 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[2]

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.entries.imag == 0.0))

    @staticmethod
    def identity(n: int, m: int) -> "CoefficientTensor":
        """Tensor with A[h,k,a,b] = delta_hk * delta_ab (unit pairing)."""
        e = np.einsum("hk,ab->hkab", np.eye(n), np.eye(m)).astype(complex)
        return CoefficientTensor(e)

    @staticmethod
    def from_matrix(mat) -> "CoefficientTensor":
        """Wrap an n-by-n complex matrix as an m=1 tensor."""
        mat = _as_finite_complex(mat, "matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InputError("expected a square matrix")
        return CoefficientTensor(mat[:, :, None, None])


@dataclass(frozen=True)
class GradientState:
    """Gradient-shaped test object xi in C^{n x m}; components[h, a] = xi_h^a."""

    components: np.ndarray

    def __post_init__(self):
        arr = _as_finite_complex(self.components, "state components")
        if arr.ndim != 2:
            raise InputError(f"state components must have shape (n, m), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def n(self) -> int:
        return self.components.shape[0]

    @property
    def m(self) -> int:
        return self.components.shape[1]

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@dataclass(frozen=True)
class UnitState:
    """Channel direction omega in C^m, normalized to |omega| = 1 on construction."""

    components: np.ndarray

    def __post_init__(self):
        arr = _as_finite_complex(self.components, "unit state")
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise InputError("unit state must be a non-empty vector")
        nrm = np.linalg.norm(arr)
        if nrm == 0.0:
            raise InputError("cannot normalize the zero vector")
        arr = arr / nrm
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def m(self) -> int:
        return self.components.shape[0]

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.components.imag == 0.0))


def _check_dims(A: CoefficientTensor, *states):
    for s in states:
        if isinstance(s, GradientState):
            if s.n != A.n or s.m != A.m:
                raise DimensionMismatchError(
                    f"state is ({s.n},{s.m}), tensor is ({A.n},{A.m})"
                )
        elif isinstance(s, UnitState):
            if s.m != A.m:
                raise DimensionMismatchError(f"unit state has m={s.m}, tensor has m={A.m}")


def real_pairing(A: CoefficientTensor, xi: GradientState, eta: GradientState) -> float:
    """Re sum A[h,k,a,b] xi[h,a] conj(eta[k,b]); bilinear in Re/Im parts."""
    _check_dims(A, xi, eta)
    return float(
        np.real(np.einsum("hkab,ha,kb->", A.entries, xi.components, np.conj(eta.components)))
    )


def project_state(xi: GradientState, omega: UnitState) -> GradientState:
    """Row-wise contraction of xi onto the complex direction omega.

    Result rows are omega * Re<omega, xi_h>; satisfies |result| <= |xi|.
    """
    if xi.m != omega.m:
        raise DimensionMismatchError(f"state has m={xi.m}, unit state has m={omega.m}")
    c = np.real(np.conj(xi.components) @ omega.components)  # (n,)
    return GradientState(np.outer(c, omega.components))


def adjoint(A: CoefficientTensor) -> CoefficientTensor:
    """Adjoint tensor: (A*)[h,k,a,b] = conj(A[k,h,b,a]).

    For all xi, eta: real_pairing(A, xi, eta) == real_pairing(A*, eta, xi).
    """
    return CoefficientTensor(np.conj(np.transpose(A.entries, (1, 0, 3, 2))))


def hermitian_part(A: CoefficientTensor) -> CoefficientTensor:
    """(A + A*)/2; carries the full diagonal pairing xi -> pairing(A, xi, xi)."""
    return CoefficientTensor(0.5 * (A.entries + adjoint(A).entries))


@dataclass(frozen=True)
class TensorField:
    """Constant or lattice-sampled tensor field on the unit cube [0,1]^n.

    A sampled field stores one tensor per point of a regular lattice with
    ``grid[d]`` points per axis at positions i/grid[d] (no duplicated
    endpoint, so the lattice tiles the period cell when ``periodic``).
    """

    samples: np.ndarray  # shape grid + (n, n, m, m); grid == () for constant fields
    grid: tuple = ()
    periodic: bool = False

    def __post_init__(self):
        arr = _as_finite_complex(self.samples, "field samples")
        grid = tuple(int(g) for g in self.grid)
        if any(g < 1 for g in grid):
            raise InputError("lattice needs >= 1 point per axis")
        if arr.ndim != len(grid) + 4:
            raise InputError("sample array rank does not match grid")
        if arr.shape[: len(grid)] != grid:
            raise InputError("sample array shape does not match grid")
        n = arr.shape[len(grid)]
        m = arr.shape[len(grid) + 2]
        if arr.shape[len(grid):] != (n, n, m, m):
            raise InputError("per-point tensors must share shape (n, n, m, m)")
        if self.periodic and not grid:
            raise InputError("constant fields cannot be periodic")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "grid", grid)

    @staticmethod
    def constant(A: CoefficientTensor) -> "TensorField":
        return TensorField(A.entries)

    @staticmethod
    def sampled(tensors, grid, periodic: bool = False) -> "TensorField":
        """Build from a nested grid of CoefficientTensor values or a raw array."""
        grid = tuple(int(g) for g in grid)
        if isinstance(tensors, np.ndarray):
            return TensorField(tensors, grid, periodic)
        flat = []

        def collect(node, depth):
            if depth == len(grid):
                if not isinstance(node, CoefficientTensor):
                    raise InputError("expected CoefficientTensor at lattice points")
                flat.append(node.entries)
                return
            if len(node) != grid[depth]:
                raise InputError("nested sample list does not match grid")
            for child in node:
                collect(child, depth + 1)

        collect(tensors, 0)
        base = flat[0].shape
        if any(t.shape != base for t in flat):
            raise InputError("all sample tensors must share (n, m)")
        arr = np.stack(flat).reshape(grid + base)
        return TensorField(arr, grid, periodic)

    @property
    def is_constant(self) -> bool:
        return not self.grid

    @property
    def n(self) -> int:
        return self.samples.shape[len(self.grid)]

    @property
    def m(self) -> int:
        return self.samples.shape[len(self.grid) + 2]

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.samples.imag == 0.0))

    def tensor_at_index(self, idx) -> CoefficientTensor:
        if self.is_constant:
            return CoefficientTensor(self.samples)
        return CoefficientTensor(self.samples[tuple(idx)])

    def iter_tensors(self):
        """All lattice tensors (a single one for constant fields)."""
        if self.is_constant:
            yield CoefficientTensor(self.samples)
            return
        flat = self.samples.reshape((-1,) + self.samples.shape[len(self.grid):])
        for entry in flat:
            yield CoefficientTensor(entry)

    def rescaled(self, eps: float) -> "TensorField":
        """Field x -> A(x/eps mod 1) for 1/eps a positive integer.

        Requires a periodic sampled field; the lattice is mapped onto itself,
        so the result is sampled on the same grid.
        """
        k = 1.0 / _check_eps(eps)
        if self.is_constant:
            return self
        if not self.periodic:
            raise InputError("rescaling requires a periodic field")
        if abs(k - round(k)) > 1e-12 or round(k) < 1:
            raise InputError("eps must be the reciprocal of a positive integer")
        k = int(round(k))
        idx = np.ix_(*[(k % g * np.arange(g)) % g for g in self.grid])
        return TensorField(self.samples[idx], self.grid, periodic=True)


def _check_eps(eps) -> float:
    """eps as a float; InputError unless it and its reciprocal are finite
    and positive."""
    eps = float(eps)
    if not (0.0 < eps < np.inf and 1.0 / eps < np.inf):
        raise InputError(f"eps must be positive and finite with a finite reciprocal, got {eps}")
    return eps


def _nearest_index(x: np.ndarray, grid, periodic: bool) -> tuple:
    """Nearest lattice index per axis of points x of shape (..., n), one
    integer array per axis; lattice positions are i/grid[d] and ties round
    half to even."""
    g = np.asarray(grid)
    j = np.round(x * g).astype(np.intp)
    j = j % g if periodic else np.clip(j, 0, g - 1)
    return tuple(np.moveaxis(j, -1, 0))


def sample_field(F: TensorField, x, eps: float | None = None) -> CoefficientTensor:
    """Tensor at point x in [0,1]^n (nearest lattice point; no interpolation).

    With ``eps`` given the field must be periodic and the point x/eps is
    wrapped back into the period cell first.
    """
    if eps is not None:
        eps = _check_eps(eps)
    if F.is_constant:
        if eps is not None:
            raise InputError("eps sampling requires a periodic sampled field")
        return CoefficientTensor(F.samples)
    x = np.asarray(x, dtype=float)
    if x.shape != (len(F.grid),):
        raise InputError(f"point must have {len(F.grid)} coordinates")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InputError("point must lie in the unit cube")
    if eps is not None:
        if not F.periodic:
            raise InputError("eps sampling requires a periodic field")
        x = np.mod(x / eps, 1.0)
    return F.tensor_at_index(_nearest_index(x, F.grid, F.periodic))
