"""Correctness checks for benchmark queries.

Every reference here is computed apart from pelliptic: closed forms from the
paper, a direct eigenvalue of the composite matrix, and a forward-difference
quotient written from the documented convention. A check returns None when
the answer passes and raises CheckFailed otherwise.
"""

from __future__ import annotations

import math

import numpy as np

ENDPOINT_TOL = 1e-3      # range endpoints in t = 1 - 2/p
CLOSED_FORM_TOL = 1e-12  # closed-form constants reported by `lame`
MARGIN_TOL = 1e-9        # margins, relative to max(1, |reference|)
QUOTIENT_RTOL = 1e-8     # recomputed counterexample quotients
WORST_RATIO_TOL = 5e-3   # the paper reports 11.51 and 8.055
DEGENERATE_REL = 1e-12   # documented degenerate-cell threshold, relative to max |v|

WORST_RATIO_ENDPOINT = {3: 11.51, 4: 8.055}


class CheckFailed(Exception):
    """An answer disagreed with its reference."""


# a payload missing a field or holding the wrong type is a wrong answer too
WRONG_ANSWER = (CheckFailed, KeyError, TypeError, ValueError)


def fail(message: str):
    raise CheckFailed(message)


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# closed-form references


def lame_n2_bound(lam: float, mu: float) -> float:
    """Exact n = 2 range end sqrt(1 - ((lam+mu)/(lam+3mu))^2)."""
    return math.sqrt(1.0 - ((lam + mu) / (lam + 3.0 * mu)) ** 2)


def lame_dim_bound(lam: float, mu: float) -> float:
    """Dimension-independent lower bound sqrt(1 - ((lam+mu)/max(mu, lam+2mu))^2)."""
    return math.sqrt(1.0 - ((lam + mu) / max(mu, lam + 2.0 * mu)) ** 2)


def composite_lambda_min(entries: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of the composite matrix.

    C[(k,b),(h,a)] = A[h,k,a,b], so Re<A xi, xi> = xi^H C xi. Real tensors
    are tested with real states, which gives the same eigenvalue of the
    symmetric part of the real matrix.
    """
    n, m = entries.shape[0], entries.shape[2]
    C = np.transpose(entries, (1, 3, 0, 2)).reshape(n * m, n * m)
    if np.all(C.imag == 0.0):
        C = C.real
    H = 0.5 * (C + C.conj().T)
    return float(np.linalg.eigvalsh(H)[0])


def adjoint_entries(entries: np.ndarray) -> np.ndarray:
    """(A*)[h,k,a,b] = conj(A[k,h,b,a])."""
    return np.conj(np.transpose(entries, (1, 0, 3, 2)))


# ---------------------------------------------------------------------------
# range checks


def endpoints(result: dict) -> tuple[float, float]:
    if result.get("empty", True):
        fail("range is empty")
    return float(result["t_lo"]), float(result["t_hi"])


def symmetric_range(result: dict, end: float, tol: float = ENDPOINT_TOL):
    lo, hi = endpoints(result)
    if abs(hi - end) > tol or abs(lo + end) > tol:
        fail(f"range ({lo:.6f}, {hi:.6f}) != (-{end:.6f}, {end:.6f})")


def lame_n2_range(result: dict, lam: float, mu: float):
    symmetric_range(result, lame_n2_bound(lam, mu))


def lame_n3_range(result: dict, lam: float, mu: float, tol: float = ENDPOINT_TOL):
    lo, hi = endpoints(result)
    lower, upper = lame_dim_bound(lam, mu), lame_n2_bound(lam, mu)
    for end in (-lo, hi):
        if not lower - tol <= end <= upper + tol:
            fail(f"|endpoint| {end:.6f} outside [{lower:.6f}, {upper:.6f}]")


def lame_field_range(result: dict, moduli):
    """n = 2 sampled field: the range is the smallest per-sample range."""
    symmetric_range(result, min(lame_n2_bound(lam, mu) for lam, mu in moduli))


def phase_range(result: dict, phi: float):
    """e^{i phi} I with m = 1: the strong form first vanishes at |t| = cos phi."""
    symmetric_range(result, math.cos(phi))


def contains_range(outer: dict, inner: dict, tol: float = ENDPOINT_TOL):
    o_lo, o_hi = endpoints(outer)
    i_lo, i_hi = endpoints(inner)
    if o_lo > i_lo + tol or o_hi < i_hi - tol:
        fail(f"({o_lo:.6f}, {o_hi:.6f}) does not contain ({i_lo:.6f}, {i_hi:.6f})")


def reflected_range(adjoint: dict, primal: dict, tol: float = ENDPOINT_TOL):
    """The adjoint's range is the primal range reflected through t = 0.

    No workload runs this yet: `range` endpoints of `legendre-perturbed`
    tensors still move with `--seed` by more than tol (see CHANGES.md).
    """
    a_lo, a_hi = endpoints(adjoint)
    lo, hi = endpoints(primal)
    if abs(a_lo + hi) > tol or abs(a_hi + lo) > tol:
        fail(f"adjoint ({a_lo:.6f}, {a_hi:.6f}) is not the reflection of ({lo:.6f}, {hi:.6f})")


# ---------------------------------------------------------------------------
# closed-form commands


def lame_constants(result: dict, n: int, lam: float, mu: float):
    c_upper = lame_n2_bound(lam, mu) ** 2
    c_dim = lame_dim_bound(lam, mu) ** 2
    if int(result["n"]) != n:
        fail(f"lame answered n={result['n']}, asked n={n}")
    if not _close(float(result["c_upper"]), c_upper, CLOSED_FORM_TOL):
        fail(f"c_upper {result['c_upper']} != {c_upper}")
    c_lower = float(result["c_lower"])
    if not c_dim - CLOSED_FORM_TOL <= c_lower <= c_upper + CLOSED_FORM_TOL:
        fail(f"c_lower {c_lower} outside [{c_dim}, {c_upper}]")
    symmetric_range(result["p_interval"], math.sqrt(c_lower), CLOSED_FORM_TOL)


def worst_ratio(result: dict, n: int):
    got, want = result["p_up"], WORST_RATIO_ENDPOINT[n]
    if not isinstance(got, float) or abs(got - want) > WORST_RATIO_TOL:
        fail(f"worst-ratio endpoint {got!r} != {want} for n={n}")


# ---------------------------------------------------------------------------
# margins from `check`


def margins_at_p2(result: dict, entries: np.ndarray):
    """At p = 2 the strong margin is the composite matrix's lambda_min."""
    want = composite_lambda_min(entries)
    strong = float(result["strong_margin"])
    if not _close(strong, want, MARGIN_TOL):
        fail(f"strong margin at p=2 {strong!r} != lambda_min {want!r}")
    if "scalar_margin" in result and not _close(float(result["scalar_margin"]), want, MARGIN_TOL):
        fail(f"scalar margin at p=2 {result['scalar_margin']!r} != lambda_min {want!r}")
    margins_inside(result)


def margins_inside(result: dict):
    """Inside the strong range both margins are positive and LH >= strong."""
    strong, lh = float(result["strong_margin"]), float(result["lh_margin"])
    if not strong > 0.0 or not lh > 0.0:
        fail(f"margins not positive inside the range: strong={strong!r}, lh={lh!r}")
    if lh < strong - MARGIN_TOL * max(1.0, abs(strong)):
        fail(f"lh margin {lh!r} below strong margin {strong!r}")


# ---------------------------------------------------------------------------
# integral falsifier


def _nearest_cells(grid, periodic: bool, n: int, N: int):
    """Lattice index per cell midpoint, round half to even, as documented."""
    h = 1.0 / (N - 1)
    mids = (np.arange(N - 1) + 0.5) * h
    index = []
    for g in grid:
        j = np.rint(mids * g).astype(int)
        index.append(j % g if periodic else np.clip(j, 0, g - 1))
    return np.ix_(*index)


def reference_quotient(samples: np.ndarray, grid, periodic: bool, p: float,
                       values: np.ndarray) -> float:
    """Forward-difference coercivity quotient of a lattice test function.

    Differences, the direction v/|v| and the degenerate-cell threshold sit
    at each cell's base corner; coefficient tensors are taken at the
    lattice sample nearest to the cell midpoint.
    """
    n = values.ndim - 1
    N = values.shape[0]
    h = 1.0 / (N - 1)
    t = 1.0 - 2.0 / p
    base = (slice(0, N - 1),) * n

    def ahead(d):
        return tuple(slice(1, N) if a == d else slice(0, N - 1) for a in range(n))

    mag = np.sqrt(np.sum(np.abs(values) ** 2, axis=-1))
    xi = np.stack([(values[ahead(d)] - values[base]) / h for d in range(n)], axis=n)
    dmag = np.stack([(mag[ahead(d)] - mag[base]) / h for d in range(n)], axis=n)
    corner, corner_mag = values[base], mag[base]
    ok = corner_mag > DEGENERATE_REL * mag.max()
    omega = np.zeros_like(corner)
    omega[ok] = corner[ok] / corner_mag[ok][:, None]
    g = omega[..., None, :] * dmag[..., :, None]
    m = values.shape[-1]
    left = (xi - t * g).reshape(-1, n, m)
    right = np.conj(xi + t * g).reshape(-1, n, m)
    if grid:
        A = samples[_nearest_cells(grid, periodic, n, N)].reshape(-1, n, n, m, m)
        num = np.einsum("chkab,cha,ckb->", A, left, right)
    else:
        num = np.einsum("hkab,cha,ckb->", samples, left, right)
    return float(np.real(num)) / float(np.sum(np.abs(xi) ** 2))


def counterexample(result: dict, samples: np.ndarray, grid, periodic: bool,
                   p: float, N: int):
    """A returned counterexample must recompute to the same quotient, <= 0."""
    ce = result.get("counterexample")
    if ce is None:
        fail("no counterexample returned where one must exist")
    n, m = samples.shape[len(grid)], samples.shape[-1]
    if (ce["p"], ce["N"], ce["n"], ce["m"]) != (p, N, n, m):
        fail(f"counterexample describes p={ce['p']}, N={ce['N']}, n={ce['n']}, m={ce['m']}")
    pairs = np.asarray(ce["values"], dtype=float)
    values = (pairs[:, 0] + 1j * pairs[:, 1]).reshape((N,) * n + (m,))
    want = reference_quotient(samples, grid, periodic, p, values)
    got = float(ce["quotient"])
    if not _close(got, want, QUOTIENT_RTOL):
        fail(f"counterexample quotient {got!r} != recomputed {want!r}")
    if want > 0.0 or got > 0.0:
        fail(f"counterexample quotient is positive: {got!r} (recomputed {want!r})")


def no_counterexample(result: dict):
    if result.get("counterexample") is not None:
        fail(f"counterexample returned inside the strong range: "
              f"quotient {result['counterexample']['quotient']!r}")
