"""Discrete coercivity quotient, falsifier, and weighted-gradient identities."""

import numpy as np
import pytest

import pelliptic as pe
from pelliptic import integral
from pelliptic.errors import InputError
from pelliptic.integral import _forward_gradient


def sine_grid(N, m, coeffs):
    """Deterministic sine-sum test function from a coefficient dict
    {(f1, f2, channel): complex}."""
    x = np.linspace(0.0, 1.0, N)
    out = np.zeros((N, N, m), dtype=complex)
    for (f1, f2, a), c in coeffs.items():
        s1, s2 = np.sin(np.pi * f1 * x), np.sin(np.pi * f2 * x)
        s1[0] = s1[-1] = s2[0] = s2[-1] = 0.0
        out[:, :, a] += c * np.multiply.outer(s1, s2)
    return pe.TestFunctionGrid(out)


IDENTITY_2 = pe.TensorField.constant(pe.CoefficientTensor.identity(2, 2))


class TestDiscreteQuotient:
    def test_p_two_is_rayleigh_quotient_above_legendre_constant(self):
        rng = np.random.default_rng(0)
        v = pe.random_test_grid(2, 17, 2, rng)
        q = pe.discrete_quotient(IDENTITY_2, 2.0, v)
        assert q == pytest.approx(1.0, abs=1e-12)
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        q2 = pe.discrete_quotient(lame, 2.0, v)
        assert q2 >= 0.95  # Legendre constant of this tensor is 1, minus grid error

    def test_identity_quotient_closed_form(self):
        rng = np.random.default_rng(1)
        v = pe.random_test_grid(2, 33, 2, rng)
        for p in (1.4, 3.0, 6.0):
            t = 1 - 2 / p
            q = pe.discrete_quotient(IDENTITY_2, p, v)
            # recompute the masked direction-term energy the same way the
            # quotient does: forward differences, base-anchored threshold
            arr = v.values
            h = 1.0 / (v.N - 1)
            grad = _forward_gradient(arr, 2, h)
            mag = np.linalg.norm(arr, axis=-1)
            gmag = _forward_gradient(mag, 2, h)
            base = mag[:-1, :-1]
            mask = base > 1e-12 * mag.max()
            num = np.sum(gmag[mask] ** 2)
            den = np.sum(np.abs(grad) ** 2)
            assert q == pytest.approx(1 - t * t * num / den, abs=1e-12)
            assert 1 - t * t - 1e-12 <= q <= 1 + 1e-12

    def test_real_function_factorizes_in_p(self):
        # positive interior function: the direction term equals the gradient
        # on every non-degenerate cell, so Q = (1 - t^2) * Q(2) there exactly
        v = sine_grid(25, 1, {(1, 1, 0): 2.0, (2, 1, 0): 0.3})
        assert np.all(v.values[1:-1, 1:-1, 0].real > 0)
        rng = np.random.default_rng(2)
        M = rng.standard_normal((2, 2))
        M = M @ M.T + 0.5 * np.eye(2)
        F = pe.TensorField.constant(pe.CoefficientTensor.from_matrix(M))
        q2 = pe.discrete_quotient(F, 2.0, v)
        for p in (1.3, 4.0):
            t = 1 - 2 / p
            # on non-degenerate cells the factorization is exact to roundoff;
            # boundary-based cells are zeroed by the threshold rule and leave
            # a small full-grid deviation
            interior = _interior_factorization(F, p, v)
            assert interior == pytest.approx(1 - t * t, rel=1e-12)
            q = pe.discrete_quotient(F, p, v)
            assert abs(q - (1 - t * t) * q2) <= 0.05 * abs(q2)

    def test_zero_function_rejected(self):
        with pytest.raises(InputError):
            pe.discrete_quotient(IDENTITY_2, 2.0,
                                 pe.TestFunctionGrid(np.zeros((9, 9, 2), dtype=complex)))

    def test_grid_refinement_stability(self):
        coeffs = {(1, 1, 0): 1.0 + 0.5j, (2, 1, 1): 0.4 - 0.2j, (1, 3, 0): 0.2j}
        qs = []
        for N in (17, 33):
            v = sine_grid(N, 2, coeffs)
            qs.append(pe.discrete_quotient(IDENTITY_2, 4.0, v))
        assert abs(qs[1] - qs[0]) < 0.05 * abs(qs[0])

    def test_sampled_field_cell_midpoint_sampling(self):
        # half-and-half field in x1: identity on one side, scaled identity on
        # the other; the p = 2 quotient must land strictly between the two
        scale = 4.0
        left = pe.CoefficientTensor.identity(2, 1)
        right = pe.CoefficientTensor(scale * left.entries)
        samples = np.stack(
            [left.entries, left.entries, right.entries, right.entries]
        ).reshape((2, 2, 2, 2, 1, 1))
        F = pe.TensorField.sampled(samples, grid=(2, 2))
        v = sine_grid(17, 1, {(1, 1, 0): 1.0})
        q = pe.discrete_quotient(F, 2.0, v)
        assert 1.0 < q < scale


def _interior_factorization(F, p, v):
    """Ratio Q_cells(p)/Q_cells(2) over non-degenerate cells only."""
    from pelliptic.integral import _quotient_pieces

    xi, g, A_cells = _quotient_pieces(F, p, v)
    t = 1 - 2 / p
    live = np.abs(g).sum(axis=(1, 2)) > 0
    xi, g = xi[live], g[live]
    A = A_cells if A_cells.shape[0] == 1 else A_cells[live]

    def pair(x, y):
        if A.shape[0] == 1:
            return float(np.real(np.einsum("hkab,cha,ckb->", A[0], x, np.conj(y))))
        return float(np.real(np.einsum("chkab,cha,ckb->", A, x, np.conj(y))))

    return pair(xi - t * g, xi + t * g) / pair(xi, xi)


class TestFalsifier:
    def test_identity_is_never_refuted(self):
        for p in (1.5, 4.0, 12.0):
            assert pe.falsify_integral(IDENTITY_2, p, trials=60, seed=0) is None

    def test_lame_beyond_necessary_bound_is_refuted(self):
        # necessary bound is t^2 < 3/4; probe t^2 = 0.9 > 3/4 + 0.1
        t = np.sqrt(0.9)
        p = 2.0 / (1.0 - t)
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        hit = pe.falsify_integral(lame, p, trials=500, seed=3)
        assert hit is not None
        assert hit.quotient <= 0.0
        # the stored grid reproduces the quotient
        assert pe.discrete_quotient(lame, p, hit.grid) == pytest.approx(
            hit.quotient, abs=1e-12
        )

    def test_p_two_with_positive_legendre_never_refuted(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=8)
        F = pe.TensorField.constant(A)
        assert pe.falsify_integral(F, 2.0, trials=60, seed=1) is None

    def test_determinism(self):
        t = np.sqrt(0.9)
        p = 2.0 / (1.0 - t)
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        a = pe.falsify_integral(lame, p, trials=400, seed=3)
        b = pe.falsify_integral(lame, p, trials=400, seed=3)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.trial == b.trial and a.quotient == b.quotient

    def test_stops_at_lowest_index_hit(self, monkeypatch):
        original = integral.discrete_quotient
        quotients = []

        def counted(F, p, v):
            quotients.append(original(F, p, v))
            return quotients[-1]

        monkeypatch.setattr(integral, "discrete_quotient", counted)
        t = np.sqrt(0.9)
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        hit = pe.falsify_integral(lame, 2.0 / (1.0 - t), trials=64, seed=13, N=17)
        assert hit is not None and 0 < hit.trial < 63
        assert len(quotients) == hit.trial + 1
        assert all(q > 0.0 for q in quotients[:-1])
        assert quotients[-1] == hit.quotient

    def test_real_field_draws_real_functions(self):
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        t = np.sqrt(0.9)
        hit = pe.falsify_integral(lame, 2.0 / (1.0 - t), trials=500, seed=3)
        assert hit is not None
        assert np.all(hit.grid.values.imag == 0.0)


class TestPowerIdentity:
    def _random_samples(self, seed, S=500, n=2, m=3):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((S, m)) + 1j * rng.standard_normal((S, m))
        g = rng.standard_normal((S, n, m)) + 1j * rng.standard_normal((S, n, m))
        return u, g

    def test_p_two_residual_is_zero(self):
        u, g = self._random_samples(0)
        assert pe.power_identity_residual(u, g, 2.0) < 1e-13

    def test_real_positive_scalar_chain_rule(self):
        rng = np.random.default_rng(1)
        u = (0.5 + rng.random((300, 1))).astype(complex)
        g = rng.standard_normal((300, 2, 1)).astype(complex)
        p = 3.2
        assert pe.power_identity_residual(u, g, p) < 1e-10
        # real positive scalar u with real gradient: both identity sides
        # collapse to (p^2/4) u^{p-2} |grad u|^2
        w = u[:, 0].real
        gsq = np.sum(g[:, :, 0].real ** 2, axis=1)
        expected = (p * p / 4.0) * w ** (p - 2.0) * gsq
        actual = w ** (p - 2.0) * (gsq + (p * p / 4.0 - 1.0) * gsq)
        assert np.allclose(actual, expected, rtol=1e-12)

    def test_random_complex_residual(self):
        u, g = self._random_samples(2)
        assert pe.power_identity_residual(u, g, 3.7) < 1e-10

    def test_two_sided_bounds(self):
        for p in (1.3, 2.0, 3.7, 7.5):
            u, g = self._random_samples(3)
            lo, hi = pe.power_identity_bounds_slack(u, g, p)
            assert lo >= -1e-10
            assert hi >= -1e-10

    def test_zero_samples_skipped(self):
        u = np.zeros((4, 2), dtype=complex)
        u[0] = [1.0, 0.0]
        g = np.ones((4, 3, 2), dtype=complex)
        assert pe.power_identity_residual(u, g, 2.5) < 1e-12


class TestLambdaEstimate:
    def test_identity_p_two_is_one(self):
        est = pe.lambda_p_estimate(IDENTITY_2, 2.0, trials=6, seed=0)
        assert est == pytest.approx(1.0, abs=1e-9)

    def test_identity_p_large_bounded_by_power_constants(self):
        for p in (3.0, 5.0):
            est = pe.lambda_p_estimate(IDENTITY_2, p, trials=6, seed=0)
            t = 1 - 2 / p
            assert est >= (4.0 / (p * p)) * (1 - t * t) - 1e-9
            # identity weighted quotient is 1 + (p-2) * directional share >= 1
            assert est >= 1.0 - 1e-9

    def test_lame_inside_range_is_positive(self):
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        assert pe.lambda_p_estimate(lame, 6.0, trials=6, seed=0) > 0.0

    def test_lattice_dimension_mismatch_rejected(self):
        ident = pe.CoefficientTensor.identity(2, 2)
        F = pe.TensorField.sampled([ident, ident], grid=(2,))
        with pytest.raises(InputError, match="n-dimensional lattice"):
            pe.lambda_p_estimate(F, 3.0, trials=2, seed=0)


class TestGridValidation:
    def test_boundary_must_vanish(self):
        arr = np.ones((9, 9, 1), dtype=complex)
        with pytest.raises(InputError):
            pe.TestFunctionGrid(arr)

    def test_size_limits(self):
        with pytest.raises(InputError):
            pe.TestFunctionGrid(np.zeros((4, 4, 1), dtype=complex))
        with pytest.raises(InputError):
            pe.TestFunctionGrid(np.zeros((66, 66, 1), dtype=complex))
        with pytest.raises(InputError):
            pe.TestFunctionGrid(np.zeros((9, 9, 5), dtype=complex))

    def test_counterexample_requires_nonpositive_quotient(self):
        rng = np.random.default_rng(4)
        grid = pe.random_test_grid(2, 9, 1, rng)
        with pytest.raises(InputError):
            pe.Counterexample(grid=grid, quotient=0.5, p=3.0, trial=0, seed=0)
