"""Elasticity tensors, admissibility constants, the rewrite cubic, scans."""

import decimal
import math

import numpy as np
import pytest

import pelliptic as pe
from pelliptic.errors import InputError
from pelliptic.lame import SQRT8, _c_bounds, cubic_residual, dissipativity_bounds


def random_admissible(rng, n_choices=(3, 4, 5, 6, 7, 8)):
    n = int(rng.choice(n_choices))
    mu = 0.3 + 2.0 * rng.random()
    a = -1.95 + (4.0 + 1.95) * rng.random()  # lam/mu in (-1.95, 4.05): lam+2mu > 0
    return n, a * mu, mu


class TestLameTensor:
    def test_hand_substituted_entries(self):
        A = pe.lame_tensor(1.0, 1.0, 0.0, 2)
        e = A.entries.real
        assert e[0, 0, 0, 0] == 3.0
        assert e[0, 1, 0, 1] == 1.0
        assert e[0, 1, 1, 0] == 1.0
        assert e[0, 0, 1, 1] == 1.0

    def test_pairing_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, lam, mu = random_admissible(rng, n_choices=(2, 3, 4))
            r = -1.0 + 3.0 * rng.random()
            A = pe.lame_tensor(lam, mu, r, n).entries
            assert np.array_equal(A, np.transpose(A, (1, 0, 3, 2)))

    def test_r_equal_mu_kills_transpose_term(self):
        lam, mu = 0.7, 1.3
        A = pe.lame_tensor(lam, mu, mu, 3).entries.real
        d = np.eye(3)
        expected = mu * np.einsum("hk,ab->hkab", d, d) + (lam + mu) * np.einsum(
            "ha,kb->hkab", d, d
        )
        assert np.allclose(A, expected)

    def test_invariant_violation_rejected(self):
        with pytest.raises(InputError):
            pe.lame_tensor(1.0, -0.1, 0.0, 2)
        with pytest.raises(InputError):
            pe.lame_tensor(-2.5, 1.0, 0.0, 2)

    def test_params_validation(self):
        with pytest.raises(InputError):
            pe.LameParams(lam=[1.0, -3.0], mu=[1.0, 1.0], n=2)
        p = pe.LameParams(lam=[1.0, 0.5], mu=[1.0, 1.0], n=3)
        assert not p.is_constant


class TestSufficientConstant:
    def test_n2_unit_moduli(self):
        s = pe.sufficient_constant(2, 1.0, 1.0)
        assert s.c_lower == pytest.approx(0.75, abs=1e-15)
        assert s.c_upper == pytest.approx(0.75, abs=1e-15)
        assert s.r_star == pytest.approx(0.5, abs=1e-15)
        assert s.gamma_star == pytest.approx(0.5, abs=1e-15)
        assert s.branch == "n2"
        assert s.p_interval.t_hi == pytest.approx(math.sqrt(0.75))

    def test_zero_trace_coupling_gives_full_interval(self):
        for n in (2, 3, 5):
            s = pe.sufficient_constant(n, -1.0, 1.0)
            assert s.c_lower == pytest.approx(1.0, abs=1e-12)
            assert s.c_upper == pytest.approx(1.0, abs=1e-12)
            assert s.p_interval.t_hi == pytest.approx(1.0)

    def test_n3_unit_moduli_cubic_beats_dimension_independent(self):
        s = pe.sufficient_constant(3, 1.0, 1.0)
        assert s.branch == "cubic"
        assert s.c_lower == pytest.approx(0.6881, abs=1e-4)
        assert s.c_lower > 1.0 - (2.0 / 3.0) ** 2  # dim-independent is 5/9

    def test_bracket_ordering_and_n2_equality(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n, lam, mu = random_admissible(rng, n_choices=(2, 3, 4, 5, 6))
            s = pe.sufficient_constant(n, lam, mu)
            assert 0.0 <= s.c_lower <= s.c_upper + 1e-12 <= 1.0 + 1e-12
            if n == 2:
                assert abs(s.c_lower - s.c_upper) <= 1e-12
            elif abs(lam + mu) > 1e-9:
                assert s.c_lower < s.c_upper

    def test_gamma_star_constraints(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n, lam, mu = random_admissible(rng)
            s = pe.sufficient_constant(n, lam, mu)
            assert abs(s.gamma_star) < mu + 1e-12
            assert s.gamma_star < ((n - 1) * lam + n * mu) / (n - 2) + 1e-12
            assert s.r_star == pytest.approx(mu - s.gamma_star)


    def test_dimension_below_two_rejected(self):
        with pytest.raises(InputError, match="dimension must be >= 2"):
            pe.sufficient_constant(1, 1.0, 1.0)


class TestConstantKernel:
    """_c_bounds is the array form of sufficient_constant's two constants."""

    @staticmethod
    def moduli():
        i = np.arange(1, 10001)
        grid = (1.0 - SQRT8) + ((1.0 + SQRT8) - (1.0 - SQRT8)) * i / 10001
        rng = np.random.default_rng(6)
        mu = 0.3 + 2.0 * rng.random(5000)
        # lam/mu - (-2) log-uniform in (1e-8, 12.6): near lam + 2 mu = 0 the
        # cubic root's den > s^2 constraint fails by rounding
        lam = (-2.0 + 10.0 ** rng.uniform(-8.0, 1.1, 5000)) * mu
        return [(grid, np.ones_like(grid)), (lam, mu)]

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_bit_identical_to_scalar_path(self, n):
        for lam, mu in self.moduli():
            c_lower, c_upper = _c_bounds(n, lam, mu)
            reports = [pe.sufficient_constant(n, float(la), float(m)) for la, m in zip(lam, mu)]
            assert np.array_equal(c_lower, [r.c_lower for r in reports])
            assert np.array_equal(c_upper, [r.c_upper for r in reports])

    def test_invalid_input_rejected(self):
        with pytest.raises(InputError, match="dimension must be >= 2"):
            _c_bounds(1, [1.0], [1.0])
        with pytest.raises(InputError):
            _c_bounds(3, [1.0, -2.5], 1.0)
        with pytest.raises(InputError):
            _c_bounds(3, [1.0, math.nan], 1.0)


class TestNecessaryConstant:
    def test_unit_moduli(self):
        assert pe.necessary_constant(3, 1.0, 1.0) == pytest.approx(0.75)

    def test_zero_sum_gives_one(self):
        assert pe.necessary_constant(5, -2.0, 2.0) == pytest.approx(1.0)

    def test_n2_equals_sufficient(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, lam, mu = random_admissible(rng)
            assert pe.necessary_constant(2, lam, mu) == pytest.approx(
                pe.sufficient_constant(2, lam, mu).c_lower, abs=1e-15
            )


class TestCubic:
    def test_minus_one_is_always_a_root(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n, lam, mu = random_admissible(rng)
            assert cubic_residual(n, lam / mu, -1.0) <= 1e-12

    def test_closed_form_roots_n3_unit(self):
        roots = pe.lame_cubic_roots(3, 1.0, 1.0)
        assert roots[0] == -1.0
        assert roots[1] == pytest.approx((2.0 / 3.0) * (4.0 - math.sqrt(10.0)), abs=1e-12)
        assert roots[2] == pytest.approx((2.0 / 3.0) * (4.0 + math.sqrt(10.0)), abs=1e-12)

    def test_residuals_small_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n, lam, mu = random_admissible(rng)
            a = lam / mu
            for x in pe.lame_cubic_roots(n, lam, mu):
                assert cubic_residual(n, a, x) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 10])
    @pytest.mark.parametrize("mu", [1.0, 0.3400210872690436])
    def test_x_minus_stable_near_lam_plus_two_mu_zero(self, n, mu):
        # the textbook form pref * ((lam + 3mu) - root) cancels as
        # lam + 2mu -> 0; compare with 50 digits of that same form
        for k in range(4, 10):
            lam = -2.0 * mu + 10.0 ** -k * mu
            with decimal.localcontext(decimal.Context(prec=50)):
                L, M = decimal.Decimal(lam), decimal.Decimal(mu)
                root = ((L + M) * (L + M) + 4 * M * (L + 2 * M) / (n - 1)).sqrt()
                pref = (n - 1) * (L + M) / (2 * (n - 2) * M * (L + 2 * M))
                exact = float(pref * ((L + 3 * M) - root))
            x_minus = pe.lame_cubic_roots(n, lam, mu)[1]
            assert x_minus == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_cross_identity_with_sufficient_constant(self):
        s = pe.sufficient_constant(3, 1.0, 1.0)
        x_minus = pe.lame_cubic_roots(3, 1.0, 1.0)[1]
        assert 1.0 - x_minus ** 2 == pytest.approx(s.c_lower, abs=1e-10)

    def test_n2_rejected(self):
        with pytest.raises(InputError):
            pe.lame_cubic_roots(2, 1.0, 1.0)


class TestAdmissibility:
    def test_unit_moduli_admissible(self):
        rep = pe.admissibility(1.0, 1.0, 1.0)
        assert rep.admissible
        assert rep.lower_combination == pytest.approx(math.sqrt(8) - 1 + 1)
        assert rep.upper_combination == pytest.approx(math.sqrt(8) + 1 - 1)
        assert rep.poisson_ratio == pytest.approx(0.25)
        assert rep.poisson_ok

    def test_upper_boundary_inadmissible(self):
        lam = (1.0 + math.sqrt(8.0)) * 1.0
        rep = pe.admissibility(lam, 1.0, 1e-6)
        assert not rep.admissible
        assert rep.upper_combination == pytest.approx(0.0, abs=1e-12)

    def test_poisson_undefined_at_zero_sum(self):
        rep = pe.admissibility(-1.0, 1.0, 0.5)
        assert rep.poisson_ratio is None
        assert rep.poisson_ok is None

    def test_sampled_moduli_use_worst_sample(self):
        rep = pe.admissibility([1.0, 3.9], [1.0, 1.0], 0.1)
        assert not rep.admissible  # (sqrt8+1) - 3.9 < 0.1


class TestOscillationScan:
    def test_constant_fields_pass(self):
        pts = np.linspace(0, 1, 21)
        rep = pe.oscillation_scan(
            np.ones(21), np.full(21, 2.0), pts, np.full(21, 0.2), K=1e-9
        )
        assert rep.max_sum == 0.0
        assert rep.passes

    def test_linear_ramp_hand_trace(self):
        # lam(x) = x on [0,1], delta(x) = min(x, 1-x): osc over B(x, delta/2)
        # is delta(x) up to lattice rounding, max at x = 1/2
        pts = np.linspace(0, 1, 201)
        lam = pts.copy()
        mu = np.ones_like(pts)
        delta = np.minimum(pts, 1 - pts) + 1e-12
        rep = pe.oscillation_scan(lam, mu, pts, delta, K=1.0)
        assert rep.max_sum == pytest.approx(0.5, abs=0.01)

    def test_step_function_fails_small_K(self):
        pts = np.linspace(0, 1, 101)
        mu = np.where(pts < 0.5, 1.0, 2.0)
        lam = np.ones_like(pts)
        delta = np.full_like(pts, 0.3)
        rep = pe.oscillation_scan(lam, mu, pts, delta, K=0.5)
        assert not rep.passes
        assert rep.max_sum == pytest.approx(1.0, abs=1e-12)

    def test_lonely_points_flagged(self):
        pts = np.array([0.0, 0.5, 1.0])
        rep = pe.oscillation_scan(
            np.array([1.0, 2.0, 3.0]),
            np.ones(3),
            pts,
            np.array([0.1, 0.1, 0.1]),
            K=1.0,
        )
        assert rep.lonely_points == (0, 1, 2)
        assert rep.max_sum == 0.0


class TestDissipativityBounds:
    def test_squared_bound_dominates(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            _, lam, mu = random_admissible(rng)
            sq, plain = dissipativity_bounds(lam, mu)
            assert sq >= plain - 1e-15
            M = max(mu, lam + 2 * mu)
            if 0 < abs(lam + mu) < M:
                assert sq > plain
