"""Pointwise form values, margin searches, and their structural identities."""

import numpy as np
import pytest

import pelliptic as pe
from pelliptic import conditions
from pelliptic.errors import InputError


def unit_state(arr):
    arr = np.asarray(arr, dtype=complex)
    return pe.GradientState(arr / np.linalg.norm(arr))


class TestStrongFormValue:
    def test_identity_value_is_one_minus_t_squared_on_aligned_pair(self):
        # xi = omega-aligned rows make the projection the identity
        omega = pe.UnitState(np.array([1.0, 0.0], dtype=complex))
        xi = unit_state([[1.0, 0.0], [1.0, 0.0]])
        A = pe.CoefficientTensor.identity(2, 2)
        for t in (-0.7, 0.0, 0.4, 0.9):
            got = pe.strong_form_value(A, t, xi, omega)
            assert got == pytest.approx(1.0 - t * t, abs=1e-12)

    def test_t_zero_reduces_to_plain_pairing(self):
        rng = np.random.default_rng(0)
        A = pe.CoefficientTensor(rng.standard_normal((2, 2, 2, 2)) * (1 + 0j))
        xi = unit_state(rng.standard_normal((2, 2)))
        omega = pe.UnitState(rng.standard_normal(2))
        assert pe.strong_form_value(A, 0.0, xi, omega) == pytest.approx(
            pe.real_pairing(A, xi, xi), abs=1e-12
        )

    def test_lame_worst_pair_sits_on_the_boundary(self):
        # hand-derived null direction of the n=2 constant-one tensor at its
        # optimal rewrite: xi = (e1 x e1)*(-2) + (e2 x e2), omega = e1,
        # (cross-checked by oracle grid search)
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        xi = unit_state([[-2.0, 0.0], [0.0, 1.0]])
        omega = pe.UnitState(np.array([1.0, 0.0], dtype=complex))
        t_star = np.sqrt(3.0) / 2.0
        assert pe.strong_form_value(A, t_star, xi, omega) == pytest.approx(0.0, abs=1e-12)
        assert pe.strong_form_value(A, t_star - 0.05, xi, omega) > 0

    def test_out_of_range_t_rejected(self):
        A = pe.CoefficientTensor.identity(1, 1)
        xi = unit_state([[1.0]])
        omega = pe.UnitState(np.array([1.0 + 0j]))
        with pytest.raises(InputError):
            pe.strong_form_value(A, 1.0, xi, omega)

    def test_exactly_quadratic_in_t(self):
        rng = np.random.default_rng(5)
        A = pe.CoefficientTensor(
            rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
        )
        xi = unit_state(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        omega = pe.UnitState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        samples = {t: pe.strong_form_value(A, t, xi, omega) for t in (-0.5, 0.0, 0.5)}
        coeffs = np.polyfit(list(samples), list(samples.values()), 2)
        for t in (-0.9, -0.2, 0.33, 0.77):
            assert np.polyval(coeffs, t) == pytest.approx(
                pe.strong_form_value(A, t, xi, omega), abs=1e-10
            )

    def test_t_squared_coefficient_is_negated_projection_pairing(self):
        rng = np.random.default_rng(6)
        A = pe.CoefficientTensor(
            rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
        )
        xi = unit_state(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        omega = pe.UnitState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        f = lambda t: pe.strong_form_value(A, t, xi, omega)
        second_derivative = f(0.5) + f(-0.5) - 2 * f(0.0)  # = 2 a2 * 0.25
        proj = pe.project_state(xi, omega)
        assert second_derivative * 2.0 == pytest.approx(
            -pe.real_pairing(A, proj, proj), abs=1e-10
        )


class TestLHFormValue:
    def test_t_zero_is_classical_direction_form(self):
        rng = np.random.default_rng(7)
        A = pe.CoefficientTensor(
            rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
        )
        eta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        omega = pe.UnitState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        q = np.array([0.6, 0.8])
        Mq = np.einsum("hkab,h,k->ab", A.entries, q, q)
        expected = float(np.real(np.einsum("ab,a,b->", Mq, eta, np.conj(eta))))
        assert pe.lh_form_value(A, 0.0, eta, omega, q) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_direction_removes_t_dependence(self):
        rng = np.random.default_rng(8)
        A = pe.CoefficientTensor(
            rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        )
        eta = np.array([1.0 + 0j, 0.0])
        omega = pe.UnitState(np.array([1j, 0.0]))  # Re<omega, eta> = 0
        q = np.array([1.0, 0.0])
        vals = {pe.lh_form_value(A, t, eta, omega, q) for t in (-0.5, 0.0, 0.5, 0.9)}
        assert max(vals) - min(vals) < 1e-12

    def test_identity_aligned_value(self):
        A = pe.CoefficientTensor.identity(2, 2)
        eta = np.array([1.0 + 0j, 0.0])
        omega = pe.UnitState(np.array([1.0 + 0j, 0.0]))
        q = np.array([0.0, 1.0])
        for t in (0.0, 0.3, -0.8):
            assert pe.lh_form_value(A, t, eta, omega, q) == pytest.approx(1 - t * t, abs=1e-12)


class TestMargins:
    def test_identity_strong_margin(self):
        A = pe.CoefficientTensor.identity(2, 2)
        res = pe.strong_margin(A, pe.SearchConfig(t=0.5, seed=0))
        assert res.value == pytest.approx(0.75, abs=1e-9)
        assert not res.certified
        assert res.witness.omega is not None

    def test_real_scalar_matrix_margin_floor(self):
        # real positive m=1 tensors have margin >= c (1 - t^2), equality for c*I
        rng = np.random.default_rng(9)
        B = rng.standard_normal((3, 3))
        M = B @ B.T + 0.5 * np.eye(3)
        c = float(np.linalg.eigvalsh(M)[0])
        A = pe.CoefficientTensor.from_matrix(M)
        for t in (0.0, 0.4, -0.6):
            res = pe.strong_margin(A, pe.SearchConfig(t=t, seed=1))
            assert res.value >= c * (1 - t * t) - 1e-8
        I3 = pe.CoefficientTensor.from_matrix(0.7 * np.eye(3))
        res = pe.strong_margin(I3, pe.SearchConfig(t=0.4, seed=1))
        assert res.value == pytest.approx(0.7 * (1 - 0.16), abs=1e-8)

    def test_lame_margin_sign_flips_at_threshold(self):
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        assert pe.strong_margin(A, pe.SearchConfig(t=0.8, seed=2)).value > 0
        assert pe.strong_margin(A, pe.SearchConfig(t=0.87, seed=2)).value < 0

    def test_identity_lh_margin(self):
        A = pe.CoefficientTensor.identity(3, 2)
        for t in (0.0, 0.5):
            res = pe.lh_margin(A, pe.SearchConfig(t=t, seed=3))
            assert res.value == pytest.approx(1 - t * t, abs=1e-8)

    def test_lh_dominates_strong(self):
        # rank-one test states are a subset of the full test set; inject the
        # lh witness direction into the strong search so a lucky lh search
        # cannot land below a strong miss
        for seed in range(100):
            n, m = 2 + seed % 2, 2 + (seed // 2) % 2
            style = "legendre-perturbed" if seed % 2 else "hermitian-positive"
            A = pe.random_elliptic_tensor(n, m, style, seed=50 + seed)
            t = (-1) ** seed * (0.05 + 0.002 * seed)
            cfg = pe.SearchConfig(t=t, seed=4, outer_starts=24)
            lh = pe.lh_margin(A, cfg)
            coords = np.concatenate([
                np.real(lh.witness.omega.components),
                np.imag(lh.witness.omega.components),
            ])
            strong = pe.strong_margin(A, cfg, extra_starts=[coords])
            assert lh.value >= strong.value - 1e-8

    def test_lame_lh_threshold_matches_necessary_bound(self):
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        t_star = np.sqrt(0.75)
        assert pe.lh_margin(A, pe.SearchConfig(t=t_star - 0.02, seed=5)).value > 0
        assert pe.lh_margin(A, pe.SearchConfig(t=t_star + 0.02, seed=5)).value < 0

    def test_duality_pointwise_identity(self):
        rng = np.random.default_rng(10)
        A = pe.CoefficientTensor(
            rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
        )
        xi = unit_state(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        omega = pe.UnitState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        for t in (0.3, -0.6):
            assert pe.strong_form_value(A, t, xi, omega) == pytest.approx(
                pe.strong_form_value(pe.adjoint(A), -t, xi, omega), abs=1e-12
            )

    def test_margin_duality_agreement(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=77)
        t = 0.2
        a = pe.strong_margin(A, pe.SearchConfig(t=t, seed=6))
        b = pe.strong_margin(pe.adjoint(A), pe.SearchConfig(t=-t, seed=6))
        assert a.value == pytest.approx(b.value, abs=1e-6)

    def test_lh_margin_matches_oracle_on_every_seed(self):
        # a (3, 3) tensor whose minimising direction a search from a few of
        # its starts misses on some seeds
        A = pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=501)
        oracle = pe.brute_margin(A, 0.40, "lh", pe.OracleConfig())
        for seed in range(6):
            got = pe.lh_margin(A, pe.SearchConfig(t=0.40, seed=seed)).value
            assert got == pytest.approx(oracle, abs=1e-4)

    def test_determinism_per_seed(self):
        A = pe.random_elliptic_tensor(2, 2, "hermitian-positive", seed=13)
        cfg = pe.SearchConfig(t=0.3, seed=123)
        r1 = pe.strong_margin(A, cfg)
        r2 = pe.strong_margin(A, cfg)
        assert r1.value == r2.value


class TestPoolParabola:
    """The parabola read off a search's own eigenvector (``witness``; the
    envelope of margin_curve pools these over its grid) is the exact form
    value at the search's witness for every t."""

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_parabola_is_form_value_at_witness(self, monkeypatch, kind, test_field, n, m):
        found = []
        witness = conditions._FormProblem.witness

        def recording_witness(self, w, t):
            out = witness(self, w, t)
            found.append(out)
            return out

        monkeypatch.setattr(conditions._FormProblem, "witness", recording_witness)
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        cfg = pe.SearchConfig(t=0.3, seed=3, test_field=test_field)
        margin = (pe.strong_margin if kind == "strong" else pe.lh_margin)(A, cfg)
        ((wit, (a0, a1, a2), value),) = found
        assert (wit, value) == (margin.witness, margin.value)
        for t in (-0.7, 0.0, 0.5):
            if kind == "strong":
                expected = pe.strong_form_value(A, t, wit.xi, wit.omega)
            else:
                expected = pe.lh_form_value(A, t, wit.eta, wit.omega, wit.q)
            assert a0 + a1 * t + a2 * t * t == pytest.approx(expected, abs=1e-12)


class TestThresholds:
    """Each per-direction threshold is the first t on its side of 0 where
    S(t) turns singular: lambda_min is ~0 there and positive just inside."""

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_smallest_eigenvalue_vanishes_at_threshold(self, kind, test_field, n, m):
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        W = np.random.default_rng(n + m).standard_normal((6, problem.dim))
        t_lo, t_hi = problem.thresholds(W)
        assert np.all(t_lo < 0.0) and np.all(t_hi > 0.0)
        checked = 0
        for i in range(W.shape[0]):
            for t in (t_lo[i], t_hi[i]):
                if abs(t) == 1.0:
                    continue
                at = problem.values(W[i : i + 1], t)[0]
                inside = problem.values(W[i : i + 1], 0.999 * t)[0]
                assert at == pytest.approx(0.0, abs=1e-10)
                assert inside > 0.0
                checked += 1
        assert checked > 0


class TestSlope:
    """slope's value, W-gradient and t-derivative against central
    differences along tangent directions of the unit blocks."""

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    def test_central_differences(self, kind, test_field, n, m):
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        rng = np.random.default_rng(n + m)
        W = problem._normalize(rng.standard_normal((5, problem.dim)))
        D = problem._tangent(W, rng.standard_normal(W.shape))
        t = rng.uniform(-0.6, 0.6, 5)
        lam, grad, dt = problem.slope(W, t)
        per_row = problem.values(W, t)
        for i in range(5):
            assert per_row[i] == problem.values(W[i : i + 1], t[i])[0]
        np.testing.assert_allclose(lam, per_row, rtol=0, atol=1e-12)

        def value(W, t):
            return problem.slope(problem._normalize(W), t)[0]

        h = 1e-6
        along = (value(W + h * D, t) - value(W - h * D, t)) / (2 * h)
        np.testing.assert_allclose(np.sum(grad * D, axis=1), along, rtol=0, atol=1e-7)
        np.testing.assert_allclose(dt, (value(W, t + h) - value(W, t - h)) / (2 * h), rtol=0, atol=1e-7)


class TestPolish:
    @pytest.mark.parametrize("kind", ["strong", "lh"])
    def test_batch_size_invariance(self, kind):
        # rows never interact: polishing 16 together ends each row where
        # polishing it alone does
        A = pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=501)
        problem = conditions._make_problem(A, kind, "complex")
        W = conditions._starts(pe.SearchConfig(seed=1), 16, problem.dim)

        def fg(W, rows):
            return problem.slope(W, 0.4)[:2]

        together = conditions.minimize(problem, fg, W)
        alone = [conditions.minimize(problem, fg, W[i : i + 1]) for i in range(16)]
        assert np.array_equal(together.x, np.vstack([r.x for r in alone]))
        assert np.array_equal(together.fun, np.concatenate([r.fun for r in alone]))
        assert together.fun.min() == min(r.fun[0] for r in alone)
        assert together.nit == max(r.nit for r in alone)

    def test_polish_never_raises_a_start(self):
        A = pe.random_elliptic_tensor(2, 3, "legendre-perturbed", seed=23)
        problem = conditions._make_problem(A, "lh", "complex")
        W = conditions._starts(pe.SearchConfig(seed=2), 16, problem.dim)
        res = conditions.minimize(problem, lambda W, rows: problem.slope(W, -0.3)[:2], W)
        assert np.all(res.fun <= problem.values(W, -0.3))


    def test_newton_lowers_rows_independently(self):
        # near t = 0 the polish leaves these LH rows up to ~3e-6 above their
        # minimum; each refined row ends where it would alone, and lower
        A = pe.random_elliptic_tensor(3, 3, "hermitian-positive", seed=1046)
        problem = conditions._make_problem(A, "lh", "complex")
        ts = np.linspace(-0.06, 0.06, 7)
        W, _ = conditions._search(problem, pe.SearchConfig(seed=7), ts)
        together = conditions._newton(problem, W.copy(), ts)
        alone = [conditions._newton(problem, W[i : i + 1].copy(), ts[i : i + 1]) for i in range(7)]
        assert np.array_equal(together, np.vstack(alone))
        gain = problem.values(W, ts) - problem.values(together, ts)
        assert np.all(gain >= 0.0) and gain.max() > 1e-6


class TestScalarMargin:
    def test_phase_scaled_identity_closed_form(self):
        for phi in (0.0, np.pi / 6, np.pi / 3):
            for p in (1.5, 2.0, 4.0):
                A = pe.CoefficientTensor.from_matrix(np.exp(1j * phi) * np.eye(3))
                expected = np.cos(phi) - abs(1 - 2 / p)
                assert pe.scalar_p_margin(A, p) == pytest.approx(expected, abs=1e-6)

    def test_real_matrix_positive_for_all_p(self):
        rng = np.random.default_rng(14)
        B = rng.standard_normal((2, 2))
        M = B @ B.T + 0.3 * np.eye(2)
        c = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        A = pe.CoefficientTensor.from_matrix(M)
        for p in (1.1, 2.0, 10.0, 200.0):
            assert pe.scalar_p_margin(A, p) >= c * (1 - abs(1 - 2 / p)) - 1e-10

    def test_p_two_is_classical_constant(self):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M = M @ M.conj().T + 0.2 * np.eye(3)
        A = pe.CoefficientTensor.from_matrix(M)
        assert pe.scalar_p_margin(A, 2.0) == pytest.approx(
            float(np.linalg.eigvalsh(M)[0]), abs=1e-9
        )

    def test_m_not_one_rejected(self):
        with pytest.raises(InputError):
            pe.scalar_p_margin(pe.CoefficientTensor.identity(2, 2), 2.0)

    def test_m1_strong_margin_vs_scalar_condition(self):
        # the two m=1 notions are compared numerically, not asserted equal:
        # the strong form tests a projected state, the scalar form a
        # conjugated one
        rng = np.random.default_rng(16)
        M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        M = M @ M.conj().T + 0.4 * np.eye(2)
        A = pe.CoefficientTensor.from_matrix(M)
        p = 3.0
        scalar = pe.scalar_p_margin(A, p)
        strong = pe.strong_margin(A, pe.SearchConfig(t=1 - 2 / p, seed=8)).value
        assert np.isfinite(scalar) and np.isfinite(strong)

    def test_m1_equality_of_strong_and_lh_at_t_zero_for_symmetric_imag(self):
        # equality of the two t = 0 margins holds for m = 1 when the
        # imaginary part is symmetric; a Hermitian counterexample shows the
        # general claim would be false, so only the inequality is asserted
        rng = np.random.default_rng(17)
        S = rng.standard_normal((3, 3))
        M = S @ S.T + 0.5 * np.eye(3) + 1j * (lambda X: X + X.T)(rng.standard_normal((3, 3)))
        A = pe.CoefficientTensor.from_matrix(M)
        cfg = pe.SearchConfig(t=0.0, seed=9)
        strong = pe.strong_margin(A, cfg).value
        lh = pe.lh_margin(A, cfg).value
        assert lh == pytest.approx(strong, abs=1e-7)

        H = pe.CoefficientTensor.from_matrix(np.array([[1.0, 1j], [-1j, 1.0]]))
        strong_h = pe.strong_margin(H, cfg).value
        lh_h = pe.lh_margin(H, cfg).value
        assert strong_h == pytest.approx(0.0, abs=1e-8)
        assert lh_h == pytest.approx(1.0, abs=1e-8)
        assert lh_h >= strong_h - 1e-8


class TestSearchConfig:
    def test_invalid_t_rejected(self):
        with pytest.raises(InputError):
            pe.SearchConfig(t=1.0)

    def test_invalid_starts_rejected(self):
        with pytest.raises(InputError):
            pe.SearchConfig(outer_starts=0)

    def test_field_mode_resolution(self):
        real_A = pe.lame_tensor(1.0, 1.0, 0.0, 2)
        complex_A = pe.CoefficientTensor(np.full((1, 1, 1, 1), 1j))
        auto = pe.SearchConfig()
        assert auto.resolve_field(real_A) == "real"
        assert auto.resolve_field(complex_A) == "complex"
        forced = pe.SearchConfig(test_field="complex")
        assert forced.resolve_field(real_A) == "complex"

    def test_real_and_complex_modes_differ_for_lame(self):
        # the real elasticity tensor admits complex witnesses below the
        # real-test threshold; the two modes answer different questions
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        t = 0.8
        real = pe.strong_margin(A, pe.SearchConfig(t=t, seed=10, test_field="real"))
        cplx = pe.strong_margin(A, pe.SearchConfig(t=t, seed=10, test_field="complex"))
        assert real.value > 0
        assert cplx.value < 0
