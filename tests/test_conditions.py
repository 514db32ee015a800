"""Pointwise form values, margin searches, and their structural identities."""

import numpy as np
import pytest

import pelliptic as pe
from pelliptic import conditions
from pelliptic.errors import InputError
from test_acceptance import make_batch


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
        # rank-one test states are a subset of the full test set, so the
        # strong form's exact inner minimum at the lh witness direction
        # cannot exceed the lh value
        for seed in range(100):
            n, m = 2 + seed % 2, 2 + (seed // 2) % 2
            style = "legendre-perturbed" if seed % 2 else "hermitian-positive"
            A = pe.random_elliptic_tensor(n, m, style, seed=50 + seed)
            t = (-1) ** seed * (0.05 + 0.002 * seed)
            cfg = pe.SearchConfig(t=t, seed=4, outer_starts=24)
            lh = pe.lh_margin(A, cfg)
            omega = lh.witness.omega.components
            coords = np.concatenate([np.real(omega), np.imag(omega)])
            strong = conditions._make_problem(A, "strong", cfg.resolve_field(A))
            assert strong.values(coords[None], t)[0] <= lh.value + 1e-8

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


def _margin_fg(problem, t):
    """The fg of a margin polish at t: lambda_min of S(t) and its gradient
    and Hessian in W (``_search``)."""
    return lambda W, rows: problem.curvature(W, t, with_t=False)


class TestSlope:
    """curvature's value, gradient and Hessian in (W, t), and the range
    ends' derivatives, against central differences."""

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (2, 1), (3, 1)])
    def test_central_differences(self, kind, test_field, n, m):
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        rng = np.random.default_rng(n + m)
        W = problem._normalize(rng.standard_normal((5, problem.dim)))
        D = problem._tangent(W, rng.standard_normal(W.shape))
        t = rng.uniform(-0.6, 0.6, 5)
        lam, grad, _, _ = problem.curvature(W, t)
        grad, dt = grad[:, :-1], grad[:, -1]
        per_row = problem.values(W, t)
        for i in range(5):
            assert per_row[i] == problem.values(W[i : i + 1], t[i])[0]
        np.testing.assert_allclose(lam, per_row, rtol=0, atol=1e-12)

        def value(W, t):
            return problem.curvature(problem._normalize(W), t)[0]

        h = 1e-6
        along = (value(W + h * D, t) - value(W - h * D, t)) / (2 * h)
        np.testing.assert_allclose(np.sum(grad * D, axis=1), along, rtol=0, atol=1e-7)
        np.testing.assert_allclose(dt, (value(W, t + h) - value(W, t - h)) / (2 * h), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (2, 1), (3, 1)])
    def test_hessian_central_differences(self, kind, test_field, n, m):
        # V is linear in W, so curvature's Hessian in (W, t) is that of
        # lambda_min at rows taken as they are, off the sphere too
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        rng = np.random.default_rng(n + m)
        W = problem._normalize(rng.standard_normal((5, problem.dim)))
        D = rng.standard_normal(W.shape)
        t = rng.uniform(-0.6, 0.6, 5)
        _, _, hess, _ = problem.curvature(W, t)
        np.testing.assert_allclose(hess, hess.transpose(0, 2, 1), rtol=0, atol=1e-12)

        def grad(W, t):
            return problem.curvature(W, t)[1]

        h = 1e-5
        along = (grad(W + h * D, t) - grad(W - h * D, t)) / (2 * h)
        np.testing.assert_allclose(np.einsum("bij,bj->bi", hess[:, :, :-1], D), along,
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(hess[:, :, -1], (grad(W, t + h) - grad(W, t - h)) / (2 * h),
                                   rtol=0, atol=1e-6)

    def test_hessian_at_double_lambda_min(self):
        # complex direction-frozen rows at t = 0: every eigenvalue of S(0) is
        # double (eta -> i eta), and the partner's terms drop out
        A = pe.random_elliptic_tensor(2, 3, "legendre-perturbed", seed=23)
        problem = conditions._make_problem(A, "lh", "complex")
        rng = np.random.default_rng(1)
        W = problem._normalize(rng.standard_normal((4, problem.dim)))
        D = rng.standard_normal(W.shape)
        G, V = problem._operands(W)
        lam = np.linalg.eigvalsh(conditions._strong_matrices(G, V @ V.transpose(0, 2, 1), 0.0))
        assert np.allclose(lam[:, 0], lam[:, 1], rtol=0, atol=1e-12)
        _, _, hess, _ = problem.curvature(W, 0.0)
        h = 1e-5
        grad = [problem.curvature(W + s * D, 0.0)[1][:, :-1] for s in (h, -h)]
        np.testing.assert_allclose(np.einsum("bij,bj->bi", hess[:, :-1, :-1], D),
                                   (grad[0] - grad[1]) / (2 * h), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3)])
    def test_end_hessian_along_retraction(self, kind, test_field, n, m):
        # the ends read normalized rows, so the Riemannian Hessian of tau is
        # checked: on the curve c(s) = normalize(W + s D), D tangent, the
        # second difference of tau(c(s)) is D.Hess D (both differences
        # Richardson-extrapolated from steps h and 2h)
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        rng = np.random.default_rng(n + m)
        W = problem._normalize(rng.standard_normal((6, problem.dim)))
        D = problem._tangent(W, rng.standard_normal(W.shape))
        checked = 0
        for side in (0, 1):
            def tau(W):
                return problem.thresholds(problem._normalize(W))[side]

            def differences(h):
                up, down = tau(W + h * D), tau(W - h * D)
                return (up - down) / (2 * h), (up - 2 * t + down) / h**2

            t = tau(W)
            grad, hess, _ = conditions._end_derivatives(problem, W, t)
            moves = np.abs(t) < 1.0
            g, H = problem._riemannian(W, grad, hess)
            (first, second), (first2, second2) = differences(1e-3), differences(2e-3)
            np.testing.assert_allclose(np.sum(g * D, axis=1)[moves],
                                       ((4 * first - first2) / 3)[moves], rtol=0, atol=1e-6)
            np.testing.assert_allclose(np.einsum("bi,bij,bj->b", D, H, D)[moves],
                                       ((4 * second - second2) / 3)[moves], rtol=1e-6, atol=1e-6)
            checked += moves.sum()
        assert checked > 0


def _einsum_curvature(problem, W, t):
    """``_FormProblem.curvature`` as it was before it took every coordinate
    through one derivative formula, kept as the differential test's
    reference: separate formulas for S_i x, the gradient and five Hessian
    blocks, with the constant dV/dw of the direction coordinates as a table
    E and about 30 ``einsum`` calls.

    With x = x_0, ..., x_k the eigenvectors of S, the Hessian is that of
    phi = x.S x at frozen x plus 2 sum_{k>=1} (x_k.S_i x)(x_k.S_j x) /
    (lambda_0 - lambda_k) over the gaps above 1e-9 max |lambda|. With
    N = skew(G), S0 = sym(G), y = Pi x, v = N x - t S0 y and u = t v,
    phi = x.S0 x + 2t v.y + t^2 y.S0 y; a direction coordinate i moves y by
    Dy_i = E_i V^T x + V E_i^T x (E = dV/dw), and the frequency
    coordinates of the direction-frozen form move G (``_frequency_terms``)."""
    lam, X, Pi, G = problem._eig(W, t)
    V = problem._operands(W)[1]
    E = conditions._direction_basis(np.eye(problem.parts * problem.m), V.shape[-1],
                                    problem.parts, problem.m)
    B, d = X.shape[:2]
    t = np.broadcast_to(np.reshape(t, (-1, 1)), (B, 1))
    t3 = t[:, :, None]
    Gt = np.swapaxes(G, -1, -2)
    N = np.broadcast_to(0.5 * (G - Gt), (B, d, d))
    S0 = np.broadcast_to(0.5 * (G + Gt), (B, d, d))
    x = X[..., 0]
    y = np.einsum("bij,bj->bi", Pi, x)
    a, b = x + t * y, x - t * y
    S0y = np.einsum("bij,bj->bi", S0, y)
    v = np.einsum("bij,bj->bi", N, x) - t * S0y
    u = t * v
    Ex, Eu = np.einsum("idk,bd->bik", E, x), np.einsum("idk,bd->bik", E, u)
    Vx, Vu = np.einsum("bdk,bd->bk", V, x), np.einsum("bdk,bd->bk", V, u)
    Dy = np.einsum("idk,bk->bid", E, Vx) + np.einsum("bdk,bik->bid", V, Ex)
    S0Dy = np.einsum("bij,bpj->bpi", S0, Dy)
    # S_i x = dPi_i u - t N Dy_i - t^2 Pi S0 Dy_i, S_t x = Pi (v - t S0 y) - N y
    s_dir = (np.einsum("idk,bk->bid", E, Vu) + np.einsum("bdk,bik->bid", V, Eu)
             - t3 * np.einsum("bij,bpj->bpi", N, Dy)
             - t3 * t3 * np.einsum("bij,bpj->bpi", Pi, S0Dy))
    s_t = np.einsum("bij,bj->bi", Pi, v - t * S0y) - np.einsum("bij,bj->bi", N, y)
    dGb, dGta, H_qq = problem._frequency_terms(W, a, b)
    Z = dGb - dGta
    s_q = 0.5 * (dGb + dGta + t3 * np.einsum("bij,bqj->bqi", Pi, Z))
    s = np.concatenate([s_dir, s_q, s_t[:, None]], axis=1)
    grad = np.concatenate([2.0 * np.sum(Dy * u[:, None], axis=2),
                           np.sum(dGb * a[:, None], axis=2),
                           2.0 * np.sum(y * v, axis=1, keepdims=True)], axis=1)
    cross = np.einsum("bik,bjk->bij", Eu, Ex)
    H_dd = 2.0 * (cross + cross.transpose(0, 2, 1)) - 2.0 * t3 * t3 * np.einsum(
        "bid,bjd->bij", Dy, S0Dy)
    H_dq = t3 * np.einsum("bid,bqd->biq", Dy, Z)
    H_dt = 2.0 * np.sum(Dy * (v - t * S0y)[:, None], axis=2)[:, :, None]
    H_qt = np.sum(Z * y[:, None], axis=2)[:, :, None]
    H_tt = -2.0 * np.sum(y * S0y, axis=1)[:, None, None]
    H = np.concatenate([
        np.concatenate([H_dd, H_dq, H_dt], axis=2),
        np.concatenate([H_dq.transpose(0, 2, 1), H_qq, H_qt], axis=2),
        np.concatenate([H_dt.transpose(0, 2, 1), H_qt.transpose(0, 2, 1), H_tt], axis=2)],
        axis=1)
    scale = np.abs(lam).max(axis=1)
    gap = lam[:, 1:] - lam[:, :1]
    inv = np.divide(-2.0, gap, out=np.zeros_like(gap), where=gap > 1e-9 * scale[:, None])
    C = np.einsum("bdk,bjd->bkj", X[:, :, 1:], s)
    H += np.einsum("bkj,bk,bkl->bjl", C, inv, C)
    return lam[:, 0], grad, H, scale


class TestCurvatureReference:
    """curvature against the einsum reference it replaced, to rounding."""

    @staticmethod
    def assert_close(got, ref):
        for new, old in zip(got, ref):
            assert new.shape == old.shape
            np.testing.assert_array_less(np.abs(new - old), 1e-12 * np.maximum(1.0, np.abs(old)))

    @classmethod
    def assert_matches(cls, problem, W, t):
        full = problem.curvature(W, t)
        cls.assert_close(full, _einsum_curvature(problem, W, t))
        # a margin search's curvature has no t coordinate: the full one with
        # its t row and column dropped
        lam, grad, hess, scale = full
        cls.assert_close(problem.curvature(W, t, with_t=False),
                         (lam, grad[:, :-1], hess[:, :-1, :-1], scale))

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (2, 3), (3, 2), (2, 1), (3, 1)])
    def test_matches_reference(self, kind, test_field, n, m):
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, kind, test_field)
        rng = np.random.default_rng(n + m)
        W = problem._normalize(rng.standard_normal((6, problem.dim)))
        for t in (-0.5, 0.0, 0.3, rng.uniform(-0.6, 0.6, 6)):
            self.assert_matches(problem, W, t)

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 1)])
    def test_matches_reference_at_double_lambda_min(self, n, m):
        # complex direction-frozen rows at t = 0, where lambda_min is double
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=10 * n + m)
        problem = conditions._make_problem(A, "lh", "complex")
        W = problem._normalize(np.random.default_rng(1).standard_normal((4, problem.dim)))
        lam = problem._eig(W, 0.0)[0]
        assert np.allclose(lam[:, 0], lam[:, 1], rtol=0, atol=1e-12)
        self.assert_matches(problem, W, 0.0)


class TestPolish:
    def test_flat_start_batch_evaluates_once(self):
        # the isotropic Lame tensor's real strong margin at t = 0.5 has zero
        # tangent gradient at every direction: every row stops on its
        # predicted decrease before any trial
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        problem = conditions._make_problem(A, "strong", "real")
        W = conditions._starts(pe.SearchConfig(seed=0), 16, problem.dim)
        calls = []
        fg = _margin_fg(problem, 0.5)

        def counted(W, rows):
            calls.append(len(rows))
            return fg(W, rows)

        res = conditions.minimize(problem, counted, W)
        assert calls == [16] and res.nit == 1

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    def test_batch_size_invariance(self, kind):
        # rows never interact: polishing 16 together ends each row where
        # polishing it alone does
        A = pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=501)
        problem = conditions._make_problem(A, kind, "complex")
        W = conditions._starts(pe.SearchConfig(seed=1), 16, problem.dim)
        fg = _margin_fg(problem, 0.4)
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
        res = conditions.minimize(problem, _margin_fg(problem, -0.3), W)
        assert np.all(res.fun <= problem.values(W, -0.3))


def _bfgs_minimize(problem, fg, W):
    """The batched Riemannian BFGS polish that the Newton ``minimize``
    replaced, kept as the differential tests' reference; it reads only the
    values and gradients of fg. Batched Riemannian BFGS from every row of W
    (Huang, Gallivan & Absil, 2015), retracted by ``problem._normalize``. Each row keeps an
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
    f, g = fg(x, live)[:2]
    g = problem._tangent(x, g)
    H = np.zeros((*x.shape, x.shape[1]))
    step = np.ones(len(x))
    nit, nfev = 0, len(x)
    while live.size and nit < conditions.POLISH_STEPS:
        nit += 1
        gl = g[live]
        d = -problem._tangent(x[live], np.einsum("bij,bj->bi", H[live], gl))
        slope = np.sum(d * gl, axis=1)
        steep = ~(slope < 0.0)
        d[steep], slope[steep] = -gl[steep], -np.sum(gl[steep] ** 2, axis=1)
        trial = problem._normalize(x[live] + step[live, None] * d)
        ft, gt = fg(trial, live)[:2]
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
    return conditions.PolishResult(x=x, fun=f, nit=nit, nfev=nfev)


def _bb_minimize(problem, fg, W):
    """The Barzilai-Borwein gradient polish that the BFGS ``minimize``
    replaced, kept as the differential tests' reference: tangent steps of
    BB length with Armijo backtracking and the same stop rules."""
    x = problem._normalize(np.asarray(W, dtype=float))
    live = np.arange(len(x))
    f, g = fg(x, live)[:2]
    g = problem._tangent(x, g)
    step = np.ones(len(x))
    nit, nfev = 0, len(x)
    while live.size and nit < conditions.POLISH_STEPS:
        nit += 1
        gg = np.sum(g[live] ** 2, axis=1)
        trial = problem._normalize(x[live] - step[live, None] * g[live])
        ft, gt = fg(trial, live)[:2]
        gt = problem._tangent(trial, gt)
        nfev += live.size
        ok = ft <= f[live] - 1e-4 * step[live] * gg
        done = np.where(ok, f[live] - ft <= 1e-13 * np.abs(ft),
                        0.5 * step[live] * np.sqrt(gg) < 1e-15)
        acc = live[ok]
        s, dg = trial[ok] - x[acc], gt[ok] - g[acc]
        sy = np.sum(s * dg, axis=1)
        step[acc] = np.divide(np.sum(s * s, axis=1), sy, out=step[acc], where=sy > 0.0)
        step[live[~ok]] *= 0.5
        x[acc], f[acc], g[acc] = trial[ok], ft[ok], gt[ok]
        live = live[~done]
    return conditions.PolishResult(x=x, fun=f, nit=nit, nfev=nfev)


def _two_polish_threshold_ends(A, kind, cfg):
    """``threshold_ends`` as it was before both sides shared one polish, kept
    as the differential test's reference: each side ran its own
    ``minimize`` of its best POLISHED starts."""
    problem = conditions._make_problem(A, kind, cfg.resolve_field(A))
    starts = conditions._starts(cfg, 4 * cfg.outer_starts, problem.dim)
    t_lo, t_hi = problem.thresholds(starts)
    if not t_hi.all():
        return 0.0, 0.0

    def search(side, values):
        def fg(W, rows):
            t = problem.thresholds(W)[side]
            grad, hess, scale = conditions._end_derivatives(problem, W, t)
            return (t, grad, hess, scale) if side else (-t, -grad, -hess, scale)

        best = starts[np.argsort(values)[:conditions.POLISHED]]
        return float(conditions.minimize(problem, fg, best).fun.min())

    return -search(0, -t_lo), search(1, t_hi)


class TestPolishReference:
    """The Newton polish against the BFGS one it replaced and against
    oracle.brute_margin, on a fixed generated batch of real and complex
    tensors."""

    BATCH = make_batch(8, 600)

    def test_batch_has_real_and_complex_tensors(self):
        assert {A.is_real for A in self.BATCH} == {True, False}

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("t", [-0.3, 0.2, 0.4])
    def test_margins_no_higher(self, monkeypatch, kind, t):
        search = pe.strong_margin if kind == "strong" else pe.lh_margin
        cfg = pe.SearchConfig(t=t, seed=3)
        new = [search(A, cfg).value for A in self.BATCH]
        monkeypatch.setattr(conditions, "minimize", _bfgs_minimize)
        old = [search(A, cfg).value for A in self.BATCH]
        for A, got, ref in zip(self.BATCH, new, old):
            assert got <= ref + 1e-9
            assert got <= pe.brute_margin(A, t, kind, pe.OracleConfig()) + 1e-9

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    def test_threshold_ends_no_wider(self, monkeypatch, kind):
        cfg = pe.SearchConfig(seed=3)
        new = [conditions.threshold_ends(A, kind, cfg) for A in self.BATCH]
        monkeypatch.setattr(conditions, "minimize", _bfgs_minimize)
        old = [conditions.threshold_ends(A, kind, cfg) for A in self.BATCH]
        for (lo, hi), (ref_lo, ref_hi) in zip(new, old):
            assert lo >= ref_lo - 1e-9 and hi <= ref_hi + 1e-9

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    def test_threshold_ends_match_two_polishes(self, kind, test_field):
        # rows never interact inside minimize, so polishing both sides in
        # one batch leaves every end bit-identical; collapsed problems
        # polish nothing (TestCollapsed.test_exact_path_matches_search)
        cfg = pe.SearchConfig(seed=3, test_field=test_field)
        searched = [A for A in self.BATCH
                    if not conditions._make_problem(A, kind, test_field).collapsed]
        assert len(searched) >= 5
        for A in searched:
            assert conditions.threshold_ends(A, kind, cfg) == _two_polish_threshold_ends(A, kind, cfg)

    @pytest.mark.parametrize("kind, test_field, cap", [
        ("lh", "real", 60), ("lh", "complex", 60),
        ("strong", "real", 40), ("strong", "complex", 40)])
    def test_step_counts(self, kind, test_field, cap):
        # the Barzilai-Borwein polish took 174, 148, 24 and 19 steps here
        A = pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=501)
        problem = conditions._make_problem(A, kind, test_field)
        W = conditions._starts(pe.SearchConfig(seed=1), 16, problem.dim)
        res = conditions.minimize(problem, _margin_fg(problem, 0.4), W)
        assert res.nit <= cap
        assert res.fun.min() <= _bb_minimize(
            problem, _margin_fg(problem, 0.4), W).fun.min() + 1e-12

    @pytest.mark.parametrize("kind, test_field, cap", [
        ("lh", "real", 25), ("lh", "complex", 25),
        ("strong", "real", 12), ("strong", "complex", 12)])
    def test_newton_step_counts(self, kind, test_field, cap):
        # the caps of test_step_counts, tightened for the Newton polish
        A = pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=501)
        problem = conditions._make_problem(A, kind, test_field)
        W = conditions._starts(pe.SearchConfig(seed=1), 16, problem.dim)
        res = conditions.minimize(problem, _margin_fg(problem, 0.4), W)
        assert res.nit <= cap
        assert res.fun.min() <= _bfgs_minimize(
            problem, _margin_fg(problem, 0.4), W).fun.min() + 1e-12


def _lame_at_r_star(n, lam, mu):
    return pe.lame_tensor(lam, mu, pe.sufficient_constant(n, lam, mu).r_star, n)


def _scalar_end(A):
    """sup of the c in [0, 1) where scalar_p_margin at p = 2/(1 - c) is
    positive, by bisection: the margin is the smallest eigenvalue of a
    matrix affine in c, so it is concave and the set is an interval."""
    def positive(c):
        return pe.scalar_p_margin(A, 2.0 / (1.0 - c)) > 0.0

    if positive(1.0 - 1e-15):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return lo


class TestCollapsed:
    """Strong problems whose direction set is one orbit of a symmetry of G
    (m = 1, and real fields on rotation-invariant n = m tensors) take one
    eigensolve per t and one threshold solve per range."""

    M1 = [A for A in make_batch(200, 5000) if A.m == 1]   # criterion 5's m = 1 tensors
    LAME = [_lame_at_r_star(n, lam, mu) for n in (2, 3, 4)
            for lam, mu in ((1.0, 1.0), (-0.9, 0.7), (3.0, 0.5))]

    def test_every_direction_gives_the_same_value(self):
        cases = [(A, "real") for A in self.LAME + TestPolishReference.BATCH]
        cases += [(A, "real") for A in self.M1[:4]] + [(A, "complex") for A in self.M1[:8]]
        cases += [(pe.lame_tensor(1.0, 1.0, r, 3), "real") for r in (-1.0, 0.0, 2.5)]
        cases += [(pe.CoefficientTensor.identity(2, 2), "real"),
                  (pe.CoefficientTensor.from_matrix(np.array([[-1.0]])), "complex")]
        problems = [conditions._make_problem(A, "strong", field) for A, field in cases]
        problems = [problem for problem in problems if problem.collapsed]
        assert len(problems) >= 25
        rng = np.random.default_rng(25)
        for problem in problems:
            W = rng.standard_normal((64, problem.dim))
            for t in (-0.5, 0.3, 0.7):
                values = problem.values(W, t)
                assert values.max() - values.min() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_moved_entry_is_not_collapsed(self, n):
        A = _lame_at_r_star(n, 1.0, 1.0)
        assert conditions._make_problem(A, "strong", "real").collapsed
        for index in np.ndindex(A.entries.shape):
            entries = A.entries.copy()
            entries[index] += 1e-9
            moved = pe.CoefficientTensor(entries)
            assert not conditions._make_problem(moved, "strong", "real").collapsed, index

    def test_rotation_generators_are_built_once_per_n(self):
        for n in (2, 3, 4):
            K = conditions._rotation_generators(n)
            assert K is conditions._rotation_generators(n)
            assert K.shape == (n * (n - 1) // 2, n * n, n * n) and not K.flags.writeable

    def test_searched_problems_are_not_collapsed(self):
        lame = _lame_at_r_star(3, 1.0, 1.0)
        assert not conditions._make_problem(lame, "strong", "complex").collapsed
        assert not conditions._make_problem(lame, "lh", "real").collapsed
        assert not conditions._make_problem(self.M1[0], "lh", "complex").collapsed
        for n, m in ((2, 2), (3, 3), (2, 3)):
            A = pe.random_elliptic_tensor(n, m, "hermitian-positive", seed=n + m)
            assert not conditions._make_problem(A, "strong", "real").collapsed

    def test_lame_n2_ends_are_the_closed_form(self):
        cfg = pe.SearchConfig()
        for mu in (0.5, 1.0, 2.0):
            for a in np.linspace(-1.8, 3.5, 12):
                lam = a * mu
                s = (lam + mu) / (lam + 3.0 * mu)
                t_lo, t_hi = conditions.threshold_ends(_lame_at_r_star(2, lam, mu), "strong", cfg)
                assert t_hi == pytest.approx(np.sqrt(1.0 - s * s), abs=1e-12)
                assert t_lo == pytest.approx(-np.sqrt(1.0 - s * s), abs=1e-12)

    def test_lame_n3_end_is_c_lower(self):
        cfg = pe.SearchConfig()
        for mu in (0.5, 1.0, 2.0):
            for a in np.linspace(-1.8, 3.5, 12):
                lam = a * mu
                c_lower = pe.sufficient_constant(3, lam, mu).c_lower
                t_hi = conditions.threshold_ends(_lame_at_r_star(3, lam, mu), "strong", cfg)[1]
                assert t_hi * t_hi == pytest.approx(c_lower, abs=1e-12)

    def test_m1_range_is_where_the_scalar_margin_is_positive(self):
        cfg = pe.SearchConfig(seed=5)
        assert len(self.M1) >= 30
        for A in self.M1:
            t_lo, t_hi = conditions.threshold_ends(A, "strong", cfg)
            end = _scalar_end(A)
            assert t_hi == pytest.approx(end, abs=1e-12)
            assert t_lo == pytest.approx(-end, abs=1e-12)

    def test_m1_margin_sign_is_the_scalar_sign(self):
        checked = 0
        for A in self.M1:
            for t in np.linspace(-0.95, 0.95, 9):
                strong = pe.strong_margin(A, pe.SearchConfig(t=t, seed=5)).value
                scalar = pe.scalar_p_margin(A, 2.0 / (1.0 - t))
                if max(abs(strong), abs(scalar)) > 1e-9:
                    assert np.sign(strong) == np.sign(scalar), (t, strong, scalar)
                    checked += strong < 0.0
        assert checked > 0   # the grid reaches beyond some ranges

    def test_exact_path_runs_no_search(self, monkeypatch):
        polishes = []
        minimize = conditions.minimize
        monkeypatch.setattr(conditions, "minimize",
                            lambda *args: polishes.append(1) or minimize(*args))
        A = self.LAME[3]
        margin = pe.strong_margin(A, pe.SearchConfig(t=0.4, seed=1))
        assert (margin.evaluations, margin.polish_steps) == (1, 0)
        assert pe.margin_curve(A, [0.1, 0.2, 0.3]).shape == (3,)
        assert not pe.condition_range(A, "strong", pe.SearchConfig(seed=1)).empty
        assert polishes == []
        # the seed draws nothing: every seed gives the same answer
        assert pe.strong_margin(A, pe.SearchConfig(t=0.4, seed=2)).value == margin.value

    @pytest.mark.parametrize("test_field", ["real", "complex"])
    def test_exact_path_matches_search(self, monkeypatch, test_field):
        tensors = [A for A in self.LAME[:6] + self.M1[:6] + TestPolishReference.BATCH
                   if conditions._make_problem(A, "strong", test_field).collapsed]
        assert len(tensors) >= 7
        ts = [-0.5, 0.3, 0.7]

        def answers(A):
            cfg = pe.SearchConfig(seed=3, test_field=test_field)
            margins = [pe.strong_margin(A, pe.SearchConfig(t=t, seed=3, test_field=test_field)).value
                       for t in ts]
            return (*margins, *pe.margin_curve(A, ts, "strong", cfg),
                    *conditions.threshold_ends(A, "strong", cfg))

        exact = [answers(A) for A in tensors]
        make_problem = conditions._make_problem

        def searched_problem(*args):
            problem = make_problem(*args)
            problem.collapsed = False   # the direction search, as before the exact path
            return problem

        monkeypatch.setattr(conditions, "_make_problem", searched_problem)
        searched = [answers(A) for A in tensors]
        assert np.abs(np.subtract(exact, searched)).max() <= 1e-12


class TestStrongAtZero:
    """At t = 0, I + 0 Pi = I exactly, so S(0) = sym(G) bit for bit at every
    direction: a strong margin there is one eigensolve at e_1."""

    BATCH = TestPolishReference.BATCH

    @staticmethod
    def composite_lambda_min(A):
        # Re<A xi, xi> = xi^H C xi with C[(k, b), (h, a)] = A[h, k, a, b]; a
        # real C has the same lambda_min over real and complex states
        C = np.transpose(A.entries, (1, 3, 0, 2)).reshape(A.n * A.m, A.n * A.m)
        return np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0]

    def test_margin_is_the_composite_lambda_min(self):
        assert {A.is_real for A in self.BATCH} == {True, False}
        for A in self.BATCH:
            margin = pe.strong_margin(A, pe.SearchConfig(t=0.0, seed=3))
            assert (margin.evaluations, margin.polish_steps) == (1, 0)
            assert margin.value == pytest.approx(self.composite_lambda_min(A), abs=1e-12)
            wit = margin.witness
            assert pe.strong_form_value(A, 0.0, wit.xi, wit.omega) == pytest.approx(
                margin.value, abs=1e-12)

    def test_lh_margin_is_still_searched(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=7)
        assert pe.lh_margin(A, pe.SearchConfig(t=0.0, seed=3)).polish_steps > 0

    def test_margin_curve_through_zero_keeps_its_values(self, monkeypatch):
        ts = [-0.4, 0.0, 0.3]
        cfg = pe.SearchConfig(seed=3)
        exact = [pe.margin_curve(A, ts, "strong", cfg) for A in self.BATCH]
        # the search at t = 0 too, as before the t = 0 path
        monkeypatch.setattr(conditions._StrongProblem, "collapsed_at",
                            conditions._FormProblem.collapsed_at)
        searched = [pe.margin_curve(A, ts, "strong", cfg) for A in self.BATCH]
        assert np.abs(np.subtract(exact, searched)).max() <= 1e-12


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

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_range_rejected(self, seed):
        # checked here, since a collapsed problem draws no starts
        with pytest.raises(InputError, match=r"seed must lie in \[0, 2\*\*32\)"):
            pe.SearchConfig(seed=seed)

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
