"""Tensor core: pairings, projections, adjoints, field sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pelliptic as pe
from pelliptic.errors import DimensionMismatchError, InputError


def random_tensor(n, m, seed, real=False):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n, n, m, m))
    if not real:
        e = e + 1j * rng.standard_normal((n, n, m, m))
    return pe.CoefficientTensor(e)


def random_state(n, m, seed, real=False):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, m))
    if not real:
        c = c + 1j * rng.standard_normal((n, m))
    return pe.GradientState(c)


class TestRealPairing:
    def test_identity_pairing_is_one_on_unit_states(self):
        A = pe.CoefficientTensor.identity(3, 2)
        xi = random_state(3, 2, 0)
        xi = pe.GradientState(xi.components / xi.norm())
        assert pe.real_pairing(A, xi, xi) == pytest.approx(1.0, abs=1e-12)

    def test_purely_imaginary_scalar_pairs_to_zero(self):
        A = pe.CoefficientTensor(np.array(1j).reshape(1, 1, 1, 1))
        xi = pe.GradientState(np.ones((1, 1), dtype=complex))
        assert pe.real_pairing(A, xi, xi) == pytest.approx(0.0, abs=1e-15)

    def test_lame_e11_pairing_gives_lam_plus_two_mu(self):
        # A[0,0,0,0] = mu + (lam+r) + (mu-r) = lam + 2 mu, independent of r
        A = pe.lame_tensor(1.0, 1.0, 0.0, 2)
        e11 = np.zeros((2, 2), dtype=complex)
        e11[0, 0] = 1.0
        xi = pe.GradientState(e11)
        assert pe.real_pairing(A, xi, xi) == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        A = pe.CoefficientTensor.identity(2, 2)
        with pytest.raises(DimensionMismatchError):
            pe.real_pairing(A, random_state(3, 2, 1), random_state(3, 2, 2))

    def test_bilinear_in_real_and_imaginary_parts(self):
        A = random_tensor(2, 2, 3)
        x1, x2, y = (random_state(2, 2, s) for s in (4, 5, 6))
        lhs = pe.real_pairing(A, pe.GradientState(x1.components + x2.components), y)
        rhs = pe.real_pairing(A, x1, y) + pe.real_pairing(A, x2, y)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestProjectState:
    def test_real_basis_direction_extracts_real_part(self):
        omega = pe.UnitState(np.array([1.0, 0.0], dtype=complex))
        xi = random_state(3, 2, 7)
        out = pe.project_state(xi, omega)
        expected = np.zeros((3, 2), dtype=complex)
        expected[:, 0] = np.real(xi.components[:, 0])
        assert np.allclose(out.components, expected)

    def test_orthogonal_phase_projects_to_zero(self):
        omega = pe.UnitState(np.array([1j]))
        xi = pe.GradientState(np.ones((3, 1), dtype=complex))
        out = pe.project_state(xi, omega)
        assert np.allclose(out.components, 0.0)

    def test_projection_never_expands(self):
        # checked on a large random batch since the contraction is the
        # property everything downstream leans on
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            xi = pe.GradientState(
                rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            )
            omega = pe.UnitState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            assert pe.project_state(xi, omega).norm() <= xi.norm() + 1e-12

    def test_projection_is_idempotent(self):
        rng = np.random.default_rng(12)
        xi = random_state(3, 3, 13)
        omega = pe.UnitState(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        once = pe.project_state(xi, omega)
        twice = pe.project_state(once, omega)
        assert np.allclose(once.components, twice.components, atol=1e-12)


class TestAdjoint:
    def test_real_symmetric_tensor_is_self_adjoint(self):
        A = pe.lame_tensor(1.3, 0.7, 0.2, 3)
        assert np.allclose(pe.adjoint(A).entries, A.entries)

    def test_scalar_imaginary_conjugates(self):
        A = pe.CoefficientTensor(np.array(1j).reshape(1, 1, 1, 1))
        assert pe.adjoint(A).entries[0, 0, 0, 0] == -1j

    def test_pairing_identity(self):
        A = random_tensor(3, 2, 20)
        xi, eta = random_state(3, 2, 21), random_state(3, 2, 22)
        lhs = pe.real_pairing(A, xi, eta)
        rhs = pe.real_pairing(pe.adjoint(A), eta, xi)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_involution_is_exact(self):
        A = random_tensor(2, 3, 23)
        assert np.array_equal(pe.adjoint(pe.adjoint(A)).entries, A.entries)

    def test_diagonal_pairing_sees_only_hermitian_part(self):
        A = random_tensor(2, 2, 24)
        H = pe.hermitian_part(A)
        xi = random_state(2, 2, 25)
        assert pe.real_pairing(A, xi, xi) == pytest.approx(
            pe.real_pairing(H, xi, xi), abs=1e-12
        )


class TestUnitState:
    def test_constructor_normalizes(self):
        w = pe.UnitState(np.array([3.0, 4.0], dtype=complex))
        assert abs(np.linalg.norm(w.components) - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            pe.UnitState(np.zeros(2))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_vectors_normalize(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if np.linalg.norm(v) == 0:
            return
        w = pe.UnitState(v)
        assert abs(np.linalg.norm(w.components) - 1.0) <= 1e-12


class TestTensorValidation:
    def test_nan_rejected(self):
        e = np.zeros((1, 1, 1, 1), dtype=complex)
        e[0, 0, 0, 0] = np.nan
        with pytest.raises(InputError):
            pe.CoefficientTensor(e)

    def test_shape_rejected(self):
        with pytest.raises(InputError):
            pe.CoefficientTensor(np.zeros((2, 3, 1, 1)))

    def test_entries_are_immutable(self):
        A = pe.CoefficientTensor.identity(2, 2)
        with pytest.raises(ValueError):
            A.entries[0, 0, 0, 0] = 5.0


class TestFieldSampling:
    def test_constant_field_returns_constant(self):
        A = pe.CoefficientTensor.identity(2, 2)
        F = pe.TensorField.constant(A)
        out = pe.sample_field(F, [0.3, 0.7])
        assert np.array_equal(out.entries, A.entries)

    def test_two_point_field_nearest_rule(self):
        A0 = pe.CoefficientTensor(np.full((1, 1, 1, 1), 1.0 + 0j))
        A1 = pe.CoefficientTensor(np.full((1, 1, 1, 1), 2.0 + 0j))
        F = pe.TensorField.sampled([A0, A1], grid=(2,))
        assert pe.sample_field(F, [0.1]).entries[0, 0, 0, 0] == 1.0
        assert pe.sample_field(F, [0.4]).entries[0, 0, 0, 0] == 2.0

    def test_periodic_wrap_rule(self):
        # 4-point periodic lattice at {0, .25, .5, .75}; x/eps = 1.2 wraps to
        # 0.2, whose nearest lattice point is 0.25
        tensors = [
            pe.CoefficientTensor(np.full((1, 1, 1, 1), float(k) + 0j)) for k in range(4)
        ]
        F = pe.TensorField.sampled(tensors, grid=(4,), periodic=True)
        out = pe.sample_field(F, [0.3], eps=0.25)
        assert out.entries[0, 0, 0, 0] == 1.0

    def test_eps_on_nonperiodic_rejected(self):
        A = pe.CoefficientTensor.identity(1, 1)
        F = pe.TensorField.sampled([A, A], grid=(2,))
        with pytest.raises(InputError):
            pe.sample_field(F, [0.5], eps=0.5)
        with pytest.raises(InputError):
            pe.sample_field(pe.TensorField.constant(A), [0.5], eps=0.5)

    @pytest.mark.parametrize("eps", [0.0, -0.5, np.nan, np.inf, -np.inf, 1e-320])
    def test_eps_must_be_finite_and_positive(self, eps):
        tensors = [pe.CoefficientTensor(np.full((1, 1, 1, 1), float(k) + 0j)) for k in range(4)]
        F = pe.TensorField.sampled(tensors, grid=(4,), periodic=True)
        with pytest.raises(InputError, match="eps must be positive"):
            F.rescaled(eps)
        with pytest.raises(InputError, match="eps must be positive"):
            pe.sample_field(F, [0.7], eps=eps)

    @pytest.mark.parametrize("eps", [2.0, 1e13, 0.4])
    def test_rescaled_needs_reciprocal_of_positive_integer(self, eps):
        tensors = [pe.CoefficientTensor(np.full((1, 1, 1, 1), float(k) + 0j)) for k in range(4)]
        F = pe.TensorField.sampled(tensors, grid=(4,), periodic=True)
        with pytest.raises(InputError, match="reciprocal of a positive integer"):
            F.rescaled(eps)

    def test_rescaled_by_tiny_eps_reduces_the_factor(self):
        # 1/1e-300 is an integer in floating point; the lattice map takes it
        # modulo the grid instead of overflowing
        tensors = [pe.CoefficientTensor(np.full((1, 1, 1, 1), float(k) + 0j)) for k in range(4)]
        F = pe.TensorField.sampled(tensors, grid=(4,), periodic=True)
        k = int(round(1.0 / 1e-300))
        G = F.rescaled(1e-300)
        assert [t.entries[0, 0, 0, 0].real for t in G.iter_tensors()] == [
            float(k * i % 4) for i in range(4)]

    def test_rescaled_permutes_samples(self):
        rng = np.random.default_rng(0)
        tensors = [
            pe.CoefficientTensor((rng.standard_normal((1, 1, 1, 1)) + 0j)) for _ in range(5)
        ]
        F = pe.TensorField.sampled(tensors, grid=(5,), periodic=True)
        G = F.rescaled(0.5)
        orig = sorted(t.entries[0, 0, 0, 0].real for t in F.iter_tensors())
        resc = sorted(t.entries[0, 0, 0, 0].real for t in G.iter_tensors())
        assert np.allclose(orig, resc)
        # and the pointwise rule agrees with sample_field's eps path
        for x in (0.0, 0.2, 0.4, 0.6, 0.8):
            direct = pe.sample_field(F, [x], eps=0.5)
            via = pe.sample_field(G, [x])
            assert np.array_equal(direct.entries, via.entries)
