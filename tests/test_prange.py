"""Exponent-interval computation: conversions, bisection, duality, fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pelliptic as pe
from pelliptic import prange
from pelliptic.errors import InputError


class TestConversions:
    def test_p_two_maps_to_zero(self):
        assert pe.t_of_p(2.0) == 0.0

    def test_dual_pair_reflects(self):
        assert pe.t_of_p(4.0) == pytest.approx(0.5)
        assert pe.t_of_p(4.0 / 3.0) == pytest.approx(-0.5)

    def test_infinity_convention(self):
        assert pe.t_of_p(math.inf) == 1.0
        assert pe.p_of_t(1.0) == math.inf

    @given(st.floats(min_value=-1.0 + 1e-12, max_value=1.0 - 1e-12))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_in_t(self, t):
        assert abs(pe.t_of_p(pe.p_of_t(t)) - t) <= 1e-15

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e9, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_in_p(self, p):
        # 1 - t loses relative precision as p grows; eps * p / 2 is the
        # attainable bound for the inverse direction
        assert pe.p_of_t(pe.t_of_p(p)) == pytest.approx(p, rel=max(1e-15, 3e-16 * p))

    def test_domain_errors(self):
        with pytest.raises(InputError):
            pe.t_of_p(1.0)
        with pytest.raises(InputError):
            pe.p_of_t(-1.0)


class TestPRange:
    def test_endpoint_exponents(self):
        r = pe.PRange(-1.0, 1.0)
        assert r.p_lo == 1.0
        assert r.p_hi == math.inf

    def test_intersection(self):
        a = pe.PRange(-0.5, 0.6)
        b = pe.PRange(-0.2, 0.9)
        c = a.intersect(b)
        assert (c.t_lo, c.t_hi) == (-0.2, 0.6)
        assert a.intersect(pe.PRange(empty=True)).empty
        assert pe.PRange(-0.5, -0.3).intersect(pe.PRange(0.1, 0.2)).empty

    def test_invalid_ordering_rejected(self):
        with pytest.raises(InputError):
            pe.PRange(0.5, -0.5)


class TestConditionRange:
    def test_identity_full_range(self):
        r = pe.condition_range(pe.CoefficientTensor.identity(2, 2), "strong",
                               pe.SearchConfig(seed=0))
        assert (r.t_lo, r.t_hi) == (-1.0, 1.0)
        assert r.p_lo == 1.0 and r.p_hi == math.inf

    def test_real_scalar_full_range(self):
        rng = np.random.default_rng(1)
        B = rng.standard_normal((2, 2))
        A = pe.CoefficientTensor.from_matrix(B @ B.T + 0.4 * np.eye(2))
        r = pe.condition_range(A, "strong", pe.SearchConfig(seed=1))
        assert (r.t_lo, r.t_hi) == (-1.0, 1.0)

    def test_lame_range_matches_closed_form(self):
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        r = pe.condition_range(A, "strong", pe.SearchConfig(seed=2))
        target = math.sqrt(0.75)
        assert abs(r.t_hi - target) <= 5e-3
        assert abs(r.t_lo + target) <= 5e-3
        assert r.p_lo == pytest.approx(1.0718, abs=2e-3)
        assert r.p_hi == pytest.approx(14.928, abs=0.15)

    def test_non_legendre_tensor_gives_empty(self):
        A = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        r = pe.condition_range(A, "strong", pe.SearchConfig(seed=3))
        assert r.empty

    def test_range_contains_zero_when_nonempty(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=5)
        r = pe.condition_range(A, "strong", pe.SearchConfig(seed=4))
        assert not r.empty
        assert r.t_lo < 0.0 < r.t_hi

    def test_lh_range_contains_strong_range(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=6)
        cfg = pe.SearchConfig(seed=5)
        strong = pe.condition_range(A, "strong", cfg)
        lh = pe.condition_range(A, "legendre-hadamard", cfg)
        assert lh.t_lo <= strong.t_lo + 2e-4
        assert lh.t_hi >= strong.t_hi - 2e-4


class TestMarginCurve:
    def test_concave_and_contiguous_inside_range(self):
        A = pe.random_elliptic_tensor(3, 2, "legendre-perturbed", seed=7)
        cfg = pe.SearchConfig(seed=6)
        r = pe.condition_range(A, "strong", cfg)
        ts = np.linspace(r.t_lo, r.t_hi, 41)
        curve = pe.margin_curve(A, ts, "strong", cfg)
        mids = 0.5 * (curve[:-2] + curve[2:])
        assert np.all(curve[1:-1] >= mids - 1e-6)
        positive = curve > 0
        if positive.any():
            i, j = np.argmax(positive), len(positive) - 1 - np.argmax(positive[::-1])
            assert positive[i : j + 1].all()


class TestFieldRange:
    def test_constant_field_delegates(self):
        A = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        cfg = pe.SearchConfig(seed=7)
        direct = pe.condition_range(A, "strong", cfg)
        via_field = pe.field_range(pe.TensorField.constant(A), "strong", cfg)
        assert (direct.t_lo, direct.t_hi) == (via_field.t_lo, via_field.t_hi)

    def test_two_sample_intersection_takes_smaller(self):
        lame = pe.lame_tensor(1.0, 1.0, 0.5, 2)
        ident = pe.CoefficientTensor.identity(2, 2)
        F = pe.TensorField.sampled([ident, lame], grid=(2,))
        cfg = pe.SearchConfig(seed=8)
        combined = pe.field_range(F, "strong", cfg)
        alone = pe.condition_range(lame, "strong", cfg)
        assert combined.t_lo == pytest.approx(alone.t_lo, abs=1e-12)
        assert combined.t_hi == pytest.approx(alone.t_hi, abs=1e-12)

    def test_non_legendre_sample_empties_the_field(self):
        good = pe.CoefficientTensor.from_matrix(np.eye(1))
        bad = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        F = pe.TensorField.sampled([good, bad], grid=(2,))
        assert pe.field_range(F, "strong", pe.SearchConfig(seed=9)).empty

    def test_empty_first_sample_stops_the_search(self, monkeypatch):
        original = prange.condition_range
        calls = []

        def counted(tensor, kind, cfg):
            calls.append(tensor)
            return original(tensor, kind, cfg)

        monkeypatch.setattr(prange, "condition_range", counted)
        bad = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        good = pe.CoefficientTensor.from_matrix(np.eye(1))
        F = pe.TensorField.sampled([bad, good, good], grid=(3,))
        assert pe.field_range(F, "strong", pe.SearchConfig(seed=9)).empty
        assert len(calls) == 1

    def test_sample_failure_keeps_type_and_partial(self, monkeypatch):
        def fail_on_sample_one(tensor, kind, cfg):
            if tensor.entries[0, 0, 0, 0] == 2.0:
                raise pe.NumericalFailureError("solve failed", partial="STATE")
            return pe.PRange(-0.5, 0.5)

        monkeypatch.setattr(prange, "condition_range", fail_on_sample_one)
        tensors = [pe.CoefficientTensor.from_matrix(k * np.eye(2)) for k in (1.0, 2.0, 3.0)]
        F = pe.TensorField.sampled(tensors, grid=(3,))
        with pytest.raises(pe.NumericalFailureError) as info:
            pe.field_range(F, "strong", pe.SearchConfig(seed=12))
        assert info.value.partial == "STATE"
        assert str(info.value) == "sample 1: solve failed"

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(10)
        tensors = [
            pe.lame_tensor(0.5 + rng.random(), 0.5 + rng.random(), 0.1, 2)
            for _ in range(9)
        ]
        F = pe.TensorField.sampled(
            np.stack([t.entries for t in tensors]).reshape((3, 3, 2, 2, 2, 2)),
            grid=(3, 3),
            periodic=True,
        )
        cfg = pe.SearchConfig(seed=11)
        base = pe.field_range(F, "strong", cfg)
        for eps in (1.0, 0.5, 0.25):
            resc = pe.field_range(F.rescaled(eps), "strong", cfg)
            assert resc.t_lo == pytest.approx(base.t_lo, abs=1e-9)
            assert resc.t_hi == pytest.approx(base.t_hi, abs=1e-9)


class TestDualityResidual:
    def test_identity_reflects_exactly(self):
        res = pe.duality_residual(pe.CoefficientTensor.identity(2, 2), "strong",
                                  pe.SearchConfig(seed=12))
        assert res <= 2e-4

    def test_real_symmetric_tensor_is_symmetric(self):
        A = pe.lame_tensor(0.8, 1.1, 0.3, 2)
        res = pe.duality_residual(A, "strong", pe.SearchConfig(seed=13))
        assert res <= 2e-4

    def test_random_complex_tensors(self):
        for seed in range(3):
            A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=60 + seed)
            res = pe.duality_residual(A, "strong", pe.SearchConfig(seed=14))
            assert res <= 1e-3

    def test_empty_range_rejected(self):
        A = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        with pytest.raises(InputError):
            pe.duality_residual(A, "strong", pe.SearchConfig(seed=15))
