"""Exponent-interval computation: conversions, threshold ends, duality, fields."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pelliptic as pe
from pelliptic import conditions, prange
from pelliptic.cli import main, tensor_to_json
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

    @pytest.mark.parametrize("n,m,style,seed,kind,cfg_seed", [
        pytest.param(2, 2, "hermitian-positive", 1, "strong", 1, id="2-2-1"),
        pytest.param(2, 3, "hermitian-positive", 202, "strong", 1, id="2-3-202"),
        pytest.param(3, 3, "hermitian-positive", 400, "strong", 1, id="3-3-400"),
        # a direction-frozen range that a stalled search left too wide
        pytest.param(3, 3, "legendre-perturbed", 5142, "lh", 5, id="3-3-5142-lh"),
    ])
    def test_margin_positive_just_inside_both_ends(self, n, m, style, seed, kind, cfg_seed):
        # and negative just outside them
        A = pe.random_elliptic_tensor(n, m, style, seed=seed)
        r = pe.condition_range(A, kind, pe.SearchConfig(seed=cfg_seed))
        oracle = pe.OracleConfig()
        for end, inward in ((r.t_hi, -1e-3), (r.t_lo, 1e-3)):
            assert pe.brute_margin(A, end + inward, kind, oracle) > 0.0
            assert pe.brute_margin(A, end - inward, kind, oracle) < 0.0

    def test_range_does_not_depend_on_seed(self):
        # a complex tensor whose minimising direction some seeds' starts miss
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=1155349265)
        ends = np.array([
            [r.t_lo, r.t_hi]
            for r in (pe.condition_range(A, "strong", pe.SearchConfig(seed=s)) for s in range(1, 9))
        ])
        assert np.ptp(ends, axis=0).max() <= 1e-9
        assert ends[0, 1] == pytest.approx(0.264741, abs=1e-6)
        assert pe.duality_residual(A, "strong", pe.SearchConfig(seed=1)) <= 1e-9


def _shifted(A, c):
    """A - c I: every t = 0 form value of a unit test object drops by c."""
    return pe.CoefficientTensor(A.entries - c * pe.CoefficientTensor.identity(A.n, A.m).entries)


def _exact_strong_margin(A):
    """Smallest eigenvalue of the Hermitian part of the (n m) x (n m)
    matrix M with Re x^H M x = Re <A xi, xi> (complex tensors, complex
    states)."""
    d = A.n * A.m
    M = A.entries.transpose(1, 3, 0, 2).reshape(d, d)
    return float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[0])


class TestEmptyRange:
    """A range is empty exactly when the t = 0 (classical) condition fails,
    and that verdict costs one threshold evaluation of the start batch."""

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    def test_empty_range_runs_no_polish(self, monkeypatch, kind):
        if kind == "strong":
            A = pe.CoefficientTensor.from_matrix(np.array([[-1.0]]))
        else:
            B = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=7)
            A = _shifted(B, pe.brute_margin(B, 0.0, "lh", pe.OracleConfig()) + 0.05)
        polishes, evaluations = [], []
        minimize, thresholds = conditions.minimize, conditions._FormProblem.thresholds

        def counted_minimize(*args, **kwargs):
            polishes.append(1)
            return minimize(*args, **kwargs)

        def counted_thresholds(self, W):
            evaluations.append(W.shape[0])
            return thresholds(self, W)

        monkeypatch.setattr(conditions, "minimize", counted_minimize)
        monkeypatch.setattr(conditions._FormProblem, "thresholds", counted_thresholds)
        cfg = pe.SearchConfig(seed=1)
        assert pe.condition_range(A, kind, cfg).empty
        assert polishes == []
        assert evaluations == [4 * cfg.outer_starts]

    @pytest.mark.parametrize("n,m,seed,gap", [(2, 2, 0, 1e-16), (2, 3, 11, 1e-15), (3, 2, 17, 1e-16)])
    def test_near_singular_classical_form_reads_empty(self, capsys, tmp_path, n, m, seed, gap):
        # shifted to within rounding of the classical (t = 0) margin, so S0
        # is positive definite in exact arithmetic but not to working precision
        A = pe.random_elliptic_tensor(n, m, "legendre-perturbed", seed=seed)
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps(tensor_to_json(_shifted(A, _exact_strong_margin(A) - gap))))
        code = main(["range", str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["result"] == {"empty": True}
        assert "Traceback" not in err

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("style", ["hermitian-positive", "legendre-perturbed"])
    def test_strong_emptiness_is_the_classical_condition(self, n, m, style):
        A = pe.random_elliptic_tensor(n, m, style, seed=31 * n + m)
        m0 = _exact_strong_margin(A)
        for delta in (-1e-2, 1e-2):
            B = _shifted(A, m0 + delta)
            expected_empty = _exact_strong_margin(B) <= 0.0
            assert expected_empty == (delta > 0)
            assert pe.condition_range(B, "strong", pe.SearchConfig(seed=1)).empty == expected_empty

    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
    @pytest.mark.parametrize("style", ["hermitian-positive", "legendre-perturbed"])
    def test_lh_emptiness_is_the_classical_condition(self, n, m, style):
        oracle = pe.OracleConfig()
        A = pe.random_elliptic_tensor(n, m, style, seed=31 * n + m)
        m0 = pe.brute_margin(A, 0.0, "lh", oracle)
        for delta in (-1e-2, 1e-2):
            B = _shifted(A, m0 + delta)
            expected_empty = pe.brute_margin(B, 0.0, "lh", oracle) <= 0.0
            assert expected_empty == (delta > 0)
            assert pe.condition_range(B, "lh", pe.SearchConfig(seed=1)).empty == expected_empty


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

    @pytest.mark.parametrize("kind", ["strong", "lh"])
    @pytest.mark.parametrize("test_field", ["real", "complex"])
    def test_below_single_t_searches_and_concave(self, kind, test_field):
        # each point polishes the rows the single-t search polishes, and the
        # refinement and the envelope can only lower it, also at the range
        # ends, where the margin is ~1e-16
        A = pe.random_elliptic_tensor(3, 2, "legendre-perturbed", seed=7)
        cfg = pe.SearchConfig(seed=6, test_field=test_field)
        r = pe.condition_range(A, kind, cfg)
        assert -1.0 < r.t_lo and r.t_hi < 1.0
        ts = np.linspace(r.t_lo, r.t_hi, 17)
        curve = pe.margin_curve(A, ts, kind, cfg)
        search = pe.strong_margin if kind == "strong" else pe.lh_margin
        single = np.array([search(A, pe.SearchConfig(t=t, seed=6, test_field=test_field)).value
                           for t in ts])
        assert np.all(curve <= single)
        assert np.all(curve[1:-1] >= 0.5 * (curve[:-2] + curve[2:]) - 1e-6)
        assert np.array_equal(curve, pe.margin_curve(A, ts, kind, cfg))

    def test_lh_points_near_zero_converge(self):
        # near t = 0 lambda_min of this complex direction-frozen form is
        # nearly double, and the first-order polish stops at POLISH_STEPS
        # 5.8e-7 above the minimum; the curve must reach the value that
        # sequential warm starts across the grid reached, 0.2228934792798818
        A = pe.random_elliptic_tensor(3, 3, "hermitian-positive", seed=1046)
        cfg = pe.SearchConfig(seed=7)
        r = pe.condition_range(A, "lh", cfg)
        ts = np.linspace(r.t_lo, r.t_hi, 41)
        curve = pe.margin_curve(A, ts, "lh", cfg)
        single = pe.lh_margin(A, pe.SearchConfig(t=ts[19], seed=7)).value
        assert single - curve[19] > 5e-7
        assert curve[19] <= 0.2228934792798818 + 1e-12

    def test_below_every_witness_parabola(self, monkeypatch):
        # on this curve the envelope of the other points' parabolas lowers
        # some points (by ~1e-14)
        parabolas = []
        witness = conditions._FormProblem.witness

        def recording_witness(self, w, t):
            out = witness(self, w, t)
            parabolas.append(out[1])
            return out

        monkeypatch.setattr(conditions._FormProblem, "witness", recording_witness)
        A = pe.random_elliptic_tensor(3, 3, "hermitian-positive", seed=1006)
        cfg = pe.SearchConfig(seed=7)
        r = pe.condition_range(A, "lh", cfg)
        ts = np.linspace(r.t_lo, r.t_hi, 41)
        curve = pe.margin_curve(A, ts, "lh", cfg)
        assert len(parabolas) == len(ts)
        for a0, a1, a2 in parabolas:
            assert np.all(curve <= a0 + a1 * ts + a2 * ts * ts)

    def test_t_outside_rejected_and_empty_grid(self):
        A = pe.random_elliptic_tensor(2, 2, "legendre-perturbed", seed=7)
        for ts in ([0.0, 1.0], [-1.0], [0.2, np.nan]):
            with pytest.raises(InputError):
                pe.margin_curve(A, ts)
        empty = pe.margin_curve(A, [])
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


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
