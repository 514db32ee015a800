"""Range arithmetic for solvability upgrades and the worst-ratio scan."""

import math
import tracemalloc

import numpy as np
import pytest

import pelliptic as pe
from pelliptic import solvability
from pelliptic.errors import InputError
from pelliptic.lame import SQRT8


def reference_scan(n, a_lo, a_hi, grid_points):
    """(p_up, a, c) of the worst ratio, one sufficient_constant per grid
    point; ties go to the smaller ratio."""
    best = (math.inf, math.inf, math.inf)
    for i in range(1, grid_points + 1):
        a = a_lo + (a_hi - a_lo) * i / (grid_points + 1)
        c = pe.sufficient_constant(n, a, 1.0).c_lower
        p_up = math.inf if c >= 1.0 else (2.0 / (1.0 - math.sqrt(c))) * (n - 1.0) / (n - 2.0)
        if p_up < best[0] or (p_up == best[0] and a < best[1]):
            best = (p_up, a, c)
    return best


class TestExtrapolation:
    def test_basic_chain(self):
        rep = pe.extrapolation_range(pe.SolvabilityQuery(n=3, q=2.0, p0=4.0))
        assert rep.p_lo == 2.0
        assert rep.p_hi == pytest.approx(8.0)
        assert rep.lower_closed

    def test_dimension_two_unbounded(self):
        rep = pe.extrapolation_range(pe.SolvabilityQuery(n=2, q=2.0, p0=3.0))
        assert rep.p_hi == math.inf

    def test_infinite_p0_unbounded(self):
        rep = pe.extrapolation_range(pe.SolvabilityQuery(n=4, q=1.5, p0=math.inf))
        assert rep.p_hi == math.inf

    def test_invariant_violation_rejected(self):
        with pytest.raises(InputError):
            pe.SolvabilityQuery(n=3, q=9.0, p0=4.0)  # q >= p0 (n-1)/(n-2) = 8

    def test_upper_endpoint_monotonicity(self):
        base = pe.extrapolation_range(pe.SolvabilityQuery(n=3, q=2.0, p0=4.0)).p_hi
        assert pe.extrapolation_range(pe.SolvabilityQuery(n=3, q=2.0, p0=5.0)).p_hi > base
        assert pe.extrapolation_range(pe.SolvabilityQuery(n=4, q=2.0, p0=4.0)).p_hi < base


class TestHomogenization:
    def test_improvement_interval(self):
        rep = pe.homogenization_range(4, 2, 3.0)
        assert rep.p_lo == 2.0
        assert rep.p_hi == pytest.approx(6.0)  # baseline 2(n-1)/(n-3) dominates
        assert any("(2, 4.5)" in note for note in rep.notes)

    def test_n3_baseline_unbounded(self):
        rep = pe.homogenization_range(3, 2, 2.5)
        assert rep.p_hi == math.inf

    def test_n4_baseline_endpoint(self):
        rep = pe.homogenization_range(4, 2, 2.1)
        assert rep.p_hi == pytest.approx(6.0)
        assert any("delta" in note for note in rep.notes)

    def test_scalar_system_unbounded(self):
        assert pe.homogenization_range(5, 1, 2.5).p_hi == math.inf

    def test_invalid_dimension(self):
        with pytest.raises(InputError):
            pe.homogenization_range(1, 1, 3.0)

    def test_nan_q_strong_rejected(self):
        with pytest.raises(InputError):
            pe.homogenization_range(3, 1, math.nan)


class TestLameCorollary:
    def test_n2_is_infinite(self):
        assert pe.lame_dirichlet_upper(2, 1.0, 1.0) == math.inf

    def test_dimension_below_two_rejected(self):
        with pytest.raises(InputError, match="dimension must be >= 2"):
            pe.lame_dirichlet_upper(1, 1.0, 1.0)

    def test_chain_consistency_n2_limit(self):
        # as lam + mu -> 0 the n = 3 endpoint diverges
        small = pe.lame_dirichlet_upper(3, -1.0 + 1e-9, 1.0)
        assert small > 1e3

    def test_n3_unit_moduli(self):
        # C_lower(3,1,1) ~ 0.6881 -> p0 ~ 11.73 -> p_up = 2 p0
        c = pe.sufficient_constant(3, 1.0, 1.0).c_lower
        expected = (2.0 / (1.0 - math.sqrt(c))) * 2.0
        assert pe.lame_dirichlet_upper(3, 1.0, 1.0) == pytest.approx(expected)

    def test_worst_ratio_endpoints(self):
        w3 = pe.worst_case_over_ratio(3)
        assert w3.p_up_star == pytest.approx(11.51, abs=0.02)
        assert w3.p_up_star > 11.50
        assert abs(w3.a_star - (1.0 + math.sqrt(8.0))) < 0.01
        w4 = pe.worst_case_over_ratio(4)
        assert w4.p_up_star == pytest.approx(8.055, abs=0.01)
        assert w4.p_up_star > 8.055 - 1e-6

    def test_asymptotic_constant(self):
        w = pe.worst_case_over_ratio(3, grid_points=200)
        assert w.asymptotic_constant == pytest.approx(4.546, abs=1e-3)
        assert w.asymptotic_endpoint == pytest.approx(4.546 * 2.0, abs=2e-3)

    def test_worst_ratio_dominates_asymptotic(self):
        for n in range(3, 11):
            w = pe.worst_case_over_ratio(n, grid_points=400)
            assert w.p_up_star >= w.asymptotic_endpoint - 1e-6

    def test_grid_floor(self):
        with pytest.raises(InputError):
            pe.worst_case_over_ratio(3, grid_points=50)

    def test_display_discrepancy_is_flagged(self):
        w = pe.worst_case_over_ratio(3, grid_points=200)
        assert any("alternative closed form" in note for note in w.notes)


class TestWorstRatioScan:
    """The vectorised scan against a per-point loop over sufficient_constant."""

    A_LO, A_HI = 1.0 - SQRT8, 1.0 + SQRT8

    @staticmethod
    def triple(w):
        return (w.p_up_star, w.a_star, w.c_star)

    @pytest.mark.parametrize("block", [None, 64])
    @pytest.mark.parametrize("grid_points", [100, 1000])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_reference_loop(self, monkeypatch, n, grid_points, block):
        if block is not None:
            monkeypatch.setattr(solvability, "_SCAN_BLOCK", block)
        expected = reference_scan(n, self.A_LO, self.A_HI, grid_points)
        w = pe.worst_case_over_ratio(n, grid_points=grid_points)
        assert self.triple(w) == expected
        if block is not None:
            first_block_end = self.A_LO + (self.A_HI - self.A_LO) * block / (grid_points + 1)
            assert w.a_star > first_block_end  # the minimum lies in a later block

    @pytest.mark.parametrize("block", [None, 99])
    def test_tie_goes_to_smaller_ratio(self, monkeypatch, block):
        # 100 points within 5e-14 of the upper end: p_up rounds to the same
        # minimum at the last two ratios; a block of 99 puts them in
        # different blocks
        if block is not None:
            monkeypatch.setattr(solvability, "_SCAN_BLOCK", block)
        a_lo, g = self.A_HI - 5e-14, 100
        p_ups = []
        for i in range(1, g + 1):
            c = pe.sufficient_constant(3, a_lo + (self.A_HI - a_lo) * i / (g + 1), 1.0).c_lower
            p_ups.append((2.0 / (1.0 - math.sqrt(c))) * 2.0)
        assert p_ups.count(min(p_ups)) >= 2
        w = pe.worst_case_over_ratio(3, a_lo=a_lo, a_hi=self.A_HI, grid_points=g)
        assert self.triple(w) == reference_scan(3, a_lo, self.A_HI, g)

    def test_memory_flat_on_large_grid(self):
        tracemalloc.start()
        try:
            w = pe.worst_case_over_ratio(3, grid_points=2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert w.p_up_star == pytest.approx(11.51, abs=0.01)

    def test_invalid_interval_rejected(self):
        with pytest.raises(InputError):
            pe.worst_case_over_ratio(3, a_lo=2.0, a_hi=1.0)
        with pytest.raises(InputError):
            pe.worst_case_over_ratio(3, a_lo=-3.0)  # lam + 2 mu <= 0 on the grid
