"""Discrete coercivity quotient, falsifier, and weighted-gradient identities."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import pelliptic as pe
from pelliptic import integral
from pelliptic.conditions import _pairing_matrix
from pelliptic.errors import InputError
from pelliptic.runtime import substream
from test_acceptance import make_batch

REFERENCE = json.loads((Path(__file__).parent / "data" / "falsifier_reference.json").read_text())


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
            grad = _forward_differences(integral._planes(arr)[0], 2, h)
            mag = np.linalg.norm(arr, axis=-1)
            gmag = _forward_differences(mag, 2, h)
            base = mag[:-1, :-1]
            mask = base > 1e-12 * mag.max()
            num = np.sum(gmag[:, mask] ** 2)
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

    # grid (16, 16) at N = 17 puts every midpoint coordinate (i + 1/2)/16 * 16
    # exactly on a rounding tie; the last one rounds to 16, which wraps to 0
    # on a periodic field and clamps to 15 otherwise. At N = 9 the same grid
    # is finer than the cells, which leave every even sample unused; a (1, 1)
    # grid gives every cell its one sample
    @pytest.mark.parametrize("grid,N", [((16, 16), 17), ((3, 5), 17), ((7, 2), 9),
                                        ((4, 4, 4), 9), ((2, 3, 5), 8), ((16, 16), 9),
                                        ((1, 1), 9)])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_cell_gather_matches_pointwise_sampling(self, grid, N, periodic):
        n = len(grid)
        rng = np.random.default_rng(sum(grid) + N)
        samples = rng.standard_normal(grid + (n, n, 2, 2)) + 1j * rng.standard_normal(grid + (n, n, 2, 2))
        F = pe.TensorField(samples, grid, periodic=periodic)
        mid = (np.arange(N - 1) + 0.5) * (1.0 / (N - 1))   # cell midpoints, as the quotient takes them
        expected = np.stack([pe.sample_field(F, np.array(x)).entries
                             for x in itertools.product(mid, repeat=n)])
        samples, index = integral._cell_tensors(F, n, N)
        assert samples.shape == (np.prod(grid), n, n, 2, 2)
        gathered = samples[index]
        assert gathered.shape == expected.shape
        assert np.array_equal(gathered, expected)

    @pytest.mark.parametrize("periodic", [False, True])
    def test_cell_gather_rounds_ties_half_to_even(self, periodic):
        # 1-D lattice of 16 points, 16 cells: midpoint i + 1/2 goes to the
        # even neighbour, and 15.5 -> 16 wraps to 0 or clamps to 15
        F = pe.TensorField(np.arange(16.0).reshape(16, 1, 1, 1, 1), (16,), periodic=periodic)
        samples, index = integral._cell_tensors(F, 1, 17)
        picked = samples[index][:, 0, 0, 0, 0].real
        even = [i + i % 2 for i in range(15)]
        assert picked.tolist() == even + [0 if periodic else 15]


def _forward_differences(x, n, h):
    """Forward differences over the last n (lattice) axes of x, at the
    cells' base corners, stacked on a new first axis: (n, ..., N-1, ..., N-1)."""
    N = x.shape[-1]
    lo = (Ellipsis,) + (slice(0, N - 1),) * n
    return np.stack([(x[(Ellipsis,) + tuple(slice(1, N) if a == d else slice(0, N - 1)
                                            for a in range(n))] - x[lo]) / h
                     for d in range(n)])


def _interior_factorization(F, p, v):
    """Ratio Q_cells(p)/Q_cells(2) over non-degenerate cells only."""
    planes = integral._planes(v.values)
    Z = integral._decompose(planes)[0][0].reshape(2, planes.shape[1], v.n, v.m, -1)
    xi, g = (np.moveaxis(integral._complex(z), -1, 0) for z in Z)
    samples, index = integral._cell_tensors(F, v.n, v.N)
    t = 1 - 2 / p
    live = np.abs(g).sum(axis=(1, 2)) > 0
    xi, g = xi[live], g[live]
    A = samples if samples.shape[0] == 1 else samples[index][live]

    def pair(x, y):
        if A.shape[0] == 1:
            return float(np.real(np.einsum("hkab,cha,ckb->", A[0], x, np.conj(y))))
        return float(np.real(np.einsum("chkab,cha,ckb->", A, x, np.conj(y))))

    return pair(xi - t * g, xi + t * g) / pair(xi, xi)


def _collect_quotients(monkeypatch, grids=None):
    """Quotients the falsifier's chunk kernel hands out, in trial order; with
    a list ``grids``, the scored grids too."""
    original = integral._scored
    quotients = []

    def collected(G, p, planes):
        for k, q in original(G, p, planes):
            quotients.append(q)
            if grids is not None:
                grids.append(integral._grid_values(planes[k]))
            yield k, q

    monkeypatch.setattr(integral, "_scored", collected)
    return quotients


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
        assert hit.trial == 289
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
        quotients = _collect_quotients(monkeypatch)
        t = np.sqrt(0.9)
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        hit = pe.falsify_integral(lame, 2.0 / (1.0 - t), trials=64, seed=13, N=17)
        assert hit is not None and 0 < hit.trial < 63
        assert len(quotients) == hit.trial + 1
        assert all(q > 0.0 for q in quotients[:-1])
        assert quotients[-1] == hit.quotient

    def test_identical_samples_match_constant_field_bitwise(self):
        p = 2.0 / (1.0 - np.sqrt(0.9))
        for n, N in ((2, 17), (2, 33), (3, 9), (3, 17)):
            A = pe.lame_tensor(1.0, 0.7, 0.3, n)
            constant = pe.TensorField.constant(A)
            grid = (3,) * n
            sampled = pe.TensorField(np.broadcast_to(A.entries, grid + A.entries.shape).copy(), grid)
            for seed in range(4):
                v = pe.random_test_grid(n, N, n, np.random.default_rng(seed))
                assert pe.discrete_quotient(sampled, p, v) == pe.discrete_quotient(constant, p, v)

    def test_real_field_draws_real_functions(self):
        lame = pe.TensorField.constant(pe.lame_tensor(1.0, 1.0, 0.5, 2))
        t = np.sqrt(0.9)
        hit = pe.falsify_integral(lame, 2.0 / (1.0 - t), trials=500, seed=3)
        assert hit is not None
        assert np.all(hit.grid.values.imag == 0.0)


def _scalar_draw_grid(n, N, m, rng, real):
    """random_test_grid as one scalar draw per coefficient and one
    multiply.outer mode per frequency tuple: the reference for the batched
    draw and the sine contraction."""
    x = np.linspace(0.0, 1.0, N)
    sines = np.stack([np.sin(np.pi * f * x) for f in range(1, 5)])
    sines[:, 0] = 0.0
    sines[:, -1] = 0.0
    bump = sines[0]
    for _ in range(n - 1):
        bump = np.multiply.outer(bump, sines[0])
    values = np.zeros((N,) * n + (m,), dtype=complex)
    for freqs in itertools.product(range(4), repeat=n):
        mode = sines[freqs[0]]
        for f in freqs[1:]:
            mode = np.multiply.outer(mode, sines[f])
        for a in range(m):
            c = rng.standard_normal() if real else rng.standard_normal() + 1j * rng.standard_normal()
            values[..., a] += c * (1.0 / (1.0 + sum(freqs))) * mode

    def direction(dim, real):
        v = rng.standard_normal(dim)
        if not real:
            v = v + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    if rng.random() < 0.6:
        carrier_dir, rider_dir, q = direction(m, real), direction(m, real), direction(n, True)
        freq = float(rng.integers(2, 5))
        phase = 2.0 * np.pi * rng.random()
        mesh = np.meshgrid(*([x] * n), indexing="ij")
        wave = np.sin(2.0 * np.pi * freq * sum(qd * g for qd, g in zip(q, mesh)) + phase)
        carrier_amp = 0.2 + 2.0 * rng.random()
        ratio = 0.15 + 0.75 * rng.random()
        noise_level = 0.02 * rng.random() * carrier_amp
        values = (carrier_amp * np.multiply.outer(bump, carrier_dir)
                  + carrier_amp * ratio * np.multiply.outer(wave * bump, rider_dir)
                  + noise_level * values / max(np.abs(values).max(), 1e-300))
    return values


class TestTestGridDraw:
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_draw_matches_scalar_draws(self, n, m, real):
        N = 17 if n == 2 else 9
        for seed in range(40):
            ours, ref = substream(seed, 1), substream(seed, 1)
            got = pe.random_test_grid(n, N, m, ours, real=real).values
            want = _scalar_draw_grid(n, N, m, ref, real)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            if real:
                assert np.all(got.imag == 0.0)
            # the stream is left where the scalar draws leave it
            assert ours.random() == ref.random()
        # the falsifier's chunk of the same trials, one plane per part and channel
        planes = integral._draw_grids(integral._lattice_tables(n, N), m,
                                      [substream(seed, 1) for seed in range(40)], real)
        assert planes.shape == (40, 1 if real else 2, m) + (N,) * n
        assert planes.flags.c_contiguous
        for seed, got in enumerate(planes):
            want = _scalar_draw_grid(n, N, m, substream(seed, 1), real)
            want = np.moveaxis(np.stack([want.real, want.imag][:len(got)]), -1, 1)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _einsum_quotient(F, p, v):
    """discrete_quotient recomputed cell by cell in complex arithmetic on the
    public layout, with one einsum over the cell tensors."""
    arr, n, N = v.values, v.n, v.N
    h, t = 1.0 / (N - 1), 1.0 - 2.0 / p
    lo = (slice(0, N - 1),) * n
    xi = np.moveaxis(_forward_differences(np.moveaxis(arr, -1, 0), n, h), (0, 1), (-2, -1))
    mag = np.linalg.norm(arr, axis=-1)
    live = mag[lo] > 1e-12 * mag.max()
    direction = np.zeros_like(arr[lo])
    direction[live] = arr[lo][live] / mag[lo][live][:, None]
    g = direction[..., None, :] * np.moveaxis(_forward_differences(mag, n, h), 0, -1)[..., None]
    xi, g = xi.reshape(-1, n, v.m), g.reshape(-1, n, v.m)
    samples, index = integral._cell_tensors(F, n, N)
    A = samples[index]
    num = np.einsum("chkab,cha,ckb->", A, xi - t * g, np.conj(xi + t * g)).real
    return num / np.sum(np.abs(xi) ** 2)


class TestCellPairing:
    """The per-cell contraction and the one-Gram-product pairing against an
    independent einsum, and which fields take which."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3])
    def test_sampled_field_matches_einsum_reference(self, n, m, real):
        N = 17 if n == 2 else 9
        grid = (3, 4) if n == 2 else (2, 3, 2)
        rng = np.random.default_rng(10 * n + m)
        samples = rng.standard_normal(grid + (n, n, m, m))
        if not real:
            samples = samples + 1j * rng.standard_normal(samples.shape)
        F = pe.TensorField(samples, grid)
        assert integral._cell_pairing(F, n, N, 1 if real else 2).shape[-1] == (N - 1) ** n
        for seed in range(3):
            v = pe.random_test_grid(n, N, m, substream(seed, 0), real=real)
            for p in (1.5, 4.0):
                want = _einsum_quotient(F, p, v)
                assert pe.discrete_quotient(F, p, v) == pytest.approx(want, abs=1e-14 * max(1.0, abs(want)))
        # the constant field of the first sample takes the Gram product
        C = pe.TensorField.constant(pe.CoefficientTensor(samples[(0,) * n]))
        v = pe.random_test_grid(n, N, m, substream(7, 0), real=real)
        want = _einsum_quotient(C, 3.0, v)
        assert pe.discrete_quotient(C, 3.0, v) == pytest.approx(want, abs=1e-14 * max(1.0, abs(want)))

    def test_uniform_fields_take_one_gram_product(self):
        A = pe.lame_tensor(1.0, 0.7, 0.3, 2)
        grid = (3, 3)
        identical = np.broadcast_to(A.entries, grid + A.entries.shape).copy()
        one_off = identical.copy()
        one_off[2, 1, 0, 0, 0, 0] += 1e-9
        for F, cells in ((pe.TensorField.constant(A), 1), (pe.TensorField(identical, grid), 1),
                         (pe.TensorField(one_off, grid), 16 ** 2)):
            assert integral._cell_pairing(F, 2, 17, 1).shape == (4, 4, cells)
        p = 2.0 / (1.0 - np.sqrt(0.9))
        assert (pe.lambda_p_estimate(pe.TensorField(identical, grid), p, trials=3, seed=2)
                == pe.lambda_p_estimate(pe.TensorField.constant(A), p, trials=3, seed=2))

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_pairing_matches_per_cell_reference(self, n, real, periodic):
        # reference: gather each cell's tensor at its midpoint, then pair
        # every cell, with the cells last
        N, m = (17, 2) if n == 2 else (9, 3)
        grid = (5, 3) if n == 2 else (3, 2, 4)
        rng = np.random.default_rng(n + 2 * real + 4 * periodic)
        samples = rng.standard_normal(grid + (n, n, m, m))
        if not real:
            samples = samples + 1j * rng.standard_normal(samples.shape)
        F = pe.TensorField(samples, grid, periodic=periodic)
        parts = 1 if real else 2
        mid = (np.arange(N - 1) + 0.5) * (1.0 / (N - 1))
        cells = np.stack([pe.sample_field(F, np.array(x)).entries
                          for x in itertools.product(mid, repeat=n)])
        want = np.moveaxis(_pairing_matrix(cells, parts), 0, -1)
        got = integral._cell_pairing(F, n, N, parts)
        assert got.shape == want.shape == (parts * n * m,) * 2 + ((N - 1) ** n,)
        assert np.array_equal(got, want)

    def test_unused_samples_leave_a_field_uniform(self):
        # at N = 9 the (16, 16) grid's cells use only its odd-odd samples
        A = pe.lame_tensor(1.0, 0.7, 0.3, 2)
        samples = np.random.default_rng(3).standard_normal((16, 16) + A.entries.shape) + 0j
        samples[1::2, 1::2] = A.entries
        F = pe.TensorField(samples, (16, 16))
        used = np.unique(integral._cell_tensors(F, 2, 9)[1])
        assert len(used) == 64 and np.all(used // 16 % 2 == 1) and np.all(used % 2 == 1)
        assert integral._cell_pairing(F, 2, 9, 1).shape == (4, 4, 1)
        constant = pe.TensorField.constant(A)
        p = 2.0 / (1.0 - np.sqrt(0.9))
        for seed in range(4):
            v = pe.random_test_grid(2, 9, 2, np.random.default_rng(seed))
            assert pe.discrete_quotient(F, p, v) == pe.discrete_quotient(constant, p, v)


class TestLatticeTables:
    """The sine table, bump, weights and coordinates a lattice's draws are
    built from: read-only, and built once per falsifier or estimate call."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_are_read_only(self, n):
        tables = integral._lattice_tables(n, 9)
        for table in (tables.sines, tables.bump, tables.weights) + tables.axes:
            with pytest.raises(ValueError):
                table[...] = 0.0

    def _count(self, monkeypatch, name):
        calls = []
        original = getattr(integral, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(integral, name, counted)
        return calls

    def test_falsifier_builds_tables_once(self, monkeypatch):
        built = self._count(monkeypatch, "_lattice_tables")
        draws = self._count(monkeypatch, "_draw_grids")
        assert pe.falsify_integral(IDENTITY_2, 3.0, trials=10, seed=0, N=33) is None
        assert len(draws) == 4   # chunks of 3 trials
        assert built == [(2, 33)]

    def test_estimate_builds_tables_once(self, monkeypatch):
        built = self._count(monkeypatch, "_lattice_tables")
        draws = self._count(monkeypatch, "_draw_grids")
        pe.lambda_p_estimate(IDENTITY_2, 3.0, trials=3, seed=0)
        assert len(draws) == 3
        assert built == [(2, 17)]


class TestFalsifierReference:
    """falsify_integral against answers recorded before the draws were
    batched: the same hit trial (or none), lowest quotients within 1e-14."""

    @staticmethod
    def _run(F, p, trials, seed, N, monkeypatch):
        quotients = _collect_quotients(monkeypatch)
        hit = pe.falsify_integral(F, p, trials=trials, seed=seed, N=N)
        monkeypatch.undo()
        return hit, min(quotients)

    def test_criterion_5_probes(self, monkeypatch):
        batch = make_batch(40, 5000)
        rows = REFERENCE["criterion_5"]
        assert len(rows) == 63
        for index, t, trial, lowest in rows:
            F = pe.TensorField.constant(batch[index])
            hit, got = self._run(F, 2.0 / (1.0 - t), 100, 5, 33, monkeypatch)
            assert trial is None and hit is None
            assert got == pytest.approx(lowest, abs=1e-14)

    def test_refuting_lame_tensors(self, monkeypatch):
        rows = REFERENCE["lame"]
        assert len(rows) == 14
        for lam, mu, r, N, t, trial, quotient in rows:
            F = pe.TensorField.constant(pe.lame_tensor(lam, mu, r, 2))
            hit, got = self._run(F, 2.0 / (1.0 - t), 300, 3, N, monkeypatch)
            assert hit is not None and hit.trial == trial
            assert hit.quotient == got
            assert hit.quotient == pytest.approx(quotient, abs=1e-14)


def _reference_cases():
    """(field, p, trials, seed, N) of every TestFalsifierReference row."""
    batch = make_batch(40, 5000)
    for index, t, _, _ in REFERENCE["criterion_5"]:
        yield pe.TensorField.constant(batch[index]), 2.0 / (1.0 - t), 100, 5, 33
    for lam, mu, r, N, t, _, _ in REFERENCE["lame"]:
        yield pe.TensorField.constant(pe.lame_tensor(lam, mu, r, 2)), 2.0 / (1.0 - t), 300, 3, N


class TestChunkedTrials:
    """The stacked chunks against one trial at a time: random_test_grid on
    trial k's substream, scored by discrete_quotient, stopping at the first
    non-positive quotient."""

    def test_chunks_match_single_trial_scoring(self, monkeypatch):
        for F, p, trials, seed, N in _reference_cases():
            grids = []
            quotients = _collect_quotients(monkeypatch, grids)
            hit = pe.falsify_integral(F, p, trials=trials, seed=seed, N=N)
            monkeypatch.undo()
            single_hit = None
            for k in range(trials):
                grid = pe.random_test_grid(F.n, N, F.m, substream(seed, k), real=F.is_real)
                q = pe.discrete_quotient(F, p, grid)
                assert np.array_equal(grids[k], grid.values)
                assert quotients[k] == pytest.approx(q, abs=1e-14)
                if q <= 0.0:
                    single_hit = k
                    break
            assert len(quotients) == k + 1
            assert (hit is None) == (single_hit is None)
            if hit is not None:
                assert hit.trial == single_hit
                assert np.array_equal(hit.grid.values, grids[-1])

    def test_hit_draws_no_later_chunk(self, monkeypatch):
        lam, mu, r, N, t, trial, _ = REFERENCE["lame"][0]
        F = pe.TensorField.constant(pe.lame_tensor(lam, mu, r, 2))
        p = 2.0 / (1.0 - t)
        drawn = []

        def counted(seed, k):
            drawn.append(k)
            return substream(seed, k)

        monkeypatch.setattr(integral, "substream", counted)
        short = pe.falsify_integral(F, p, trials=300, seed=3, N=N)
        drawn.clear()
        long = pe.falsify_integral(F, p, trials=10 ** 6, seed=3, N=N)
        assert short.trial == long.trial == trial
        assert short.quotient == long.quotient
        size = integral._chunk_size(2, N, 2)
        assert 1 < size < 300
        assert drawn == list(range((trial // size + 1) * size))

    @pytest.mark.parametrize("n", [1, 4])
    def test_unsupported_dimension_rejected_before_drawing(self, monkeypatch, n):
        def no_draw(*args):
            raise AssertionError("drew a grid")

        monkeypatch.setattr(integral, "_draw_grids", no_draw)
        F = pe.TensorField.constant(pe.CoefficientTensor.identity(n, 1))
        with pytest.raises(InputError, match=r"n in \{2, 3\}"):
            pe.falsify_integral(F, 3.0, trials=2)

    def test_chunk_size_follows_the_lattice_budget(self):
        assert integral._chunk_size(2, 33, 2) == 3
        assert integral._chunk_size(2, 17, 2) == 14
        assert integral._chunk_size(3, 65, 4) == 1
        for n, N, m in itertools.product((2, 3), (8, 17, 33, 65), (1, 2, 3, 4)):
            size = integral._chunk_size(n, N, m)
            assert size == 1 or size * N ** n * m <= integral.CHUNK_BUDGET


class TestExponentCheck:
    @pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
    def test_p_outside_open_interval_rejected(self, p):
        u = np.ones((3, 2), dtype=complex)
        g = np.ones((3, 2, 2), dtype=complex)
        v = pe.random_test_grid(2, 9, 2, np.random.default_rng(0))
        calls = [lambda: pe.discrete_quotient(IDENTITY_2, p, v),
                 lambda: pe.falsify_integral(IDENTITY_2, p, trials=2),
                 lambda: pe.lambda_p_estimate(IDENTITY_2, p, trials=2),
                 lambda: pe.power_identity_residual(u, g, p),
                 lambda: pe.power_identity_bounds_slack(u, g, p)]
        for call in calls:
            with pytest.raises(InputError, match=r"p must lie in \(1, inf\)"):
                call()


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

    @pytest.mark.parametrize("field,value,match", [
        ("quotient", np.nan, "quotient"), ("p", np.nan, "p must"), ("p", 1.0, "p must"),
        ("p", np.inf, "p must"), ("p", 0.5, "p must"), ("trial", -5, "trial")])
    def test_counterexample_must_refute(self, field, value, match):
        grid = pe.random_test_grid(2, 9, 1, np.random.default_rng(4))
        valid = dict(grid=grid, quotient=0.0, p=3.0, trial=0, seed=0)
        assert pe.Counterexample(**valid).quotient == 0.0
        with pytest.raises(InputError, match=match):
            pe.Counterexample(**{**valid, field: value})
