"""Scale slices, operator-norm estimation, ring projections, rearrangements."""

import math
import tracemalloc

import numpy as np
import pytest
from fields_oracle import white_noise
from projection_oracle import project_by_pyramid
from rearrangement_oracle import PredecessorSplit, rearrangement_op, sine_profile_family
from ring_oracle import ring_adjoint, ring_apply, ring_covers, validate_ring_family
from slice_oracle import (
    field_decomposition_residuals,
    field_op_norm2_estimate,
    grid_slice_sum_residuals,
    longdouble_slice_sum_residuals,
    range_image,
    range_start_field,
)

from haarriesz import fourier, multiscale
from haarriesz.cli import (
    EXIT_RESOURCE,
    JENSEN_BATCH,
    grid_budget,
    interp_ratio_budget,
    main,
    parse_int_list,
    ple2_budget,
    rearrange_budget,
    selftest_budget,
    semicontinuity_budget,
    tl_decay_budget,
)
from haarriesz.experiments import decomposition_residuals, ring_decay_norms
from haarriesz.fields import (
    haar_polynomials,
    random_field,
    single_haar_block,
    standard_random_field,
    standard_random_spectrum,
)
from haarriesz.fourier import resolvable, smoothing_conv
from haarriesz.grid import Direction, DyadicCube, GridFunction, axis_direction
from haarriesz.haar import directional_project, haar_analyze, level_coefficients, level_field
from haarriesz.multiscale import (
    GramForm,
    LinearFieldOp,
    default_even_family,
    default_levels,
    op_norm2_estimate,
    rearrangement_operator,
    ring_cover,
    ring_norm,
    ring_projection_operator,
    slice_sum_residuals,
    t_ell,
    t_ell_operator,
)
from haarriesz.semiconvexity import jensen_range_check, registry_integrands
from haarriesz.sharpness import (
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
    unit_square_coefficient,
)

D10 = Direction((1, 0))
D1 = Direction((1,))


def count_level_transforms(monkeypatch, n, J) -> dict[str, int]:
    """Calls, from now on, of the numpy.fft real and n-D transforms on a
    level-J array: a (2^J,)*n grid or its rfftn half spectrum.  Counted
    live by name; names never called are absent.  The complex passes
    inside one real transform (fft, ifft) are not counted."""
    N = 2**J
    level = {(N,) * n, (N,) * (n - 1) + (N // 2 + 1,)}
    calls: dict[str, int] = {}
    for name in ("rfft", "irfft", "rfftn", "irfftn", "fftn", "ifftn"):
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            if np.shape(a) in level:
                calls[_name] = calls.get(_name, 0) + 1
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def ring_builds(fam, lam, J, match=None):
    """Build the ring projection and its norm over ``fam``: both validate
    the family, and an invalid one makes both raise one message
    that matches ``match``."""
    builds = (lambda: ring_projection_operator(2, J, fam, D10, lam),
              lambda: ring_norm(fam, D10, lam, J))
    if match is None:
        for build in builds:
            build()
        return
    messages = []
    for build in builds:
        with pytest.raises(ValueError, match=match) as exc:
            build()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


class TestTEll:
    def test_zero_input(self):
        u = GridFunction.zeros(2, 6)
        assert t_ell(u, D10, 0).lp_norm(2) == 0.0

    def test_range_containment(self):
        u = random_field(2, 6, seed=50)
        w = t_ell(u, D10, 1, levels=[1, 2, 3])
        assert (directional_project(w, D10) - w).lp_norm(2) <= 1e-12
        # coefficient-level: only direction (1,0) levels in the window
        c = haar_analyze(w)
        assert abs(c.mean) <= 1e-14
        for j, dirs in c.levels.items():
            for e, arr in dirs.items():
                if e != D10.index:
                    assert np.abs(arr).max() <= 1e-13

    def test_rejects_unresolvable_pairs(self):
        u = random_field(2, 6, seed=51)
        with pytest.raises(ValueError, match=r"\(1,-2\)|\(1, *-2\)"):
            t_ell(u, D10, -2, levels=[1, 2, 3])

    def test_operator_drops_unresolvable_levels(self):
        u = random_field(2, 6, seed=51)
        got = t_ell_operator(2, 6, D10, -2, levels=[1, 2, 3]).apply(u)
        expect = t_ell(u, D10, -2, levels=[2, 3])
        assert (got - expect).lp_norm(2) <= 1e-14 * expect.lp_norm(2)

    def test_linearity(self):
        lv = [1, 2, 3]
        u = random_field(2, 6, seed=52, index=0)
        v = random_field(2, 6, seed=52, index=1)
        lhs = t_ell(u + 3.0 * v, D10, 1, levels=lv)
        rhs = t_ell(u, D10, 1, levels=lv) + 3.0 * t_ell(v, D10, 1, levels=lv)
        assert (lhs - rhs).lp_norm(2) <= 1e-9 * max(lhs.lp_norm(2), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_identity(self, n):
        u = random_field(n, 6, seed=53, index=0)
        v = random_field(n, 6, seed=53, index=1)
        directions = [axis_direction(n, 1)] + ([Direction((1,) * n)] if n > 1 else [])
        for direction in directions:
            for lv in (None, [0, 2, 5]):
                for ell in (-1, 1):
                    op = t_ell_operator(n, 6, direction, ell, lv)
                    lhs, rhs = op.apply(u).inner(v), u.inner(op.adjoint(v))
                    assert abs(lhs - rhs) <= 1e-12, (direction, lv, ell)

    def test_repeated_levels_count_once(self):
        u = random_field(2, 6, seed=54, index=0)
        v = random_field(2, 6, seed=54, index=1)
        once, twice = (t_ell_operator(2, 6, D10, 0, lv) for lv in ([2, 3], [2, 2, 3]))
        assert np.array_equal(twice.apply(u).values, once.apply(u).values)
        assert np.array_equal(twice.adjoint(v).values, once.adjoint(v).values)
        f_once, f_twice = once.gram_form(), twice.gram_form()
        z = f_once.draw(1)
        assert np.array_equal(f_twice.draw(1), z)
        assert np.array_equal(f_twice.gram(z), f_once.gram(z))

    @pytest.mark.parametrize("n", [2, 3])
    def test_fields_constant_across_e1_see_the_1d_slice(self, n):
        # on u = f (x) 1 the e_1 Haar functions act as h (x) 1 and beta_s has
        # mass 1 on every transverse axis, so T_ell and its adjoint act as
        # their 1D versions on f
        J = 6
        f = white_noise(1, J, seed=55)

        def spread(g):
            return GridFunction(n, J, np.broadcast_to(
                g.values.reshape((-1,) + (1,) * (n - 1)), (2**J,) * n).copy())

        for ell in range(-3, 4):
            kept = [j for j in default_levels(J) if resolvable(j + ell, J)]
            ops = {m: t_ell_operator(m, J, axis_direction(m, 1), ell) for m in (1, n)}
            pairs = {
                "t_ell": (t_ell(spread(f), axis_direction(n, 1), ell, kept),
                          t_ell(f, axis_direction(1, 1), ell, kept)),
                "adjoint": (ops[n].adjoint(spread(f)), ops[1].adjoint(f)),
            }
            for name, (got, want) in pairs.items():
                assert _rel(got, spread(want)) <= 1e-12, (ell, name)

    def test_decomposition_converges_monotonically(self):
        res, base = decomposition_residuals(2, 7, D10, L_max=4, seed=0)
        for a, b in zip(res, res[1:]):
            assert b <= a + 1e-12
        assert res[-1] <= 0.05 * base

    @pytest.mark.parametrize("n,J", [(3, 6), (2, 4), (1, 5)])
    def test_full_ladder_residual_is_the_truncation(self, n, J):
        # |ell| <= 4 reaches every scale 0..J-2 from every level of the
        # window, so sum_ell T_ell = P (beta_{J-1} - beta_0) by telescoping
        # and the residual is that of the two ends of the scale ladder
        direction = axis_direction(n, 1)
        res, _ = decomposition_residuals(n, J, direction, L_max=4, seed=5)
        u = standard_random_field(n, J, 5)
        tail = u - smoothing_conv(u, J - 1) + smoothing_conv(u, 0)
        expect = project_by_pyramid(tail, direction, default_levels(J)).lp_norm(2)
        assert res[-1] == pytest.approx(expect, rel=1e-12)


# (n, J, direction): e_1 and one mixed direction per n >= 2
SLICE_CASES = [
    (1, 7, (1,)),
    (2, 6, (1, 0)),
    (2, 6, (1, 1)),
    (3, 5, (1, 0, 0)),
    (3, 5, (0, 1, 1)),
]


def _rel(got, want):
    return (got - want).lp_norm(2) / want.lp_norm(2)


class TestSpectralSlices:
    """The range coordinates of T_ell in Fourier coordinates (the level-coset
    spectra of _slice_gram, folded from the grid's spectrum by
    slice_oracle.range_image) against the grid-space apply, level by level,
    on the default window and on one reaching levels 0 and J-1, for every
    ell in -4..4 that keeps a resolvable level."""

    @pytest.mark.parametrize("window", ["default", "edges"])
    @pytest.mark.parametrize("n,J,bits", SLICE_CASES)
    def test_matches_grid_space_form(self, n, J, bits, window):
        direction = Direction(bits)
        lv = default_levels(J) if window == "default" else [0, 2, J - 1]
        # Nyquist content exercises the half-spectrum completion of the fold
        u = white_noise(n, J, seed=60)
        checked = 0
        for ell in range(-4, 5):
            kept = [j for j in lv if resolvable(j + ell, J)]
            if not kept:
                continue
            op = t_ell_operator(n, J, direction, ell, lv)
            y, tu = range_image(u, direction, ell, lv), op.apply(u)
            lo = 0
            for j in kept:
                # y_j = -2^(-nj) DFT of the level-j coefficients of T_ell u
                want = -(2.0 ** (-n * j)) * np.fft.fftn(level_coefficients(tu, j, direction))
                got = y[lo:lo + want.size].reshape(want.shape)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (ell, j)
                lo += want.size
            assert lo == y.size
            checked += 1
        assert checked >= 6

    def test_operator_without_levels_is_zero(self):
        op = t_ell_operator(2, 6, D10, 0, levels=[])
        u = random_field(2, 6, seed=61)
        assert op.normal_apply(u).lp_norm(2) == 0.0
        assert op.adjoint(u).lp_norm(2) == 0.0

    def test_rejects_levels_off_the_grid(self):
        # ell = -4 drops level 0 as unresolvable and keeps level 7 (scale 3)
        u = random_field(2, 6, seed=62)
        calls = {
            "t_ell": lambda: t_ell(u, D10, -4, levels=[7]),
            "apply": lambda: t_ell_operator(2, 6, D10, -4, [0, 7]).apply(u),
            "adjoint": lambda: t_ell_operator(2, 6, D10, -4, [0, 7]).adjoint(u),
            "range form": lambda: t_ell_operator(2, 6, D10, -4, [0, 7]).gram_form(),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=r"no coefficients at level 7 \(J=6\)"):
                call()


class TestClosedFormResiduals:
    """decomposition_residuals by Parseval on the level-coset spectra
    (multiscale.slice_sum_residuals) against the slice-by-slice field sum
    (slice_oracle.field_decomposition_residuals).  The two add the same
    terms in different orders, hence the 1e-12 relative tolerance."""

    @pytest.mark.parametrize("L_max", [0, 4, 6])
    @pytest.mark.parametrize("window", ["default", "edges"])
    @pytest.mark.parametrize("n,J,bits", SLICE_CASES)
    def test_matches_the_slice_sum(self, n, J, bits, window, L_max):
        direction = Direction(bits)
        lv = None if window == "default" else [0, 2, J - 1]
        got, base = decomposition_residuals(n, J, direction, L_max, lv, seed=3)
        want, want_base = field_decomposition_residuals(n, J, direction, L_max, lv, seed=3)
        assert base == pytest.approx(want_base, rel=1e-12, abs=0)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("window", ["default", "edges"])
    @pytest.mark.parametrize("n,J", [(1, 7), (2, 7), (3, 6)])
    def test_floor_is_the_truncation(self, n, J, window):
        # from L = J-1 on every level of the window reaches both ends of the
        # scale ladder, so the residual is that of P (I - beta_{J-1} + beta_0)
        direction = axis_direction(n, 1)
        lv = default_levels(J) if window == "default" else [0, 2, J - 1]
        res, _ = decomposition_residuals(n, J, direction, L_max=J + 1, levels=lv, seed=5)
        u = standard_random_field(n, J, 5)
        tail = u - smoothing_conv(u, J - 1) + smoothing_conv(u, 0)
        expect = project_by_pyramid(tail, direction, lv).lp_norm(2)
        assert res[J - 1:] == pytest.approx([expect] * 3, rel=1e-12, abs=0)

    # default windows, a window whose top level is J-1 (P u needs the
    # whole grid), and windows whose top level is < 3, where the annulus
    # modes alias on the coarse cosets and in the cell averages
    WINDOWS = {"default": default_levels, "edges": lambda J: [0, 2, J - 1],
               "coarse": lambda J: [0, 1, 2], "single": lambda J: [1]}

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n,J", [(1, 5), (2, 7), (3, 6), (3, 7)])
    def test_mode_list_matches_the_grid_folds(self, n, J, window):
        # the grid form's sums y = fold(None) - fold(b+1) + fold(a) cancel
        # down to the residual, so it carries rounding of about
        # 1e-16 ||P u||: each residual agrees to 1e-14 relative, or to
        # 1e-14 ||P u|| where the residual is small
        lv = self.WINDOWS[window](J)
        orders = range(J + 1)
        for bits in {(1,) + (0,) * (n - 1), (1,) * n}:
            direction = Direction(bits)
            got = slice_sum_residuals(J, *standard_random_spectrum(n, J, 2), direction, orders, lv)
            want = grid_slice_sum_residuals(standard_random_field(n, J, 2), direction, orders, lv)
            _, base = decomposition_residuals(n, J, direction, 0, lv, seed=2)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-14 * base)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("n,J", [(1, 5), (2, 7), (3, 6)])
    def test_norm_of_pu_on_the_coarse_grid(self, n, J, window):
        # ||P u|| from the level-(top+1) cell averages, against P u on the
        # whole grid and against the Parseval sum of the unsmoothed folds
        lv = self.WINDOWS[window](J)
        modes, spectrum = standard_random_spectrum(n, J, 4)
        for bits in {(1,) + (0,) * (n - 1), (1,) * n}:
            direction = Direction(bits)
            _, base = decomposition_residuals(n, J, direction, 0, lv, seed=4)
            grid = project_by_pyramid(standard_random_field(n, J, 4), direction, lv).lp_norm(2)
            folds = [multiscale._coset_fold(*multiscale._level_modes(J, j, direction, modes,
                                                                      spectrum)) for j in lv]
            parseval = math.sqrt(sum(np.vdot(y, y).real for y in folds))
            assert base == pytest.approx(grid, rel=1e-13, abs=0)
            assert base == pytest.approx(parseval, rel=1e-13, abs=0)

    def test_mode_sums_hold_every_digit(self):
        # the per-mode weight is folded once and 1 - prod h comes from the
        # 1 - h_i, so the float64 residuals match a longdouble run of the
        # same sums to a few ulps, down to the truncation floor (4.7e-4
        # ||P u|| here), where cancelling folds lost 4.2e-14 relative
        n, J, lv = 1, 12, default_levels(12)
        orders = range(J + 1)
        modes, spectrum = standard_random_spectrum(n, J, 1)
        got = slice_sum_residuals(J, modes, spectrum, D1, orders, lv)
        want = longdouble_slice_sum_residuals(J, modes, spectrum, D1, orders, lv)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-15 * w, (g, w)

    def test_empty_window_has_no_residual(self):
        assert decomposition_residuals(2, 5, D10, 2, levels=[], seed=1) == ([0.0] * 3, 0.0)

    @pytest.mark.parametrize("n,J", [(1, 8), (2, 6), (3, 5)])
    def test_transforms_no_level_grid(self, n, J, monkeypatch):
        calls = count_level_transforms(monkeypatch, n, J)
        decomposition_residuals(n, J, axis_direction(n, 1), L_max=4, seed=1)
        assert calls == {}

    @pytest.mark.parametrize("levels,bad", [([0, 7], 7), ([-1, 2], -1)])
    def test_rejects_levels_off_the_grid(self, levels, bad):
        with pytest.raises(ValueError, match=rf"no coefficients at level {bad} \(J=6\)"):
            decomposition_residuals(2, 6, D10, 2, levels=levels, seed=1)


def cli_peak(tmp_path, argv, warm_up) -> int:
    """Traced peak of one in-process CLI run.  A run of ``warm_up`` first
    keeps numpy's lazy imports out of the trace."""
    main([*warm_up, "--out", str(tmp_path / "warm")])
    tracemalloc.start()
    try:
        code = main([*argv, "--out", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 3)  # ran to the end; a failed check is not a refusal
    return peak


class TestWorkingSet:
    @pytest.mark.parametrize("n,J", [(1, 8), (1, 12), (2, 6), (3, 5), (2, 8), (3, 7), (3, 8)])
    def test_tl_decay_fits_its_cap_budget(self, n, J):
        # what cmd_tl_decay runs after enforce_cap(tl_decay_budget(n, J));
        # a J = 4 run first keeps numpy's lazy imports out of the trace.
        # The charge tracks the run: the traced peak is over half of it.
        # A run starts with empty 1D tables, so the caches other tests
        # filled are cleared
        for cached in (multiscale._haar_factor, fourier.beta_factor, fourier._b_scaled_lag_table):
            cached.cache_clear()
        direction = axis_direction(n, 1)
        op_norm2_estimate(t_ell_operator(n, 4, direction, 0), iters=10, seed=1)
        decomposition_residuals(n, 4, direction, L_max=1, seed=1)
        tracemalloc.start()
        try:
            for ell in range(-4, 5):
                op_norm2_estimate(t_ell_operator(n, J, direction, ell), iters=24, seed=1)
            decomposition_residuals(n, J, direction, L_max=max(4, J - 1), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tl_decay_budget(n, J) / 2 <= peak <= tl_decay_budget(n, J)

    def test_tl_decay_refuses_n3_j10_before_allocating(self, tmp_path, monkeypatch):
        # the dense W_kj blocks at level 8 alone take 2.1 GB and the run is
        # charged 5.4 GB: the default cap refuses it before any experiment
        # runs
        main(["tl-decay", "--n", "3", "--J", "4", "--ell=0", "--trials", "4",
              "--out", str(tmp_path / "warm")])
        for name in ("op_norm2_estimate", "decomposition_residuals"):
            monkeypatch.setattr(f"haarriesz.cli.{name}", None)
        tracemalloc.start()
        try:
            code = main(["tl-decay", "--n", "3", "--J", "10", "--ell=-1..1", "--trials", "4",
                         "--seed", "1", "--out", str(tmp_path / "run")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_RESOURCE
        assert peak <= 1 << 20
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n,J", [(2, 8), (3, 6), (3, 7)])
    def test_decomposition_residuals_fit_one_grid_copy(self, n, J):
        # the residuals hold the mode list and its coset folds, and P u a
        # grid of 2^-n of the cells: together under one level-J grid
        direction = axis_direction(n, 1)
        decomposition_residuals(n, 4, direction, L_max=1, seed=1)
        tracemalloc.start()
        try:
            decomposition_residuals(n, J, direction, L_max=max(4, J - 1), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_budget(n, J, copies=1)

    @pytest.mark.parametrize("n,J", [(1, 3), (1, 8), (2, 7), (3, 6)])
    def test_ring_decay_fits_its_cap_budget(self, n, J):
        # what cmd_ring_decay runs after enforce_cap(grid_budget(n, J, copies=16))
        ring_decay_norms(n, 4, range(0, 3))
        tracemalloc.start()
        try:
            ring_decay_norms(n, J, range(0, J - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_budget(n, J, copies=16)

    @pytest.mark.parametrize("n,J", [(2, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("batch", [1, JENSEN_BATCH])
    def test_jensen_fits_its_cap_budget(self, n, J, batch):
        # one cmd_jensen batch, after enforce_cap(grid_budget(n, J,
        # copies=16 * batch)); the first calls run the integrands'
        # separate-convexity probes, whose lattice does not scale with J,
        # and keep numpy's lazy import of its generators out of the trace
        regs = registry_integrands()
        jensen_range_check(np.zeros((1, n) + (8,) * n), regs, 0)
        haar_polynomials(n, 3, 1, [0])
        tracemalloc.start()
        try:
            stack = haar_polynomials(n, J, 1, range(n * batch)).reshape((batch, n) + (2**J,) * n)
            jensen_range_check(stack, regs, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_budget(n, J, copies=16 * batch)

    def test_sharpness_ple2_fits_its_cap_budget(self):
        # what cmd_sharpness --regime ple2 runs after
        # enforce_cap(ple2_budget(n0_max + 6)), from the default eps list
        # down to eps = 1/64
        single_block_experiment_ple2([0.5], 1.5, 0.1)
        for eps_list in ([0.5], [0.5, 0.25, 0.125], [1 / 16, 1 / 32], [1 / 64]):
            tracemalloc.start()
            try:
                single_block_experiment_ple2(eps_list, 1.5, 0.1, seed=1)
                for eps in eps_list:
                    unit_square_coefficient(eps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= ple2_budget(max(round(-math.log2(e)) for e in eps_list) + 6), eps_list

    def test_sharpness_pge2_fits_its_cap_budget(self):
        # what cmd_sharpness --regime pge2 --sample 20000 runs after
        # enforce_cap(grid_budget(2, 7, copies=64) + 16 * 20000): the pair
        # terms are processed in chunks and only the index arrays (16 B per
        # draw) grow with --sample, so the run fits even the grid part
        sharpness_experiment_pge2([0.5], 0.1, sample_size=10, seed=1)
        tracemalloc.start()
        try:
            sharpness_experiment_pge2([0.5, 0.25, 0.125], 0.1, sample_size=20000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grid_budget(2, 7, copies=64)

    # cmd_interp_ratio charges interp_ratio_budget(n, J) whatever --trials
    # is: the family is built one member at a time.  On the smallest grids
    # RUN_BASE sets the charge; on the largest case the charge tracks the
    # run: the traced peak is over half of it
    @pytest.mark.parametrize("n,J,trials", [(2, 6, 8), (2, 6, 50), (2, 6, 100), (3, 4, 8),
                                            (1, 4, 8)])
    def test_interp_ratio_fits_its_cap_budget(self, n, J, trials, tmp_path):
        peak = cli_peak(tmp_path, ["interp-ratio", "--n", str(n), "--J", str(J), "--p-list",
                                   "2,3,1.5", "--trials", str(trials), "--seed", "1"],
                        ["interp-ratio", "--n", str(n), "--J", "4", "--trials", "1"])
        assert peak <= interp_ratio_budget(n, J)
        if (n, J) == (3, 4):
            assert interp_ratio_budget(n, J) / 2 <= peak

    # what cmd_rearrange runs after enforce_cap(rearrange_budget(n, J)):
    # --trials sets the iteration count and --lambda the number of
    # operators, one alive at a time.  A J = 3 run first keeps numpy's lazy
    # imports out of the trace; the operators read no cached table, so what
    # other tests ran leaves the peak as it is.  At n = 1 the profile
    # matrices, not the grids, set the peak; at n >= 2 the charge tracks
    # the run: the traced peak is over half of it
    @pytest.mark.parametrize("n,J,lams,trials", [
        (2, 7, "1,2,3", 5), (2, 7, "1,2,3", 20), (2, 6, "0..5", 8), (3, 5, "1,2", 8),
        (3, 6, "1,2,3", 8), (1, 8, "1,2,3", 8), (1, 10, "1,2,3", 8), (1, 12, "1,2,3", 8)])
    def test_rearrange_scaling_fits_its_cap_budget(self, n, J, lams, trials):
        op_norm2_estimate(rearrangement_operator(n, 3, 1), iters=10, seed=1)
        tracemalloc.start()
        try:
            for lam in parse_int_list(lams):
                op_norm2_estimate(rearrangement_operator(n, J, lam), iters=trials * 2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rearrange_budget(n, J)
        if n >= 2:
            assert rearrange_budget(n, J) / 2 <= peak

    @pytest.mark.parametrize("n,J", [(2, 6), (2, 8), (3, 5), (3, 6), (2, 3)])
    def test_semicontinuity_fits_its_cap_budget(self, n, J, tmp_path):
        peak = cli_peak(tmp_path, ["semicontinuity", "--n", str(n), "--J", str(J), "--seed", "1"],
                        ["semicontinuity", "--n", str(n), "--J", "4"])
        assert peak <= semicontinuity_budget(n, J)
        if (n, J) == (3, 6):
            assert semicontinuity_budget(n, J) / 2 <= peak

    @pytest.mark.parametrize("n,J", [(2, 5), (2, 7), (3, 5), (1, 8), (2, 4)])
    def test_selftest_fits_its_cap_budget(self, n, J, tmp_path):
        peak = cli_peak(tmp_path, ["selftest", "--n", str(n), "--J", str(J), "--seed", "1"],
                        ["selftest", "--n", str(n), "--J", "4"])
        assert peak <= selftest_budget(n, J)
        if (n, J) == (3, 5):
            assert selftest_budget(n, J) / 2 <= peak


def self_adjoint_op(apply, n, J):
    """A self-adjoint LinearFieldOp whose range vectors are level-J fields,
    started from a Gaussian field keyed by the seed."""

    def draw(seed):
        return GridFunction(n, J, np.random.default_rng(seed).standard_normal((2**J,) * n))

    return LinearFieldOp(apply, apply,
                         lambda: GramForm(lambda y: apply(apply(y)), GridFunction.inner, draw))


class TestOpNorm:
    def test_identity(self):
        op = self_adjoint_op(lambda u: u, 2, 5)
        r = op_norm2_estimate(op, iters=15, seed=1)
        assert r.value == pytest.approx(1.0, abs=1e-6)
        assert r.converged

    def test_projection_norm_one(self):
        op = self_adjoint_op(lambda u: directional_project(u, D10), 2, 5)
        r = op_norm2_estimate(op, iters=20, seed=1)
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        op = self_adjoint_op(lambda u: 2.0 * u, 2, 5)
        r = op_norm2_estimate(op, iters=15, seed=1)
        assert r.value == pytest.approx(2.0, abs=1e-6)

    def test_rayleigh_nondecreasing(self):
        op = t_ell_operator(2, 6, D10, 0)
        r = op_norm2_estimate(op, iters=20, seed=2)
        for a, b in zip(r.rayleigh, r.rayleigh[1:]):
            assert b >= a - 1e-12 * max(abs(a), 1.0)

    def test_requires_ten_iterations(self):
        op = self_adjoint_op(lambda u: u, 2, 4)
        with pytest.raises(ValueError):
            op_norm2_estimate(op, iters=5)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, 1.0, float("nan")])
    def test_requires_tol_in_unit_interval(self, tol):
        op = self_adjoint_op(lambda u: u, 2, 4)
        with pytest.raises(ValueError, match="tol"):
            op_norm2_estimate(op, iters=10, tol=tol)

    def test_flags_slow_convergence(self):
        # two close top singular values keep the Rayleigh quotient moving
        # after ten iterations
        from haarriesz.fields import single_haar_block

        h1 = single_haar_block(2, 4, 0, (0, 0), (1, 0))
        h2 = single_haar_block(2, 4, 0, (0, 0), (0, 1))

        def apply(u):
            return u.inner(h1) * h1 + 0.95 * u.inner(h2) * h2

        op = self_adjoint_op(apply, 2, 4)
        r = op_norm2_estimate(op, iters=10, seed=3)
        assert not r.converged
        assert r.value <= 1.0 + 1e-9
        # with more iterations the same operator converges
        r2 = op_norm2_estimate(op, iters=120, seed=3)
        assert r2.converged
        assert r2.value == pytest.approx(1.0, abs=1e-4)

    def test_converged_is_a_residual_certificate_on_every_seed(self):
        # normal operator eigenvalues 1 and 0.95^2 on span{h1, h2}, 0 elsewhere
        h1 = single_haar_block(2, 4, 0, (0, 0), (1, 0))
        h2 = single_haar_block(2, 4, 0, (0, 0), (0, 1))

        def apply(u):
            return u.inner(h1) * h1 + 0.95 * u.inner(h2) * h2

        op = self_adjoint_op(apply, 2, 4)
        for seed in range(20):
            for iters, expected in ((10, False), (120, True)):
                r = op_norm2_estimate(op, iters=iters, seed=seed)
                theta = r.rayleigh[-1]
                assert r.converged is expected, (seed, iters, r.residual)
                assert r.converged == (r.residual <= 1e-4 * theta)
                if r.converged:
                    assert min(abs(theta - lam) for lam in (1.0, 0.9025)) <= r.residual


def _assert_same_estimate(got, want):
    """Range-side against field-side power iteration: the same Rayleigh
    sequence in exact arithmetic, so value and every entry agree to rel
    1e-12.  The residual is a difference of two vectors of size ~theta, so
    its rounding error is a multiple of eps * theta; it agrees to rel 1e-9
    above a floor of 1e-12 * theta (1e-8 of the converged threshold)."""
    theta = want.rayleigh[-1]
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.iterations == want.iterations
    assert got.rayleigh == pytest.approx(want.rayleigh, rel=1e-12)
    assert abs(got.residual - want.residual) <= 1e-9 * want.residual + 1e-12 * theta
    assert got.converged == want.converged


def _field_side_from_range_start(op, n, J, direction, iters, seed):
    """The field-side oracle started from v_0 = T^* z / ||T^* z||, z the
    range start the estimates draw on the operator's window."""
    start = op.adjoint(range_start_field(n, J, direction, seed))
    return field_op_norm2_estimate(op, start, iters=iters)


class TestRangeSideIteration:
    """op_norm2_estimate walks the range, y = T v with T T^*; the field-side
    loop on T^* T (slice_oracle.field_op_norm2_estimate) is its oracle.
    Every operator starts from a draw z on its range,
    y_0 = T T^* z / ||T^* z||, so the oracle starts from the field
    v_0 = T^* z / ||T^* z||."""

    @pytest.mark.parametrize("window", ["default", "edges"])
    @pytest.mark.parametrize("n,J", [(1, 7), (2, 6), (3, 5)])
    def test_slices_match_field_side(self, n, J, window):
        direction = axis_direction(n, 1)
        lv = None if window == "default" else [0, 2, J - 1]
        for ell in range(-4, 5):
            op = t_ell_operator(n, J, direction, ell, lv)
            got = op_norm2_estimate(op, iters=24, seed=1)
            want = _field_side_from_range_start(op, n, J, direction, 24, 1)
            _assert_same_estimate(got, want)

    def test_rearrangement_matches_field_side(self):
        # the rearrangement draws the slices' per-level Gaussians on its own
        # window, so its oracle starts from S^* of the same level field
        for lam in (1, 2):
            op = rearrangement_operator(2, 5, lam)
            got = op_norm2_estimate(op, iters=16, seed=1)
            want = _field_side_from_range_start(op, 2, 5, Direction((1, 1)), 16, 1)
            _assert_same_estimate(got, want)

    def test_range_inner_product_is_the_field_one(self):
        # the level-coset spectra stand for T u: their inner products and
        # Gram map are those of the fields
        direction = Direction((1, 1))
        op = t_ell_operator(2, 6, direction, 1, [0, 2, 5])
        form = op.gram_form()
        u = random_field(2, 6, seed=63, index=0)
        v = random_field(2, 6, seed=63, index=1)
        yu, yv = (range_image(w, direction, 1, [0, 2, 5]) for w in (u, v))
        assert form.inner(yu, yv) == pytest.approx(op.apply(u).inner(op.apply(v)), rel=1e-12)
        want = op.apply(op.normal_apply(v)).inner(op.apply(u))
        assert form.inner(yu, form.gram(yv)) == pytest.approx(want, rel=1e-12)

    def test_slice_estimate_runs_no_step_fft(self, monkeypatch):
        # the start is drawn on the range: neither it nor any step
        # transforms a level-J grid
        calls = count_level_transforms(monkeypatch, 2, 6)
        op = t_ell_operator(2, 6, D10, 0)
        op_norm2_estimate(op, iters=24, seed=1)
        assert calls == {}

    @pytest.mark.parametrize("J,ells", [(5, range(-3, 3)), (7, (-2, 0, 1))])
    def test_slice_value_is_below_the_dense_norm(self, J, ells):
        # ||T||^2 is the top eigenvalue of the range Gram matrix (at J = 7
        # its dimension is 1364); every Rayleigh quotient is a lower bound
        for ell in ells:
            op = t_ell_operator(2, J, D10, ell)
            form = op.gram_form()
            size = form.draw(0).size
            G = np.empty((size, size), dtype=complex)
            for i in range(size):
                e = np.zeros(size, dtype=complex)
                e[i] = 1.0
                G[:, i] = form.gram(e)
            exact = math.sqrt(max(np.linalg.eigvalsh((G + G.conj().T) / 2)[-1], 0.0))
            got = op_norm2_estimate(op, iters=24, seed=1)
            assert got.value <= exact * (1 + 1e-12), (ell, got.value, exact)
            assert got.value >= 0.9 * exact, (ell, got.value, exact)


    @pytest.mark.parametrize("J", [4, 5, 6])
    def test_rearrangement_value_is_below_the_dense_norm(self, J):
        # ||S||^2 is the top eigenvalue of S S^* on the range, the span of
        # the direction-(1,1) Haar functions on the window's levels: the
        # Gram matrix on the unit h_Q / ||h_Q|| (dimension sum_j 4^j)
        direction = Direction((1, 1))
        for lam in range(J):
            op = rearrangement_operator(2, J, lam)
            got = op_norm2_estimate(op, iters=16, seed=1)
            gram = op.gram_form().gram
            basis = []
            for j in multiscale._rearrangement_levels(J, lam, None):
                for k in range(4**j):
                    c = np.zeros(4**j)
                    c[k] = 2.0**j
                    basis.append(level_field(c.reshape(2**j, 2**j), direction, J))
            B = np.array([b.values.ravel() for b in basis])
            G = B @ np.array([gram(b).values.ravel() for b in basis]).T * 4.0**-J
            exact = math.sqrt(max(np.linalg.eigvalsh((G + G.T) / 2)[-1], 0.0))
            assert got.value <= exact * (1 + 1e-12), (lam, got.value, exact)
            assert got.value >= 0.9 * exact, (lam, got.value, exact)


class TestTlDecay:
    @pytest.mark.parametrize("n,J", [(1, 7), (2, 6), (3, 5)])
    def test_slices_share_one_range_start(self, n, J, monkeypatch):
        # the run transforms no level-J array; every slice reads the same
        # per-level draws, and its Rayleigh
        # sequence is the field-side one from v_0 = T^* z / ||T^* z||
        direction, ells = axis_direction(n, 1), range(-2, 3)
        draws: dict[tuple, list] = {}
        range_draw = multiscale._range_draw

        def recorded(*args):
            out = range_draw(*args)
            draws.setdefault(args, []).append(out)
            return out

        monkeypatch.setattr(multiscale, "_range_draw", recorded)
        calls = count_level_transforms(monkeypatch, n, J)
        got = {ell: op_norm2_estimate(t_ell_operator(n, J, direction, ell), iters=12, seed=5)
               for ell in ells}
        assert calls == {}
        kept = {ell: [j for j in default_levels(J) if resolvable(j + ell, J)] for ell in ells}
        assert sorted(draws) == sorted({(n, J, j, 5) for lv in kept.values() for j in lv})
        for args, arrays in draws.items():
            assert len(arrays) == sum(args[2] in lv for lv in kept.values())
            assert all(np.array_equal(a, arrays[0]) for a in arrays)
        monkeypatch.undo()
        for ell in ells:
            op = t_ell_operator(n, J, direction, ell)
            want = _field_side_from_range_start(op, n, J, direction, 12, 5)
            assert got[ell].rayleigh == pytest.approx(want.rayleigh, rel=1e-12, abs=0)

    def test_norm_decay_at_p2(self):
        m = {ell: op_norm2_estimate(t_ell_operator(2, 7, D10, ell), iters=24, seed=0).value
             for ell in range(-4, 5)}
        for ell in (1, 2, 3, 4):
            assert m[ell] <= m[0] * 2.0 ** (-ell / 2.0) * 2.0
        for ell in (2, 3, 4):
            assert m[-ell] <= m[-1] * 2.0 ** (-(ell - 1) / 2.0) * 2.0


class TestRingCover:
    def test_forty_cell_example(self):
        cover = ring_cover(DyadicCube(2, 0, (0, 0)), D10, lam=3)
        assert len(cover) == 40
        assert sum(E.volume() for E in cover) == pytest.approx(40.0 / 64.0)

    def test_measure_constant_bound(self):
        Q = DyadicCube(2, 0, (0, 0))
        for lam in (3, 4, 5):
            cover = ring_cover(Q, D10, lam)
            assert sum(E.volume() for E in cover) / (2.0 ** (-lam) * Q.volume()) <= 6.0

    def test_count_bound(self):
        Q = DyadicCube(2, 0, (0, 0))
        for lam in (3, 4, 5):
            cover = ring_cover(Q, D10, lam)
            assert len(cover) <= 6 * 2 ** (lam * (2 - 1))

    def test_level_overflow(self):
        with pytest.raises(ValueError):
            ring_cover(DyadicCube(2, 1, (0, 0)), D10, lam=-1)

    def test_even_family_is_valid(self):
        fam = default_even_family(2, 2)
        ring_builds(fam, 3, 6)

    def test_nested_tower_is_valid(self):
        fam = [DyadicCube(2, j, (0, 0)) for j in range(3)]
        ring_builds(fam, 3, 6)

    def test_validator_names_offending_pair(self):
        # adjacent same-level cubes share boundary ring cells
        fam = [DyadicCube(2, 1, (0, 0)), DyadicCube(2, 1, (1, 0))]
        ring_builds(fam, 3, 6, match="share")

    def test_validator_rejects_nesting_violation(self):
        # an all-even multi-level family puts fine ring cells inside coarse
        # ones without cube containment
        fam = default_even_family(2, 1) + [DyadicCube(2, 2, (2, 0))]
        ring_builds(fam, 3, 6, match="nesting|share")


class TestRingProjection:
    def test_orthogonal_input_annihilated(self):
        fam = [DyadicCube(2, 1, (0, 0))]
        u = single_haar_block(2, 6, 2, (2, 2), (1, 0))  # different cube
        out = ring_projection_operator(2, 6, fam, D10, lam=2).apply(u)
        assert out.lp_norm(2) <= 1e-13

    def test_single_term_reproduces_cover_sum(self):
        Q = DyadicCube(2, 0, (0, 0))
        u = single_haar_block(2, 6, 0, (0, 0), (1, 0))
        out = ring_projection_operator(2, 6, [Q], D10, lam=3).apply(u)
        cover = ring_cover(Q, D10, lam=3)
        expect = GridFunction.zeros(2, 6)
        for E in cover:
            expect = expect + single_haar_block(2, 6, E.j, E.k, (1, 0))
        assert (out - expect).lp_norm(2) <= 1e-12

    def test_linearity(self):
        fam = default_even_family(2, 1)
        u = random_field(2, 6, seed=54, index=0)
        v = random_field(2, 6, seed=54, index=1)
        op = ring_projection_operator(2, 6, fam, D10, lam=2)
        lhs = op.apply(u + 2.0 * v)
        rhs = op.apply(u) + 2.0 * op.apply(v)
        assert (lhs - rhs).lp_norm(2) <= 1e-12

    def test_adjoint_identity(self):
        fam = default_even_family(2, 1)
        op = ring_projection_operator(2, 6, fam, D10, lam=2)
        u = random_field(2, 6, seed=55, index=0)
        v = random_field(2, 6, seed=55, index=1)
        assert abs(op.apply(u).inner(v) - u.inner(op.adjoint(v))) <= 1e-12

    def test_norm_decay(self):
        norms = ring_decay_norms(2, 7, (3, 4, 5))
        for lo, hi in ((3, 4), (4, 5)):
            assert norms[hi] / norms[lo] <= 2.0**-0.5 * 1.5

    def test_build_rejects_cells_finer_than_the_grid(self):
        # level-1 cube, lambda 3: the cover cells sit at level 4 = J
        ring_builds([DyadicCube(2, 1, (0, 0))], 3, 4,
                    match=r"cover cell DyadicCube\(n=2, j=4, .*finer than the grid")

    @pytest.mark.parametrize(
        "n,J,level,lam",
        [(2, 7, 1, lam) for lam in (3, 4, 5)]
        + [(2, 7, 2, 2), (2, 7, 2, 3), (3, 6, 1, 2), (3, 6, 1, 3), (1, 9, 3, 2), (1, 9, 3, 4)],
    )
    def test_norm_closed_form(self, n, J, level, lam):
        # distinct h_Q are orthogonal, and so are distinct h_E, so
        # ||S||^2 = max_Q |union of the cover of Q| / |Q|; power iteration
        # is the oracle for the count in ring_norm
        d = Direction((1,) * n)
        fam = default_even_family(n, level)
        op = ring_projection_operator(n, J, fam, d, lam)
        exact = max(sum(E.volume() for E in ring_cover(Q, d, lam)) / Q.volume() for Q in fam)
        value = op_norm2_estimate(op, iters=24).value
        assert value == pytest.approx(exact**0.5, rel=1e-12)
        assert ring_norm(fam, d, lam, J) == pytest.approx(exact**0.5, rel=1e-15)


def _ring_cases():
    for n in (1, 2, 3):
        for d in dict.fromkeys([axis_direction(n, 1), Direction((1,) * n)]):
            for lam in (2, 3):
                for fam in ("one", "even2", "tower"):
                    yield n, d, lam, fam


class TestRingOracle:
    """The index map against the per-cell forms of tests/ring_oracle.py."""

    @pytest.mark.parametrize("n,d,lam,fam", list(_ring_cases()), ids=str)
    def test_apply_and_adjoint_match_oracle(self, n, d, lam, fam):
        family = {
            "one": default_even_family(n, 1),
            "even2": default_even_family(n, 2),
            "tower": [DyadicCube(n, j, (0,) * n) for j in range(3)],
        }[fam]
        J = 7 if n <= 2 else 6
        op = ring_projection_operator(n, J, family, d, lam)
        covers = ring_covers(family, d, lam)
        u = random_field(n, J, seed=57, index=0)
        v = random_field(n, J, seed=57, index=1)
        assert np.array_equal(op.apply(u).values, ring_apply(u, covers, d).values)
        assert np.array_equal(op.adjoint(v).values, ring_adjoint(v, covers, d).values)

    def test_validation_matches_pairwise_oracle(self):
        # (direction, lambda, covers of the family)
        cases = [
            (d, lam, ring_covers(family, d, lam))
            for d, lam, family in [
                (D10, 3, default_even_family(2, 2)),
                (D10, 3, [DyadicCube(2, j, (0, 0)) for j in range(3)]),
                (D10, 3, [DyadicCube(2, 1, (0, 0)), DyadicCube(2, 1, (1, 0))]),
                (D10, 3, default_even_family(2, 1) + [DyadicCube(2, 2, (2, 0))]),
                (Direction((1, 1)), 2, default_even_family(2, 1) + [DyadicCube(2, 2, (2, 2))]),
                (Direction((1, 0, 0)), 2, [DyadicCube(3, 1, (0, 0, 0))]),
                (Direction((1, 1, 1)), 3, [DyadicCube(3, 1, (0, 0, 0))]),
            ]
        ]
        # every pair of distinct dyadic cubes down to level 3 in 1D and
        # level 2 in 2D
        for n, top, d in ((1, 3, Direction((1,))), (2, 2, D10)):
            cubes = [DyadicCube(n, j, k) for j in range(top + 1) for k in np.ndindex(*(2**j,) * n)]
            cov = ring_covers(cubes, d, 2)
            for a, Q in enumerate(cubes):
                cases += [(d, 2, {Q: cov[Q], Qp: cov[Qp]}) for Qp in cubes[a + 1:]]

        def outcome(check):
            try:
                check()
            except ValueError as err:
                return str(err).split(" ")[0]
            return None

        # both accept, or both reject with the same kind of message
        seen = set()
        for d, lam, covers in cases:
            J = 8 if d.n <= 2 else 6
            expected = outcome(lambda: validate_ring_family(covers))
            got = outcome(lambda: ring_projection_operator(d.n, J, list(covers), d, lam))
            assert got == expected, (d, lam, list(covers))
            seen.add(got)
        assert seen == {None, "covers", "nesting"}


class TestPredecessorSplit:
    def test_tau_and_rank(self):
        split = PredecessorSplit(n=2, lam=2)
        Q = DyadicCube(2, 4, (13, 6))
        assert split.tau(Q) == DyadicCube(2, 2, (3, 1))
        assert split.class_size() == 16

    def test_rank_injective_per_class(self):
        split = PredecessorSplit(n=2, lam=1)
        seen = {}
        for k1 in range(4):
            for k2 in range(4):
                Q = DyadicCube(2, 2, (k1, k2))
                key = (split.rank(Q), split.tau(Q))
                assert key not in seen
                seen[key] = Q


class TestRearrangement:
    def test_constant_annihilated(self):
        u = GridFunction.constant(2, 6, 2.0)
        out = rearrangement_op(u, lam=1, levels=[2, 3])
        assert out.lp_norm(2) <= 1e-12

    def test_lambda_zero_is_coefficient_replacement(self):
        u = random_field(2, 6, seed=56, index=0)
        v = random_field(2, 6, seed=56, index=1)
        lhs = rearrangement_op(u + v, lam=0, levels=[2])
        rhs = rearrangement_op(u, lam=0, levels=[2]) + rearrangement_op(v, lam=0, levels=[2])
        assert (lhs - rhs).lp_norm(2) <= 1e-10

    def test_rejects_profile_with_mean(self):
        def bad_profile(W, k):
            return GridFunction.constant(2, 6, 1.0)

        u = random_field(2, 6, seed=57)
        with pytest.raises(ValueError, match="mean"):
            rearrangement_op(u, lam=1, profile_family=bad_profile, levels=[2])

    def test_default_profiles_are_zero_mean(self):
        profile = sine_profile_family(2, 6, 1)
        W = DyadicCube(2, 1, (1, 0))
        for k in range(4):
            assert abs(profile(W, k).integral()) <= 1e-15

    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_operator_matches_direct_evaluation(self, n, lam):
        J = 6 if n < 3 else 5  # the per-cube oracle is slow at n = 3
        u = random_field(n, J, seed=58)
        op = rearrangement_operator(n, J, lam, levels=[lam, lam + 1])
        direct = rearrangement_op(u, lam=lam, levels=[lam, lam + 1])
        assert (op.apply(u) - direct).lp_norm(2) <= 1e-12

    @pytest.mark.parametrize("lam", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_identity(self, n, lam):
        op = rearrangement_operator(n, 6, lam, levels=[lam + 1, lam + 2])
        u = random_field(n, 6, seed=59, index=0)
        v = random_field(n, 6, seed=59, index=1)
        assert abs(op.apply(u).inner(v) - u.inner(op.adjoint(v))) <= 1e-11

    def test_growth_scaling(self):
        norms = {lam: op_norm2_estimate(rearrangement_operator(2, 7, lam), iters=16, seed=0)
                 for lam in (1, 2, 3)}
        for lo, hi in ((1, 2), (2, 3)):
            assert norms[hi].value / norms[lo].value <= 2.0**2 * 1.5
