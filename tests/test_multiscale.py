"""Scale slices, operator-norm estimation, ring projections, rearrangements."""

import numpy as np
import pytest

from haarriesz.experiments import (
    decomposition_residuals,
    rearrangement_norms,
    ring_decay_norms,
    tl_decay_norms,
)
from haarriesz.fields import random_field, single_haar_block, standard_random_field
from haarriesz.fourier import smoothing_conv
from haarriesz.grid import Direction, DyadicCube, GridFunction, axis_direction
from haarriesz.haar import directional_project, haar_analyze
from haarriesz.multiscale import (
    LinearFieldOp,
    PredecessorSplit,
    build_ring_cover_family,
    default_even_family,
    default_levels,
    op_norm2_estimate,
    rearrangement_op,
    rearrangement_operator,
    ring_cover,
    ring_projection,
    ring_projection_operator,
    sine_profile_family,
    t_ell,
    t_ell_operator,
    t_ell_riesz_ratio,
    validate_ring_family,
)

D10 = Direction((1, 0))


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

    def test_linearity(self):
        lv = [1, 2, 3]
        u = random_field(2, 6, seed=52, index=0)
        v = random_field(2, 6, seed=52, index=1)
        lhs = t_ell(u + 3.0 * v, D10, 1, levels=lv)
        rhs = t_ell(u, D10, 1, levels=lv) + 3.0 * t_ell(v, D10, 1, levels=lv)
        assert (lhs - rhs).lp_norm(2) <= 1e-9 * max(lhs.lp_norm(2), 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adjoint_identity(self, n):
        op = t_ell_operator(n, 6, axis_direction(n, 1), 1)
        u = random_field(n, 6, seed=53, index=0)
        v = random_field(n, 6, seed=53, index=1)
        assert abs(op.apply(u).inner(v) - u.inner(op.adjoint(v))) <= 1e-12

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
        expect = directional_project(tail, direction, default_levels(J)).lp_norm(2)
        assert res[-1] == pytest.approx(expect, rel=1e-12)


class TestOpNorm:
    def test_identity(self):
        op = LinearFieldOp(apply=lambda u: u, adjoint=lambda u: u, name="id")
        r = op_norm2_estimate(op, 2, 5, iters=15, seed=1)
        assert r.value == pytest.approx(1.0, abs=1e-6)
        assert r.converged

    def test_projection_norm_one(self):
        op = LinearFieldOp(
            apply=lambda u: directional_project(u, D10),
            adjoint=lambda u: directional_project(u, D10),
            name="P",
        )
        r = op_norm2_estimate(op, 2, 5, iters=20, seed=1)
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_scaling(self):
        op = LinearFieldOp(apply=lambda u: 2.0 * u, adjoint=lambda u: 2.0 * u, name="2id")
        r = op_norm2_estimate(op, 2, 5, iters=15, seed=1)
        assert r.value == pytest.approx(2.0, abs=1e-6)

    def test_rayleigh_nondecreasing(self):
        op = t_ell_operator(2, 6, D10, 0)
        r = op_norm2_estimate(op, 2, 6, iters=20, seed=2)
        for a, b in zip(r.rayleigh, r.rayleigh[1:]):
            assert b >= a - 1e-12 * max(abs(a), 1.0)

    def test_requires_ten_iterations(self):
        op = LinearFieldOp(apply=lambda u: u, adjoint=lambda u: u)
        with pytest.raises(ValueError):
            op_norm2_estimate(op, 2, 4, iters=5)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, 1.0, float("nan")])
    def test_requires_tol_in_unit_interval(self, tol):
        op = LinearFieldOp(apply=lambda u: u, adjoint=lambda u: u)
        with pytest.raises(ValueError, match="tol"):
            op_norm2_estimate(op, 2, 4, iters=10, tol=tol)

    def test_flags_slow_convergence(self):
        # two close top singular values keep the Rayleigh quotient moving
        # after ten iterations
        from haarriesz.fields import single_haar_block

        h1 = single_haar_block(2, 4, 0, (0, 0), (1, 0))
        h2 = single_haar_block(2, 4, 0, (0, 0), (0, 1))

        def apply(u):
            return u.inner(h1) * h1 + 0.95 * u.inner(h2) * h2

        op = LinearFieldOp(apply=apply, adjoint=apply, name="two-eig")
        r = op_norm2_estimate(op, 2, 4, iters=10, seed=3)
        assert not r.converged
        assert r.value <= 1.0 + 1e-9
        # with more iterations the same operator converges
        r2 = op_norm2_estimate(op, 2, 4, iters=120, seed=3)
        assert r2.converged
        assert r2.value == pytest.approx(1.0, abs=1e-4)

    def test_converged_is_a_residual_certificate_on_every_seed(self):
        # normal operator eigenvalues 1 and 0.95^2 on span{h1, h2}, 0 elsewhere
        h1 = single_haar_block(2, 4, 0, (0, 0), (1, 0))
        h2 = single_haar_block(2, 4, 0, (0, 0), (0, 1))

        def apply(u):
            return u.inner(h1) * h1 + 0.95 * u.inner(h2) * h2

        op = LinearFieldOp(apply=apply, adjoint=apply, name="two-eig")
        for seed in range(20):
            for iters, expected in ((10, False), (120, True)):
                r = op_norm2_estimate(op, 2, 4, iters=iters, seed=seed)
                theta = r.rayleigh[-1]
                assert r.converged is expected, (seed, iters, r.residual)
                assert r.converged == (r.residual <= 1e-4 * theta)
                if r.converged:
                    assert min(abs(theta - lam) for lam in (1.0, 0.9025)) <= r.residual


class TestTlDecay:
    def test_norm_decay_at_p2(self):
        norms = tl_decay_norms(2, 7, D10, range(-4, 5), iters=24, seed=0)
        m = norms
        for ell in (1, 2, 3, 4):
            assert m[ell] <= m[0] * 2.0 ** (-ell / 2.0) * 2.0
        for ell in (2, 3, 4):
            assert m[-ell] <= m[-1] * 2.0 ** (-(ell - 1) / 2.0) * 2.0

    def test_riesz_ratio_scaling(self):
        r = {ell: t_ell_riesz_ratio(2, 6, D10, 1, ell, 2.0, trials=4, seed=0)
             for ell in range(-3, 4)}
        for ell in (1, 2, 3):
            assert r[ell] <= r[0] * 2.0 ** (ell / 2.0) * 2.0
        for ell in (2, 3):
            assert r[-ell] <= r[-1] * 2.0 ** (-(ell - 1) / 2.0) * 2.0

    def test_riesz_ratio_requires_admissible_direction(self):
        with pytest.raises(ValueError):
            t_ell_riesz_ratio(2, 6, Direction((0, 1)), 1, 0, 2.0, trials=2, seed=0)

    def test_riesz_ratio_trivial_zero(self):
        # an empty level window makes every slice vanish: ratio 0
        assert t_ell_riesz_ratio(2, 6, D10, 1, 0, 2.0, trials=1, seed=0, levels=[]) == 0.0

    def test_riesz_ratio_requires_trials(self):
        with pytest.raises(ValueError, match="empty"):
            t_ell_riesz_ratio(2, 6, D10, 1, 0, 2.0, trials=0, seed=0)


class TestRingCover:
    def test_forty_cell_example(self):
        cover = ring_cover(DyadicCube(2, 0, (0, 0)), D10, lam=3, C=0.5)
        assert len(cover) == 40
        assert sum(E.volume() for E in cover) == pytest.approx(40.0 / 64.0)

    def test_measure_constant_bound(self):
        Q = DyadicCube(2, 0, (0, 0))
        for lam in (3, 4, 5):
            rc = build_ring_cover_family([Q], D10, lam, C=0.5)
            assert rc.measure_constant(Q) <= 6.0

    def test_count_bound(self):
        Q = DyadicCube(2, 0, (0, 0))
        for lam in (3, 4, 5):
            cover = ring_cover(Q, D10, lam, C=0.5)
            assert len(cover) <= 6 * 2 ** (lam * (2 - 1))

    def test_degenerate_thickness_covers_everything(self):
        cover = ring_cover(DyadicCube(2, 0, (0, 0)), D10, lam=0, C=1.0)
        assert len(cover) == 1

    def test_level_overflow(self):
        with pytest.raises(ValueError):
            ring_cover(DyadicCube(2, 1, (0, 0)), D10, lam=-1)

    def test_even_family_is_valid(self):
        fam = default_even_family(2, 2)
        rc = build_ring_cover_family(fam, D10, lam=3, C=0.5)
        validate_ring_family(rc)

    def test_nested_tower_is_valid(self):
        fam = [DyadicCube(2, j, (0, 0)) for j in range(3)]
        rc = build_ring_cover_family(fam, D10, lam=3, C=0.5)
        validate_ring_family(rc)

    def test_validator_names_offending_pair(self):
        # adjacent same-level cubes share boundary ring cells
        fam = [DyadicCube(2, 1, (0, 0)), DyadicCube(2, 1, (1, 0))]
        rc = build_ring_cover_family(fam, D10, lam=3, C=0.5)
        with pytest.raises(ValueError, match="share"):
            validate_ring_family(rc)

    def test_validator_rejects_nesting_violation(self):
        # an all-even multi-level family puts fine ring cells inside coarse
        # ones without cube containment
        fam = default_even_family(2, 1) + [DyadicCube(2, 2, (2, 0))]
        rc = build_ring_cover_family(fam, D10, lam=3, C=0.5)
        with pytest.raises(ValueError, match="nesting|share"):
            validate_ring_family(rc)


class TestRingProjection:
    def test_orthogonal_input_annihilated(self):
        fam = [DyadicCube(2, 1, (0, 0))]
        u = single_haar_block(2, 6, 2, (2, 2), (1, 0))  # different cube
        out = ring_projection(u, fam, D10, lam=2)
        assert out.lp_norm(2) <= 1e-13

    def test_single_term_reproduces_cover_sum(self):
        Q = DyadicCube(2, 0, (0, 0))
        u = single_haar_block(2, 6, 0, (0, 0), (1, 0))
        out = ring_projection(u, [Q], D10, lam=3)
        cover = ring_cover(Q, D10, lam=3, C=0.5)
        expect = GridFunction.zeros(2, 6)
        for E in cover:
            expect = expect + single_haar_block(2, 6, E.j, E.k, (1, 0))
        assert (out - expect).lp_norm(2) <= 1e-12

    def test_linearity(self):
        fam = default_even_family(2, 1)
        u = random_field(2, 6, seed=54, index=0)
        v = random_field(2, 6, seed=54, index=1)
        lhs = ring_projection(u + 2.0 * v, fam, D10, lam=2)
        rhs = ring_projection(u, fam, D10, lam=2) + 2.0 * ring_projection(v, fam, D10, lam=2)
        assert (lhs - rhs).lp_norm(2) <= 1e-12

    def test_adjoint_identity(self):
        fam = default_even_family(2, 1)
        op = ring_projection_operator(2, 6, fam, D10, lam=2)
        u = random_field(2, 6, seed=55, index=0)
        v = random_field(2, 6, seed=55, index=1)
        assert abs(op.apply(u).inner(v) - u.inner(op.adjoint(v))) <= 1e-12

    def test_norm_decay(self):
        norms = ring_decay_norms(2, 7, D10, (3, 4, 5), base_level=1, iters=24, seed=0)
        for lo, hi in ((3, 4), (4, 5)):
            assert norms[hi] / norms[lo] <= 2.0**-0.5 * 1.5


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
        norms = rearrangement_norms(2, 7, (1, 2, 3), iters=16, seed=0)
        for lo, hi in ((1, 2), (2, 3)):
            assert norms[hi] / norms[lo] <= 2.0**2 * 1.5
