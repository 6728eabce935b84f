"""Blocks, layered collections, analytic Gram/Bessel engine, sharpness runs."""

import math

import numpy as np
import pytest

from haarriesz.fourier import riesz
from haarriesz.grid import DyadicCube
from haarriesz.haar import bmo_d_norm, directional_project, haar_analyze
from haarriesz.profiles import haar_pieces, profile_integral, profile_product_integral
from haarriesz.sharpness import (
    DIRECTION_10,
    BlockSpec,
    bessel_lower_bound,
    block_field,
    block_inner_products,
    block_vs_block,
    block_vs_haar,
    build_collection,
    collection_coefficient,
    dense_lp_norm,
    f_eps_field,
    gram_norm2,
    mother_profiles,
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
    single_block_square,
    unit_square_coefficient,
)

PI = math.pi


class TestMotherProfiles:
    def test_a_against_haar(self):
        m = mother_profiles()
        val = profile_product_integral(list(m.A), haar_pieces(0.0, 1.0))
        assert val == pytest.approx(2.0 / PI, abs=1e-12)

    def test_means(self):
        m = mother_profiles()
        assert profile_integral(list(m.A)) == pytest.approx(0.0, abs=1e-14)
        assert profile_integral(list(m.B)) == pytest.approx(0.0, abs=1e-14)
        assert profile_integral(list(m.A_tilde)) == pytest.approx(0.0, abs=1e-13)

    def test_energies(self):
        m = mother_profiles()
        assert profile_product_integral(list(m.A), list(m.A)) == pytest.approx(0.5, abs=1e-12)
        assert profile_product_integral(list(m.B), list(m.B)) == pytest.approx(1.0, abs=1e-12)
        # A~ = A': energy 2 pi^2; B~ = int B: energy 3/pi^2
        assert profile_product_integral(list(m.A_tilde), list(m.A_tilde)) == pytest.approx(
            2.0 * PI**2, rel=1e-12
        )
        assert profile_product_integral(list(m.B_tilde), list(m.B_tilde)) == pytest.approx(
            3.0 / PI**2, rel=1e-12
        )

    def test_b_tilde_supported_and_zero_at_edges(self):
        m = mother_profiles()
        p = m.B_tilde[0]
        assert p.value(np.array([-1.0 + 1e-12]))[0] == pytest.approx(0.0, abs=1e-10)
        assert p.value(np.array([1.0 - 1e-12]))[0] == pytest.approx(0.0, abs=1e-10)


class TestBlocks:
    def test_unit_square_coefficient_paper_value(self):
        for eps in (0.5, 0.25, 0.125, 2.0**-6):
            assert unit_square_coefficient(eps) == pytest.approx(4.0 * eps / PI**2, abs=1e-10)

    def test_self_inner_product(self):
        for eps in (0.5, 0.25):
            for Q in (DyadicCube(2, 0, (0, 0)), DyadicCube(2, 2, (3, 1))):
                b = BlockSpec(Q, eps)
                assert block_vs_block(b, b) == pytest.approx(eps * Q.volume() / 2.0, rel=1e-12)

    def test_adjacent_sign_flip(self):
        # J' directly above J: coefficient flips sign exactly
        eps = 0.25
        Q = DyadicCube(2, 3, (2, 4))
        Qp = DyadicCube(2, 3, (2, 5))
        a = block_vs_haar(BlockSpec(Q, eps), Q)
        b = block_vs_haar(BlockSpec(Qp, eps), Q)
        assert a == pytest.approx(eps * 4.0 * Q.volume() / PI**2, rel=1e-12)
        assert b == pytest.approx(-a, rel=1e-12)

    def test_separated_same_level_vanishes(self):
        eps = 0.25
        Q = DyadicCube(2, 3, (2, 2))
        for k2 in (0, 4, 6):
            Qp = DyadicCube(2, 3, (2, k2))
            assert block_vs_haar(BlockSpec(Qp, eps), Q) == 0.0

    def test_smaller_block_vanishes(self):
        eps = 0.25
        Q = DyadicCube(2, 1, (0, 1))
        Qp = DyadicCube(2, 3, (1, 5))
        assert abs(block_vs_haar(BlockSpec(Qp, eps), Q)) <= 1e-15

    def test_umbrella_entry_point(self):
        eps = 0.5
        Q = DyadicCube(2, 0, (0, 0))
        b = BlockSpec(Q, eps)
        assert block_inner_products(b, Q, "vs_haar10") == pytest.approx(4.0 * eps / PI**2)
        assert block_inner_products(b, Q, "vs_block") == pytest.approx(eps / 2.0)
        with pytest.raises(ValueError):
            block_inner_products(b, Q, "vs_wavelet")

    def test_eps_must_be_dyadic(self):
        with pytest.raises(ValueError):
            BlockSpec(DyadicCube(2, 0, (0, 0)), 0.3)


class TestCollection:
    def test_layer_counts_eps_half(self):
        coll = build_collection(0.5)
        assert coll.layer_count(1) == 8
        assert coll.layer_count(2) == 128
        assert coll.layer_measure(1) == pytest.approx(0.5)
        assert coll.layer_measure(2) == pytest.approx(0.5)
        assert coll.total_measure() == pytest.approx(1.0)

    def test_total_measure_formula(self):
        for eps in (0.5, 0.25, 0.125):
            coll = build_collection(eps, sampling=True)
            assert coll.total_measure() == pytest.approx(1.0 / (2.0 * eps))

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            build_collection(0.25)
        build_collection(0.25, sampling=True)  # sampling mode allowed

    def test_layers_past_int64_indices_rejected(self):
        # the deepest layer of eps = 2^-n0 sits at level 2 n0 2^n0: 128 at 1/16
        with pytest.raises(ValueError, match=r"eps=0\.0625.*level 128"):
            build_collection(1 / 16, sampling=True)

    def test_pge2_experiment_rejects_small_eps(self):
        with pytest.raises(ValueError, match=r"eps=0\.00390625.*level 4096"):
            sharpness_experiment_pge2([1 / 256], 0.1)

    def test_layer_cardinality_formula(self):
        # at eps = 1/4 layer k holds 2^(8k-1) squares
        coll = build_collection(0.25, sampling=True)
        for k in range(1, 5):
            assert coll.layer_count(k) == 2.0 ** (8 * k - 1)

    def test_interval_separation(self):
        # within a layer, distinct J-intervals are >= one width apart
        coll = build_collection(0.5)
        squares = list(coll.iter_layer(1))
        i2s = sorted({Q.k[1] for Q in squares})
        assert all(b - a >= 2 for a, b in zip(i2s, i2s[1:]))

    def test_supports_stay_inside_unit_square(self):
        coll = build_collection(0.5)
        for Q in coll.iter_all():
            lo = Q.k[1] * Q.side - coll.eps_param * Q.side
            hi = Q.k[1] * Q.side + coll.eps_param * Q.side
            assert 0.0 < lo and hi < 1.0

    def test_sampling_is_deterministic(self):
        coll = build_collection(0.25, sampling=True)
        a = coll.sample_layer(2, 16, seed=3)
        b = coll.sample_layer(2, 16, seed=3)
        assert a == b


class TestCoefficientEngine:
    def test_matches_dense_grid(self):
        coll = build_collection(0.5)
        f = f_eps_field(0.5, 7)
        c = haar_analyze(f)
        for Q in coll.iter_all():
            analytic = collection_coefficient(coll, Q)
            dense = c.coefficient(Q, DIRECTION_10) * Q.volume()
            assert analytic == pytest.approx(dense, abs=1e-12)

    def test_coefficients_positive_with_bounded_corrections(self):
        # the coarser-layer corrections obey |sum| <= C eps^2 |Q| with a
        # single C across eps, so every coefficient is a positive multiple
        # of eps |Q|
        for eps, mode, m in ((0.5, "exact", 0), (0.25, "sampled", 60)):
            coll = build_collection(eps, sampling=(mode == "sampled"))
            if mode == "exact":
                squares = list(coll.iter_all())
            else:
                squares = [Q for k in range(2, coll.layer_total + 1)
                           for Q in coll.sample_layer(k, m, seed=4)]
            worst = 0.0
            for Q in squares:
                diag = block_vs_haar(coll.block(Q), Q)
                total = collection_coefficient(coll, Q)
                worst = max(worst, abs(total - diag) / (eps**2 * Q.volume()))
                assert abs(total) > 0.0
            assert worst <= 2.0

    def test_gram_matches_dense_quadrature(self):
        coll = build_collection(0.5)
        blocks = [coll.block(Q) for Q in coll.iter_all()]
        dense = dense_lp_norm(blocks, 7, 2.0) ** 2
        exact = gram_norm2(0.5, "plain", "exact")
        assert exact == pytest.approx(dense, rel=1e-6)

    def test_gram_tilde_matches_dense_quadrature(self):
        coll = build_collection(0.5)
        blocks = [coll.block(Q, "tilde") for Q in coll.iter_all()]
        dense = dense_lp_norm(blocks, 7, 2.0) ** 2
        exact = gram_norm2(0.5, "tilde", "exact")
        assert exact == pytest.approx(dense, rel=1e-6)

    def test_diagonal_truncation_error_small(self):
        for eps in (0.5,):
            full = gram_norm2(eps, "plain", "exact")
            diag = gram_norm2(eps, "plain", "exact", diagonal_only=True)
            assert abs(full - diag) <= 4.0 * eps**2 * full

    def test_single_block_gram(self):
        b = BlockSpec(DyadicCube(2, 0, (0, 0)), 0.5)
        assert gram_norm2(0.5, "plain", "exact", diagonal_only=True) >= block_vs_block(b, b)


class TestBessel:
    def test_exact_value_at_half(self):
        val = bessel_lower_bound(0.5, "exact")
        lead = 8.0 * 0.5 / PI**4
        assert val >= 0.5 * lead
        # and stays within the (1 + C eps)^2 window of the leading term
        assert val <= 4.0 * lead

    def test_dense_oracle_single_layer(self):
        coll = build_collection(0.5)
        f = f_eps_field(0.5, 7)
        c = haar_analyze(f)
        dense = 0.0
        for Q in coll.iter_layer(1):
            coeff = c.coefficient(Q, DIRECTION_10) * Q.volume()
            dense += coeff**2 / Q.volume()
        exact = bessel_lower_bound(0.5, "exact", layers=[1])
        assert exact == pytest.approx(dense, rel=1e-8)

    def test_bessel_below_projection_norm(self):
        f = f_eps_field(0.5, 7)
        p2 = directional_project(f, DIRECTION_10).lp_norm(2) ** 2
        assert bessel_lower_bound(0.5, "exact") <= p2

    def test_sampled_tracks_exact(self):
        exact = bessel_lower_bound(0.5, "exact")
        sampled = bessel_lower_bound(0.5, "sampled", sample_size=150, seed=1)
        assert sampled == pytest.approx(exact, rel=0.25)

    def test_linear_growth_in_eps(self):
        vals = {e: bessel_lower_bound(e, "sampled", sample_size=120, seed=2)
                for e in (0.5, 0.25, 0.125)}
        scaled = [vals[e] / e for e in (0.5, 0.25, 0.125)]
        assert max(scaled) <= 2.0 * min(scaled)

    def test_sampling_needs_draws(self):
        with pytest.raises(ValueError):
            bessel_lower_bound(0.25, "sampled", sample_size=5)


class TestRieszIdentity:
    def test_tilde_identity_on_grid(self):
        # R_1 g = eps R_2 g~ for the block; the discrete error is pure
        # resolution error and shrinks with J
        eps = 0.5
        block = BlockSpec(single_block_square(), eps)
        tilde = BlockSpec(single_block_square(), eps, "tilde")
        errs = []
        for J in (7, 8):
            g = block_field(block, J)
            gt = block_field(tilde, J)
            lhs = riesz(g, 1)
            rhs = eps * riesz(gt, 2)
            errs.append((lhs - rhs).lp_norm(2) / lhs.lp_norm(2))
        assert errs[0] <= 2e-2
        assert errs[1] <= 0.5 * errs[0]

    def test_riesz_upper_bound_at_half(self):
        f = f_eps_field(0.5, 7)
        measured = riesz(f, 1).lp_norm(2)
        bound = 3.0 * 0.5 * math.sqrt(gram_norm2(0.5, "tilde", "exact"))
        assert measured <= bound


class TestExperiments:
    def test_pge2_table(self):
        rows = sharpness_experiment_pge2([0.5, 0.25, 0.125], eta=0.1, sample_size=150, seed=0)
        floor = 2.0**0.1 * 0.7
        assert rows[0].mode == "exact" and rows[1].mode == "sampled"
        for a, b in zip(rows, rows[1:]):
            assert b.ratio / a.ratio >= floor
        assert rows[0].lower_P >= 0.1 * math.sqrt(0.5)

    def test_pge2_eta_zero_bounded(self):
        rows = sharpness_experiment_pge2([0.5, 0.25, 0.125], eta=0.0, sample_size=150, seed=0)
        ratios = [r.ratio for r in rows]
        assert max(ratios) <= 3.0 * min(ratios)

    def test_ple2_table(self):
        rows = single_block_experiment_ple2([0.5, 0.25, 0.125], p=1.5, eta=0.1)
        floor = 2.0**0.1 * 0.7
        for a, b in zip(rows, rows[1:]):
            assert b.ratio / a.ratio >= floor

    def test_ple2_norm_bound_shape(self):
        # ||g||_p <= 2 (eps |Q|)^{1/p} for the rescaled block
        p = 1.5
        sq = single_block_square()
        for eps in (0.5, 0.25, 0.125):
            n0 = int(round(-math.log2(eps)))
            norm = dense_lp_norm([BlockSpec(sq, eps)], n0 + 6, p)
            assert norm <= 2.0 * (eps * sq.volume()) ** (1.0 / p)

    def test_ple2_validates_p(self):
        with pytest.raises(ValueError):
            single_block_experiment_ple2([0.5], p=3.0, eta=0.1)

    def test_bmo_control(self):
        f7 = f_eps_field(0.5, 7)
        f8 = f_eps_field(0.5, 8)
        b7, b8 = bmo_d_norm(f7), bmo_d_norm(f8)
        assert b7 <= 5.0
        assert abs(b8 - b7) <= 0.2 * b7
