"""Separately convex integrands, Jensen defect, residual ratio,
semicontinuity experiment."""

import numpy as np
import pytest
from grid_oracle import embed
from projection_oracle import a0_apply, residual_ratio

from haarriesz.fields import haar_polynomial, haar_polynomials
from haarriesz.grid import GridFunction
from haarriesz.semiconvexity import (
    Integrand,
    a0_max_entry,
    check_separately_convex,
    contrast_sequence,
    jensen_range_check,
    oscillation_sequence,
    registry_integrands,
    semicontinuity_experiment,
)


def random_haar_vector(J: int, seed: int, index: int, max_level=None) -> np.ndarray:
    top = (J - 1) if max_level is None else max_level
    return np.stack(
        [haar_polynomial(2, J, seed, index=2 * index + c, max_level=top).values for c in (0, 1)]
    )


def vector(*comps: GridFunction) -> np.ndarray:
    return np.stack([c.values for c in comps])


class TestSeparateConvexity:
    def test_registry_members_pass(self):
        for f in registry_integrands():
            assert check_separately_convex(f), f.name

    def test_rejects_concave(self):
        bad = Integrand("neg_sq", lambda a: -(a[..., 0] ** 2), 2)
        assert not check_separately_convex(bad)

    def test_accepts_product(self):
        ab = Integrand("ab", lambda a: a[..., 0] * a[..., 1], 2)
        assert check_separately_convex(ab)

    def test_rejects_saddle_in_single_axis(self):
        # convex in a, concave in b
        bad = Integrand("mixed", lambda a: a[..., 0] ** 2 - a[..., 1] ** 2, 2)
        assert not check_separately_convex(bad)


class TestA0:
    def test_single_variable_components_vanish(self):
        v1 = embed(lambda x, y: np.sin(2 * np.pi * x) + x * 0, 2, 5)
        v2 = embed(lambda x, y: np.cos(2 * np.pi * y) + y * 0, 2, 5)
        assert a0_max_entry(vector(v1, v2)) <= 1e-10

    def test_cross_entry_spectral_derivative(self):
        v1 = embed(lambda x, y: np.sin(2 * np.pi * y), 2, 6)
        entries = a0_apply(vector(v1, GridFunction.zeros(2, 6)))
        expect = embed(lambda x, y: 2 * np.pi * np.cos(2 * np.pi * y), 2, 6)
        assert np.abs(entries[(2, 1)].values - expect.values).max() <= 1e-8
        assert entries[(1, 2)].lp_norm(2) <= 1e-12

    def test_constant_vanishes(self):
        v = vector(GridFunction.constant(2, 4, 3.0), GridFunction.constant(2, 4, -1.0))
        assert a0_max_entry(v) <= 1e-14

    @pytest.mark.parametrize("n,J", [(2, 5), (3, 4)])
    def test_max_entry_equals_the_per_pair_oracle(self, n, J):
        for index in range(3):
            v = haar_polynomials(n, J, seed=68, indices=range(n * index, n * index + n))
            want = max(float(np.abs(e.values).max()) for e in a0_apply(v).values())
            assert a0_max_entry(v) == want
        v = contrast_sequence(n, J, 2)
        assert a0_max_entry(v) == max(float(np.abs(e.values).max())
                                      for e in a0_apply(v).values())

    def test_rejects_misshapen_fields(self):
        for shape in [(2, 16, 8), (3, 16, 16), (2, 12, 12), (4,) + (4,) * 4, ()]:
            with pytest.raises(ValueError, match="shape"):
                a0_max_entry(np.zeros(shape))


class TestJensen:
    def test_product_of_independent_blocks_is_tight(self):
        from haarriesz.fields import single_haar_block

        regs = {f.name: f for f in registry_integrands()}
        v = vector(single_haar_block(2, 4, 0, (0, 0), (1, 0)),
                   single_haar_block(2, 4, 0, (0, 0), (0, 1)))
        (defect,) = jensen_range_check(v[None], [regs["ab"]], 0)
        assert defect == pytest.approx(0.0, abs=1e-12)

    def test_convex_quadratic(self):
        quad = Integrand("sq", lambda a: a[..., 0] ** 2 + a[..., 1] ** 2, 2)
        v = random_haar_vector(4, seed=60, index=0)
        assert jensen_range_check(v[None], [quad], 1)[0] >= -1e-9

    @pytest.mark.parametrize("M", [0, 1, 2, 3])
    def test_registry_over_random_fields(self, M):
        regs = registry_integrands()
        for i in range(50):
            v = random_haar_vector(4, seed=61, index=i)
            for defect in jensen_range_check(v[None], regs, M):
                assert defect >= -1e-9

    def test_rejects_non_convex_integrand(self):
        bad = Integrand("neg_sq", lambda a: -(a[..., 0] ** 2), 2)
        v = random_haar_vector(4, seed=62, index=0)
        with pytest.raises(ValueError, match="convex"):
            jensen_range_check(v[None], [bad], 1)

    def test_probes_each_integrand_once(self):
        probes = []

        def ab(a):
            probes.append(a.shape)
            return a[..., 0] * a[..., 1]

        f = Integrand("ab_counted", ab, 2)
        bad = Integrand("neg_sq", lambda a: -(a[..., 0] ** 2), 2)
        for i in range(3):
            v = random_haar_vector(4, seed=64, index=i)
            jensen_range_check(v[None], [f], 1)
            with pytest.raises(ValueError, match="convex"):
                jensen_range_check(v[None], [bad], 1)
        assert probes.count((61, 61, 2)) == 1

    @pytest.mark.parametrize("M", [0, 1, 2, 3])
    def test_list_form_matches_single_calls(self, M):
        regs = registry_integrands()
        for i in range(5):
            v = random_haar_vector(4, seed=63, index=i)
            assert jensen_range_check(v[None], regs, M) == [
                jensen_range_check(v[None], [f], M)[0] for f in regs
            ]

    @pytest.mark.parametrize("n,J", [(2, 4), (3, 3), (3, 4)])
    @pytest.mark.parametrize("M", [0, 1, 2, 3])
    def test_family_equals_min_over_single_fields(self, n, J, M):
        # the batch against one call per field, each field drawn on its own
        regs = registry_integrands()
        vs = np.stack([
            np.stack([haar_polynomial(n, J, seed=66, index=n * i + c).values for c in range(n)])
            for i in range(7)])
        singles = [jensen_range_check(v[None], regs, M) for v in vs]
        assert jensen_range_check(vs, regs, M) == [min(d) for d in zip(*singles)]

    def test_rejects_empty_and_misshapen_batches(self):
        regs = registry_integrands()
        with pytest.raises(ValueError, match="no vector fields"):
            jensen_range_check(np.zeros((0, 2, 16, 16)), regs, 0)
        for shape in [(1, 2, 16, 8), (1, 3, 16, 16), (2, 2, 16), (1, 2, 12, 12)]:
            with pytest.raises(ValueError, match="shape"):
                jensen_range_check(np.zeros(shape), regs, 0)
        for M in (-1, 5):
            with pytest.raises(ValueError, match="M must be"):
                jensen_range_check(np.zeros((1, 2, 16, 16)), regs, M)

    def test_three_component_integrand(self):
        f3 = Integrand(
            "abc_mix",
            lambda a: a[..., 0] * a[..., 1] + a[..., 1] * a[..., 2] + a[..., 0] ** 2,
            3,
        )
        assert check_separately_convex(f3)
        v = haar_polynomials(3, 3, seed=65, indices=range(3), max_level=2)
        for M in (0, 1, 2):
            assert jensen_range_check(v[None], [f3], M)[0] >= -1e-9


class TestResidualRatio:
    def test_exact_zero_case(self):
        v1 = embed(lambda x, y: np.sin(2 * np.pi * x) + 0 * x, 2, 6)
        v2 = embed(lambda x, y: np.sin(2 * np.pi * y) + 0 * y, 2, 6)
        assert residual_ratio(vector(v1, v2), 2.0) == 0.0

    def test_block_case_finite(self):
        from haarriesz.fields import single_haar_block

        v = vector(single_haar_block(2, 5, 0, (0, 0), (0, 1)), GridFunction.zeros(2, 5))
        r = residual_ratio(v, 2.0)
        assert np.isfinite(r) and r > 0

    def test_rejects_p_below_two(self):
        v = random_haar_vector(4, seed=63, index=0)
        with pytest.raises(ValueError):
            residual_ratio(v, 1.5)

    def test_stability_under_refinement(self):
        # same Haar-polynomial family at J = 6 and J = 7
        def max_ratio(J: int) -> float:
            best = 0.0
            for i in range(40):
                v = random_haar_vector(J, seed=64, index=i, max_level=3)
                best = max(best, residual_ratio(v, 2.0))
            return best

        r6, r7 = max_ratio(6), max_ratio(7)
        assert abs(r7 - r6) <= 0.2 * r6


class TestSemicontinuity:
    def setup_method(self):
        self.regs = {f.name: f for f in registry_integrands()}
        self.phi = GridFunction.constant(2, 8, 1.0)

    def test_compliant_product_sequence(self):
        (rows,) = semicontinuity_experiment(
            [self.regs["ab"]], self.phi, [1, 2, 3, 4],
            lambda r: oscillation_sequence(2, 8, r),
        )
        for row in rows:
            assert row.compliant
            assert abs(row.I_r) <= 1e-10
            assert row.I_r >= row.I_limit - 1e-8

    def test_convex_integrand_classical(self):
        quad = Integrand("sq", lambda a: a[..., 0] ** 2 + a[..., 1] ** 2, 2)
        (rows,) = semicontinuity_experiment(
            [quad], self.phi, [1, 2, 3], lambda r: oscillation_sequence(2, 8, r)
        )
        for row in rows:
            assert row.I_r >= row.I_limit - 1e-9

    def test_contrast_violates(self):
        (rows,) = semicontinuity_experiment(
            [self.regs["ab"]], self.phi, [2, 3],
            lambda r: contrast_sequence(2, 8, r),
        )
        for row in rows:
            assert not row.compliant
            assert row.a0_norm > 1e-8
        assert max(r.I_limit - r.I_r for r in rows) >= 0.4

    def test_positively_correlated_contrast_converges_upward(self):
        # same-sign components: the product integrand converges to 1/2, not
        # to the weak-limit value 0
        def same_sign(r):
            first = contrast_sequence(2, 8, r)[0]
            return np.stack([first, first])

        (rows,) = semicontinuity_experiment([self.regs["ab"]], self.phi, [3], same_sign)
        assert rows[0].I_r == pytest.approx(0.5, abs=5e-3)
        assert not rows[0].compliant

    @pytest.mark.parametrize("n,J", [(2, 8), (3, 5)])
    @pytest.mark.parametrize("sequence", [oscillation_sequence, contrast_sequence])
    def test_integrand_list_matches_single_runs(self, n, J, sequence):
        fs = registry_integrands()
        phi = GridFunction.constant(n, J, 1.0)
        rows = semicontinuity_experiment(fs, phi, [1, 2, 3], lambda r: sequence(n, J, r))
        assert rows == [
            semicontinuity_experiment([f], phi, [1, 2, 3], lambda r: sequence(n, J, r))[0]
            for f in fs
        ]

    def test_rejects_negative_test_function(self):
        phi = GridFunction.constant(2, 8, -1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            semicontinuity_experiment(
                [self.regs["ab"]], phi, [1], lambda r: oscillation_sequence(2, 8, r)
            )

    def test_nonconstant_test_function(self):
        phi = embed(lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x), 2, 8)
        (rows,) = semicontinuity_experiment(
            [self.regs["quad_cross"]], phi, [2, 3, 4],
            lambda r: oscillation_sequence(2, 8, r),
        )
        for row in rows:
            assert row.I_r >= row.I_limit - 1e-8
