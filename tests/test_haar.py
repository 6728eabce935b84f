"""Haar analysis/synthesis, projections, square function, BMO."""

import itertools

import numpy as np
import pytest
from fields_oracle import white_noise
from grid_oracle import cell_slices, embed
from projection_oracle import (
    bmo_d_norm,
    level_field_by_merge,
    level_sum_by_fields,
    project_by_pyramid,
    square_function,
    vector_project,
)

from haarriesz import multiscale
from haarriesz.fields import random_field, single_haar_block
from haarriesz.grid import Direction, DyadicCube, GridFunction, _upsample, all_directions
from haarriesz.haar import (
    HaarCoefficients,
    _block_mean,
    _merge_block,
    _project_stack,
    _split_block,
    conditional_expectation,
    directional_project,
    haar_analyze,
    haar_synthesize,
    level_coefficients,
    level_field,
)


def haar_field_bruteforce(n: int, J: int, cube: DyadicCube, direction: Direction) -> np.ndarray:
    """h_Q^(eps) evaluated per cell by the tensor sign pattern."""
    N = 2**J
    out = np.ones((N,) * n)
    centers = (np.arange(N) + 0.5) / N
    for ax in range(n):
        lo = cube.k[ax] * cube.side
        inside = (centers >= lo) & (centers < lo + cube.side)
        if direction.bits[ax]:
            sign = np.where(centers < lo + cube.side / 2, 1.0, -1.0) * inside
        else:
            sign = inside.astype(float)
        shape = [1] * n
        shape[ax] = N
        out = out * sign.reshape(shape)
    return out


class TestRoundTripAndParseval:
    @pytest.mark.parametrize("n,J", [(1, 6), (2, 5), (3, 4)])
    def test_roundtrip_and_parseval_random(self, n, J):
        for i in range(20):
            u = white_noise(n, J, seed=11, index=i)
            c = haar_analyze(u)
            v = haar_synthesize(c)
            assert np.abs(v.values - u.values).max() <= 1e-12
            e = u.lp_norm(2) ** 2
            assert abs(c.energy() - e) <= 1e-10 * e

    def test_constant_has_only_mean(self):
        u = GridFunction.constant(2, 3, 2.5)
        c = haar_analyze(u)
        assert c.mean == pytest.approx(2.5)
        for dirs in c.levels.values():
            for arr in dirs.values():
                assert np.abs(arr).max() == 0.0

    def test_basis_element(self):
        u = single_haar_block(2, 3, 0, (0, 0), (1, 0))
        c = haar_analyze(u)
        assert c.coefficient(DyadicCube(2, 0, (0, 0)), Direction((1, 0))) == pytest.approx(1.0)
        total = sum(np.abs(arr).sum() for dirs in c.levels.values() for arr in dirs.values())
        assert total == pytest.approx(1.0)

    def test_analyze_matches_bruteforce_inner_products(self):
        n, J = 2, 2
        u = white_noise(n, J, seed=12)
        c = haar_analyze(u)
        vol = 2.0 ** (-n * J)
        for j in range(J):
            for k in itertools.product(range(2**j), repeat=n):
                Q = DyadicCube(n, j, k)
                for d in all_directions(n):
                    h = haar_field_bruteforce(n, J, Q, d)
                    expected = float((u.values * h).sum()) * vol / Q.volume()
                    assert c.coefficient(Q, d) == pytest.approx(expected, abs=1e-12)

    def test_analyze_is_linear(self):
        u = random_field(2, 4, seed=13, index=0)
        v = random_field(2, 4, seed=13, index=1)
        cu, cv = haar_analyze(u), haar_analyze(v)
        cw = haar_analyze(u + 2.0 * v)
        for j in cw.levels:
            for e in cw.levels[j]:
                assert np.allclose(
                    cw.levels[j][e], cu.levels[j][e] + 2.0 * cv.levels[j][e], atol=1e-12
                )



class TestLevelPrimitives:
    @pytest.mark.parametrize("n,J", [(1, 7), (2, 6), (3, 5)])
    def test_match_full_transform(self, n, J):
        u = white_noise(n, J, seed=26)
        c = haar_analyze(u)
        for j in range(J):
            for d in all_directions(n):
                coeffs = level_coefficients(u, j, d)
                assert np.abs(coeffs - c.levels[j][d.index]).max() <= 1e-14
                one_level = HaarCoefficients(n=n, J=J, mean=0.0, levels={j: {d.index: coeffs}})
                expect = haar_synthesize(one_level).values
                assert np.abs(level_field(coeffs, d, J).values - expect).max() <= 1e-14


class TestOneSynthesis:
    """level_field, multiscale._level_sum and directional_project run the one
    synthesis pyramid, haar._synthesize; the one-level and per-field forms
    of tests/projection_oracle.py hold them bit for bit: merging a zero
    detail only repeats values, and the sums add the levels coarse to
    fine (the oracle sum is given its levels in that order)."""

    CASES = [(1, 7), (2, 5), (3, 4)]

    @staticmethod
    def windows(J):
        # sparse, unordered and full level lists
        return [[0, 2, J - 1], [J - 2, 1], [J - 1, 0, 2], list(range(J))]

    @pytest.mark.parametrize("n,J", CASES)
    def test_level_field(self, n, J):
        rng = np.random.default_rng(30 + n)
        for j in range(J):
            for d in all_directions(n):
                c = rng.standard_normal((2**j,) * n)
                assert np.array_equal(level_field(c, d, J).values,
                                      level_field_by_merge(c, d, J).values), (j, d)

    @pytest.mark.parametrize("n,J", CASES)
    def test_level_sum(self, n, J):
        rng = np.random.default_rng(40 + n)
        for lv in self.windows(J):
            for d in all_directions(n):
                coeffs = {j: rng.standard_normal((2**j,) * n) for j in lv}
                got = multiscale._level_sum(coeffs, d, J).values
                want = level_sum_by_fields(dict(sorted(coeffs.items())), d, J).values
                assert np.array_equal(got, want), (lv, d)

    @pytest.mark.parametrize("n,J", CASES)
    def test_directional_project_on_a_stack(self, n, J):
        # leading axes (2, 3) are a stack of six fields
        stack = np.random.default_rng(50 + n).standard_normal((2, 3) + (2**J,) * n)
        fields = stack.reshape((6,) + (2**J,) * n)
        for d in all_directions(n):
            projected = _project_stack(stack, n, J, d.index).reshape(fields.shape)
            for f, got in zip(fields, projected):
                u = GridFunction(n, J, f)
                want = project_by_pyramid(u, d).values
                assert np.array_equal(got, want), d
                assert np.array_equal(directional_project(u, d).values, want), d


class TestDirectionalProjection:
    def test_orthogonal_direction_annihilated(self):
        u = single_haar_block(2, 3, 0, (0, 0), (1, 1))
        p = directional_project(u, Direction((1, 0)))
        assert np.abs(p.values).max() <= 1e-14

    def test_idempotent_on_range(self):
        u = single_haar_block(2, 3, 0, (0, 0), (1, 0))
        p = directional_project(u, Direction((1, 0)))
        assert np.abs(p.values - u.values).max() <= 1e-13

    def test_parseval_split(self):
        u = random_field(2, 3, seed=14)
        total = sum(
            directional_project(u, d).lp_norm(2) ** 2 for d in all_directions(2)
        )
        e = u.lp_norm(2) ** 2
        assert abs(total - e) <= 1e-10 * e

    def test_directional_orthogonality(self):
        u = random_field(2, 4, seed=15)
        parts = [directional_project(u, d) for d in all_directions(2)]
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                assert abs(parts[a].inner(parts[b])) <= 1e-10

    def test_level_restriction(self):
        # the window form of the oracle, which the slice tests project with
        u = random_field(2, 4, seed=16)
        p = project_by_pyramid(u, Direction((1, 0)), levels=[1, 2])
        c = haar_analyze(p)
        for j, dirs in c.levels.items():
            for e, arr in dirs.items():
                if j in (1, 2) and e == 1:
                    continue
                assert np.abs(arr).max() <= 1e-13


class TestVectorProjection:
    def test_zero(self):
        out = vector_project([GridFunction.zeros(2, 3), GridFunction.zeros(2, 3)])
        assert all(np.abs(c.values).max() == 0.0 for c in out)

    def test_pure_x1_strip_field_is_fixed(self):
        v1 = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6)
        v2 = GridFunction.zeros(2, 6)
        out = vector_project([v1, v2])
        assert np.abs(out[0].values - v1.values).max() <= 1e-10
        assert np.abs(out[1].values).max() == 0.0

    def test_wrong_directions_vanish(self):
        v1 = single_haar_block(2, 3, 1, (0, 1), (0, 1))
        v2 = single_haar_block(2, 3, 1, (0, 1), (1, 0))
        out = vector_project([v1, v2])
        assert np.abs(out[0].values).max() <= 1e-14
        assert np.abs(out[1].values).max() <= 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            vector_project([GridFunction.zeros(2, 3), GridFunction.zeros(2, 4)])


class TestConditionalExpectation:
    def test_identity_at_J(self):
        u = random_field(2, 4, seed=17)
        assert np.array_equal(conditional_expectation(u, 4).values, u.values)

    def test_global_mean_at_zero(self):
        u = white_noise(2, 4, seed=18)
        e = conditional_expectation(u, 0)
        assert np.abs(e.values - u.mean()).max() <= 1e-12

    def test_level_one_measurable_field(self):
        u = single_haar_block(1, 3, 0, (0,), (1,))
        e = conditional_expectation(u, 1)
        assert list(e.values) == [1, 1, 1, 1, -1, -1, -1, -1]

    def test_projection_property(self):
        u = random_field(2, 5, seed=19)
        e = conditional_expectation(u, 2)
        assert np.abs(conditional_expectation(e, 2).values - e.values).max() <= 1e-13

    def test_tower_property(self):
        u = random_field(2, 5, seed=20)
        a = conditional_expectation(conditional_expectation(u, 3), 1)
        b = conditional_expectation(u, 1)
        assert np.abs(a.values - b.values).max() <= 1e-13

    def test_range_validation(self):
        u = random_field(2, 3, seed=21)
        with pytest.raises(ValueError):
            conditional_expectation(u, 4)


class TestSquareFunction:
    def test_single_block_is_one(self):
        u = single_haar_block(2, 3, 0, (0, 0), (1, 0))
        s = square_function(u)
        assert np.abs(s.values - 1.0).max() <= 1e-13

    def test_constant_vanishes(self):
        s = square_function(GridFunction.constant(2, 3, 4.0))
        assert np.abs(s.values).max() == 0.0

    def test_matches_bruteforce(self):
        n, J = 2, 2
        u = white_noise(n, J, seed=22)
        c = haar_analyze(u)
        s = square_function(u)
        N = 2**J
        for cell in itertools.product(range(N), repeat=n):
            total = 0.0
            for j in range(J):
                k = tuple(x >> (J - j) for x in cell)
                for d in all_directions(n):
                    total += c.coefficient(DyadicCube(n, j, k), d) ** 2
            assert s.values[cell] == pytest.approx(np.sqrt(total), abs=1e-12)

    def test_l2_norm_identity(self):
        u = white_noise(2, 5, seed=23)
        s = square_function(u)
        lhs = s.lp_norm(2) ** 2
        rhs = u.lp_norm(2) ** 2 - u.mean() ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)

    @pytest.mark.parametrize("n,J", [(1, 8), (2, 5), (3, 5)])
    def test_identities_in_every_dimension(self, n, J):
        u = random_field(n, J, seed=1, index=100)
        lhs = square_function(u).lp_norm(2) ** 2
        assert abs(lhs - (u.lp_norm(2) ** 2 - u.mean() ** 2)) <= 1e-10
        assert square_function(GridFunction.constant(n, J, 3.25)).lp_norm(2) <= 1e-12

    @pytest.mark.parametrize("n,J", [(1, 6), (2, 5)])
    def test_lp_equivalence_window(self, n, J):
        # monitored window for ||S(u)||_p / ||u||_p on mean-zero fields; the
        # sharp constant is not pinned, only a fixed band per (n, J, p)
        for p in (1.5, 2.0, 3.0):
            ratios = []
            for i in range(25):
                u = random_field(n, J, seed=25, index=i)
                ratios.append(square_function(u).lp_norm(p) / u.lp_norm(p))
            assert 1.0 / 8.0 <= min(ratios) and max(ratios) <= 8.0, (
                f"window [{min(ratios):.3f}, {max(ratios):.3f}] at p={p}"
            )


def bmo_oscillation_bruteforce(u: GridFunction) -> float:
    """sup over all dyadic cubes of the normalized oscillation, plus the
    mean term."""
    best = 0.0
    for j in range(0, u.J + 1):
        for k in itertools.product(range(2**j), repeat=u.n):
            Q = DyadicCube(u.n, j, k)
            patch = u.values[cell_slices(Q, u.J)]
            osc = float(((patch - patch.mean()) ** 2).mean())
            best = max(best, osc)
    return float(np.sqrt(u.values.mean() ** 2 + best))


class TestBmo:
    def test_constant(self):
        assert bmo_d_norm(GridFunction.constant(2, 3, -1.5)) == pytest.approx(1.5)

    def test_haar_block_1d(self):
        u = single_haar_block(1, 4, 0, (0,), (1,))
        assert bmo_d_norm(u) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,J", [(1, 8), (2, 5), (3, 5)])
    def test_constant_and_block_in_every_dimension(self, n, J):
        assert abs(bmo_d_norm(GridFunction.constant(n, J, -2.0)) - 2.0) <= 1e-12
        block = single_haar_block(n, J, 0, (0,) * n, (1,) + (0,) * (n - 1))
        assert abs(bmo_d_norm(block) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,J", [(1, 4), (2, 2), (2, 3)])
    def test_matches_oscillation_form(self, n, J):
        u = white_noise(n, J, seed=24)
        assert bmo_d_norm(u) == pytest.approx(bmo_oscillation_bruteforce(u), rel=1e-10)


@pytest.mark.parametrize("n,J", [(1, 4), (2, 4), (3, 3)])
def test_primitives_on_a_stack_equal_per_field_results(n, J):
    # leading axes (2, 3) are a stack of six fields
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((2, 3) + (2**J,) * n)
    fields = stack.reshape((6,) + (2**J,) * n)

    def member(arr, b):
        return arr.reshape((6,) + arr.shape[2:])[b]

    parts = _split_block(stack, n)
    merged = _merge_block(parts, n)
    eps = 2**n - 1
    projected = _project_stack(stack, n, J, eps)
    for b, f in enumerate(fields):
        single = _split_block(f, n)
        assert sorted(parts) == sorted(single)
        assert all(np.array_equal(member(parts[k], b), single[k]) for k in single)
        assert np.array_equal(member(merged, b), _merge_block(single, n))
        u = GridFunction(n, J, f)
        assert np.array_equal(member(projected, b),
                              project_by_pyramid(u, Direction((1,) * n)).values)
    for j in range(J + 1):
        means = _block_mean(stack, j, n)
        assert means.shape == (2, 3) + (2**j,) * n
        spread = _upsample(means, J, n)
        for b, f in enumerate(fields):
            assert np.array_equal(member(means, b), _block_mean(f, j, n))
            assert np.array_equal(member(spread, b), _upsample(_block_mean(f, j, n), J, n))
