"""Dyadic geometry, grid fields, embedding and serialization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from grid_oracle import cell_slices, child_rank, coordinate_fields, predecessor

from haarriesz.grid import (
    _LEGENDRE,
    Direction,
    DyadicCube,
    GridFunction,
    all_directions,
    axis_direction,
    embed,
    lp_norm,
)


class TestDyadicCube:
    def test_volume_and_diam(self):
        Q = DyadicCube(2, 3, (1, 5))
        assert Q.volume() == 2.0 ** (-6)
        assert Q.diam() == pytest.approx(np.sqrt(2) * 2.0**-3)

    def test_coordinates_in_range(self):
        with pytest.raises(ValueError):
            DyadicCube(2, 2, (4, 0))
        with pytest.raises(ValueError):
            DyadicCube(2, 2, (-1, 0))
        with pytest.raises(ValueError):
            DyadicCube(2, 2, (0,))

    def test_predecessor_contains(self):
        Q = DyadicCube(2, 4, (13, 6))
        for lam in range(0, 5):
            P = predecessor(Q, lam)
            assert P.j == Q.j - lam
            assert P.contains(Q)
        with pytest.raises(ValueError):
            predecessor(Q, 5)

    def test_child_rank_lexicographic(self):
        W = DyadicCube(2, 1, (0, 1))
        ranks = set()
        for k1 in range(2):
            for k2 in range(2):
                Q = DyadicCube(2, 2, (0 * 2 + k1, 1 * 2 + k2))
                assert predecessor(Q, 1) == W
                ranks.add(child_rank(Q, 1))
        assert ranks == {0, 1, 2, 3}

    def test_cell_slices(self):
        Q = DyadicCube(1, 1, (1,))
        assert cell_slices(Q, 3) == (slice(4, 8),)


class TestDirection:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Direction((0, 0))

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            Direction((1, 2))

    def test_all_directions_count(self):
        for n in (1, 2, 3):
            assert len(all_directions(n)) == 2**n - 1

    def test_axis_direction(self):
        d = axis_direction(3, 2)
        assert d.bits == (0, 1, 0)


class TestGridFunction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, 2, np.zeros(15))

    def test_rejects_non_finite(self):
        vals = np.zeros((4, 4))
        vals[1, 2] = np.nan
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            GridFunction(2, 2, vals)

    def test_arithmetic_requires_matching_grid(self):
        a = GridFunction.zeros(2, 2)
        b = GridFunction.zeros(2, 3)
        with pytest.raises(ValueError, match="mismatch"):
            a + b



class TestLpNorm:
    def test_constant_is_one_for_every_p(self):
        u = GridFunction.constant(2, 3, 1.0)
        for p in (1.0, 1.5, 2.0, 3.0, 7.0):
            assert lp_norm(u, p) == pytest.approx(1.0)

    def test_haar_block_has_unit_norm(self):
        u = GridFunction(1, 1, [1.0, -1.0])
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(u, p) == pytest.approx(1.0)

    def test_two_cell_example(self):
        u = GridFunction(1, 1, [2.0, 0.0])
        assert lp_norm(u, 2.0) == pytest.approx(np.sqrt(2.0))

    def test_rejects_p_below_one(self):
        u = GridFunction.constant(1, 1, 1.0)
        with pytest.raises(ValueError):
            lp_norm(u, 0.5)


class TestEmbed:
    def test_constant(self):
        u = embed(lambda x, y: np.ones_like(x), 2, 3)
        assert np.abs(u.values - 1.0).max() <= 1e-15

    def test_haar_step_exact(self):
        u = embed(lambda x: np.where(x < 0.5, 1.0, -1.0), 1, 1, quad_order=1)
        assert list(u.values) == [1.0, -1.0]

    def test_sin_cell_averages_match_closed_form(self):
        # closed form: N (cos(2 pi a) - cos(2 pi b)) / (2 pi)
        J = 6
        u = embed(lambda x, y: np.sin(2 * np.pi * x), 2, J, quad_order=3)
        N = 2**J
        edges = np.arange(N + 1) / N
        exact = (np.cos(2 * np.pi * edges[:-1]) - np.cos(2 * np.pi * edges[1:])) * N / (2 * np.pi)
        assert np.abs(u.values - exact[:, None]).max() < 1e-10

    def test_rejects_non_finite_sample(self):
        with pytest.raises(ValueError, match="non-finite"):
            embed(lambda x: np.where(x > 0.6, np.nan, 1.0), 1, 2)

    def test_rejects_bad_quad_order(self):
        with pytest.raises(ValueError):
            embed(lambda x: x, 1, 2, quad_order=2)

    @pytest.mark.parametrize("order", sorted(_LEGENDRE))
    def test_gauss_table_is_leggauss_to_the_bit(self, order):
        x, w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(np.array(_LEGENDRE[order][0]), x)
        assert np.array_equal(np.array(_LEGENDRE[order][1]), w)

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # the Gauss tables are literal: no job pays numpy.polynomial's import
        # and eigensolver
        src = Path(__file__).resolve().parents[1] / "src"
        probe = "import sys, haarriesz.cli; print('numpy.polynomial' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                             check=True, capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        u = GridFunction(2, 4, rng.standard_normal((16, 16)))
        v = GridFunction.from_bytes(u.to_bytes())
        assert (v.n, v.J) == (2, 4)
        assert np.array_equal(v.values, u.values)

    def test_header(self):
        u = GridFunction.zeros(1, 2)
        blob = u.to_bytes()
        assert blob[:4] == b"HRL1"
        assert len(blob) == 16 + 4 * 8

    def test_bad_magic_rejected(self):
        u = GridFunction.zeros(1, 2)
        blob = b"XXXX" + u.to_bytes()[4:]
        with pytest.raises(ValueError, match="magic"):
            GridFunction.from_bytes(blob)


def test_coordinate_fields_are_cell_centers():
    fields = coordinate_fields(2, 2)
    assert fields[0].values[1, 3] == pytest.approx(0.375)
    assert fields[1].values[1, 3] == pytest.approx(0.875)
