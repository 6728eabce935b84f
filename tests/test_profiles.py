"""Closed-form piecewise-sinusoid algebra."""

import numpy as np
import pytest
from sharpness_oracle import integrate_product as scalar_integrate_product
from sharpness_oracle import profile_integral

from haarriesz.profiles import (
    SinePiece,
    haar_pieces,
    indicator_pieces,
    integrate_product,
    pieces_cell_averages,
    pieces_values,
    profile_product_integral,
    scale_pieces,
    sine_cell_averages,
)


def quad_oracle(fn, a, b, m=20001):
    t = np.linspace(a, b, m)
    return float(np.trapezoid(fn(t), t))


class TestIntegrateProduct:
    def test_disjoint_supports(self):
        p = SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)
        q = SinePiece(2.0, 3.0, 2.0, 1.0, amp=1.0, freq=np.pi)
        assert integrate_product(p, q) == 0.0

    def test_sine_times_sine_generic(self):
        p = SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)
        q = SinePiece(0.25, 0.75, 0.25, 0.5, amp=1.0, freq=np.pi, phase=0.3)
        exact = integrate_product(p, q)
        # smooth integrand over the exact overlap
        oracle = quad_oracle(
            lambda t: np.sin(2 * np.pi * t) * np.sin(np.pi * (t - 0.25) / 0.5 + 0.3),
            0.25,
            0.75,
        )
        assert exact == pytest.approx(oracle, abs=1e-8)

    def test_equal_frequency_degenerate(self):
        p = SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)
        assert integrate_product(p, p) == pytest.approx(0.5, abs=1e-12)

    def test_constant_terms(self):
        p = SinePiece(0.0, 1.0, 0.0, 1.0, const=2.0, amp=1.0, freq=2 * np.pi)
        q = SinePiece(0.0, 0.5, 0.0, 1.0, const=3.0)
        oracle = quad_oracle(lambda t: (2.0 + np.sin(2 * np.pi * t)) * 3.0, 0.0, 0.5)
        assert integrate_product(p, q) == pytest.approx(oracle, abs=1e-8)

    def test_deeply_scaled_pieces_keep_precision(self):
        # two nested sine bumps at widely different dyadic scales
        scale_small, anchor = 2.0**-40, 3.0 * 2.0**-40
        p = scale_pieces(
            [SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)], anchor, scale_small
        )[0]
        q = scale_pieces(
            [SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)], 0.0, 2.0**-36
        )[0]
        val = integrate_product(p, q)
        # the analytic value must be scale-covariant: rescaling both pieces
        # by 2^36 reproduces it up to the Jacobian
        p2 = scale_pieces(
            [SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)], 3.0 * 2.0**-4, 2.0**-4
        )[0]
        q2 = SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)
        assert val == pytest.approx(integrate_product(p2, q2) * 2.0**-36, rel=1e-10)


class TestArrayPieces:
    def test_integrate_product_equals_scalar_form(self):
        # array fields evaluate every piece pair at once, bit for bit as one
        # scalar call per pair: disjoint and nested supports, constant and
        # zero-frequency pieces, and equal frequencies (w1 - w2 = 0)
        rng = np.random.default_rng(7)
        size = 400

        def fields():
            lo = rng.integers(-8, 8, size) / 8.0
            scale = 2.0 ** -rng.integers(0, 12, size).astype(float)
            return dict(
                lo=lo, hi=lo + scale * rng.integers(1, 4, size), anchor=lo, scale=scale,
                const=rng.choice([0.0, 1.0, -0.5], size), amp=rng.choice([0.0, 1.0, -2.0], size),
                freq=rng.choice([0.0, np.pi, 2 * np.pi], size),
                phase=rng.choice([0.0, np.pi / 2, 0.3], size),
            )

        pf, qf = fields(), fields()
        same = rng.random(size) < 0.25
        qf = {key: np.where(same, pf[key], qf[key]) for key in qf}
        got = integrate_product(SinePiece(**pf), SinePiece(**qf))
        want = [
            scalar_integrate_product(SinePiece(**{k: float(v[i]) for k, v in pf.items()}),
                                     SinePiece(**{k: float(v[i]) for k, v in qf.items()}))
            for i in range(size)
        ]
        assert got.shape == (size,)
        assert got.tolist() == want
        assert np.count_nonzero(got) > size // 4


class TestProfileHelpers:
    def test_haar_pieces_mean_zero(self):
        assert profile_integral(haar_pieces(0.25, 0.5)) == pytest.approx(0.0, abs=1e-15)

    def test_indicator_mass(self):
        assert profile_integral(indicator_pieces(0.25, 0.5)) == pytest.approx(0.5)

    def test_product_against_haar(self):
        sine = [SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2 * np.pi)]
        val = profile_product_integral(sine, haar_pieces(0.0, 1.0))
        assert val == pytest.approx(2.0 / np.pi, abs=1e-12)


class TestCellAverages:
    def test_full_period_sums_to_zero(self):
        v = sine_cell_averages(64, 2 * np.pi, 0.0, 0.0, 1.0)
        assert abs(v.sum()) <= 1e-12

    def test_matches_quadrature(self):
        N = 32
        v = sine_cell_averages(N, 2 * np.pi * 3, 0.1, 0.1, 0.6)
        for k in (3, 10, 17):
            cell = quad_oracle(
                lambda t: np.where((t >= 0.1) & (t < 0.6), np.sin(2 * np.pi * 3 * (t - 0.1)), 0.0),
                k / N,
                (k + 1) / N,
                m=4001,
            )
            assert v[k] == pytest.approx(cell * N, abs=1e-6)

    def test_periodization_wraps_mass(self):
        # support [-0.25, 0.25) wraps to the top of the unit cell
        piece = SinePiece(-0.25, 0.25, -0.25, 0.5, const=1.0)
        v = pieces_cell_averages([piece], 8)
        assert np.array_equal(v > 0.5, np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool))
        assert v.sum() / 8 == pytest.approx(0.5)
