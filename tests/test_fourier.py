"""Riesz transforms, inverse modes, multiplier properties, resolving kernels."""

import numpy as np
import pytest

from haarriesz.fields import cone_band_field, random_field
from haarriesz.fourier import (
    ResolvingKernel,
    antiderivative,
    delta_conv,
    derivative,
    kernel_b,
    kernel_b_antiderivative2,
    riesz,
    riesz_inverse,
    smoothing_conv,
)
from haarriesz.grid import GridFunction, coordinate_fields, embed


class TestRiesz:
    def test_single_mode_cos_to_sin(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * x), 2, 6, quad_order=5)
        expect = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6, quad_order=5)
        r = riesz(u, 1)
        assert np.abs(r.values - expect.values).max() <= 1e-12

    def test_transverse_mode_annihilated(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * y), 2, 5, quad_order=5)
        assert riesz(u, 1).lp_norm(2) <= 1e-12

    @pytest.mark.parametrize("n,J", [(1, 6), (2, 5), (3, 4)])
    def test_energy_identity(self, n, J):
        for i in range(5):
            u = random_field(n, J, seed=30, index=i)
            total = sum(riesz(u, ax).lp_norm(2) ** 2 for ax in range(1, n + 1))
            e = u.lp_norm(2) ** 2
            assert abs(total - e) <= 1e-10 * e

    def test_contraction_with_equality_on_aligned_spectrum(self):
        # pure x1 oscillation: |xi_1| = |xi| on the support
        u = embed(lambda x, y: np.sin(2 * np.pi * 3 * x), 2, 6, quad_order=5)
        assert riesz(u, 1).lp_norm(2) == pytest.approx(u.lp_norm(2), rel=1e-10)
        w = random_field(2, 6, seed=31)
        assert riesz(w, 1).lp_norm(2) <= w.lp_norm(2) * (1 + 1e-12)

    def test_translation_commutation(self):
        u = random_field(2, 5, seed=32)
        shifted = GridFunction(2, 5, np.roll(u.values, 3, axis=0))
        a = riesz(shifted, 1).values
        b = np.roll(riesz(u, 1).values, 3, axis=0)
        assert np.abs(a - b).max() <= 1e-10

    def test_axis_out_of_range(self):
        u = random_field(2, 4, seed=33)
        with pytest.raises(ValueError):
            riesz(u, 3)


class TestRieszInverse:
    def test_single_mode_cycle(self):
        u = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6, quad_order=5)
        r = riesz(u, 1)
        expect = embed(lambda x, y: -np.cos(2 * np.pi * x), 2, 6, quad_order=5)
        assert np.abs(r.values - expect.values).max() <= 1e-12
        back = riesz_inverse(r, 1, "direct")
        assert np.abs(back.values - u.values).max() <= 1e-10

    def test_modes_agree_on_cone_fields(self):
        for i in range(20):
            w = cone_band_field(2, 6, seed=34, index=i, i0=1)
            d = riesz_inverse(w, 1, "direct")
            c = riesz_inverse(w, 1, "composite")
            assert (d - c).lp_norm(2) <= 1e-8 * d.lp_norm(2)
            assert (riesz_inverse(riesz(w, 1), 1) - w).lp_norm(2) <= 1e-8

    def test_rejects_forbidden_hyperplane(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * 3 * y), 2, 4, quad_order=5)
        with pytest.raises(ValueError, match=r"\(0, -?3\)"):
            riesz_inverse(u, 1)

    def test_rejects_unknown_mode(self):
        w = cone_band_field(2, 4, seed=35, i0=1)
        with pytest.raises(ValueError):
            riesz_inverse(w, 1, mode="spectralish")


class TestSpectralField:
    def test_transform_roundtrip(self):
        from haarriesz.fourier import SpectralField

        u = random_field(2, 5, seed=43)
        spec = SpectralField.from_grid(u)
        v = spec.to_grid()
        assert np.abs(v.values - u.values).max() <= 1e-12

    def test_hermitian_symmetry_for_real_fields(self):
        from haarriesz.fourier import SpectralField

        u = random_field(2, 4, seed=44)
        c = SpectralField.from_grid(u).coeffs
        N = c.shape[0]
        for i in range(N):
            for j in range(N):
                assert c[i, j] == pytest.approx(np.conj(c[(-i) % N, (-j) % N]), abs=1e-12)

    def test_hyperplane_mass(self):
        from haarriesz.fourier import SpectralField

        u = embed(lambda x, y: np.cos(2 * np.pi * 3 * y), 2, 4, quad_order=5)
        spec = SpectralField.from_grid(u)
        assert spec.mass_on_hyperplane(1) > 0.1
        assert spec.mass_on_hyperplane(2) <= 1e-12


class TestMultiplierOp:
    def test_reject_policy(self):
        from haarriesz.fourier import MultiplierOp

        op = MultiplierOp(lambda x, y: np.ones_like(x, dtype=complex), "reject", "unit")
        u = GridFunction.constant(2, 4, 1.0)
        with pytest.raises(ValueError, match="zero-frequency"):
            op(u)
        v = random_field(2, 4, seed=45, mean_zero=True)
        out = op(v)
        assert (out - v).lp_norm(2) <= 1e-12

    def test_non_finite_symbol_rejected(self):
        from haarriesz.fourier import MultiplierOp

        def bad(x, y):
            with np.errstate(divide="ignore", invalid="ignore"):
                return 1.0 / (x - 1.0)

        op = MultiplierOp(bad, "zero", "pole")
        u = random_field(2, 4, seed=46)
        with pytest.raises(ValueError, match="finite"):
            op(u)


class TestDerivativeAntiderivative:
    def test_inverse_pair(self):
        w = cone_band_field(2, 5, seed=36, i0=1)
        v = antiderivative(derivative(w, 1), 1)
        assert (v - w).lp_norm(2) <= 1e-10

    def test_derivative_single_mode(self):
        u = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6, quad_order=5)
        expect = embed(lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x), 2, 6, quad_order=5)
        d = derivative(u, 1)
        assert np.abs(d.values - expect.values).max() <= 1e-9


class TestKernelProfile:
    def test_pointwise_values(self):
        b = kernel_b
        assert b(0.0) == pytest.approx(15.0 / 16.0)
        assert b(1.0) == 0.0 and b(-1.0) == 0.0
        t = np.linspace(-1.5, 1.5, 2001)
        vals = b(t)
        assert vals.min() >= 0.0
        assert vals.max() <= 4.0
        lip = np.abs(np.diff(vals) / np.diff(t)).max()
        assert lip <= 8.0

    def test_mass_one_closed_form(self):
        # int b = 1: the antiderivative of the quintic evaluates to one
        from haarriesz.fourier import kernel_b_antiderivative

        assert kernel_b_antiderivative(1.0) == pytest.approx(1.0, abs=1e-15)
        assert kernel_b_antiderivative(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_double_antiderivative_tails(self):
        assert kernel_b_antiderivative2(-2.0) == 0.0
        assert kernel_b_antiderivative2(3.0) == pytest.approx(3.0)
        assert kernel_b_antiderivative2(1.0) == pytest.approx(1.0)


class TestResolvingKernel:
    # s = 0 and s = 1 put kernel mass on the antipodal lag N/2
    @pytest.mark.parametrize("s,J", [(0, 5), (1, 6), (3, 6), (4, 6), (5, 7)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lag_table_moment_invariants(self, n, s, J):
        kern = ResolvingKernel(n=n, s=s, J=J)
        assert abs(kern.integral()) <= 1e-10
        for m in kern.first_moments():
            assert abs(m) <= 1e-8

    def test_lag_table_even_and_massless(self):
        table = ResolvingKernel(n=2, s=2, J=5).samples
        reflected = np.roll(table[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.array_equal(table, reflected)
        assert abs(table.sum() * 2.0 ** (-10)) <= 1e-12


class TestDeltaConv:
    def test_constant_annihilated(self):
        one = GridFunction.constant(2, 6, 3.0)
        assert delta_conv(one, 2).lp_norm(2) <= 1e-10

    def test_linear(self):
        u = random_field(2, 6, seed=37, index=0)
        v = random_field(2, 6, seed=37, index=1)
        lhs = delta_conv(u + 2.0 * v, 3)
        rhs = delta_conv(u, 3) + 2.0 * delta_conv(v, 3)
        assert (lhs - rhs).lp_norm(2) <= 1e-12

    def test_scale_range_rejected(self):
        u = random_field(2, 6, seed=38)
        with pytest.raises(ValueError, match="J"):
            delta_conv(u, 5)
        with pytest.raises(ValueError):
            delta_conv(u, -1)

    def test_partial_telescoping_vs_smoothing(self):
        u = random_field(2, 6, seed=39)
        acc = GridFunction.zeros(2, 6)
        for s in range(1, 5):
            acc = acc + delta_conv(u, s)
        tele = smoothing_conv(u, 1) - smoothing_conv(u, 5)
        assert (acc - tele).lp_norm(2) <= 1e-8

    @pytest.mark.parametrize(
        "n,J,s,seed,cells",
        [
            (1, 7, 3, 40, ((0,), (45,), (127,))),
            (2, 6, 2, 40, ((0, 0), (10, 20), (33, 63))),
            (3, 4, 1, 40, ((0, 0, 0), (5, 9, 2), (15, 0, 11))),
        ],
        ids=["n1", "n2", "n3"],
    )
    def test_direct_convolution_oracle(self, n, J, s, seed, cells):
        # brute-force circular convolution with the lag table at a few cells
        u = random_field(n, J, seed=seed)
        K = ResolvingKernel(n, s, J).samples
        out = delta_conv(u, s)
        N, vol = 2**J, 2.0 ** (-n * J)
        lags = np.arange(N)
        for a in cells:
            # shifted[m] = u[a - m] for every lag vector m
            shifted = u.values[np.ix_(*[(ai - lags) % N for ai in a])]
            assert out.values[a] == pytest.approx(float((K * shifted).sum()) * vol, abs=1e-12)

    def test_annihilates_linear_fields_in_the_interior(self):
        x1 = coordinate_fields(2, 6)[0]
        out = delta_conv(x1, 4)
        # rows far from the wrap seam see only the linear region
        assert np.abs(out.values[16:48, :]).max() <= 1e-10

    def test_exact_adjoint(self):
        # Delta_s is its own adjoint
        u = random_field(2, 5, seed=41, index=0)
        v = random_field(2, 5, seed=41, index=1)
        lhs = delta_conv(u, 2).inner(v)
        rhs = u.inner(delta_conv(v, 2))
        assert abs(lhs - rhs) <= 1e-13

    def test_maps_real_to_real(self):
        u = random_field(2, 5, seed=42)
        assert np.isrealobj(delta_conv(u, 2).values)
