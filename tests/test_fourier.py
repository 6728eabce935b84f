"""Riesz transforms and their inverse, multiplier properties, resolving kernels."""

import re

import numpy as np
import pytest
from fields_oracle import cone_band_field, white_noise
from grid_oracle import coordinate_fields, embed
from kernel_oracle import (
    beta_symbol,
    delta_symbol,
    full_odd_multiplier,
    full_symbol_multiplier,
    kernel_b,
    kernel_b_antiderivative,
    lag_tensor,
    tensor_invariants,
)
from riesz_oracle import antiderivative, riesz_inverse, riesz_inverse_composite

from haarriesz import experiments, fourier
from haarriesz.fields import random_field
from haarriesz.fourier import (
    ResolvingKernel,
    beta_complement,
    beta_factor,
    delta_conv,
    derivative,
    kernel_b_antiderivative2,
    riesz,
    smoothing_conv,
)
from haarriesz.grid import Direction, GridFunction
from haarriesz.haar import directional_project


class TestRiesz:
    def test_single_mode_cos_to_sin(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * x), 2, 6)
        expect = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6)
        r = riesz(u, 1)
        assert np.abs(r.values - expect.values).max() <= 1e-12

    def test_transverse_mode_annihilated(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * y), 2, 5)
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
        u = embed(lambda x, y: np.sin(2 * np.pi * 3 * x), 2, 6)
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
        u = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6)
        r = riesz(u, 1)
        expect = embed(lambda x, y: -np.cos(2 * np.pi * x), 2, 6)
        assert np.abs(r.values - expect.values).max() <= 1e-12
        back = riesz_inverse(r, 1)
        assert np.abs(back.values - u.values).max() <= 1e-10

    def test_modes_agree_on_cone_fields(self):
        for i in range(20):
            w = cone_band_field(2, 6, seed=34, index=i, i0=1)
            d = riesz_inverse(w, 1)
            c = riesz_inverse_composite(w, 1)
            assert (d - c).lp_norm(2) <= 1e-8 * d.lp_norm(2)
            assert (riesz_inverse(riesz(w, 1), 1) - w).lp_norm(2) <= 1e-8

    @pytest.mark.parametrize("n,J", [(1, 8), (2, 5), (3, 5)])
    def test_identity_in_every_dimension(self, n, J):
        for i in range(5):
            w = cone_band_field(n, J, seed=1, index=i, i0=1)
            assert (riesz_inverse(riesz(w, 1), 1) - w).lp_norm(2) <= 1e-8

    def test_rejects_forbidden_hyperplane(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * 3 * y), 2, 4)
        with pytest.raises(ValueError, match=r"\(0, -?3\)"):
            riesz_inverse(u, 1)

    def test_hyperplane_mass(self):
        u = embed(lambda x, y: np.cos(2 * np.pi * 3 * y), 2, 4)
        with pytest.raises(ValueError, match="xi_1=0"):
            riesz_inverse(u, 1)
        back = riesz(riesz_inverse(u, 2), 2)
        assert (back - u).lp_norm(2) <= 1e-12

    @pytest.mark.parametrize("i0", [1, 2, 3])
    def test_rejects_hyperplane_n3(self, i0):
        # one mode on xi_{i0} = 0 added to an admissible field; i0 = 3 is
        # the half-spectrum axis of rfftn
        xi = [1, -2, 3]
        xi[i0 - 1] = 0
        phase = sum(k * x.values for k, x in zip(xi, coordinate_fields(3, 4)))
        u = cone_band_field(3, 4, seed=47, i0=i0) + GridFunction(3, 4, np.cos(2 * np.pi * phase))
        for route in (riesz_inverse, antiderivative):
            with pytest.raises(ValueError, match="offending frequency") as err:
                route(u, i0)
            found = re.search(r"frequency \(([^)]*)\)", str(err.value)).group(1)
            freq = [int(k) for k in found.split(",")]
            assert freq[i0 - 1] == 0
            assert freq in (xi, [-k for k in xi])


def _full_fft_reference(u, i, symbol):
    # ifftn(fftn(u) m).real with m = symbol(xi_i, |xi|) on the full fftn
    # layout, zero where xi_i = 0; .real removes the xi_i = -N/2 plane
    N = 2**u.J
    xi = np.meshgrid(*[np.fft.fftfreq(N, d=1.0 / N)] * u.n, indexing="ij")
    x = xi[i - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = np.where(x == 0, 0.0, symbol(x, np.sqrt(sum(k * k for k in xi))))
    return np.fft.ifftn(np.fft.fftn(u.values) * m).real


def _nyquist_field(n, J, seed, i=None):
    # mean-free white noise with Nyquist content; with i, its xi_i = 0 part
    # (the mean along axis i) removed so that the inverse routes accept it
    v = white_noise(n, J, seed).values
    v = v - v.mean()
    if i is not None:
        v = v - v.mean(axis=i - 1, keepdims=True)
    return GridFunction(n, J, v)


ORACLE_CASES = [(n, J, i) for n, J in ((1, 6), (2, 5), (3, 4)) for i in range(1, n + 1)]


class TestHalfSpectrumOracle:
    @pytest.mark.parametrize("n,J,i", ORACLE_CASES)
    @pytest.mark.parametrize(
        "op,symbol",
        [
            (riesz, lambda x, mag: -1j * x / mag),
            (derivative, lambda x, mag: 2j * np.pi * x),
        ],
        ids=["riesz", "derivative"],
    )
    def test_forward_multipliers(self, n, J, i, op, symbol):
        u = _nyquist_field(n, J, seed=48)
        ref = _full_fft_reference(u, i, symbol)
        assert np.linalg.norm(op(u, i).values - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n,J,i", ORACLE_CASES)
    @pytest.mark.parametrize(
        "op,symbol",
        [
            (riesz_inverse, lambda x, mag: mag / (-1j * x)),
            (antiderivative, lambda x, mag: 1.0 / (2j * np.pi * x)),
        ],
        ids=["riesz_inverse", "antiderivative"],
    )
    def test_inverse_multipliers(self, n, J, i, op, symbol):
        for u in (cone_band_field(n, J, seed=49, i0=i), _nyquist_field(n, J, seed=49, i=i)):
            ref = _full_fft_reference(u, i, symbol)
            assert np.linalg.norm(op(u, i).values - ref) <= 1e-13 * np.linalg.norm(ref)


class TestInPlacePath:
    """The multipliers run their transforms and products in place on one
    half spectrum; the full-size path (kernel_oracle) is their oracle, bit
    for bit."""

    @pytest.mark.parametrize("n,J", [(1, 9), (2, 6), (3, 5)])
    def test_transforms_equal_rfftn_and_irfftn(self, n, J):
        values = white_noise(n, J, seed=71).values
        axes = tuple(range(n))
        fu = fourier._forward(values, n)
        assert fu.tobytes() == np.fft.rfftn(values, axes=axes).tobytes()
        want = np.fft.irfftn(fu, s=values.shape, axes=axes)
        assert fourier._inverse(fu.copy(), 2**J).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,J,i", ORACLE_CASES)
    @pytest.mark.parametrize(
        "op,symbol",
        [
            (riesz, lambda x, mag: -1j * x / mag),
            (derivative, lambda x, mag: 1j * (2.0 * np.pi) * x),
            (riesz_inverse, lambda x, mag: mag / (-1j * x)),
            (antiderivative, lambda x, mag: 1.0 / (1j * (2.0 * np.pi) * x)),
        ],
        ids=["riesz", "derivative", "riesz_inverse", "antiderivative"],
    )
    def test_odd_multipliers_equal_the_full_symbol_path(self, n, J, i, op, symbol):
        for u in (cone_band_field(n, J, seed=72, i0=i), _nyquist_field(n, J, seed=72, i=i)):
            want = full_odd_multiplier(u, i, symbol)
            assert op(u, i).values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("n,J,i", ORACLE_CASES)
    @pytest.mark.parametrize("op", [riesz_inverse, antiderivative])
    def test_admissible_multipliers_transform_once(self, n, J, i, op, monkeypatch):
        # the hyperplane check reads the half spectrum the multiplier uses
        u, calls, rfft = cone_band_field(n, J, seed=72, i0=i), [], np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        op(u, i)
        assert len(calls) == 1

    # (2, 10) and (3, 7) span 16 and 32 blocks of first-axis rows
    @pytest.mark.parametrize("n,J", [(1, 9), (2, 6), (3, 5), (2, 10), (3, 7)])
    def test_even_multipliers_equal_the_full_symbol_path(self, n, J):
        u = white_noise(n, J, seed=73)
        for s in range(J - 1):
            got = delta_conv(u, s).values.tobytes()
            assert got == full_symbol_multiplier(u, delta_symbol(n, s, J)).values.tobytes()
            got = smoothing_conv(u, s).values.tobytes()
            assert got == full_symbol_multiplier(u, beta_symbol(n, s, J)).values.tobytes()

    @pytest.mark.parametrize("n,J", [(1, 17), (2, 9), (3, 6)])
    def test_riesz_half_spectrum_is_the_riesz_step(self, n, J):
        # each of these half spectra spans 3 to 5 blocks of the symbol
        assert np.prod(fourier._forward(np.zeros((2**J,) * n), n).shape) > 2 * fourier._SYMBOL_BLOCK
        u = white_noise(n, J, seed=74)
        for i in range(1, n + 1):
            fu = fourier.riesz_half_spectrum(fourier._forward(u.values, n), J, i)
            want = full_odd_multiplier(u, i, lambda x, mag: -1j * x / mag)
            assert fourier._inverse(fu, 2**J).tobytes() == want.values.tobytes()


class TestDerivativeAntiderivative:
    def test_inverse_pair(self):
        w = cone_band_field(2, 5, seed=36, i0=1)
        v = antiderivative(derivative(w, 1), 1)
        assert (v - w).lp_norm(2) <= 1e-10

    def test_derivative_single_mode(self):
        u = embed(lambda x, y: np.sin(2 * np.pi * x), 2, 6)
        expect = embed(lambda x, y: 2 * np.pi * np.cos(2 * np.pi * x), 2, 6)
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

    @pytest.mark.parametrize("s,J", [(0, 5), (1, 6), (3, 6), (4, 6), (5, 7)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invariants_match_tensor_oracle(self, n, s, J):
        kern = ResolvingKernel(n=n, s=s, J=J)
        mass, moments = tensor_invariants(n, s, J)
        assert kern.samples.shape == (2, 2**J)
        assert abs(kern.integral() - mass) <= 1e-15
        for got, want in zip(kern.first_moments(), moments, strict=True):
            assert abs(got - want) <= 1e-15

    def test_lag_table_even_and_massless(self):
        table = lag_tensor(2, 2, 5)
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
        # only a negative scale raises: the lag tables are exact at every
        # s >= 0, past the grid's own level J = 6 too
        u = random_field(2, 6, seed=38)
        with pytest.raises(ValueError, match="s=-1"):
            delta_conv(u, -1)
        for s in (5, 6, 9):
            tele = smoothing_conv(u, s) - smoothing_conv(u, s + 1)
            assert (delta_conv(u, s) - tele).lp_norm(2) <= 1e-14

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
        K = lag_tensor(n, s, J)
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


class TestFinestScales:
    """From s = J on the lag table of beta_s has only the lags 0 and +-1,
    and 1 - h_s(k) = (5/8) 2^(J-s) sin^2(pi k / N) in closed form."""

    @pytest.mark.parametrize("J", [4, 8])
    @pytest.mark.parametrize("ds", [0, 1, 3])
    def test_closed_form(self, J, ds):
        s, N = J + ds, 2**J
        k = np.fft.fftfreq(N, d=1.0 / N)
        want = 0.625 * 2.0 ** (-ds) * np.sin(np.pi * k / N) ** 2
        assert np.abs(1.0 - beta_factor(s, J) - want).max() <= 1e-15
        assert np.abs(beta_complement(s, J, k) - want).max() <= 1e-15


class TestInterpRatioNyquist:
    """R_1 is zero on the Nyquist plane xi_1 = N/2, where the directional
    projection need not vanish."""

    def _sup(self, monkeypatch, u):
        monkeypatch.setattr(experiments, "interpolatory_family", lambda *a: [("nyquist", 0, u)])
        return experiments.interp_ratio_sup(2, 6, [2.0])[0]

    def test_nyquist_field_has_infinite_ratio(self, monkeypatch):
        # u = (-1)^{k_1} v(x_2): R_1 u = 0 but P^{(1,0)} u != 0
        v = np.random.default_rng(3).standard_normal(64)
        u = GridFunction(2, 6, np.multiply.outer((-1.0) ** np.arange(64), v))
        u = u * (1.0 / u.lp_norm(2))
        assert riesz(u, 1).lp_norm(2) <= 1e-13
        assert directional_project(u, Direction((1, 0))).lp_norm(2) >= 0.1
        assert self._sup(monkeypatch, u) == np.inf

    def test_checkerboard_has_zero_ratio(self, monkeypatch):
        # (-1)^{k_1 + k_2}: R_1 u = 0 and P^{(1,0)} u = 0
        sign = (-1.0) ** np.arange(64)
        u = GridFunction(2, 6, np.multiply.outer(sign, sign))
        assert self._sup(monkeypatch, u) == 0.0
