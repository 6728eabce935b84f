"""Discrete Fourier multipliers on the torus: Riesz transforms, the
derivative multiplier, and the scale-resolving convolutions
built from the compactly supported bump kernel.

Every multiplier takes one path: the ``rfftn`` of the real cell values, a
product with a Hermitian symbol on the half spectrum (last axis: the N/2+1
nonnegative frequencies), one ``irfftn``.  The complex passes of both
transforms and the product run in place, so a multiplier holds one complex
array of the field's size.  Frequencies are integers.  The torus transform
stands in for the whole-space one: the zero mode is annihilated by every
Riesz-type multiplier.  An odd multiplier of a real
field is zero on its axis's Nyquist plane |xi_i| = N/2, where xi_i and
-xi_i are one frequency; the standard random-field generators in ``fields``
keep test spectra strictly below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import GridFunction

__all__ = [
    "riesz",
    "riesz_half_spectrum",
    "derivative",
    "ResolvingKernel",
    "resolvable",
    "beta_factor",
    "beta_complement",
    "delta_conv",
    "smoothing_conv",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# the half-spectrum multiplier path


@lru_cache(maxsize=None)
def _freqs(n: int, J: int) -> tuple[np.ndarray, ...]:
    """Integer frequency axes of the rfftn layout, shaped to broadcast:
    0, 1, .., N/2-1, -N/2, .., -1 on the first n-1 axes, 0..N/2 on the last."""
    N = 2**J
    out = []
    for ax in range(n):
        k = np.fft.rfftfreq(N, d=1.0 / N) if ax == n - 1 else np.fft.fftfreq(N, d=1.0 / N)
        shape = [1] * n
        shape[ax] = k.size
        k = k.reshape(shape)
        k.setflags(write=False)
        out.append(k)
    return tuple(out)


def _forward(values: np.ndarray, n: int) -> np.ndarray:
    """``np.fft.rfftn`` of real cell values over their n axes, bit for bit:
    one ``rfft`` on the last axis, then the complex passes in place."""
    fu = np.fft.rfft(values, axis=-1)
    for ax in range(n - 2, -1, -1):
        np.fft.fft(fu, axis=ax, out=fu)
    return fu


def _inverse(fu: np.ndarray, N: int) -> np.ndarray:
    """``np.fft.irfftn`` of a half spectrum to N cells per axis, bit for
    bit: the complex passes overwrite ``fu``, then one ``irfft``."""
    for ax in range(fu.ndim - 1):
        np.fft.ifft(fu, axis=ax, out=fu)
    return np.fft.irfft(fu, n=N, axis=-1)


def _check_axis(n: int, i: int) -> None:
    if not 1 <= i <= n:
        raise ValueError(f"axis {i} out of range for n={n}")


# half-spectrum cells per block of an odd symbol: the symbol and the |xi|
# it reads are evaluated a block of first-axis rows at a time
_SYMBOL_BLOCK = 1 << 15


def _odd_step(fu: np.ndarray, J: int, i: int,
              symbol: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Multiply the half spectrum ``fu`` in place by the multiplier odd in
    xi_i: symbol(xi_i, |xi|) where 0 < |xi_i| < N/2, zero on the hyperplane
    xi_i = 0 and on the Nyquist plane |xi_i| = N/2."""
    n = fu.ndim
    _check_axis(n, i)
    xi = _freqs(n, J)
    x = xi[i - 1]
    live = (x != 0) & (np.abs(x) < 2 ** (J - 1))
    rows = max(1, _SYMBOL_BLOCK * fu.shape[0] // fu.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, fu.shape[0], rows):
            # the block's rows of every table that spans the first axis
            *ks, mask = (a[lo:lo + rows] if a.shape[0] > 1 else a for a in xi + (live,))
            seg = fu[lo:lo + rows]
            np.multiply(seg, symbol(ks[i - 1], np.sqrt(sum(k * k for k in ks))), out=seg,
                        where=mask)
    fu *= live
    return fu


def _odd_multiplier(
    u: GridFunction, i: int, symbol: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> GridFunction:
    """The multiplier of ``_odd_step`` applied to a field."""
    fu = _odd_step(_forward(u.values, u.n), u.J, i, symbol)
    return GridFunction(u.n, u.J, _inverse(fu, 2**u.J))


# ---------------------------------------------------------------------------
# Riesz transforms and companions


def _riesz_symbol(x: np.ndarray, mag: np.ndarray) -> np.ndarray:
    return -1j * x / mag


def riesz(u: GridFunction, i: int) -> GridFunction:
    """R_i: multiply the spectrum by -i xi_i / |xi|, zero mode killed."""
    return _odd_multiplier(u, i, _riesz_symbol)


def riesz_half_spectrum(fu: np.ndarray, J: int, i: int) -> np.ndarray:
    """R_i in place on the rfftn half spectrum ``fu`` of a level-J field
    (n = fu.ndim): the step ``riesz`` takes between its transforms."""
    return _odd_step(fu, J, i, _riesz_symbol)


def derivative(u: GridFunction, i: int) -> GridFunction:
    """Spectral partial derivative along axis i (period-1 torus)."""
    return _odd_multiplier(u, i, lambda x, mag: 1j * TWO_PI * x)


# ---------------------------------------------------------------------------
# resolving kernels


def kernel_b_antiderivative2(t: np.ndarray) -> np.ndarray:
    """Twice-iterated antiderivative int_{-1}^{t} int_{-1}^{s} b of the even
    bump b(t) = (15/16)(1-t^2)^2 on [-1,1] (integral one).  Equals 0 below
    the support and t above it."""
    t = np.asarray(t, dtype=np.float64)
    tc = np.clip(t, -1.0, 1.0)
    inner = (
        (15.0 / 16.0) * (tc**2 / 2.0 - tc**4 / 6.0 + tc**6 / 30.0)
        + tc / 2.0
        + 5.0 / 32.0
    )
    return np.where(t > 1.0, t, np.where(t < -1.0, 0.0, inner))


@lru_cache(maxsize=None)
def _b_scaled_lag_table(s: int, J: int) -> np.ndarray:
    """Exact Galerkin lag response (read-only) of convolution with
    2^s b(2^s .) on the level-J grid of piecewise-constant fields: the
    triangle-weighted kernel averages at integer lags,
        T[l] = (F2((l+1)h) - 2 F2(l h) + F2((l-1)h)) / h^2,
    periodized and exactly even (the discrete operator is self-adjoint and
    reproduces constants and first moments of the kernel exactly)."""
    N = 2**J
    h = 1.0 / N
    lag = np.fft.fftfreq(N, d=1.0 / N)  # signed integer lags
    total = np.zeros(N)

    def F2s(t: np.ndarray) -> np.ndarray:
        return 2.0 ** (-s) * kernel_b_antiderivative2(2.0**s * t)

    for m in (-1.0, 0.0, 1.0):
        t = lag * h + m
        second = F2s(t + h) - 2.0 * F2s(t) + F2s(t - h)
        # the linear tail of F2 has vanishing second difference, so shifts
        # outside the support contribute exact zeros
        total = total + second / (h * h)
    # enforce exact evenness (holds analytically; removes rounding dust)
    reflected = np.roll(total[::-1], 1)
    table = (total + reflected) / 2.0
    table.setflags(write=False)
    return table


@dataclass
class ResolvingKernel:
    """Kernel d_s(x) = d(2^s x) 2^{ns} with d(x) = prod b(x_i) - 2^n prod b(2 x_i),
    as its exact level-J Galerkin lag tables (delta_conv applies the same
    operator through its separable symbol).

    ``samples`` stacks the outer and inner 1D tables T_s and T_{s+1}; the n-D
    table is their tensor-power difference, which is never formed.
    ``samples[:, l]`` is the response at the integer lag l (numpy FFT layout:
    l = 0, 1, .., N/2-1, -N/2, .., -1 with N = 2^J).  Both tables are exactly
    even, so the convolution they define is self-adjoint.
    """

    n: int
    s: int
    J: int
    samples: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.samples = np.stack([_b_scaled_lag_table(self.s, self.J),
                                 _b_scaled_lag_table(self.s + 1, self.J)])

    def _masses(self) -> np.ndarray:
        return self.samples.sum(axis=1) * 2.0 ** (-self.J)

    def integral(self) -> float:
        """Mass of the n-D table: I_s^n - I_{s+1}^n with I the 1D masses."""
        outer, inner = self._masses()
        return float(outer**self.n - inner**self.n)

    def first_moments(self) -> list[float]:
        """Moments at the signed lags l 2^-J: per axis, the 1D first moment
        times the other axes' masses.  The antipodal lag N/2 is both +1/2
        and -1/2 on the torus, so it gets the weight 0."""
        N = 2**self.J
        signed = np.fft.fftfreq(N)
        signed[N // 2] = 0.0
        outer, inner = (self.samples @ signed) * 2.0 ** (-self.J) * self._masses() ** (self.n - 1)
        return [float(outer - inner)] * self.n


@lru_cache(maxsize=None)
def beta_factor(s: int, J: int) -> np.ndarray:
    """Read-only 1D symbol h_s of beta_s on all 2^J frequencies (FFT layout):
    the DFT of the even 1D lag table times 2^-J.  beta_s = (x) h_s and
    Delta_s = (x) h_s - (x) h_{s+1}."""
    h = np.fft.fft(_b_scaled_lag_table(s, J)).real * 2.0 ** (-J)
    h.setflags(write=False)
    return h


def beta_complement(s: int, J: int, k: np.ndarray) -> np.ndarray:
    """1 - h_s at the integer frequencies ``k`` (any shape), from the
    definition of h_s rather than by subtraction.  The lag table T is even
    with mass 2^J, so 1 - h_s(k) = 2^-J sum_l T[l] (1 - cos(2 pi k l / N))
    = 2^(1-J) sum_l T[l] sin^2(pi k l / N): a sum of nonnegative terms,
    which keeps its digits where h_s is close to 1."""
    N = 2**J
    table = _b_scaled_lag_table(s, J)
    lag = np.flatnonzero(table)
    ks, where = np.unique(np.ravel(k), return_inverse=True)
    terms = np.sin(np.pi / N * (np.multiply.outer(ks, lag) % N)) ** 2
    terms *= table[lag]
    return (terms.sum(axis=1) * 2.0 ** (1 - J))[where].reshape(np.shape(k))


def _even_multiplier(u: GridFunction, scales: tuple[int, ...]) -> GridFunction:
    """The tensor power of ``beta_factor`` at the first of ``scales`` minus
    those at the others, applied to u a block of first-axis rows at a
    time.  Each block of a tensor power is h_s[rows] times its tail, the
    product of the other axes' factors built once per call, so an entry is
    h_a (h_b h_c) as in the full symbol."""
    n, J = u.n, u.J
    fu = _forward(u.values, n)
    factors = []
    for s in scales:
        h = beta_factor(s, J)
        # the rfftn layout: the last axis holds the N/2+1 nonnegative frequencies
        axes = [h] * (n - 1) + [h[: h.size // 2 + 1]]
        tail = np.ones(())
        for f in reversed(axes[1:]):
            tail = np.multiply.outer(f, tail)
        factors.append((axes[0], tail))
    rows = max(1, _SYMBOL_BLOCK * fu.shape[0] // fu.size)
    for lo in range(0, fu.shape[0], rows):
        first, tail = factors[0]
        sym = np.multiply.outer(first[lo:lo + rows], tail)
        for first, tail in factors[1:]:
            sym -= np.multiply.outer(first[lo:lo + rows], tail)
        fu[lo:lo + rows] *= sym
    return GridFunction(n, J, _inverse(fu, 2**J))


def resolvable(s: int, J: int) -> bool:
    """Delta_s is resolved at level J iff 0 <= s <= J-2 (inner lobe >= 4 cells per axis)."""
    return 0 <= s <= J - 2


def delta_conv(u: GridFunction, s: int) -> GridFunction:
    """Scale-s resolving convolution Delta_s u = u * d_s on the torus, for
    ``resolvable`` s.  Delta_s is self-adjoint (its lag table is even)."""
    if not resolvable(s, u.J):
        raise ValueError(f"scale s={s} not resolvable at J={u.J} (need 0 <= s <= J-2)")
    return _even_multiplier(u, (s, s + 1))


def smoothing_conv(u: GridFunction, s: int) -> GridFunction:
    """Convolution with the tensor-b approximate identity beta_s
    (beta_s(x) = prod 2^s b(2^s x_i)), discretized with the same Galerkin
    lag tables as delta_conv; used by the telescoping oracle."""
    if s < 0:
        raise ValueError("scale must be >= 0")
    return _even_multiplier(u, (s,))
