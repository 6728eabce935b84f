"""Discrete Fourier multipliers on the torus: Riesz transforms and their
inverse, derivative/antiderivative multipliers, and the scale-resolving
convolutions built from the compactly supported bump kernel.

The torus transform stands in for the whole-space one; the zero mode is
annihilated by every Riesz-type multiplier.  Frequencies are integers with
the usual FFT layout; the Nyquist plane cannot carry an odd multiplier
faithfully, so the standard random-field generators in ``fields`` keep test
spectra strictly below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import GridFunction

__all__ = [
    "SpectralField",
    "MultiplierOp",
    "riesz",
    "riesz_inverse",
    "derivative",
    "antiderivative",
    "kernel_b",
    "kernel_b_antiderivative",
    "ResolvingKernel",
    "resolvable",
    "delta_conv",
    "smoothing_conv",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# spectral representation


@lru_cache(maxsize=None)
def _freq_grid(n: int, J: int) -> tuple[np.ndarray, ...]:
    N = 2**J
    k = np.fft.fftfreq(N, d=1.0 / N)  # 0, 1, .., N/2-1, -N/2, .., -1
    out = []
    for ax in range(n):
        shape = [1] * n
        shape[ax] = N
        out.append(k.reshape(shape))
    return tuple(out)


@dataclass
class SpectralField:
    """Complex DFT coefficients of a grid field (numpy fftn layout,
    normalized so coefficients approximate torus Fourier coefficients)."""

    n: int
    J: int
    coeffs: np.ndarray

    @classmethod
    def from_grid(cls, u: GridFunction) -> "SpectralField":
        N = 2**u.J
        return cls(u.n, u.J, np.fft.fftn(u.values) / float(N**u.n))

    def to_grid(self) -> GridFunction:
        N = 2**self.J
        vals = np.fft.ifftn(self.coeffs * float(N**self.n))
        return GridFunction(self.n, self.J, vals.real)

    def frequencies(self) -> tuple[np.ndarray, ...]:
        return _freq_grid(self.n, self.J)

    def mass_on_hyperplane(self, i0: int) -> float:
        """l2 mass of the coefficients with xi_{i0} = 0 (excluding the zero
        mode counted separately by callers that allow a mean)."""
        xi = self.frequencies()[i0 - 1]
        mask = xi == 0
        return float(np.sqrt(np.sum(np.abs(self.coeffs[np.broadcast_to(mask, self.coeffs.shape)]) ** 2)))


@dataclass
class MultiplierOp:
    """Fourier multiplier with a declared policy for the zero mode."""

    symbol: Callable[..., np.ndarray]
    zero_mode_policy: str = "zero"  # "zero" | "reject"
    name: str = "multiplier"

    def __call__(self, u: GridFunction) -> GridFunction:
        spec = SpectralField.from_grid(u)
        xi = spec.frequencies()
        with np.errstate(divide="ignore", invalid="ignore"):
            sym = self.symbol(*xi)
        sym = np.asarray(sym, dtype=np.complex128)
        sym = np.broadcast_to(sym, spec.coeffs.shape).copy()
        sym[(0,) * u.n] = 0.0
        if not np.all(np.isfinite(sym)):
            raise ValueError(f"{self.name}: symbol not finite on a nonzero frequency")
        if self.zero_mode_policy == "reject" and abs(spec.coeffs[(0,) * u.n]) > 1e-12:
            raise ValueError(f"{self.name}: input has a zero-frequency mode")
        out = SpectralField(u.n, u.J, spec.coeffs * sym)
        return out.to_grid()


# ---------------------------------------------------------------------------
# Riesz transforms and companions


def riesz(u: GridFunction, i: int) -> GridFunction:
    """R_i: multiply the spectrum by -i xi_i / |xi|, zero mode killed."""
    if not 1 <= i <= u.n:
        raise ValueError(f"axis {i} out of range for n={u.n}")

    def sym(*xi):
        mag = np.sqrt(sum(x * x for x in xi))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -1j * xi[i - 1] / mag
        return np.where(mag == 0, 0.0, s)

    return MultiplierOp(sym, "zero", f"riesz[{i}]")(u)


def derivative(u: GridFunction, i: int) -> GridFunction:
    """Spectral partial derivative along axis i (period-1 torus)."""
    if not 1 <= i <= u.n:
        raise ValueError(f"axis {i} out of range for n={u.n}")

    def sym(*xi):
        return 1j * TWO_PI * xi[i - 1]

    return MultiplierOp(sym, "zero", f"d/dx[{i}]")(u)


def _check_admissible(u: GridFunction, i0: int, tol: float = 1e-12) -> None:
    spec = SpectralField.from_grid(u)
    xi = spec.frequencies()[i0 - 1]
    mask = np.broadcast_to(xi == 0, spec.coeffs.shape)
    offender = np.abs(spec.coeffs) * mask
    worst = float(offender.max())
    if worst > tol:
        where = np.unravel_index(int(offender.argmax()), offender.shape)
        N = 2**u.J
        line = np.fft.fftfreq(N, d=1.0 / N)
        freq = tuple(int(line[idx]) for idx in where)
        raise ValueError(
            f"spectral mass {worst:.3e} on the hyperplane xi_{i0}=0 "
            f"(offending frequency {freq}); input not in the range of R_{i0}"
        )


def antiderivative(u: GridFunction, i0: int) -> GridFunction:
    """Spectral antiderivative along axis i0, defined only off xi_{i0} = 0."""
    _check_admissible(u, i0)

    def sym(*xi):
        with np.errstate(divide="ignore", invalid="ignore"):
            s = 1.0 / (1j * TWO_PI * xi[i0 - 1])
        return np.where(xi[i0 - 1] == 0, 0.0, s)

    return MultiplierOp(sym, "zero", f"antiderivative[{i0}]")(u)


def riesz_inverse(u: GridFunction, i0: int, mode: str = "direct") -> GridFunction:
    """Inverse Riesz transform along axis i0.

    direct:    multiplier |xi| / (-i xi_{i0}) applied in one pass.
    composite: -(R_{i0} + sum_{i != i0} E_{i0} d_i R_i), assembled from the
               individual operators.  The bracketed sum is the textbook
               inversion identity; with the -i xi/|xi| convention used here
               its symbol is -|xi|/(-i xi_{i0}), hence the leading sign.

    Both modes require the spectrum to avoid the hyperplane xi_{i0} = 0.
    """
    if not 1 <= i0 <= u.n:
        raise ValueError(f"axis {i0} out of range for n={u.n}")
    if mode not in ("direct", "composite"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_admissible(u, i0)
    if mode == "direct":

        def sym(*xi):
            mag = np.sqrt(sum(x * x for x in xi))
            with np.errstate(divide="ignore", invalid="ignore"):
                s = mag / (-1j * xi[i0 - 1])
            return np.where(xi[i0 - 1] == 0, 0.0, s)

        return MultiplierOp(sym, "zero", f"riesz_inverse[{i0}]")(u)

    acc = riesz(u, i0)
    for i in range(1, u.n + 1):
        if i == i0:
            continue
        acc = acc + antiderivative(derivative(riesz(u, i), i), i0)
    return -acc


# ---------------------------------------------------------------------------
# resolving kernels


def kernel_b(t: np.ndarray) -> np.ndarray:
    """Even bump b(t) = (15/16)(1-t^2)^2 on [-1,1]: 0 <= b <= 15/16,
    integral one, Lip(b) <= 8."""
    t = np.asarray(t, dtype=np.float64)
    inside = np.abs(t) <= 1.0
    q = 1.0 - t * t
    return np.where(inside, (15.0 / 16.0) * q * q, 0.0)


def kernel_b_antiderivative(t: np.ndarray) -> np.ndarray:
    """int_{-1}^{t} b, clamped outside the support (0 below, 1 above)."""
    t = np.clip(np.asarray(t, dtype=np.float64), -1.0, 1.0)
    return (15.0 / 16.0) * (t - 2.0 * t**3 / 3.0 + t**5 / 5.0) + 0.5


def kernel_b_antiderivative2(t: np.ndarray) -> np.ndarray:
    """Twice-iterated antiderivative of b: int_{-1}^{t} int_{-1}^{s} b.
    Equals 0 below the support and t above it."""
    t = np.asarray(t, dtype=np.float64)
    tc = np.clip(t, -1.0, 1.0)
    inner = (
        (15.0 / 16.0) * (tc**2 / 2.0 - tc**4 / 6.0 + tc**6 / 30.0)
        + tc / 2.0
        + 5.0 / 32.0
    )
    return np.where(t > 1.0, t, np.where(t < -1.0, 0.0, inner))


def _tensor(v: np.ndarray, n: int) -> np.ndarray:
    """n-fold outer product v x ... x v: the separable n-dimensional table of
    a 1D lag table."""
    out = v
    for _ in range(n - 1):
        out = np.multiply.outer(out, v)
    return out


def _b_scaled_lag_table(s: int, J: int) -> np.ndarray:
    """Exact Galerkin lag response of convolution with 2^s b(2^s .) on the
    level-J grid of piecewise-constant fields: the triangle-weighted kernel
    averages at integer lags,
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
    return (total + reflected) / 2.0


@dataclass
class ResolvingKernel:
    """Kernel d_s(x) = d(2^s x) 2^{ns} with d(x) = prod b(x_i) - 2^n prod b(2 x_i),
    as its exact level-J Galerkin lag table (the invariants oracle; delta_conv
    applies the same operator through its separable symbol).

    ``samples[l]`` is the response at the integer lag l per axis (numpy FFT
    layout: l = 0, 1, .., N/2-1, -N/2, .., -1 with N = 2^J).  The table is
    exactly even, so the convolution it defines is self-adjoint.
    """

    n: int
    s: int
    J: int
    samples: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        outer = _b_scaled_lag_table(self.s, self.J)
        inner = _b_scaled_lag_table(self.s + 1, self.J)
        self.samples = _tensor(outer, self.n) - _tensor(inner, self.n)

    def integral(self) -> float:
        return float(self.samples.sum() * 2.0 ** (-self.n * self.J))

    def first_moments(self) -> list[float]:
        """Moments at the signed lags l 2^-J.  The antipodal lag N/2 is both
        +1/2 and -1/2 on the torus, so it gets the weight 0."""
        N = 2**self.J
        signed = np.fft.fftfreq(N)
        signed[N // 2] = 0.0
        vol = 2.0 ** (-self.n * self.J)
        out = []
        for ax in range(self.n):
            shape = [1] * self.n
            shape[ax] = N
            out.append(float((self.samples * signed.reshape(shape)).sum() * vol))
        return out


def _beta_symbol(n: int, s: int, J: int) -> np.ndarray:
    """Symbol of beta_s in the rfftn layout (last axis: the N/2+1 nonnegative
    frequencies): the tensor power of the DFT of the 1D lag table, which is
    real because the table is exactly even."""
    h = np.fft.fft(_b_scaled_lag_table(s, J)).real * 2.0 ** (-J)
    out = h[: h.size // 2 + 1]
    for _ in range(n - 1):
        out = np.multiply.outer(h, out)
    return out


@lru_cache(maxsize=256)
def _delta_symbol(n: int, s: int, J: int) -> np.ndarray:
    sym = _beta_symbol(n, s, J) - _beta_symbol(n, s + 1, J)
    sym.setflags(write=False)
    return sym


def _apply_real_symbol(u: GridFunction, symbol: np.ndarray) -> GridFunction:
    """Periodic convolution given by a real rfftn-layout symbol."""
    axes = tuple(range(u.n))
    fu = np.fft.rfftn(u.values, axes=axes)
    return GridFunction(u.n, u.J, np.fft.irfftn(fu * symbol, s=u.values.shape, axes=axes))


def resolvable(s: int, J: int) -> bool:
    """Delta_s is resolved at level J iff 0 <= s <= J-2 (inner lobe >= 4 cells per axis)."""
    return 0 <= s <= J - 2


def delta_conv(u: GridFunction, s: int) -> GridFunction:
    """Scale-s resolving convolution Delta_s u = u * d_s on the torus, for
    ``resolvable`` s.  Delta_s is self-adjoint (its lag table is even)."""
    if not resolvable(s, u.J):
        raise ValueError(f"scale s={s} not resolvable at J={u.J} (need 0 <= s <= J-2)")
    return _apply_real_symbol(u, _delta_symbol(u.n, s, u.J))


def smoothing_conv(u: GridFunction, s: int) -> GridFunction:
    """Convolution with the tensor-b approximate identity beta_s
    (beta_s(x) = prod 2^s b(2^s x_i)), discretized with the same Galerkin
    lag tables as delta_conv; used by the telescoping oracle."""
    if s < 0:
        raise ValueError("scale must be >= 0")
    return _apply_real_symbol(u, _beta_symbol(u.n, s, u.J))
