"""The n-D lag table of the resolving kernel, the oracle for the 1D
invariants of ``ResolvingKernel`` and for ``delta_conv``; and the bump b
with its antiderivative, whose twice-iterated antiderivative
(``fourier.kernel_b_antiderivative2``) is all the package evaluates.

The table is the difference of the n-fold tensor powers of the even 1D
Galerkin lag tables T_s and T_{s+1} (numpy FFT layout on every axis).

Also the full-symbol multiplier path that ``fourier`` replaced with its
in-place one: one ``rfftn``, the whole symbol built with its zeros, a
product into a new array, one ``irfftn``.  It is the bit-for-bit oracle of
every multiplier; ``beta_symbol`` and ``delta_symbol`` are the full symbols
of the even ones, which ``fourier`` applies a block of rows at a time.
"""

import numpy as np

from haarriesz.fourier import _b_scaled_lag_table, _freqs, beta_factor
from haarriesz.grid import GridFunction


def full_symbol_multiplier(u, symbol):
    """The multiplier with the Hermitian symbol ``symbol`` (rfftn layout)."""
    axes = tuple(range(u.n))
    fu = np.fft.rfftn(u.values, axes=axes)
    return GridFunction(u.n, u.J, np.fft.irfftn(fu * symbol, s=u.values.shape, axes=axes))


def full_odd_multiplier(u, i, symbol):
    """The multiplier symbol(xi_i, |xi|) where 0 < |xi_i| < N/2, zero on
    xi_i = 0 and on the Nyquist plane, with its symbol built at full size."""
    xi = _freqs(u.n, u.J)
    x = xi[i - 1]
    live = (x != 0) & (np.abs(x) < 2 ** (u.J - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = np.where(live, symbol(x, np.sqrt(sum(k * k for k in xi))), 0.0)
    return full_symbol_multiplier(u, sym)


def beta_symbol(n, s, J):
    """Symbol of beta_s in the rfftn layout (last axis: the N/2+1 nonnegative
    frequencies): the tensor power of ``beta_factor``."""
    h = beta_factor(s, J)
    out = h[: h.size // 2 + 1]
    for _ in range(n - 1):
        out = np.multiply.outer(h, out)
    return out


def delta_symbol(n, s, J):
    """Symbol of Delta_s = beta_s - beta_{s+1} in the rfftn layout."""
    return beta_symbol(n, s, J) - beta_symbol(n, s + 1, J)


def kernel_b(t):
    """Even bump b(t) = (15/16)(1-t^2)^2 on [-1,1]: 0 <= b <= 15/16,
    integral one, Lip(b) <= 8."""
    t = np.asarray(t, dtype=np.float64)
    q = 1.0 - t * t
    return np.where(np.abs(t) <= 1.0, (15.0 / 16.0) * q * q, 0.0)


def kernel_b_antiderivative(t):
    """int_{-1}^{t} b, clamped outside the support (0 below, 1 above)."""
    t = np.clip(np.asarray(t, dtype=np.float64), -1.0, 1.0)
    return (15.0 / 16.0) * (t - 2.0 * t**3 / 3.0 + t**5 / 5.0) + 0.5


def _tensor_power(v, n):
    out = v
    for _ in range(n - 1):
        out = np.multiply.outer(out, v)
    return out


def lag_tensor(n, s, J):
    """(x)^n T_s - (x)^n T_{s+1}: the response of Delta_s at every lag vector."""
    return _tensor_power(_b_scaled_lag_table(s, J), n) - _tensor_power(
        _b_scaled_lag_table(s + 1, J), n
    )


def tensor_invariants(n, s, J):
    """Mass and per-axis first moments of ``lag_tensor`` at the signed lags
    l 2^-J, the antipodal lag N/2 weighted 0."""
    table = lag_tensor(n, s, J)
    N, vol = 2**J, 2.0 ** (-n * J)
    signed = np.fft.fftfreq(N)
    signed[N // 2] = 0.0
    moments = []
    for ax in range(n):
        shape = [1] * n
        shape[ax] = N
        moments.append(float((table * signed.reshape(shape)).sum() * vol))
    return float(table.sum() * vol), moments
