"""The n-D lag table of the resolving kernel, the oracle for the 1D
invariants of ``ResolvingKernel`` and for ``delta_conv``.

The table is the difference of the n-fold tensor powers of the even 1D
Galerkin lag tables T_s and T_{s+1} (numpy FFT layout on every axis).
"""

import numpy as np

from haarriesz.fourier import _b_scaled_lag_table


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
