"""The inverse Riesz transform by two routes, which README criterion 2
compares: the one-pass multiplier ``riesz_inverse``, and the composite
``riesz_inverse_composite`` assembled from the Riesz transforms, the
derivatives and the spectral antiderivative.  Both take the half spectrum
of ``fourier``'s multiplier path once its hyperplane check passes."""

import numpy as np

from haarriesz.fourier import (
    TWO_PI,
    _check_axis,
    _forward,
    _freqs,
    _inverse,
    _odd_step,
    derivative,
    riesz,
)
from haarriesz.grid import GridFunction


def _admissible_spectrum(u: GridFunction, i0: int) -> np.ndarray:
    """The half spectrum of u, once its N^-n-normalised values are checked
    to be below 1e-12 on the hyperplane xi_{i0} = 0; otherwise raise, naming
    the frequency that carries the most."""
    _check_axis(u.n, i0)
    fu = _forward(u.values, u.n)
    # index 0 of every rfftn axis is the zero frequency
    plane = np.abs(fu.take(0, axis=i0 - 1)) * 2.0 ** (-u.n * u.J)
    worst = float(plane.max())
    if worst > 1e-12:
        where = list(np.unravel_index(int(plane.argmax()), plane.shape))
        where.insert(i0 - 1, 0)
        freq = tuple(int(k.ravel()[idx]) for k, idx in zip(_freqs(u.n, u.J), where))
        raise ValueError(
            f"spectral mass {worst:.3e} on the hyperplane xi_{i0}=0 "
            f"(offending frequency {freq}); input not in the range of R_{i0}"
        )
    return fu


def riesz_inverse(u: GridFunction, i0: int) -> GridFunction:
    """Inverse Riesz transform along axis i0: the multiplier
    |xi| / (-i xi_{i0}), applied in one pass to the half spectrum the
    hyperplane check takes.  The spectrum must avoid xi_{i0} = 0."""
    fu = _odd_step(_admissible_spectrum(u, i0), u.J, i0, lambda x, mag: mag / (-1j * x))
    return GridFunction(u.n, u.J, _inverse(fu, 2**u.J))


def antiderivative(u, i0):
    """Spectral antiderivative along axis i0, defined only off
    xi_{i0} = 0: the multiplier 1 / (2 pi i xi_{i0}) on the half spectrum
    the hyperplane check takes."""
    fu = _odd_step(_admissible_spectrum(u, i0), u.J, i0, lambda x, mag: 1.0 / (1j * TWO_PI * x))
    return GridFunction(u.n, u.J, _inverse(fu, 2**u.J))


def riesz_inverse_composite(u, i0):
    """-(R_{i0} + sum_{i != i0} E_{i0} d_i R_i), with E_{i0} the
    antiderivative along i0, assembled from the individual operators.  The
    bracketed sum is the textbook inversion identity; with the -i xi/|xi|
    convention of ``fourier.riesz`` its symbol is -|xi|/(-i xi_{i0}), hence
    the leading sign.  The spectrum must avoid the hyperplane xi_{i0} = 0."""
    _admissible_spectrum(u, i0)
    acc = riesz(u, i0)
    for i in range(1, u.n + 1):
        if i != i0:
            acc = acc + antiderivative(derivative(riesz(u, i), i), i0)
    return -acc
