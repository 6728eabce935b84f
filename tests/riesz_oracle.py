"""The composite inverse Riesz transform, the oracle for the one-pass
multiplier ``fourier.riesz_inverse``, and the spectral antiderivative it is
assembled from."""

from haarriesz.fourier import TWO_PI, _admissible_spectrum, _inverse, _odd_step, derivative, riesz
from haarriesz.grid import GridFunction


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
