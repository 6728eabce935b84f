"""Scalar-loop forms of three field families, the oracles for
``fields.trig_band_field`` (one full-grid cosine per frequency),
``fields.standard_random_field`` (one Python step per annulus mode) and
``fields.haar_polynomials`` (one HaarCoefficients synthesis per field);
the raw white noise ``fields.random_field`` draws, for tests that need
a field with a mean or Nyquist modes; and the cone-band fields in the
range of a Riesz transform, for the inverse Riesz tests."""

import itertools

import numpy as np

from haarriesz.fields import stream
from haarriesz.grid import GridFunction
from haarriesz.haar import HaarCoefficients, haar_synthesize


def white_noise(n, J, seed, index=0):
    """The standard normal cell values ``random_field`` draws, before it
    removes their Nyquist modes and mean."""
    return GridFunction(n, J, stream(seed, 1, n, J, index).standard_normal((2**J,) * n))


def trig_band_cos_loop(n, J, seed, index=0, i0=1):
    """sum_k amp_k cos(2 pi xi_k . x + phase_k) at the cell centers, with the
    draws of ``trig_band_field``."""
    band = 8
    rng = stream(seed, 5, band, index)
    N = 2**J
    centers = (np.arange(N) + 0.5) / N
    axes = []
    for ax in range(n):
        shape = [1] * n
        shape[ax] = N
        axes.append(centers.reshape(shape))
    out = np.zeros((N,) * n)
    drawn = 0
    while drawn < 24:
        xi = rng.integers(-band, band + 1, size=n)
        if xi[i0 - 1] == 0:
            continue
        amp = rng.standard_normal()
        phase = rng.random() * 2.0 * np.pi
        arg = sum(2.0 * np.pi * xi[ax] * axes[ax] for ax in range(n))
        out = out + amp * np.cos(arg + phase)
        drawn += 1
    return out


def standard_field_mode_loop(n, J, seed=0):
    """The values of ``standard_random_field``, one annulus mode at a time."""
    N = 2**J
    modes = []
    for xi in itertools.product(range(-5, 6), repeat=n):
        mag = np.sqrt(sum(x * x for x in xi))
        if not 2.0 <= mag <= 5.0:
            continue
        neg = tuple(-x for x in xi)
        if neg < xi:  # keep one of each conjugate pair
            continue
        modes.append(xi)
    rng = stream(seed, 6, 32, 80, 0)
    spec = np.zeros((N,) * n, dtype=np.complex128)
    for xi in modes:
        c = rng.standard_normal() + 1j * rng.standard_normal()
        spec[tuple(x % N for x in xi)] += c
        spec[tuple((-x) % N for x in xi)] += np.conj(c)
    vals = np.fft.ifftn(spec).real
    norm = float(np.sqrt(np.mean(vals**2)))
    return vals / norm if norm > 0 else vals


def haar_polynomial_per_field(n, J, seed, index, max_level):
    """One Haar polynomial synthesized on its own, with the draws of
    ``haar_polynomials``."""
    rng = stream(seed, 2, n, max_level, index)
    c = HaarCoefficients(n=n, J=J, mean=0.0)
    for j in range(max_level + 1):
        dirs = {}
        for eps_idx in range(1, 2**n):
            coeff = rng.standard_normal((2**j,) * n)
            mask = rng.random((2**j,) * n) < 0.3
            dirs[eps_idx] = np.where(mask, coeff, 0.0)
        c.levels[j] = dirs
    return haar_synthesize(c).values


def cone_band_field(
    n: int,
    J: int,
    seed: int,
    index: int = 0,
    i0: int = 1,
) -> GridFunction:
    """Random real field whose spectrum lies in the cone
    |xi_{i0}| >= max_{i != i0} |xi_i| / 2, off the hyperplane
    xi_{i0} = 0 and below Nyquist.  Admissible for
    ``riesz_oracle.riesz_inverse``."""
    N = 2**J
    k = np.fft.fftfreq(N, d=1.0 / N)
    freqs = []
    for ax in range(n):
        shape = [1] * n
        shape[ax] = N
        freqs.append(np.broadcast_to(k.reshape(shape), (N,) * n))
    others = [np.abs(freqs[ax]) for ax in range(n) if ax != i0 - 1]
    other_max = np.maximum.reduce(others) if others else np.zeros((N,) * n)
    keep = np.abs(freqs[i0 - 1]) >= np.maximum(0.5 * other_max, 1.0)
    for ax in range(n):
        keep &= np.abs(freqs[ax]) < N // 2  # strictly below Nyquist
    rng = stream(seed, 3, n, J, index)
    vals = rng.standard_normal((N,) * n)
    spec = np.fft.fftn(vals)
    spec[~keep] = 0.0
    out = np.fft.ifftn(spec).real
    norm = float(np.sqrt(np.mean(out**2)))
    if norm > 0:
        out = out / norm
    return GridFunction(n, J, out)
