"""Deterministic test-field families.

All randomness flows through counter-based Philox streams keyed by
(seed, stream ids), so results never depend on execution order and identical
manifests reproduce identical numbers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .grid import Direction, DyadicCube, GridFunction
from .haar import _synthesize, level_field

__all__ = [
    "stream",
    "random_field",
    "standard_random_field",
    "standard_random_spectrum",
    "haar_polynomial",
    "haar_polynomials",
    "cone_band_field",
    "single_haar_block",
    "trig_band_field",
]


def stream(seed: int, *ids: int) -> np.random.Generator:
    """Philox generator keyed by (seed, ids): stable under parallel order."""
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    counter = np.zeros(4, dtype=np.uint64)
    for pos, val in enumerate(ids[:4]):
        counter[pos] = np.uint64(val & 0xFFFFFFFFFFFFFFFF)
    bitgen = np.random.Philox(key=key, counter=counter)
    return np.random.Generator(bitgen)


def _strip_nyquist(values: np.ndarray, n: int) -> np.ndarray:
    """Zero every Fourier mode with a coordinate on the Nyquist plane; such
    modes cannot carry odd multipliers (Riesz) faithfully on the grid."""
    spec = np.fft.fftn(values)
    N = values.shape[0]
    nyq = N // 2
    for ax in range(n):
        idx = [slice(None)] * n
        idx[ax] = nyq
        spec[tuple(idx)] = 0.0
    return np.fft.ifftn(spec).real


def random_field(
    n: int,
    J: int,
    seed: int,
    index: int = 0,
    mean_zero: bool = True,
    nyquist_free: bool = True,
) -> GridFunction:
    """White-noise cell values, optionally mean-free and Nyquist-free."""
    rng = stream(seed, 1, n, J, index)
    vals = rng.standard_normal((2**J,) * n)
    if nyquist_free:
        vals = _strip_nyquist(vals, n)
    if mean_zero:
        vals = vals - vals.mean()
    return GridFunction(n, J, vals)


def _annulus_modes(n: int, J: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The modes of the reference field, (2m, n) integers: the m modes of the
    annulus 2 <= |xi| <= 5 whose first nonzero coordinate is negative, in
    itertools.product order, then their negatives; and their complex
    amplitudes c, then conj(c), unnormalised.  The draw is keyed by the
    seed only; J is checked to resolve the band."""
    if J < 4:
        raise ValueError(f"band 2 <= |xi| <= 5 not resolvable at J={J}")
    xi = np.indices((11,) * n).reshape(n, -1).T - 5
    mag2 = (xi * xi).sum(axis=1)
    first = xi[np.arange(len(xi)), np.argmax(xi != 0, axis=1)]
    xi = xi[(4 <= mag2) & (mag2 <= 25) & (first < 0)]
    rng = stream(seed, 6, 32, 80, 0)  # (band edges x 16, index)
    draws = rng.standard_normal((len(xi), 2))
    c = draws[:, 0] + 1j * draws[:, 1]
    return np.concatenate([xi, -xi]), np.concatenate([c, np.conj(c)])


def standard_random_field(n: int, J: int, seed: int = 0) -> GridFunction:
    """The reference field of the decomposition and decay experiments:
    Gaussian Fourier amplitudes on the annulus 2 <= |xi| <= 5, mean-zero,
    unit L2 norm.  The band keeps the field away from both truncation edges
    of the scale ladder: the coarsest smoothing retains under 0.5 percent of
    it and the finest resolvable scale separates it cleanly.

    The draw is keyed by the seed only, so the same function is produced at
    every J >= 4, where the band sits below Nyquist."""
    xi, a = _annulus_modes(n, J, seed)
    N = 2**J
    # the modes sit in distinct cells: |xi_ax| <= 5 < N/2
    spec = np.zeros((N,) * n, dtype=np.complex128)
    spec[tuple((xi % N).T)] = a
    vals = np.fft.ifftn(spec).real
    norm = float(np.sqrt(np.mean(vals**2)))
    if norm > 0:
        vals = vals / norm
    return GridFunction(n, J, vals)


def standard_random_spectrum(n: int, J: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``standard_random_field`` as its spectrum, with no grid built: the
    modes xi, (m, n) integers (each conjugate pair listed both ways), and
    the field's DFT (numpy's fftn on the level-J grid) at them; the DFT is
    0 at every other frequency.  The field is ifftn of the amplitudes a
    scaled to unit L2 norm, so by Parseval its DFT is a N^n / ||a||_2."""
    xi, a = _annulus_modes(n, J, seed)
    return xi, a * (2.0 ** (n * J) / np.linalg.norm(a))


def haar_polynomials(
    n: int,
    J: int,
    seed: int,
    indices: Sequence[int],
    max_level: Optional[int] = None,
) -> np.ndarray:
    """``haar_polynomial`` for each index, as one stack of cell values
    (len(indices), 2^J, .., 2^J): each field draws its own coefficients,
    and one stacked synthesis builds them all."""
    top = (J - 1) if max_level is None else max_level
    if top >= J:
        raise ValueError("max_level must be < J")
    levels = {j: {eps_idx: np.empty((len(indices),) + (2**j,) * n) for eps_idx in range(1, 2**n)}
              for j in range(top + 1)}
    for b, index in enumerate(indices):
        rng = stream(seed, 2, n, top, index)
        for j, dirs in levels.items():
            for coeffs in dirs.values():
                coeff = rng.standard_normal((2**j,) * n)
                mask = rng.random((2**j,) * n) < 0.3
                coeffs[b] = np.where(mask, coeff, 0.0)
    return _synthesize(np.zeros((len(indices),) + (1,) * n), levels, n, J)


def haar_polynomial(
    n: int,
    J: int,
    seed: int,
    index: int = 0,
    max_level: Optional[int] = None,
) -> GridFunction:
    """Random finite linear combination of Haar functions up to max_level
    (default J-1), with standard-normal coefficients kept with probability
    0.3.

    Draws are keyed by (seed, index, max_level) only, so the same function
    is produced at every resolution J > max_level."""
    return GridFunction(n, J, haar_polynomials(n, J, seed, [index], max_level)[0])


def cone_band_field(
    n: int,
    J: int,
    seed: int,
    index: int = 0,
    i0: int = 1,
) -> GridFunction:
    """Random real field whose spectrum lies in the cone
    |xi_{i0}| >= max_{i != i0} |xi_i| / 2, off the hyperplane
    xi_{i0} = 0 and below Nyquist.  Admissible for riesz_inverse."""
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


def single_haar_block(n: int, J: int, j: int, k: Sequence[int], eps_bits: Sequence[int]) -> GridFunction:
    """The Haar function h_Q^(eps) as a grid field (exact for j < J)."""
    cube = DyadicCube(n, j, tuple(k))
    arr = np.zeros((2**j,) * n)
    arr[cube.k] = 1.0
    return level_field(arr, Direction(tuple(eps_bits)), J)


def trig_band_field(
    n: int,
    J: int,
    seed: int,
    index: int = 0,
    i0: int = 1,
) -> GridFunction:
    """Random real trigonometric polynomial with 24 frequencies drawn from
    the box [-8, 8]^n, kept off the hyperplane xi_{i0} = 0.

    The draw is keyed by (seed, index) only and the field is evaluated at
    cell centers, so refining J samples the same function."""
    band = 8
    rng = stream(seed, 5, band, index)
    xis, coeffs = [], []
    while len(xis) < 24:
        xi = rng.integers(-band, band + 1, size=n)
        if xi[i0 - 1] == 0:
            continue
        amp = rng.standard_normal()
        phase = rng.random() * 2.0 * np.pi
        xis.append(xi)
        coeffs.append(amp * np.exp(1j * phase))
    # Re sum_k amp_k e^{i phase_k} prod_ax e^{2 pi i xi_k,ax x_ax}: one
    # separable factor per axis, contracted over k
    N = 2**J
    centers = (np.arange(N) + 0.5) / N
    factors = np.exp(2j * np.pi * np.array(xis)[:, :, None] * centers)
    axes = "abc"[:n]
    spec = "k," + ",".join("k" + a for a in axes) + "->" + axes
    out = np.einsum(spec, np.array(coeffs), *(factors[:, ax] for ax in range(n))).real
    return GridFunction(n, J, out)
