"""Experiment drivers behind the CLI subcommands and the acceptance suite:
the decomposition residuals, the ring-decay norms and the interpolatory
ratios.  The T_ell and rearrangement norms are op_norm2_estimate of
multiscale's operators, called directly."""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .fields import (
    haar_polynomial,
    single_haar_block,
    standard_random_spectrum,
    trig_band_field,
)
from .fourier import _inverse, riesz
from .grid import Direction, GridFunction, axis_direction
from .haar import HaarCoefficients, directional_project, haar_analyze
from .multiscale import default_even_family, default_levels, ring_norm, slice_sum_residuals

__all__ = [
    "decomposition_residuals",
    "ring_decay_norms",
    "interpolatory_family",
    "interp_ratio_sup",
]


def _cell_averages(J: int, modes: np.ndarray, spectrum: np.ndarray, L: int) -> GridFunction:
    """E_L u on the level-L grid, L <= J, for the level-J field u whose DFT
    is ``spectrum`` on the integer ``modes`` and 0 elsewhere.

    The mean of u over the level-L cell X is N^-n sum_xi u^(xi)
    e^(2 pi i xi.X / 2^L) prod_i D(xi_i), with N = 2^J and
    D(k) = mean_{t < r} e^(2 pi i k t / N), r = 2^(J-L); the phase depends
    on xi mod 2^L only.  So E_L u = (2^L / N)^n ifftn(S) with
    S(eta) = sum_{xi = eta mod 2^L} u^(xi) prod_i D(xi_i).  D is the
    product over q < J-L of (1 + e^(2 pi i k 2^q / N)) / 2.  S is built on
    its rfftn half and transformed in place; modes alias when 2^L is
    small."""
    n, N, M = modes.shape[1], 2**J, 2**L
    D = np.ones(modes.shape, dtype=complex)
    for q in range(J - L):
        D *= (1.0 + np.exp(2j * np.pi * (modes * 2**q / N))) / 2.0
    eta = modes % M
    half = eta[:, -1] <= M // 2
    S = np.zeros((M,) * (n - 1) + (M // 2 + 1,), dtype=complex)
    np.add.at(S, tuple(eta[half].T), (spectrum * D.prod(axis=1))[half])
    values = _inverse(S, M)
    values *= (M / N) ** n
    return GridFunction(n, L, values)


def decomposition_residuals(
    n: int,
    J: int,
    direction: Direction,
    orders: Sequence[float],
    levels: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> tuple[list[float], float]:
    """Residuals ||P u - sum_{|ell| <= L} T_ell u||_2 for each L in
    ``orders`` on the standard random field, in closed form from its mode
    list (multiscale.slice_sum_residuals), plus ||P u||_2 for
    normalization, from the Haar side.  The order L = math.inf is the
    floor ||P beta_0 u||, the limit of the residuals.

    The Haar coefficients on the window's levels, all below
    L = top + 1, read u through its level-L cell averages alone, so they
    are taken on the level-L grid of E_L u (_cell_averages), and ||P u||
    is their Parseval sum; at the default window that grid has 2^-n of
    the cells."""
    lv = default_levels(J) if levels is None else list(levels)
    modes, spectrum = standard_random_spectrum(n, J, seed)
    residuals = slice_sum_residuals(J, modes, spectrum, direction, orders, lv)
    c = haar_analyze(_cell_averages(J, modes, spectrum, max(lv, default=-1) + 1))
    kept = HaarCoefficients(n, c.J, 0.0, {j: {direction.index: c.levels[j][direction.index]}
                                          for j in lv})
    return residuals, math.sqrt(kept.energy())


def ring_decay_norms(n: int, J: int, lams: Sequence[int]) -> dict[int, float]:
    """Exact L2 norms of the ring projection along e_1 over the level-1
    all-even family, from the cover counts (multiscale.ring_norm)."""
    family, direction = default_even_family(n, 1), axis_direction(n, 1)
    return {lam: ring_norm(family, direction, lam, J) for lam in lams}


# ---------------------------------------------------------------------------
# interpolatory ratios


def interpolatory_family(
    n: int,
    J: int,
    seed: int,
    count: int = 25,
) -> Iterator[tuple[str, int, GridFunction]]:
    """The structured test families for the interpolatory-ratio experiment:
    Haar polynomials, single Haar blocks, trigonometric cone fields, the
    coarsest layered test function, and single tensor blocks.  Every member
    is the same underlying function at every J (so the measured sup is
    comparable across resolutions).  Members are built one at a time, as
    they are drawn, so only one is alive at once."""
    for i in range(count):
        yield "haar_poly", i, haar_polynomial(n, J, seed, index=i, max_level=3)
    blocks = [
        (0, (0,) * n),
        (1, (0,) * n),
        (1, (1,) * n),
        (2, (1,) * n),
    ]
    bi = 0
    for j, k in blocks:
        for eps_idx in range(1, 2**n):
            bits = tuple((eps_idx >> b) & 1 for b in range(n))
            if bits[0] != 1:
                continue
            yield "haar_block", bi, single_haar_block(n, J, j, k, bits)
            bi += 1
    for i in range(count):
        yield "trig_cone", i, trig_band_field(n, J, seed, index=i, i0=1)
    if n == 2:
        from .sharpness import BlockSpec, block_field, f_eps_field, single_block_square

        yield "f_eps", 0, f_eps_field(0.5, J)
        for i, eps in enumerate((0.5, 0.25)):
            yield "block", i, block_field(BlockSpec(single_block_square(), eps), J)


def interp_ratio_sup(n: int, J: int, ps: Sequence[float], seed: int = 0,
                     count: int = 25) -> list[float]:
    """Empirical sup over the families of the interpolatory ratio along e_1,
    one per p in ``ps``: exponents (1/2, 1/2) for p >= 2 and (1/p, 1/q) for
    p < 2.  Each member is projected once, for every p."""
    direction = axis_direction(n, 1)
    sups = [0.0] * len(ps)
    for _, _, u in interpolatory_family(n, J, seed, count):
        Pu, Ru = directional_project(u, direction), riesz(u, 1)
        for k, p in enumerate(ps):
            a = 0.5 if p >= 2 else 1.0 / p
            b = 0.5 if p >= 2 else 1.0 - 1.0 / p
            norm_u = u.lp_norm(p)
            if norm_u <= 1e-14:
                continue
            norm_P, norm_R = Pu.lp_norm(p), Ru.lp_norm(p)
            if norm_R <= 1e-13 * norm_u:
                # R_1 is zero on the Nyquist plane xi_1 = N/2, where P need not
                # vanish: the ratio is 0 only if P u vanishes too
                ratio = 0.0 if norm_P <= 1e-13 * norm_u else math.inf
            else:
                ratio = norm_P / (norm_u**a * norm_R**b)
            sups[k] = max(sups[k], ratio)
    return sups
