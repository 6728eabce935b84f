"""Experiment drivers: every measured quantity behind the CLI subcommands
and the acceptance suite."""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .fields import (
    haar_polynomial,
    single_haar_block,
    standard_random_field,
    trig_band_field,
)
from .fourier import riesz
from .grid import Direction, GridFunction, axis_direction
from .haar import directional_project
from .multiscale import (
    OpNormResult,
    default_even_family,
    default_levels,
    op_norm2_estimate,
    rearrangement_operator,
    ring_norm,
    slice_sum_residuals,
    t_ell_operator,
    unit_start_spectrum,
)
from .sharpness import BlockSpec, block_field, f_eps_field, single_block_square

__all__ = [
    "decomposition_residuals",
    "tl_decay_norms",
    "ring_decay_norms",
    "rearrangement_norms",
    "interpolatory_family",
    "interp_ratio_sup",
]


def decomposition_residuals(
    n: int,
    J: int,
    direction: Direction,
    L_max: int,
    levels: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> tuple[list[float], float]:
    """Residuals ||P u - sum_{|ell| <= L} T_ell u||_2 for L = 0..L_max on the
    standard random field, in closed form (multiscale.slice_sum_residuals),
    plus ||P u||_2 for normalization, from the Haar side.  From L = J-1 on
    the residual is the truncation floor."""
    lv = default_levels(J) if levels is None else list(levels)
    u = standard_random_field(n, J, seed)
    residuals = slice_sum_residuals(u, direction, range(L_max + 1), lv)
    base = directional_project(u, direction, lv).lp_norm(2)
    return residuals, base


def tl_decay_norms(
    n: int,
    J: int,
    direction: Direction,
    ells: Sequence[int],
    levels: Optional[Sequence[int]] = None,
    iters: int = 24,
    seed: int = 0,
) -> dict[int, OpNormResult]:
    """Power-iteration L2 norms of the scale slices, with their solver
    diagnostics.  Every slice starts from the same unit field, drawn and
    transformed once."""
    spectrum = unit_start_spectrum(n, J, seed)
    out: dict[int, OpNormResult] = {}
    for ell in ells:
        op = t_ell_operator(n, J, direction, ell, levels)
        out[ell] = op_norm2_estimate(op, n, J, iters=iters, seed=seed, spectrum=spectrum)
    return out


def ring_decay_norms(n: int, J: int, lams: Sequence[int]) -> dict[int, float]:
    """Exact L2 norms of the ring projection along e_1 over the level-1
    all-even family, from the cover counts (multiscale.ring_norm)."""
    family, direction = default_even_family(n, 1), axis_direction(n, 1)
    return {lam: ring_norm(family, direction, lam, J) for lam in lams}


def rearrangement_norms(
    n: int,
    J: int,
    lams: Sequence[int],
    iters: int = 16,
    seed: int = 0,
) -> dict[int, OpNormResult]:
    """Power-iteration L2 norms of the rearrangement operator, with their
    solver diagnostics; one operator is alive at a time."""
    return {lam: op_norm2_estimate(rearrangement_operator(n, J, lam), n, J, iters=iters, seed=seed)
            for lam in lams}


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
