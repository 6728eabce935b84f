"""The Haar syntheses one level and one field at a time, the oracles of the
one synthesis pyramid (``haar._synthesize``) that ``haar.level_field``,
``multiscale._level_sum`` and ``haar.directional_project`` run; the vector
projection one component at a time, and the residual ratio built on it.
``vector_project`` runs one pyramid projection per component;
``jensen_range_check`` projects a whole family in one stacked Haar pass
(``haar._project_stack``).  A vector field is the array of shape
(n, 2^J, .., 2^J) that stacks its components; ``a0_apply`` is its
off-diagonal gradient entry by entry, the oracle of
``semiconvexity.a0_max_entry``."""

import math
from typing import Optional, Sequence

import numpy as np

from haarriesz.fourier import derivative, riesz
from haarriesz.grid import Direction, GridFunction, _upsample, axis_direction
from haarriesz.haar import HaarCoefficients, _merge_block, haar_analyze, haar_synthesize


def level_field_by_merge(coeffs: np.ndarray, direction: Direction, J: int) -> GridFunction:
    """sum_Q c_Q h_Q^(eps) over the level-j cubes that index ``coeffs``: one
    merge step at level j, then the values spread to level J."""
    n = coeffs.ndim
    zero = np.zeros_like(coeffs)
    parts = {bits: zero for bits in range(2**n)}
    parts[direction.index] = coeffs
    return GridFunction(n, J, _upsample(_merge_block(parts, n), J, n))


def level_sum_by_fields(coeffs: dict, direction: Direction, J: int) -> GridFunction:
    """sum over j of the level-j fields with coefficients coeffs[j], each
    built by level_field_by_merge and added in the dict's order."""
    acc = GridFunction.zeros(direction.n, J)
    for c in coeffs.values():
        acc = acc + level_field_by_merge(c, direction, J)
    return acc


def project_by_pyramid(u: GridFunction, direction: Direction,
                       levels: Optional[Sequence[int]] = None) -> GridFunction:
    """P^(eps) on ``levels`` (default all) through the full HaarCoefficients
    of u: analyze, keep the direction-eps arrays, synthesize."""
    c = haar_analyze(u)
    keep = set(range(u.J)) if levels is None else set(levels)
    out = HaarCoefficients(n=u.n, J=u.J, mean=0.0)
    for j in range(u.J):
        if j in keep and j in c.levels:
            out.levels[j] = {direction.index: c.levels[j][direction.index]}
    return haar_synthesize(out)


def vector_project(v: Sequence[GridFunction]) -> list[GridFunction]:
    """Component-wise projection P(v) = (P^(e_1) v_1, ..., P^(e_n) v_n)."""
    if not v:
        raise ValueError("empty vector field")
    n = v[0].n
    if len(v) != n:
        raise ValueError(f"need {n} components, got {len(v)}")
    for comp in v[1:]:
        v[0]._check_compatible(comp)
    return [project_by_pyramid(comp, axis_direction(n, i + 1)) for i, comp in enumerate(v)]


def components(v: np.ndarray) -> list[GridFunction]:
    """The components of the vector field v as grid fields."""
    n = v.shape[0]
    return [GridFunction(n, v.shape[1].bit_length() - 1, c) for c in v]


def a0_apply(v: np.ndarray) -> dict[tuple[int, int], GridFunction]:
    """Off-diagonal gradient: entries (i, j) = d v_j / d x_i for i != j,
    by spectral differentiation."""
    comps = components(v)
    n = len(comps)
    return {(i, j): derivative(comps[j - 1], i)
            for i in range(1, n + 1) for j in range(1, n + 1) if i != j}


def vector_lp_norm(v: np.ndarray, p: float) -> float:
    """L^p norm of the pointwise Euclidean length of v."""
    mag = np.sqrt(sum(c**2 for c in v))
    return float((mag**p).sum() / mag.size) ** (1.0 / p)


def residual_ratio(v: np.ndarray, p: float) -> float:
    """||v - P(v)||_p / (||v||_p^{1/2} (sum_{i != j} ||R_i v_j||_p)^{1/2}),
    with 0/0 -> 0."""
    if p < 2:
        raise ValueError("the residual inequality is stated for p >= 2")
    comps = components(v)
    w = vector_project(comps)
    num = vector_lp_norm(np.stack([(a - b).values for a, b in zip(comps, w)]), p)
    n = len(comps)
    cross = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            cross += riesz(comps[j - 1], i).lp_norm(p)
    denom = vector_lp_norm(v, p) ** 0.5 * cross**0.5
    if denom == 0.0:
        return 0.0 if num <= 1e-12 else math.inf
    return num / denom
