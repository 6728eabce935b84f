"""The vector projection one component at a time, and the residual ratio
built on it.  ``vector_project`` runs one ``directional_project`` per
component; ``jensen_range_check`` projects a whole family in one stacked
Haar pass (``haar._project_stack``)."""

import math
from typing import Sequence

import numpy as np

from haarriesz.fourier import riesz
from haarriesz.grid import GridFunction, axis_direction
from haarriesz.haar import directional_project
from haarriesz.semiconvexity import VectorField


def vector_project(v: Sequence[GridFunction]) -> list[GridFunction]:
    """Component-wise projection P(v) = (P^(e_1) v_1, ..., P^(e_n) v_n)."""
    if not v:
        raise ValueError("empty vector field")
    n = v[0].n
    if len(v) != n:
        raise ValueError(f"need {n} components, got {len(v)}")
    for comp in v[1:]:
        v[0]._check_compatible(comp)
    return [directional_project(comp, axis_direction(n, i + 1)) for i, comp in enumerate(v)]


def vector_lp_norm(v: VectorField, p: float) -> float:
    """L^p norm of the pointwise Euclidean length of v."""
    mag = np.sqrt(sum(c.values**2 for c in v.components))
    vol = v.components[0].cell_volume()
    return float((mag**p).sum() * vol) ** (1.0 / p)


def residual_ratio(v: VectorField, p: float) -> float:
    """||v - P(v)||_p / (||v||_p^{1/2} (sum_{i != j} ||R_i v_j||_p)^{1/2}),
    with 0/0 -> 0."""
    if p < 2:
        raise ValueError("the residual inequality is stated for p >= 2")
    w = vector_project(v.components)
    num = vector_lp_norm(VectorField([a - b for a, b in zip(v.components, w)]), p)
    cross = 0.0
    for i in range(1, v.n + 1):
        for j in range(1, v.n + 1):
            if i == j:
                continue
            cross += riesz(v.components[j - 1], i).lp_norm(p)
    denom = vector_lp_norm(v, p) ** 0.5 * cross**0.5
    if denom == 0.0:
        return 0.0 if num <= 1e-12 else math.inf
    return num / denom
