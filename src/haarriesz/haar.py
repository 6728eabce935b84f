"""Haar analysis on the dyadic grid: coefficients, directional projections
and conditional expectations.

Coefficients are normalized as c_Q = <u, h_Q> / |Q|, so a unit Haar block has
coefficient exactly 1 and synthesis is plain multiplication by h_Q.  Because
grid fields are constant on level-J cells, analysis at levels 0..J-1 is exact
(block averaging, no quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Direction, DyadicCube, GridFunction, _upsample, dot

__all__ = [
    "HaarCoefficients",
    "haar_analyze",
    "haar_synthesize",
    "level_coefficients",
    "level_field",
    "directional_project",
    "conditional_expectation",
]


def _halve(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    even = [slice(None)] * arr.ndim
    odd = [slice(None)] * arr.ndim
    even[axis] = slice(0, None, 2)
    odd[axis] = slice(1, None, 2)
    return arr[tuple(even)], arr[tuple(odd)]


def _split_block(avg: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """One analysis step on the trailing n axes (any leading axes are a stack
    of fields): cell averages at level j+1 -> {bit pattern: array at level
    j}.  Pattern 0 carries the parent averages; pattern eps the direction-eps
    coefficients (already |Q|-normalized)."""
    parts = {0: avg}
    for ax in range(n):
        nxt: dict[int, np.ndarray] = {}
        for bits, arr in parts.items():
            lo, hi = _halve(arr, ax - n)
            nxt[bits] = (lo + hi) / 2.0
            nxt[bits | (1 << ax)] = (lo - hi) / 2.0
        parts = nxt
    return parts


def _merge_block(parts: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Inverse of _split_block."""
    cur = dict(parts)
    for ax in reversed(range(n)):
        nxt: dict[int, np.ndarray] = {}
        for base in [bits for bits in cur if not bits & (1 << ax)]:
            s, d = cur[base], cur[base | (1 << ax)]
            shape = list(s.shape)
            shape[ax - n] *= 2
            out = np.empty(shape)
            even, odd = _halve(out, ax - n)  # views into out
            np.add(s, d, out=even)
            np.subtract(s, d, out=odd)
            nxt[base] = out
        cur = nxt
    return cur[0]


def _block_mean(arr: np.ndarray, j: int, n: int) -> np.ndarray:
    """Level-j cell averages of fields given on a finer dyadic grid, held on
    the trailing n axes of ``arr``."""
    lead = arr.ndim - n
    w = arr.shape[-1] >> j
    blocked = arr.reshape(arr.shape[:lead] + (2**j, w) * n)
    return blocked.mean(axis=tuple(range(lead + 1, blocked.ndim, 2)))


def _analyze(avg: np.ndarray, n: int, J: int
             ) -> tuple[np.ndarray, dict[int, dict[int, np.ndarray]]]:
    """Haar pyramid of level-J cell values on the trailing n axes: (global
    means, {level: {direction index: coefficients}})."""
    levels = {}
    for j in range(J - 1, -1, -1):
        parts = _split_block(avg, n)
        avg = parts.pop(0)
        levels[j] = parts
    return avg, levels


def _synthesize(avg: np.ndarray, levels: dict[int, dict[int, np.ndarray]], n: int,
                J: int) -> np.ndarray:
    """Inverse of _analyze; directions absent from ``levels`` are zero."""
    for j in range(0, J):
        dirs, zero = levels.get(j, {}), np.zeros_like(avg)
        avg = _merge_block({0: avg, **{e: dirs.get(e, zero) for e in range(1, 2**n)}}, n)
    return avg


@dataclass
class HaarCoefficients:
    """Haar data of a grid field: global mean plus, per level j < J and
    direction eps, the array of coefficients c_Q = <u, h_Q^(eps)>/|Q| indexed
    like the level-j cells."""

    n: int
    J: int
    mean: float
    levels: dict[int, dict[int, np.ndarray]] = field(default_factory=dict)

    def coefficient(self, cube: DyadicCube, direction: Direction) -> float:
        if cube.n != self.n or direction.n != self.n:
            raise ValueError("dimension mismatch")
        if cube.j >= self.J:
            raise ValueError(f"no coefficients at level {cube.j} (J={self.J})")
        return float(self.levels[cube.j][direction.index][cube.k])

    def energy(self) -> float:
        """mean^2 + sum c^2 |Q| -- equals ||u||_2^2 by Parseval."""
        total = self.mean**2
        for j, dirs in self.levels.items():
            vol = 2.0 ** (-self.n * j)
            for arr in dirs.values():
                total += dot(arr, arr) * vol
        return total



def haar_analyze(u: GridFunction) -> HaarCoefficients:
    """Full Haar decomposition of a grid field (exact)."""
    avg, levels = _analyze(u.values, u.n, u.J)
    return HaarCoefficients(n=u.n, J=u.J, mean=float(avg.reshape(())), levels=levels)


def haar_synthesize(c: HaarCoefficients) -> GridFunction:
    """Inverse of haar_analyze (exact up to rounding)."""
    return GridFunction(c.n, c.J, _synthesize(np.full((1,) * c.n, c.mean), c.levels, c.n, c.J))


def level_coefficients(u: GridFunction, j: int, direction: Direction) -> np.ndarray:
    """The level-j, direction-eps Haar coefficients of u (the entry
    ``haar_analyze(u).levels[j][direction.index]``), read from u's
    level-(j+1) cell averages alone."""
    if direction.n != u.n:
        raise ValueError("dimension mismatch")
    if not 0 <= j < u.J:
        raise ValueError(f"no coefficients at level {j} (J={u.J})")
    return _split_block(_block_mean(u.values, j + 1, u.n), u.n)[direction.index]


def level_field(coeffs: np.ndarray, direction: Direction, J: int) -> GridFunction:
    """sum_Q c_Q h_Q^(eps) over the level-j cubes Q that index ``coeffs``,
    as a level-J grid field (the one-level inverse of level_coefficients)."""
    n, j = coeffs.ndim, coeffs.shape[0].bit_length() - 1
    if direction.n != n:
        raise ValueError("dimension mismatch")
    if j >= J:
        raise ValueError(f"no coefficients at level {j} (J={J})")
    values = _synthesize(np.zeros((1,) * n), {j: {direction.index: coeffs}}, n, J)
    return GridFunction(n, J, values)


def _project_stack(values: np.ndarray, n: int, J: int, eps_idx: int) -> np.ndarray:
    """P^(eps) of the fields on the trailing n axes of ``values``:
    directional_project for a stack of fields."""
    _, pyramid = _analyze(values, n, J)
    kept = {j: {eps_idx: dirs[eps_idx]} for j, dirs in pyramid.items()}
    return _synthesize(np.zeros(values.shape[:-n] + (1,) * n), kept, n, J)


def directional_project(u: GridFunction, direction: Direction) -> GridFunction:
    """P^(eps): keep only the direction-eps Haar coefficients of every level
    0..J-1 (zero mean)."""
    if direction.n != u.n:
        raise ValueError("dimension mismatch")
    return GridFunction(u.n, u.J, _project_stack(u.values, u.n, u.J, direction.index))


def conditional_expectation(u: GridFunction, M: int) -> GridFunction:
    """E_M: replace u by its mean on every level-M cell."""
    if not 0 <= M <= u.J:
        raise ValueError(f"M must be within 0..{u.J}, got {M}")
    return GridFunction(u.n, u.J, _upsample(_block_mean(u.values, M, u.n), u.J, u.n))
