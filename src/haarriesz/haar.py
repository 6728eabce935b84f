"""Haar analysis on the dyadic grid: coefficients, directional projections,
conditional expectations, square function and the dyadic BMO norm.

Coefficients are normalized as c_Q = <u, h_Q> / |Q|, so a unit Haar block has
coefficient exactly 1 and synthesis is plain multiplication by h_Q.  Because
grid fields are constant on level-J cells, analysis at levels 0..J-1 is exact
(block averaging, no quadrature).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .grid import Direction, DyadicCube, GridFunction

__all__ = [
    "HaarCoefficients",
    "haar_analyze",
    "haar_synthesize",
    "directional_project",
    "vector_project",
    "conditional_expectation",
    "square_function",
    "bmo_d_norm",
]


def _halve(arr: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    even = [slice(None)] * arr.ndim
    odd = [slice(None)] * arr.ndim
    even[axis] = slice(0, None, 2)
    odd[axis] = slice(1, None, 2)
    return arr[tuple(even)], arr[tuple(odd)]


def _split_block(avg: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """One analysis step: cell averages at level j+1 -> {bit pattern: array at
    level j}.  Pattern 0 carries the parent averages; pattern eps the
    direction-eps coefficients (already |Q|-normalized)."""
    parts = {0: avg}
    for ax in range(n):
        nxt: dict[int, np.ndarray] = {}
        for bits, arr in parts.items():
            lo, hi = _halve(arr, ax)
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
            out = np.empty(s.shape[:ax] + (2 * s.shape[ax],) + s.shape[ax + 1:])
            even, odd = _halve(out, ax)  # views into out
            np.add(s, d, out=even)
            np.subtract(s, d, out=odd)
            nxt[base] = out
        cur = nxt
    return cur[0]


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
                total += float(np.vdot(arr, arr)) * vol
        return total

    def iter_entries(self) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], float]]:
        """(level, k-coords, eps-bits, value) rows, deterministic order."""
        for j in sorted(self.levels):
            for eps_idx in sorted(self.levels[j]):
                bits = tuple((eps_idx >> i) & 1 for i in range(self.n))
                arr = self.levels[j][eps_idx]
                for k in np.ndindex(*arr.shape):
                    yield j, k, bits, float(arr[k])

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("level," + ",".join(f"k{i+1}" for i in range(self.n)))
        buf.write("," + ",".join(f"eps{i+1}" for i in range(self.n)) + ",value\n")
        for j, k, bits, value in self.iter_entries():
            buf.write(
                f"{j}," + ",".join(map(str, k)) + "," + ",".join(map(str, bits))
                + f",{value!r}\n"
            )
        return buf.getvalue()


def haar_analyze(u: GridFunction) -> HaarCoefficients:
    """Full Haar decomposition of a grid field (exact)."""
    n, J = u.n, u.J
    out = HaarCoefficients(n=n, J=J, mean=0.0)
    avg = u.values
    for j in range(J - 1, -1, -1):
        parts = _split_block(avg, n)
        avg = parts.pop(0)
        out.levels[j] = parts
    out.mean = float(avg.reshape(()))
    return out


def haar_synthesize(c: HaarCoefficients) -> GridFunction:
    """Inverse of haar_analyze (exact up to rounding)."""
    n, J = c.n, c.J
    avg = np.full((1,) * n, c.mean)
    for j in range(0, J):
        parts = {0: avg}
        dirs = c.levels.get(j, {})
        for eps_idx in range(1, 2**n):
            arr = dirs.get(eps_idx)
            parts[eps_idx] = arr if arr is not None else np.zeros_like(avg)
        avg = _merge_block(parts, n)
    return GridFunction(n, J, avg)


def directional_project(
    u: GridFunction,
    direction: Direction,
    levels: Optional[Sequence[int]] = None,
) -> GridFunction:
    """P^(eps): keep only the direction-eps Haar coefficients (zero mean).

    ``levels`` optionally restricts the projection to a subset of levels;
    default is all levels 0..J-1.
    """
    if direction.n != u.n:
        raise ValueError("dimension mismatch")
    c = haar_analyze(u)
    keep = set(range(u.J)) if levels is None else set(levels)
    out = HaarCoefficients(n=u.n, J=u.J, mean=0.0)
    eps_idx = direction.index
    for j in range(u.J):
        if j in keep and j in c.levels:
            out.levels[j] = {eps_idx: c.levels[j][eps_idx]}
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
    from .grid import axis_direction

    return [directional_project(comp, axis_direction(n, i + 1)) for i, comp in enumerate(v)]


def conditional_expectation(u: GridFunction, M: int) -> GridFunction:
    """E_M: replace u by its mean on every level-M cell."""
    if not 0 <= M <= u.J:
        raise ValueError(f"M must be within 0..{u.J}, got {M}")
    if M == u.J:
        return GridFunction(u.n, u.J, u.values.copy())
    w = 2 ** (u.J - M)
    arr = u.values
    # average over w-blocks along every axis, then repeat back out
    shape = []
    for _ in range(u.n):
        shape.extend([2**M, w])
    blocked = arr.reshape(shape)
    means = blocked.mean(axis=tuple(range(1, 2 * u.n, 2)))
    out = means
    for ax in range(u.n):
        out = np.repeat(out, w, axis=ax)
    return GridFunction(u.n, u.J, out)


def square_function(u: GridFunction) -> GridFunction:
    """Pointwise square function: S(u)(x) = sqrt(sum over Q containing x and
    all eps of c_Q^2)."""
    c = haar_analyze(u)
    N = 2**u.J
    acc = np.zeros((N,) * u.n)
    for j, dirs in c.levels.items():
        lvl = np.zeros((2**j,) * u.n)
        for arr in dirs.values():
            lvl += arr * arr
        w = 2 ** (u.J - j)
        up = lvl
        for ax in range(u.n):
            up = np.repeat(up, w, axis=ax)
        acc += up
    return GridFunction(u.n, u.J, np.sqrt(acc))


def bmo_d_norm(u: GridFunction) -> float:
    """Dyadic BMO norm:
    sqrt(|mean|^2 + sup_Q |Q|^{-1} sum_{W subset Q} <u,h_W>^2 |W|^{-1}).

    Enumerates every dyadic cube via one bottom-up prefix-sum pass.
    """
    c = haar_analyze(u)
    n, J = u.n, u.J
    best = 0.0
    # tail[k] = sum over W inside cube of c_W^2 |W|, cube at current level
    tail: np.ndarray | None = None
    for j in range(J - 1, -1, -1):
        vol = 2.0 ** (-n * j)
        own = np.zeros((2**j,) * n)
        for arr in c.levels[j].values():
            own += arr * arr
        own *= vol
        if tail is not None:
            # pool children sums (2-blocks along each axis)
            pooled = tail
            for ax in range(n):
                lo, hi = _halve(pooled, ax)
                pooled = lo + hi
            own += pooled
        tail = own
        best = max(best, float(own.max()) / vol)
    mean = float(u.values.mean())
    return float(np.sqrt(mean**2 + best))
