"""Cube-by-cube dyadic index arithmetic, the coordinate fields and the
quadrature embedding of pointwise functions, which only the tests and their
oracles use: the package does the same index arithmetic on whole arrays of
cubes."""

import itertools
from typing import Callable

import numpy as np

from haarriesz.grid import _LEGENDRE, DyadicCube, GridFunction


def predecessor(Q: DyadicCube, lam: int) -> DyadicCube:
    """The lam-th dyadic predecessor of Q (lam levels up)."""
    if lam < 0:
        raise ValueError("predecessor order must be >= 0")
    if Q.j - lam < 0:
        raise ValueError(f"cube at level {Q.j} has no {lam}-th predecessor")
    return DyadicCube(Q.n, Q.j - lam, tuple(ki >> lam for ki in Q.k))


def child_rank(Q: DyadicCube, lam: int) -> int:
    """Lexicographic rank of Q among the 2^(n*lam) descendants of its lam-th
    predecessor (row-major over axes)."""
    if Q.j - lam < 0:
        raise ValueError("rank undefined: no such predecessor")
    mask = (1 << lam) - 1
    rank = 0
    for ki in Q.k:
        rank = (rank << lam) | (ki & mask)
    return rank


def cell_slices(Q: DyadicCube, J: int) -> tuple[slice, ...]:
    """Index slices of the level-J cells covered by Q."""
    if J < Q.j:
        raise ValueError(f"grid level {J} coarser than cube level {Q.j}")
    w = 1 << (J - Q.j)
    return tuple(slice(ki * w, (ki + 1) * w) for ki in Q.k)


def coordinate_fields(n: int, J: int) -> list[GridFunction]:
    """Cell averages of the coordinate functions x_1..x_n (exact: averages of
    a linear function are its cell-center values)."""
    N = 2**J
    centers = (np.arange(N) + 0.5) / N
    out = []
    for ax in range(n):
        shape = [1] * n
        shape[ax] = N
        arr = np.broadcast_to(centers.reshape(shape), (N,) * n).copy()
        out.append(GridFunction(n, J, arr))
    return out


def embed(fn: Callable[..., np.ndarray], n: int, J: int) -> GridFunction:
    """Project a pointwise function on [0,1)^n to per-cell averages by the
    tensor 5-point Gauss-Legendre rule on each cell.

    ``fn`` must accept n broadcastable coordinate arrays and return values of
    the broadcast shape.
    """
    x, w = (np.array(a) for a in _LEGENDRE[5])
    nodes, weights = (x + 1.0) / 2.0, w / w.sum()
    N = 2**J
    h = 1.0 / N
    # coordinates per axis: (N, q) -> flattened N*q points
    coord = (np.arange(N)[:, None] + nodes[None, :]) * h  # (N, q)
    acc = np.zeros((N,) * n)
    # iterate over tensor quad-point combinations; n <= 3 keeps this small
    idx_ranges = [range(len(nodes))] * n
    for combo in itertools.product(*idx_ranges):
        w = 1.0
        pts = []
        for ax, qi in enumerate(combo):
            w *= weights[qi]
            shape = [1] * n
            shape[ax] = N
            pts.append(coord[:, qi].reshape(shape))
        vals = np.asarray(fn(*pts), dtype=np.float64)
        vals = np.broadcast_to(vals, (N,) * n)
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(np.broadcast_to(vals, (N,) * n)))[0]
            raise ValueError(f"non-finite sample in cell {tuple(bad)}")
        acc = acc + w * vals
    return GridFunction(n, J, acc)
