"""Cube-by-cube dyadic index arithmetic and the coordinate fields, which
only the tests and their oracles use: the package does the same index
arithmetic on whole arrays of cubes."""

import numpy as np

from haarriesz.grid import DyadicCube, GridFunction


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
