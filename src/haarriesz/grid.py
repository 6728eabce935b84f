"""Dyadic geometry and piecewise-constant fields on the unit n-torus.

The workbench discretizes functions on [0,1)^n as cell averages over the
uniform dyadic grid with 2^J cells per axis.  All dyadic levels 0..J-1 are
then exactly representable, which keeps every Haar computation free of
quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "DyadicCube",
    "Direction",
    "GridFunction",
    "lp_norm",
    "dot",
    "all_directions",
    "axis_direction",
]


def _upsample(arr: np.ndarray, J: int, n: int) -> np.ndarray:
    """Spread level-j cell values, held on the trailing n axes of ``arr``, to
    the level-J grid; any leading axes are a stack of fields."""
    w = 2**J // arr.shape[-1]
    for ax in range(-n, 0):
        arr = np.repeat(arr, w, axis=ax)
    return arr


# Gauss-Legendre nodes and weights on [-1, 1] per order, the values of
# numpy.polynomial.legendre.leggauss to the bit (held literally, so no job
# imports numpy.polynomial or runs its eigensolver)
_LEGENDRE = {
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
         0.23692688505618928)),
}


@dataclass(frozen=True)
class Direction:
    """Oscillation pattern of a Haar function: bits[i] = 1 means the tensor
    factor along axis i is a Haar step, 0 means an indicator."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"direction bits must be 0/1, got {self.bits}")
        if not any(self.bits):
            raise ValueError("direction must have at least one bit set")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def index(self) -> int:
        """Bit pattern as an integer in 1..2^n-1 (axis 0 is the low bit)."""
        return sum(b << i for i, b in enumerate(self.bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def all_directions(n: int) -> list[Direction]:
    """The 2^n - 1 nonzero directions, ordered by bit-pattern index."""
    return [
        Direction(tuple((m >> i) & 1 for i in range(n)))
        for m in range(1, 2**n)
    ]


def axis_direction(n: int, i: int) -> Direction:
    """Unit direction e_i (1-based axis)."""
    if not 1 <= i <= n:
        raise ValueError(f"axis {i} out of range for n={n}")
    return Direction(tuple(1 if j == i - 1 else 0 for j in range(n)))


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube prod_i [k_i 2^-j, (k_i+1) 2^-j) inside [0,1)^n."""

    n: int
    j: int
    k: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3:
            raise ValueError(f"dimension must be 1..3, got {self.n}")
        if self.j < 0:
            raise ValueError(f"level must be >= 0, got {self.j}")
        if len(self.k) != self.n:
            raise ValueError("coordinate count must equal dimension")
        side = 1 << self.j
        if any(not 0 <= ki < side for ki in self.k):
            raise ValueError(f"coordinates {self.k} out of range at level {self.j}")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.j)

    def volume(self) -> float:
        return 2.0 ** (-self.n * self.j)

    def diam(self) -> float:
        return np.sqrt(self.n) * self.side

    def lower(self) -> tuple[float, ...]:
        return tuple(ki * self.side for ki in self.k)

    def contains(self, other: "DyadicCube") -> bool:
        if other.j < self.j:
            return False
        shift = other.j - self.j
        return all((ok >> shift) == sk for ok, sk in zip(other.k, self.k))


class GridFunction:
    """Real piecewise-constant field: one value per level-J cell of [0,1)^n.

    Values are stored as an ndarray of shape (2^J,)*n (axis i of the array is
    coordinate x_{i+1}).  Instances are immutable by convention; operations
    return new objects.
    """

    __slots__ = ("n", "J", "values")

    def __init__(self, n: int, J: int, values: np.ndarray):
        if not 1 <= n <= 3:
            raise ValueError(f"dimension must be 1..3, got {n}")
        if J < 0:
            raise ValueError(f"resolution level must be >= 0, got {J}")
        arr = np.asarray(values, dtype=np.float64)
        shape = (2**J,) * n
        if arr.size != 2 ** (n * J):
            raise ValueError(f"expected {2**(n*J)} values, got {arr.size}")
        arr = arr.reshape(shape)
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite value at cell {tuple(int(b) for b in bad)}")
        self.n = n
        self.J = J
        self.values = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int, J: int) -> "GridFunction":
        return cls(n, J, np.zeros((2**J,) * n))

    @classmethod
    def constant(cls, n: int, J: int, c: float) -> "GridFunction":
        return cls(n, J, np.full((2**J,) * n, float(c)))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "GridFunction") -> None:
        if (self.n, self.J) != (other.n, other.J):
            raise ValueError(
                f"shape mismatch: (n={self.n}, J={self.J}) vs (n={other.n}, J={other.J})"
            )

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.n, self.J, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check_compatible(other)
        return GridFunction(self.n, self.J, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.n, self.J, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.n, self.J, -self.values)

    # -- functionals -------------------------------------------------------

    def cell_volume(self) -> float:
        return 2.0 ** (-self.n * self.J)

    def mean(self) -> float:
        return float(self.values.mean())

    def integral(self) -> float:
        return float(self.values.sum() * self.cell_volume())

    def lp_norm(self, p: float) -> float:
        return lp_norm((self.values,), self.cell_volume(), p)

    def inner(self, other: "GridFunction") -> float:
        self._check_compatible(other)
        return dot(self.values, other.values) * self.cell_volume()


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum of x*y over all entries of two real arrays of one shape.  numpy's
    einsum loop adds in one order on every run, where BLAS splits the sum
    across its threads; so results do not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", x.ravel(), y.ravel()))


def lp_norm(parts: Iterable[np.ndarray], volume: float, p: float) -> float:
    """Exact L^p norm, p >= 1 finite, of a piecewise-constant field whose
    cells have measure ``volume``, given as the value arrays of its parts
    (one part for a whole grid, or strips of rows): the sum of |v|^p, or of
    v*v by dot at p = 2, part by part."""
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must satisfy 1 <= p < inf, got {p}")
    if p == 2.0:
        return float(np.sqrt(sum(dot(v, v) for v in parts) * volume))
    return (sum(float((np.abs(v) ** p).sum()) for v in parts) * volume) ** (1.0 / p)
