"""Per-cube rearrangement operator, the oracle for the separable
``haarriesz.multiscale.rearrangement_operator``: one grid-field profile and
one inner product per cube."""

from dataclasses import dataclass

import numpy as np
from grid_oracle import child_rank, predecessor

from haarriesz.grid import Direction, DyadicCube, GridFunction
from haarriesz.haar import HaarCoefficients, haar_synthesize
from haarriesz.profiles import sine_cell_averages


@dataclass(frozen=True)
class PredecessorSplit:
    """The lambda-predecessor map tau(Q) = Q^(lam) together with the
    partition of cubes by their rank within tau(Q); tau restricted to each
    rank class is injective per level."""

    n: int
    lam: int

    def tau(self, Q):
        return predecessor(Q, self.lam)

    def rank(self, Q):
        return child_rank(Q, self.lam)

    def class_size(self):
        return 2 ** (self.n * self.lam)


def _profile_factors(n, J, lam, W, k):
    """1D factors of the default separable profile for (W, k): one sine
    period spanning W, translated by the rank offset within W (support stays
    inside 2W; zero mean per axis, exactly)."""
    N = 2**J
    side = W.side
    lo = W.lower()
    offs = []
    rem = k
    for _ in range(n):
        offs.append(rem % (2**lam))
        rem //= 2**lam
    offs = list(reversed(offs))
    out = []
    for ax in range(n):
        shift = offs[ax] * side / (2**lam) * 0.5
        start = lo[ax] + shift
        out.append(sine_cell_averages(N, 2.0 * np.pi / side, start, start, start + side))
    return out


def sine_profile_family(n, J, lam):
    """Default zero-mean profile family as grid fields (tensor sine bump
    translated by the rank within the predecessor)."""

    def profile(W, k):
        factors = _profile_factors(n, J, lam, W, k)
        N = 2**J
        out = factors[0]
        for f in factors[1:]:
            out = np.multiply.outer(out, f)
        return GridFunction(n, J, out.reshape((N,) * n))

    return profile


def rearrangement_op(u, lam, levels, profile_family=None, direction=None, mean_tol=1e-9):
    """S(u) = sum over rank classes k and cubes Q in the class of
    <u, phi^(k)_{tau(Q)}> h_Q / |Q| over the given levels.

    Profiles must have mean zero to mean_tol.
    """
    n, J = u.n, u.J
    direction = direction or Direction((1,) * n)
    split = PredecessorSplit(n=n, lam=lam)
    family = profile_family or sine_profile_family(n, J, lam)
    out = HaarCoefficients(n=n, J=J, mean=0.0)
    for j in levels:
        side = 1 << j
        arr = np.zeros((side,) * n)
        for flat in np.ndindex(*((side,) * n)):
            Q = DyadicCube(n, j, tuple(int(x) for x in flat))
            phi = family(split.tau(Q), split.rank(Q))
            if abs(phi.integral()) > mean_tol:
                raise ValueError(
                    f"profile at (W={split.tau(Q)}, k={split.rank(Q)}) has mean "
                    f"{phi.integral():.2e} > {mean_tol}"
                )
            arr[Q.k] = u.inner(phi) / Q.volume()
        out.levels[j] = {direction.index: arr}
    return haar_synthesize(out)
