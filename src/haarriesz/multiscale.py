"""Multiscale slices of the directional projections, ring-domain projections,
rearrangement operators, and operator-norm measurement.

t_ell splices the scale-(j+ell) resolving convolution into the level-j Haar
coefficient pickup, one level at a time; summing over ell recovers the
directional projection on the truncated level window.  Operator norms are
estimated by power iteration on the normal operator, which yields
reproducible lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fields import cone_band_field, stream
from .fourier import delta_conv, resolvable, riesz
from .grid import Direction, DyadicCube, GridFunction
from .haar import HaarCoefficients, haar_analyze, haar_synthesize, level_coefficients, level_field
from .profiles import sine_cell_averages

__all__ = [
    "LinearFieldOp",
    "t_ell",
    "t_ell_operator",
    "t_ell_riesz_ratio",
    "OpNormResult",
    "op_norm2_estimate",
    "ring_cover",
    "RingCover",
    "build_ring_cover_family",
    "validate_ring_family",
    "ring_projection",
    "ring_projection_operator",
    "default_even_family",
    "PredecessorSplit",
    "rearrangement_op",
    "rearrangement_operator",
    "sine_profile_family",
    "default_levels",
]


# ---------------------------------------------------------------------------
# linear operator handle


@dataclass
class LinearFieldOp:
    """Uniform handle for a linear map on grid fields, with its adjoint."""

    apply: Callable[[GridFunction], GridFunction]
    adjoint: Callable[[GridFunction], GridFunction]
    name: str = "op"

    def __call__(self, u: GridFunction) -> GridFunction:
        return self.apply(u)

    def normal_apply(self, u: GridFunction) -> GridFunction:
        return self.adjoint(self.apply(u))


def _level_sum(coeffs: dict[int, np.ndarray], direction: Direction, J: int) -> GridFunction:
    """sum over levels j of the level-j, direction-eps Haar field with
    coefficients coeffs[j]."""
    acc = GridFunction.zeros(direction.n, J)
    for c in coeffs.values():
        acc = acc + level_field(c, direction, J)
    return acc


# ---------------------------------------------------------------------------
# the scale slices T_ell


def default_levels(J: int) -> list[int]:
    """Default truncated level window [1, J-2]."""
    return list(range(1, max(J - 1, 1)))


def t_ell(
    u: GridFunction,
    direction: Direction,
    ell: int,
    levels: Optional[Sequence[int]] = None,
) -> GridFunction:
    """Scale slice of the directional projection,
    T_ell u = -sum_j P_j^(eps) Delta_{j+ell} u over the level window, where
    P_j^(eps) keeps the level-j, direction-eps Haar part.

    The resolving kernel telescopes to minus the identity, so the slices
    carry a compensating sign; with it, summing t_ell over ell converges to
    the directional projection on the level window.

    Any (j, ell) whose scale j+ell is not ``resolvable`` raises;
    t_ell_operator drops those levels instead.
    """
    if direction.n != u.n:
        raise ValueError("dimension mismatch")
    lv = default_levels(u.J) if levels is None else list(levels)
    bad = [j for j in lv if not resolvable(j + ell, u.J)]
    if bad:
        raise ValueError(
            f"unresolvable (level, ell) pairs at J={u.J}: "
            + ", ".join(f"({j},{ell})" for j in bad)
        )
    picked = {j: level_coefficients(delta_conv(u, j + ell), j, direction) for j in lv}
    return -_level_sum(picked, direction, u.J)


def t_ell_operator(
    n: int,
    J: int,
    direction: Direction,
    ell: int,
    levels: Optional[Sequence[int]] = None,
) -> LinearFieldOp:
    """T_ell on the levels of the window whose scale j+ell is resolvable,
    with its exact adjoint -sum_j Delta_{j+ell} P_j^(eps) (Delta_s is
    self-adjoint)."""
    lv = [j for j in (default_levels(J) if levels is None else levels) if resolvable(j + ell, J)]

    def adjoint(v: GridFunction) -> GridFunction:
        acc = GridFunction.zeros(n, J)
        for j in lv:
            picked = level_field(level_coefficients(v, j, direction), direction, J)
            acc = acc - delta_conv(picked, j + ell)
        return acc

    return LinearFieldOp(
        apply=lambda u: t_ell(u, direction, ell, lv),
        adjoint=adjoint,
        name=f"T[{ell}]^{direction}",
    )


def t_ell_riesz_ratio(
    n: int,
    J: int,
    direction: Direction,
    i0: int,
    ell: int,
    p: float,
    trials: int,
    seed: int,
    levels: Optional[Sequence[int]] = None,
) -> float:
    """max over sampled admissible w of ||T_ell w||_p / ||R_{i0} w||_p --
    a lower estimate of the operator norm of T_ell composed with the inverse
    Riesz transform."""
    if not direction.has_axis(i0):
        raise ValueError(f"direction {direction} does not oscillate along axis {i0}")
    if trials < 1:
        raise ValueError("empty family")
    op = t_ell_operator(n, J, direction, ell, levels)
    best = 0.0
    for t in range(trials):
        w = cone_band_field(n, J, seed, index=1000 * (ell + 64) + t, i0=i0)
        denom = riesz(w, i0).lp_norm(p)
        if denom <= 1e-14:
            raise ValueError(f"inadmissible sample {t}: R_{i0} w vanishes")
        num = op.apply(w).lp_norm(p)
        best = max(best, num / denom)
    return best


# ---------------------------------------------------------------------------
# operator norm by power iteration


@dataclass
class OpNormResult:
    value: float
    iterations: int
    converged: bool
    rayleigh: list[float]
    residual: float = 0.0


def op_norm2_estimate(
    op: LinearFieldOp,
    n: int,
    J: int,
    iters: int = 20,
    seed: int = 0,
    tol: float = 1e-4,
) -> OpNormResult:
    """Power iteration on op^T op: the Rayleigh sequence is nondecreasing and
    its final square root ``value`` is a lower bound on the L2 operator norm.

    ``residual`` is the eigen-residual ||N v - theta v||_2 of the final unit
    iterate v and its Rayleigh quotient theta = rayleigh[-1], with
    N = op^T op.  N is symmetric, so some eigenvalue of N lies within
    ``residual`` of theta.  ``converged`` is the certificate
    residual <= tol * theta: theta lies within tol * theta of *an*
    eigenvalue of N.  It does not prove that eigenvalue is the largest, so
    ``value`` stays a lower bound on the norm either way."""
    if iters < 10:
        raise ValueError("need at least 10 iterations")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol}")
    rng = stream(seed, 4, n, J)
    v = GridFunction(n, J, rng.standard_normal((2**J,) * n))
    v = v * (1.0 / v.lp_norm(2))
    history: list[float] = []
    for _ in range(iters):
        w = op.normal_apply(v)
        history.append(max(v.inner(w), 0.0))
        wn = w.lp_norm(2)
        if wn <= 1e-300:
            return OpNormResult(0.0, len(history), True, history, 0.0)
        v_last, v = v, w * (1.0 / wn)
    theta = history[-1]
    residual = (w - theta * v_last).lp_norm(2)
    return OpNormResult(math.sqrt(theta), iters, residual <= tol * theta, history, residual)


# ---------------------------------------------------------------------------
# ring domains


def _interval_gap(center: np.ndarray, half: float, lo: float, hi: float) -> np.ndarray:
    """Torus distance between the interval [center-half, center+half] and
    [lo, hi] (both inside [0,1])."""
    best = None
    for m in (-1.0, 0.0, 1.0):
        c = center + m
        d = np.maximum(np.maximum(lo - (c + half), (c - half) - hi), 0.0)
        best = d if best is None else np.minimum(best, d)
    return best


def ring_cover(Q: DyadicCube, direction: Direction, lam: int, C: float = 0.5) -> list[DyadicCube]:
    """All level-(j+lam) dyadic cubes within torus distance
    C 2^-lam diam(Q) of the discontinuity set of h_Q^(eps): the boundary
    faces of Q plus the midplanes normal to oscillating axes.  Cells exactly
    at the threshold are included."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if direction.n != Q.n:
        raise ValueError("dimension mismatch")
    n, j = Q.n, Q.j
    level = j + lam
    side_E = 2.0 ** (-level)
    threshold = C * 2.0 ** (-lam) * Q.diam()
    lo = np.array(Q.lower())
    hi = lo + Q.side
    planes: list[tuple[int, float]] = []
    for ax in range(n):
        planes.append((ax, float(lo[ax])))
        planes.append((ax, float(hi[ax]) % 1.0))
        if direction.bits[ax] == 1:
            planes.append((ax, float(lo[ax]) + Q.side / 2.0))

    N = 2**level
    centers = (np.arange(N) + 0.5) * side_E
    grids = np.meshgrid(*([centers] * n), indexing="ij")
    dist = np.full((N,) * n, np.inf)
    for ax, c in planes:
        parts = []
        for other in range(n):
            if other == ax:
                parts.append(_interval_gap(grids[other], side_E / 2.0, c, c))
            else:
                parts.append(
                    _interval_gap(grids[other], side_E / 2.0, float(lo[other]), float(hi[other]))
                )
        d2 = sum(p**2 for p in parts)
        dist = np.minimum(dist, np.sqrt(d2))
    sel = np.argwhere(dist <= threshold + 1e-12)
    return [DyadicCube(n, level, tuple(int(x) for x in idx)) for idx in sel]


@dataclass
class RingCover:
    """Ring covers E_1(Q)..E_k(Q) for every cube of a family, with the
    parameters they were built from."""

    lam: int
    C: float
    direction: Direction
    covers: dict[DyadicCube, list[DyadicCube]] = field(default_factory=dict)

    def measure_constant(self, Q: DyadicCube) -> float:
        """C' in |union E_k(Q)| <= C' 2^-lam |Q| (the cover cells are
        pairwise disjoint same-level cells)."""
        total = sum(E.volume() for E in self.covers[Q])
        return total / (2.0 ** (-self.lam) * Q.volume())


def build_ring_cover_family(
    family: Sequence[DyadicCube],
    direction: Direction,
    lam: int,
    C: float = 0.5,
) -> RingCover:
    rc = RingCover(lam=lam, C=C, direction=direction)
    for Q in family:
        rc.covers[Q] = ring_cover(Q, direction, lam, C)
    return rc


def validate_ring_family(rc: RingCover) -> None:
    """Compatibility checks for ring projections; raises naming the
    offending pair:

    - across distinct Q, Q' the covers share no cube;
    - within one cover, cubes are pairwise distinct (same level, hence
      disjoint);
    - strict containment of cover cells implies containment of their bases;
    - intersecting cover cells of nested bases must themselves nest (holds
      automatically for dyadic cells; checked for completeness).
    """
    items = list(rc.covers.items())
    sets = [set(cov) for _, cov in items]
    for a, (Q, cov) in enumerate(items):
        if len(sets[a]) != len(cov):
            raise ValueError(f"cover of {Q} repeats a cell")
        for b in range(a + 1, len(items)):
            Qp, covp = items[b]
            shared = sets[a] & sets[b]
            if shared:
                raise ValueError(f"covers of ({Q}, {Qp}) share cell {next(iter(shared))}")
            for E in cov:
                for Ep in covp:
                    if Ep.contains(E) and E != Ep and not Qp.contains(Q):
                        raise ValueError(
                            f"nesting violation: cover cell of {Q} inside a cover "
                            f"cell of {Qp} but {Q} not inside {Qp}"
                        )
                    if E.contains(Ep) and E != Ep and not Q.contains(Qp):
                        raise ValueError(
                            f"nesting violation: cover cell of {Qp} inside a cover "
                            f"cell of {Q} but {Qp} not inside {Q}"
                        )


def _ring_apply(u: GridFunction, rc: RingCover) -> GridFunction:
    """S(u) = sum_Q <u, h_Q> g_Q / |Q| over the covers of ``rc``."""
    c = {j: level_coefficients(u, j, rc.direction) for j in {Q.j for Q in rc.covers}}
    out: dict[int, np.ndarray] = {}
    for Q, cov in rc.covers.items():
        for E in cov:
            if E.j >= u.J:
                raise ValueError(f"cover cell {E} finer than the grid (J={u.J})")
            out.setdefault(E.j, np.zeros((2**E.j,) * u.n))[E.k] += c[Q.j][Q.k]
    return _level_sum(out, rc.direction, u.J)


def ring_projection(
    u: GridFunction,
    family: Sequence[DyadicCube],
    direction: Direction,
    lam: int,
    C: float = 0.5,
) -> GridFunction:
    """S(u) = sum_Q <u, h_Q> g_Q / |Q| with g_Q the sum of the Haar
    functions on the ring cover cells of Q."""
    rc = build_ring_cover_family(family, direction, lam, C)
    validate_ring_family(rc)
    return _ring_apply(u, rc)


def ring_projection_operator(
    n: int,
    J: int,
    family: Sequence[DyadicCube],
    direction: Direction,
    lam: int,
    C: float = 0.5,
) -> LinearFieldOp:
    rc = build_ring_cover_family(family, direction, lam, C)
    validate_ring_family(rc)

    def fwd(u: GridFunction) -> GridFunction:
        return _ring_apply(u, rc)

    cover_levels = {E.j for cov in rc.covers.values() for E in cov}

    def adj(u: GridFunction) -> GridFunction:
        c = {j: level_coefficients(u, j, direction) for j in cover_levels}
        out: dict[int, np.ndarray] = {}
        for Q, cov in rc.covers.items():
            val = 0.0
            for E in cov:
                val += c[E.j][E.k] * E.volume()
            out.setdefault(Q.j, np.zeros((2**Q.j,) * n))[Q.k] += val / Q.volume()
        return _level_sum(out, direction, J)

    return LinearFieldOp(apply=fwd, adjoint=adj, name=f"ring_S[lam={lam}]")


def default_even_family(n: int, j: int) -> list[DyadicCube]:
    """Level-j cubes with all-even coordinates: a sparse per-level family
    whose ring covers never collide."""
    side = 1 << j
    out: list[DyadicCube] = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            out.append(DyadicCube(n, j, prefix))
            return
        for c in range(0, side, 2):
            rec(prefix + (c,))

    rec(())
    return out


# ---------------------------------------------------------------------------
# rearrangement operators


@dataclass(frozen=True)
class PredecessorSplit:
    """The lambda-predecessor map tau(Q) = Q^(lam) together with the
    partition of cubes by their rank within tau(Q); tau restricted to each
    rank class is injective per level."""

    n: int
    lam: int

    def tau(self, Q: DyadicCube) -> DyadicCube:
        return Q.predecessor(self.lam)

    def rank(self, Q: DyadicCube) -> int:
        return Q.child_rank(self.lam)

    def class_size(self) -> int:
        return 2 ** (self.n * self.lam)


def _profile_factors(n: int, J: int, lam: int, W: DyadicCube, k: int) -> list[np.ndarray]:
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


def sine_profile_family(n: int, J: int, lam: int) -> Callable[[DyadicCube, int], GridFunction]:
    """Default zero-mean profile family as grid fields (tensor sine bump
    translated by the rank within the predecessor)."""

    def profile(W: DyadicCube, k: int) -> GridFunction:
        factors = _profile_factors(n, J, lam, W, k)
        N = 2**J
        out = factors[0]
        for f in factors[1:]:
            out = np.multiply.outer(out, f)
        return GridFunction(n, J, out.reshape((N,) * n))

    return profile


def _rearrangement_levels(J: int, lam: int, levels: Optional[Sequence[int]]) -> list[int]:
    if levels is not None:
        lv = list(levels)
    else:
        lv = [j for j in default_levels(J) if j >= lam]
        if not lv:
            lv = [lam]
    for j in lv:
        if j - lam < 0 or j >= J:
            raise ValueError(f"level {j} invalid for lambda={lam} at J={J}")
    return lv


def rearrangement_op(
    u: GridFunction,
    lam: int,
    profile_family: Optional[Callable[[DyadicCube, int], GridFunction]] = None,
    direction: Optional[Direction] = None,
    levels: Optional[Sequence[int]] = None,
    mean_tol: float = 1e-9,
) -> GridFunction:
    """S(u) = sum over rank classes k and cubes Q in the class of
    <u, phi^(k)_{tau(Q)}> h_Q / |Q| over the level window.

    Profiles must have mean zero to mean_tol.
    """
    n, J = u.n, u.J
    direction = direction or Direction((1,) * n)
    split = PredecessorSplit(n=n, lam=lam)
    family = profile_family or sine_profile_family(n, J, lam)
    lv = _rearrangement_levels(J, lam, levels)
    out = HaarCoefficients(n=n, J=J, mean=0.0)
    for j in lv:
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


def _profile_matrix(J: int, lam: int, j: int) -> np.ndarray:
    """A_j[k, :]: the 1D factor, on the level-J grid, of the default profile
    of a level-j cube whose coordinate along an axis is k.  The factor
    depends only on k (predecessor coordinate k >> lam, rank offset
    k & (2^lam - 1)), so every level-j default profile is a tensor product
    of rows of A_j."""
    side = 2.0 ** (lam - j)
    rows = []
    for k in range(2**j):
        start = (k >> lam) * side + (k & ((1 << lam) - 1)) * side / (2**lam) * 0.5
        rows.append(sine_cell_averages(2**J, 2.0 * np.pi / side, start, start, start + side))
    return np.array(rows)


def rearrangement_operator(
    n: int,
    J: int,
    lam: int,
    direction: Optional[Direction] = None,
    levels: Optional[Sequence[int]] = None,
) -> LinearFieldOp:
    """Separable implementation of the rearrangement operator and its exact
    adjoint (default profile family only).  Level j is the Kronecker product
    A_j x ... x A_j of one 2^j x 2^J matrix, applied one axis at a time."""
    direction = direction or Direction((1,) * n)
    lv = _rearrangement_levels(J, lam, levels)
    mats = {j: _profile_matrix(J, lam, j) for j in lv}

    def contract(arr: np.ndarray, A: np.ndarray, axis: int) -> np.ndarray:
        # each tensordot moves the contracted axis to the end, so n of them
        # restore the axis order
        for _ in range(n):
            arr = np.tensordot(arr, A, axes=(0, axis))
        return arr

    def fwd(u: GridFunction) -> GridFunction:
        # <u, phi_Q> / |Q| with the level-J cell volume 2^-nJ
        out = {j: contract(u.values, mats[j], 1) * 2.0 ** (n * (j - J)) for j in lv}
        return _level_sum(out, direction, J)

    def adj(u: GridFunction) -> GridFunction:
        # the window spans several levels (lam..J-2 by default): one pyramid
        # pass reads them all, where level_coefficients costs a grid pass each
        c = haar_analyze(u)
        acc = np.zeros((2**J,) * n)
        for j in lv:
            acc += contract(c.levels[j][direction.index], mats[j], 0)
        return GridFunction(n, J, acc)

    return LinearFieldOp(apply=fwd, adjoint=adj, name=f"rearr_S[lam={lam}]")
