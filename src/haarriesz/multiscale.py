"""Multiscale slices of the directional projections, ring-domain projections,
rearrangement operators, and operator-norm measurement.

The scale slices T_ell and their adjoints are applied by their definition,
per level one resolving convolution and one Haar coefficient pickup.
Summing t_ell over ell recovers the directional projection on the
truncated level window.  Operator norms are estimated by power iteration
on the range side, y = T v with the Gram map T T^* (reproducible lower
bounds).  Fourier coordinates appear only where that traffic runs: for
T_ell the range vectors are the level-coset spectra of the Haar
coefficients, on which T T^* is a set of separable coset multipliers
(_slice_gram), and power iteration starts from a Gaussian drawn on that
range, so no step touches a level-J grid or transforms one.  On each
level the partial sums of the T_ell telescope to one difference of
smoothings, so the residuals of the scale decomposition are Parseval sums
over the same level-coset spectra (slice_sum_residuals).  They are taken
for a field given by its spectrum on a list of modes: per level and order
one scatter-add of the modes onto their cosets, with no grid and no
transform.  The ring projection's norm is exact, from its cover counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .fields import stream
from .fourier import beta_complement, beta_factor, delta_conv, resolvable
from .grid import Direction, DyadicCube, GridFunction, dot
from .haar import haar_analyze, level_coefficients, level_field
from .profiles import sine_cell_averages

__all__ = [
    "GramForm",
    "LinearFieldOp",
    "t_ell",
    "t_ell_operator",
    "slice_sum_residuals",
    "OpNormResult",
    "op_norm2_estimate",
    "ring_cover",
    "ring_projection_operator",
    "ring_norm",
    "default_even_family",
    "rearrangement_operator",
    "default_levels",
]


# ---------------------------------------------------------------------------
# linear operator handle


@dataclass
class GramForm:
    """The range of an operator T as power iteration walks it: ``gram``
    applies T T^* to a range vector y, and ``inner`` is the L2 inner
    product of the fields that two of them stand for.  Range vectors
    support y - c * y', y * c and y *= c.  The start comes from ``draw``,
    which maps a seed to a random range vector z, when the form has one;
    otherwise from ``start``, which maps a field v to its image T v."""

    gram: Callable[[Any], Any]
    inner: Callable[[Any, Any], float]
    start: Optional[Callable[[GridFunction], Any]] = None
    draw: Optional[Callable[[int], Any]] = None


@dataclass
class LinearFieldOp:
    """Uniform handle for a linear map on grid fields, with its adjoint and,
    optionally, ``range_form``, a builder of a compact GramForm of its
    range.  Without one the range is apply's GridFunction, with
    T T^* = apply(adjoint(.))."""

    apply: Callable[[GridFunction], GridFunction]
    adjoint: Callable[[GridFunction], GridFunction]
    name: str = "op"
    range_form: Optional[Callable[[], GramForm]] = None

    def __call__(self, u: GridFunction) -> GridFunction:
        return self.apply(u)

    def normal_apply(self, u: GridFunction) -> GridFunction:
        return self.adjoint(self.apply(u))

    def gram_form(self) -> GramForm:
        if self.range_form is not None:
            return self.range_form()
        return GramForm(lambda y: self.apply(self.adjoint(y)), GridFunction.inner, self.apply)


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


def _window(J: int, levels: Iterable[int]) -> list[int]:
    """The distinct levels of a window, in order; one outside 0..J-1 raises."""
    lv = list(dict.fromkeys(levels))
    for j in lv:
        if not 0 <= j < J:
            raise ValueError(f"no coefficients at level {j} (J={J})")
    return lv


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
    coeffs = {j: level_coefficients(delta_conv(u, j + ell), j, direction) for j in _window(u.J, lv)}
    return -_level_sum(coeffs, direction, u.J)


def t_ell_operator(
    n: int,
    J: int,
    direction: Direction,
    ell: int,
    levels: Optional[Sequence[int]] = None,
) -> LinearFieldOp:
    """T_ell on the distinct levels of the window whose scale j+ell is
    resolvable, with its exact adjoint -sum_j Delta_{j+ell} P_j^(eps)
    (Delta_s is self-adjoint), and its range as level-coset spectra
    (_slice_gram).  A kept level outside 0..J-1 raises here."""
    if direction.n != n:
        raise ValueError("dimension mismatch")
    window = default_levels(J) if levels is None else levels
    lv = _window(J, [j for j in window if resolvable(j + ell, J)])

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
        range_form=lambda: _slice_gram(J, direction, ell, lv),
    )


# ---------------------------------------------------------------------------
# the range of T_ell and the decomposition residuals, in Fourier coordinates
#
# A separable sum m on Z_N^n is stacked as 1D factors f[q, i, :] over the N
# frequencies of the numpy FFT layout: m = sum_q f[q, 0] x ... x f[q, n-1].


@lru_cache(maxsize=None)
def _haar_factor(J: int, j: int, bit: int) -> np.ndarray:
    """DFT on Z_N, N = 2^J, of the 1D factor of the level-j Haar function at
    the origin (read-only): 1 on the first 2^(J-j) cells (bit 0), or +1 then
    -1 on their two halves (bit 1)."""
    w = 2 ** (J - j)
    g = np.zeros(2**J)
    g[:w] = 1.0
    g[w // 2: w] -= 2.0 * bit
    out = np.fft.fft(g)
    out.setflags(write=False)
    return out


def _slice_levels(
    J: int, direction: Direction, ell: int, levels: Sequence[int]
) -> Iterator[tuple[int, float, np.ndarray]]:
    """(M, c, a_j) per level j of a t_ell_operator window, with M = 2^j,
    c = 2^(-2n(J-j)), and the two-term separable sum a_j defined below,
    built from the cached 1D factors.

    By Poisson summation, the level-j, direction-eps Haar coefficients of
    Delta_s u have the DFT c fold(a_j u^) on Z_M^n, where
    a_j = delta_s conj(g_j) = (x)(h_s conj g) - (x)(h_{s+1} conj g) and
    g_j = (x) g is the DFT of the level-j Haar function at the origin; the
    level field with coefficients C has the spectrum g_j tile(C), tile the
    periodic extension."""
    n = direction.n
    for j in levels:
        g = np.array([[_haar_factor(J, j, b) for b in direction.bits]])
        h = np.array([beta_factor(j + ell, J), beta_factor(j + ell + 1, J)])
        a = h[:, np.newaxis, :] * np.conj(g)
        a[1, 0] *= -1.0
        yield 2**j, 2.0 ** (-2 * n * (J - j)), a


def _coset_sum(F: np.ndarray, M: int) -> np.ndarray:
    """Sum of a (M',)*n array over the cosets of Z_M^n in Z_M'^n, M | M'."""
    n, w = F.ndim, F.shape[0] // M
    return F.reshape((w, M) * n).sum(axis=tuple(range(0, 2 * n, 2)))


def _range_draw(n: int, J: int, j: int, seed: int) -> np.ndarray:
    """Level j of the range start of the T_ell estimates: real standard
    Gaussian coefficients Z_j on Z_M^n, M = 2^j, from a stream keyed by
    seed, J and j alone, so every slice that keeps level j draws the same
    Z_j."""
    return stream(seed, 8, J, j).standard_normal((2**j,) * n)


def _slice_gram(J: int, direction: Direction, ell: int, levels: Sequence[int]) -> GramForm:
    """The range of T_ell as the level-coset spectra y = (y_j) of its Haar
    coefficients, with T T^* as separable coset multipliers.

    By _slice_levels the level-j coefficients C_j of T_ell v have the DFT
    -c_j z_j on Z_M^n, M = 2^j, with z_j = fold(a_j v^); take
    y_j = 2^(-nj) DFT(C_j), up to the common sign, = 2^(-n(2J-j)) z_j.
    Parseval on Z_M^n makes sum_j <y_j, y'_j> the L2 inner product of the
    level fields.  T^* y has the spectrum sum_j c_j conj(a_j) tile(z_j),
    because c_k fold(conj(g_j) g_k tile(z_k)) on Z_M^n is z_j when k = j
    and 0 otherwise (distinct Haar levels are orthogonal); so
        (T T^* y)_k = sum_j s_kj fold(a_k conj(a_j) tile(y_j)),
    s_kj = 2^(-n(2J-k-j)).  With W_kj = s_kj fold(a_k conj(a_j)) on the
    finer of the two levels, that is the coset sum of W_kj y_j down to
    level k when k <= j, and W_kj times y_j tiled up to level k when k > j.
    a_k conj(a_j) is a sum of 4 separable products, so each W_kj is a sum
    of 4 tensor products of 1D folds, added into one array.  The fold
    commutes with conjugation, so W_jk = conj(W_kj), and only the blocks
    with k on the coarser level are held.

    ``draw`` is the range vector of the level field sum_j sum_Q Z_j(Q) h_Q
    (_range_draw): z_j = 2^(-nj) DFT(Z_j), Hermitian because Z_j is real,
    so T T^* z lies in the real range.  The tests hold the form to the
    definition: block j of T_ell v is -2^(-nj) DFT of the level-j
    coefficients of t_ell_operator's apply."""
    n = direction.n
    lv = list(_slice_levels(J, direction, ell, levels))
    bounds = np.cumsum([0] + [M**n for M, _, _ in lv])

    def cross(k: int, j: int) -> np.ndarray:
        (Mk, ck, ak), (Mj, cj, aj) = lv[k], lv[j]
        M = max(Mk, Mj)
        f = np.einsum("piwm,qiwm->pqim", ak.reshape(2, n, -1, M),
                      np.conj(aj).reshape(2, n, -1, M)).reshape(4, n, M)
        W = np.zeros((M,) * n, dtype=complex)
        for fq in f:
            term = fq[0]
            for i in range(1, n):
                term = np.multiply.outer(term, fq[i])
            W += term
        W *= math.sqrt(ck * cj)
        return W

    W = {(k, j): cross(k, j) for k in range(len(lv)) for j in range(len(lv))
         if lv[k][0] <= lv[j][0]}

    def draw(seed: int) -> np.ndarray:
        z = np.empty(bounds[-1], dtype=complex)
        for j, lo, hi in zip(levels, bounds, bounds[1:]):
            zj = np.fft.fftn(_range_draw(n, J, j, seed))
            zj *= 2.0 ** (-n * j)
            z[lo:hi] = zj.ravel()
        return z

    def gram(y: np.ndarray) -> np.ndarray:
        parts = [y[lo:hi].reshape((M,) * n) for (M, _, _), lo, hi in zip(lv, bounds, bounds[1:])]
        out = np.zeros_like(y)
        for k, (Mk, _, _) in enumerate(lv):
            acc = out[bounds[k]:bounds[k + 1]].reshape((Mk,) * n)
            for j, yj in enumerate(parts):
                Mj = yj.shape[0]
                if Mk <= Mj:
                    acc += _coset_sum(W[k, j] * yj, Mk)
                else:
                    # conj(W_jk) times y_j tiled up to level k, by
                    # broadcasting over the cosets
                    tiled = W[j, k].reshape((Mk // Mj, Mj) * n) * np.conj(yj).reshape((1, Mj) * n)
                    acc += np.conj(tiled, out=tiled).reshape(acc.shape)
        return out

    return GramForm(gram, lambda x, y: dot(x.view(np.float64), y.view(np.float64)), draw=draw)


def _level_modes(
    J: int, j: int, direction: Direction, modes: np.ndarray, spectrum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The level-j terms of slice_sum_residuals' folds: the coset of Z_M^n,
    M = 2^j, that each mode hits (its index in np.unique order), and the
    mode's weight 2^(-n(2J-j)) conj(g_j) u^ for a DFT u^ that is
    ``spectrum`` on ``modes`` and 0 elsewhere.  The fold against a per-mode
    symbol m is _coset_fold(coset, weight * m); a coset no mode hits folds
    to 0 and is not held."""
    n, M = direction.n, 2**j
    at = modes % 2**J  # each coordinate's place in the FFT layout
    _, coset = np.unique(np.ravel_multi_index((modes % M).T, (M,) * n), return_inverse=True)
    w = spectrum * 2.0 ** (-n * (2 * J - j))
    for i, b in enumerate(direction.bits):
        w = w * np.conj(_haar_factor(J, j, b))[at[:, i]]
    return coset, w


def _coset_fold(coset: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.bincount(coset, w.real) + 1j * np.bincount(coset, w.imag)


def slice_sum_residuals(
    J: int,
    modes: np.ndarray,
    spectrum: np.ndarray,
    direction: Direction,
    orders: Sequence[int],
    levels: Sequence[int],
) -> list[float]:
    """||P u - sum_{|ell| <= L} T_ell u||_2 for each L in ``orders``, with P
    the direction-eps projection on the level window and T_ell as
    t_ell_operator keeps it, for the level-J field u whose DFT is
    ``spectrum`` on the integer ``modes`` (m, n) and 0 elsewhere
    (fields.standard_random_spectrum), by Parseval on the level-coset
    spectra: no grid and no transform.

    On level j t_ell_operator keeps the scales s = j + ell with
    0 <= s <= J-2, and Delta_s = beta_s - beta_{s+1} telescopes: the level-j
    part of sum_{|ell| <= L} T_ell is P_j (beta_{b+1} - beta_a), with
    a = max(0, j-L) and b+1 = min(J-1, j+L+1).  So the level-j part of the
    residual is P_j (I - beta_{b+1} + beta_a) u, whose coset spectrum (as
    in _slice_gram) is 2^(-n(2J-j)) fold(conj(g_j) r u^) on Z_M^n, M = 2^j,
    with the per-mode weight r = (1 - prod_i h_{b+1}) + prod_i h_a, and
    distinct levels are orthogonal.  Each weight is folded once, and
    1 - prod_i h_s is built from the 1 - h_s of fourier.beta_complement,
    so a small residual keeps its digits: folding 1, h_{b+1} and h_a apart
    would cancel down to it.  From L = J-1 on, every level reaches both
    ends of the ladder, a = 0 and b+1 = J-1: that residual is the
    truncation floor ||P (I - beta_{J-1} + beta_0) u||."""
    n = direction.n
    if modes.shape[1] != n:
        raise ValueError("dimension mismatch")
    at = modes % 2**J
    ends: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def end(s: int) -> tuple[np.ndarray, np.ndarray]:
        # (prod_i h_s, 1 - prod_i h_s) on the modes, the second by
        # 1 - h_0..h_i = (1 - h_0..h_{i-1}) + h_0..h_{i-1} (1 - h_i)
        if s not in ends:
            h, d = beta_factor(s, J)[at], beta_complement(s, J, at)
            prod, comp = h[:, 0], d[:, 0]
            for i in range(1, n):
                comp = comp + prod * d[:, i]
                prod = prod * h[:, i]
            ends[s] = prod, comp
        return ends[s]

    squares = [0.0] * len(orders)
    for j in _window(J, levels):
        coset, w = _level_modes(J, j, direction, modes, spectrum)
        for k, L in enumerate(orders):
            # r = (1 - prod h_{b+1}) + prod h_a
            r = end(min(J - 1, j + L + 1))[1] + end(max(0, j - L))[0]
            y = _coset_fold(coset, w * r)
            squares[k] += dot(y.view(np.float64), y.view(np.float64))
    return [math.sqrt(x) for x in squares]


# ---------------------------------------------------------------------------
# operator norm by power iteration


@dataclass
class OpNormResult:
    value: float
    iterations: int
    converged: bool
    rayleigh: list[float]
    residual: float = 0.0


def _unit_start(n: int, J: int, seed: int) -> GridFunction:
    """The field start of power iteration: a unit Gaussian field, scaled in
    place."""
    v = GridFunction(n, J, stream(seed, 4, n, J).standard_normal((2**J,) * n))
    v.values *= 1.0 / v.lp_norm(2)
    return v


def op_norm2_estimate(
    op: LinearFieldOp,
    n: int,
    J: int,
    iters: int = 20,
    seed: int = 0,
    tol: float = 1e-4,
) -> OpNormResult:
    """Power iteration on N = op^T op, run on the range side: it carries
    y_k = op v_k for the unit field iterates v_k, and y_(k+1) = g / w_k
    with g = op op^T y_k (op.gram_form) and w_k = ||N v_k|| =
    sqrt(<y_k, g>).  The Rayleigh quotients <v_k, N v_k> = ||y_k||^2 are
    nondecreasing, and the final square root ``value`` is a lower bound on
    the L2 operator norm.

    The start comes from the seed.  A form with a ``draw`` gives a random
    range vector z, and y_0 = op op^T z / sqrt(<z, op op^T z>), which is
    op v_0 for the unit field v_0 = op^T z / ||op^T z||; any other form
    starts from v_0 the unit Gaussian field.

    ``residual`` is the eigen-residual ||N v - theta v||_2 of the final unit
    iterate v and its Rayleigh quotient theta = rayleigh[-1].  With y and
    y' the last two range iterates and w' the normaliser of y', that is
    ||op^T r|| for r = y - theta y' / w', computed as sqrt(<r, op op^T r>).
    N is symmetric, so some eigenvalue of N lies within ``residual`` of
    theta.  ``converged`` is the certificate residual <= tol * theta: theta
    lies within tol * theta of *an* eigenvalue of N.  It does not prove
    that eigenvalue is the largest, so ``value`` stays a lower bound on the
    norm either way."""
    if iters < 10:
        raise ValueError("need at least 10 iterations")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must satisfy 0 < tol < 1, got {tol}")
    form = op.gram_form()
    if form.draw is None:
        y = form.start(_unit_start(n, J, seed))
    else:
        z = form.draw(seed)
        y = form.gram(z)
        wz = math.sqrt(max(form.inner(z, y), 0.0))
        del z
        if wz > 0.0:
            y *= 1.0 / wz
    history = [form.inner(y, y)]
    for _ in range(iters - 1):
        g = form.gram(y)
        wn = math.sqrt(max(form.inner(y, g), 0.0))
        if wn <= 1e-300:
            return OpNormResult(0.0, len(history), True, history, 0.0)
        y_last, w_last, y = y, wn, g
        y *= 1.0 / wn
        history.append(form.inner(y, y))
    theta = history[-1]
    r = y - (theta / w_last) * y_last
    del g, y, y_last  # only r stays alive through its Gram map
    residual = math.sqrt(max(form.inner(r, form.gram(r)), 0.0))
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
    dist = np.full((N,) * n, np.inf)
    for ax, c in planes:
        # the squared gap is a sum of per-axis terms, broadcast to the grid
        d2 = 0.0
        for other in range(n):
            a, b = (c, c) if other == ax else (float(lo[other]), float(hi[other]))
            gap = _interval_gap(centers, side_E / 2.0, a, b)
            d2 = d2 + (gap**2).reshape((1,) * other + (N,) + (1,) * (n - 1 - other))
        dist = np.minimum(dist, np.sqrt(d2))
    sel = np.argwhere(dist <= threshold + 1e-12)
    return [DyadicCube(n, level, tuple(int(x) for x in idx)) for idx in sel]


def _ring_index(
    family: Sequence[DyadicCube], direction: Direction, lam: int, C: float, J: int
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Flat level indices (q, e) of the pairs (Q, E) with E in the ring
    cover of Q, keyed by (Q level, E level), in family and cover order.

    Raises, naming the offending pair or cell, when two covers share a cell,
    when a cover cell lies inside a coarser cover cell whose cube does not
    contain its own cube (nesting violation), or when a cover cell is at a
    level >= J."""
    owner: dict[tuple[int, tuple[int, ...]], DyadicCube] = {}
    pairs: dict[tuple[int, int], tuple[list, list]] = {}
    for Q in dict.fromkeys(family):
        for E in ring_cover(Q, direction, lam, C):
            if E.j >= J:
                raise ValueError(f"cover cell {E} finer than the grid (J={J})")
            prev = owner.setdefault((E.j, E.k), Q)
            if prev != Q:
                raise ValueError(f"covers of ({prev}, {Q}) share cell {E}")
            q, e = pairs.setdefault((Q.j, E.j), ([], []))
            q.append(Q.k)
            e.append(E.k)
    levels = sorted({j for j, _ in owner})
    for (j, k), Q in owner.items():
        for jp in levels[: levels.index(j)]:
            P = owner.get((jp, tuple(x >> (j - jp) for x in k)))
            if P is not None and not P.contains(Q):
                raise ValueError(
                    f"nesting violation: cover cell of {Q} inside a cover "
                    f"cell of {P} but {Q} not inside {P}"
                )

    def flat(ks: list, j: int) -> np.ndarray:
        return np.ravel_multi_index(np.array(ks).T, (2**j,) * len(ks[0]))

    return {(jq, je): (flat(q, jq), flat(e, je)) for (jq, je), (q, e) in pairs.items()}


def ring_projection_operator(
    n: int,
    J: int,
    family: Sequence[DyadicCube],
    direction: Direction,
    lam: int,
    C: float = 0.5,
) -> LinearFieldOp:
    """The ring projection S as a 0/1 map from level-j to level-(j+lam)
    Haar coefficients: S copies c_Q onto every cell of the cover of Q, and
    its adjoint sums the cover coefficients back onto Q with weight |E|/|Q|.
    The family is validated when the operator is built (_ring_index)."""
    index = _ring_index(family, direction, lam, C, J)

    def fwd(u: GridFunction) -> GridFunction:
        out = {}
        for (jq, je), (q, e) in index.items():
            c = np.zeros(2 ** (n * je))
            c[e] = level_coefficients(u, jq, direction).ravel()[q]
            out[je] = c.reshape((2**je,) * n)
        return _level_sum(out, direction, J)

    def adj(v: GridFunction) -> GridFunction:
        out = {}
        for (jq, je), (q, e) in index.items():
            w = level_coefficients(v, je, direction).ravel()[e] * 2.0 ** (n * (jq - je))
            out[jq] = np.bincount(q, w, 2 ** (n * jq)).reshape((2**jq,) * n)
        return _level_sum(out, direction, J)

    return LinearFieldOp(apply=fwd, adjoint=adj, name=f"ring_S[lam={lam}]")


def ring_norm(family: Sequence[DyadicCube], direction: Direction, lam: int, J: int) -> float:
    """Exact L2 norm of the ring projection S over ``family`` (C = 0.5),
    validated as ring_projection_operator validates it.

    S h_Q is the sum of the h_E over the cover of Q, and distinct covers
    share no cell, so S maps distinct Haar functions to orthogonal sums of
    distinct Haar functions: S*S is diagonal on the h_Q, with entry
    ||S h_Q||^2 / ||h_Q||^2 = |cover(Q)| |E| / |Q| = |cover(Q)| 2^(-n lam).
    Hence ||S||^2 = max_Q |cover(Q)| 2^(-n lam)."""
    index = _ring_index(family, direction, lam, 0.5, J)
    count = max((int(np.bincount(q).max()) for q, _ in index.values()), default=0)
    return math.sqrt(count * 2.0 ** (-direction.n * lam))


def default_even_family(n: int, j: int) -> list[DyadicCube]:
    """Level-j cubes with all-even coordinates: a sparse per-level family
    whose ring covers never collide."""
    return [DyadicCube(n, j, k) for k in itertools.product(range(0, 1 << j, 2), repeat=n)]


# ---------------------------------------------------------------------------
# rearrangement operators


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


def _profile_matrix(J: int, lam: int, j: int) -> np.ndarray:
    """A_j[k, :]: the 1D factor, on the level-J grid, of the default profile
    of a level-j cube whose coordinate along an axis is k.  The factor
    depends only on k (predecessor coordinate k >> lam, rank offset
    k & (2^lam - 1)), so every level-j default profile is a tensor product
    of rows of A_j."""
    side = 2.0 ** (lam - j)
    A = np.empty((2**j, 2**J))
    for k in range(2**j):
        start = (k >> lam) * side + (k & ((1 << lam) - 1)) * side / (2**lam) * 0.5
        A[k] = sine_cell_averages(2**J, 2.0 * np.pi / side, start, start, start + side)
    return A


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
