"""Sharpness machinery: rescaled tensor blocks, the layered square
collections, analytic Gram/Bessel computations, and the ratio experiments
for both exponent regimes.

Everything here is specialized to n = 2 with the Riesz axis i0 = 1 and the
Haar direction (1, 0).  Inner products are separable closed-form sine
integrals, evaluated for whole arrays of square pairs at once; dense grids
enter only as cross-check oracles at the coarsest oscillation parameter.
The single block's grid norms come from its two 1D factors: its half
spectrum is a tensor product and its Haar projection has rank J, so no
full grid of it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import stream
from .fourier import riesz_half_spectrum
from .grid import _LEGENDRE, Direction, DyadicCube, GridFunction, lp_norm
from .haar import _analyze, conditional_expectation, level_field
from .profiles import (
    SinePiece,
    haar_pieces,
    indicator_pieces,
    pieces_cell_averages,
    pieces_values,
    profile_product_integral,
    scale_pieces,
)

__all__ = [
    "A_PROFILE",
    "B_PROFILE",
    "A_TILDE_PROFILE",
    "B_TILDE_PROFILE",
    "BlockSpec",
    "SquareCollection",
    "build_collection",
    "block_vs_haar",
    "block_vs_block",
    "bessel_lower_bound",
    "gram_norm2",
    "f_eps_field",
    "block_field",
    "dense_lp_norm",
    "block_lp_norm",
    "sharpness_experiment_pge2",
    "single_block_experiment_ple2",
    "DIRECTION_10",
]

DIRECTION_10 = Direction((1, 0))

# exact-mode enumeration limit: collections and layers of more squares than
# this are refused (exact mode) or sampled
CAP = 10**6

# The 1D mother profiles generating the blocks, in local coordinates
# (anchor 0, scale 1).  A(u) = sin(2 pi u) on [0,1]: mean zero,
# <A, h> = 2/pi, int A^2 = 1/2.  B(u) = sin(pi u) on [-1,1]: mean zero,
# int B^2 = 1.  A~ = A' and B~ = int B: the pair realizing the Riesz identity
# R_1(g_Q) = eps R_2(g~_Q) exactly.
A_PROFILE = (SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2.0 * np.pi),)
B_PROFILE = (SinePiece(-1.0, 1.0, 0.0, 1.0, amp=1.0, freq=np.pi),)
A_TILDE_PROFILE = (
    SinePiece(0.0, 1.0, 0.0, 1.0, amp=2.0 * np.pi, freq=2.0 * np.pi, phase=np.pi / 2.0),
)
B_TILDE_PROFILE = (
    SinePiece(-1.0, 1.0, 0.0, 1.0, const=-1.0 / np.pi, amp=-1.0 / np.pi, freq=np.pi,
              phase=np.pi / 2.0),
)


# ---------------------------------------------------------------------------
# blocks


def _as_eps(eps_param: float) -> tuple[float, int]:
    n0 = round(-math.log2(eps_param))
    if n0 < 1 or abs(eps_param - 2.0 ** (-n0)) > 1e-15:
        raise ValueError(f"oscillation parameter must be 2^-n0 with n0 >= 1, got {eps_param}")
    return 2.0 ** (-n0), n0


@dataclass(frozen=True)
class BlockSpec:
    """Rescaled tensor block on a dyadic square Q = I x J (n = 2):
    the x1 factor is A (A~ for the tilde variant) scaled to I, the x2 factor
    is B (B~) compressed by eps and anchored at the left endpoint of J."""

    square: DyadicCube
    eps_param: float
    variant: str = "plain"  # "plain" | "tilde"

    def __post_init__(self) -> None:
        if self.square.n != 2:
            raise ValueError("blocks live on squares in the plane")
        _as_eps(self.eps_param)
        if self.variant not in ("plain", "tilde"):
            raise ValueError(f"unknown variant {self.variant!r}")

    def pieces(self) -> tuple[list[SinePiece], list[SinePiece]]:
        """The x1 and x2 pieces of the block."""
        return _block_pieces(self.square.side, *self.square.k, self.eps_param, self.variant)


def _block_pieces(side, i1, i2, eps: float, variant: str):
    """x1 and x2 pieces of the blocks on the squares (i1, i2) of side
    ``side``; with arrays, each piece field is an array of their broadcast
    shape."""
    a, b = (A_PROFILE, B_PROFILE) if variant == "plain" else (A_TILDE_PROFILE, B_TILDE_PROFILE)
    return scale_pieces(a, i1 * side, side), scale_pieces(b, i2 * side, eps * side)


def _vs_haar(x1, x2, side, i1, i2):
    """<g, h_Q^{(1,0)}> of the blocks with pieces (x1, x2) against the
    squares Q = (i1, i2) of side ``side``, elementwise."""
    h = profile_product_integral(x1, haar_pieces(i1 * side, side))
    v = profile_product_integral(x2, indicator_pieces(i2 * side, side))
    return np.where(h == 0.0, 0.0, h * v)


def _vs_block(xa, xb):
    """<g_a, g_b> of the blocks with pieces xa = (x1, x2) and xb,
    elementwise."""
    h = profile_product_integral(xa[0], xb[0])
    v = profile_product_integral(xa[1], xb[1])
    return np.where(h == 0.0, 0.0, h * v)


def block_vs_haar(block: BlockSpec, cube: DyadicCube) -> float:
    """<g_block, h_cube^{(1,0)}> via separable closed forms."""
    if cube.n != 2:
        raise ValueError("cube must be planar")
    return float(_vs_haar(*block.pieces(), cube.side, *cube.k))


def block_vs_block(b1: BlockSpec, b2: BlockSpec) -> float:
    """<g_b1, g_b2> via separable closed forms."""
    return float(_vs_block(b1.pieces(), b2.pieces()))


# ---------------------------------------------------------------------------
# the layered collections


@dataclass(frozen=True)
class SquareCollection:
    """Layered collection of dyadic squares: layer k = 1..1/eps holds
    I x J with I any level-(2 k n0) interval and J an even-numbered
    (counting from one) level-(2 k n0) interval.  The 1-based-even choice
    keeps every block support inside the open unit square."""

    eps_param: float
    n0: int

    def __post_init__(self) -> None:
        if self.level(self.layer_total) >= 62:
            raise ValueError(f"collection for eps={self.eps_param} reaches layer level "
                             f"{self.level(self.layer_total)}, past int64 cube indices")

    @property
    def layer_total(self) -> int:
        return 2**self.n0

    def level(self, k: int) -> int:
        if not 1 <= k <= self.layer_total:
            raise ValueError(f"layer {k} out of range")
        return 2 * k * self.n0

    def layer_count(self, k: int) -> float:
        m = self.level(k)
        return float(2 ** m) * float(2 ** (m - 1))

    def total_count(self) -> float:
        return sum(self.layer_count(k) for k in range(1, self.layer_total + 1))

    def layer_indices(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (i1, i2) of every square of layer k as int64 arrays,
        i1 outer."""
        m = self.level(k)
        if self.layer_count(k) > CAP:
            raise ValueError(
                f"layer {k} holds {self.layer_count(k):.3g} squares, beyond the "
                f"cap {CAP}; use sampling mode"
            )
        i1, i2 = np.divmod(np.arange(int(self.layer_count(k)), dtype=np.int64), 2 ** (m - 1))
        return i1, 2 * i2 + 1

    def sample_indices(self, k: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates (i1, i2) of ``count`` squares of layer k drawn with
        the counter-based generator, as int64 arrays."""
        m = self.level(k)
        rng = stream(seed, 7, k)
        i1 = rng.integers(0, 2**m, size=count, dtype=np.int64)
        i2 = rng.integers(0, 2 ** (m - 1), size=count, dtype=np.int64)
        i2 *= 2
        i2 += 1
        return i1, i2

    def block(self, Q: DyadicCube, variant: str = "plain") -> BlockSpec:
        return BlockSpec(Q, self.eps_param, variant)


def build_collection(eps_param: float, sampling: bool = False) -> SquareCollection:
    """Construct the layered collection (eps < 1/8 raises: its deepest layer
    level 2 n0 2^n0 is past int64 cube indices); in exact mode refuse
    collections beyond the enumeration cap."""
    eps, n0 = _as_eps(eps_param)
    coll = SquareCollection(eps_param=eps, n0=n0)
    if not sampling and coll.total_count() > CAP:
        raise ValueError(
            f"collection for eps={eps} holds {coll.total_count():.3g} squares, "
            f"beyond the cap {CAP}; pass sampling=True"
        )
    return coll


# ---------------------------------------------------------------------------
# analytic coefficient engine
#
# Squares are int64 index arrays of one layer (16 B per square, so a
# sampled layer holds 16 B per draw), processed CHUNK at a time so the
# pair terms' working set does not grow with the sample size.  Every sum runs left
# to right (np.cumsum; np.sum adds pairwise) in the order of a loop over the
# squares and, per square, over its coarser partners, so the results equal
# that loop's bit for bit (tests/sharpness_oracle.py).

CHUNK = 1024


def _coarser_partners(coll: SquareCollection, k: int, i1: np.ndarray, i2: np.ndarray):
    """Pairs of a layer-k square (i1, i2) and a square of a strictly coarser
    layer whose block can meet it or its block: the unique interval
    ancestor fixes i1', and at most a few bump windows reach J.  Returns
    the (squares, candidates) mask of the pairs and, per pair in row-major
    order of that mask (by square, then coarser layer, then increasing
    i2'), the square's row and the partner's side, i1' and i2'."""
    eps = coll.eps_param
    m = coll.level(k)
    sideQ = 2.0 ** (-m)
    blocks = []
    for kp in range(1, k):
        mp = coll.level(kp)
        sidep = 2.0 ** (-mp)
        # candidate J' anchors: odd i2' with bump window meeting an
        # eps*sideQ-enlarged neighborhood of J
        half = eps * sidep
        lo = i2 * sideQ - eps * sideQ - half
        hi = (i2 + 1) * sideQ + eps * sideQ + half
        first = np.floor(lo / sidep).astype(np.int64)
        last = np.ceil(hi / sidep).astype(np.int64)
        j2 = first[:, None] + np.arange(int((last - first).max()) + 1)
        valid = (j2 <= last[:, None]) & (j2 % 2 == 1) & (j2 >= 0) & (j2 < 2**mp)
        j1 = np.broadcast_to((i1 >> (m - mp))[:, None], j2.shape)
        blocks.append((valid, np.full(j2.shape, sidep), j1, j2))
    valid, side, j1, j2 = (np.concatenate(b, axis=1) for b in zip(*blocks))
    return valid, valid.nonzero()[0], side[valid], j1[valid], j2[valid]


def _coefficients(coll: SquareCollection, k: int, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    """<f_eps, h_Q^{(1,0)}> for the layer-k squares Q = (i1, i2): the
    diagonal block term plus the coarser-layer corrections (same-layer and
    finer blocks vanish exactly)."""
    eps, side = coll.eps_param, 2.0 ** (-coll.level(k))
    diag = _vs_haar(*_block_pieces(side, i1, i2, eps, "plain"), side, i1, i2)
    if k == 1:
        return diag
    valid, row, sidep, j1, j2 = _coarser_partners(coll, k, i1, i2)
    corrections = np.zeros(valid.shape)
    corrections[valid] = _vs_haar(*_block_pieces(sidep, j1, j2, eps, "plain"),
                                  side, i1[row], i2[row])
    return np.cumsum(np.column_stack([diag, corrections]), axis=1)[:, -1]


def _cross_terms(coll: SquareCollection, k: int, i1: np.ndarray, i2: np.ndarray,
                 variant: str) -> np.ndarray:
    """2 <g_Q, g_Q'> for every pair of a layer-k square Q = (i1, i2) and a
    coarser partner Q', in the pair order of _coarser_partners."""
    eps, side = coll.eps_param, 2.0 ** (-coll.level(k))
    _, row, sidep, j1, j2 = _coarser_partners(coll, k, i1, i2)
    xq = _block_pieces(side, i1[row], i2[row], eps, variant)
    return 2.0 * _vs_block(xq, _block_pieces(sidep, j1, j2, eps, variant))


def _layer_sums(coll: SquareCollection, ks: Sequence[int], mode: str, sample_size: int,
                seed: int, terms) -> float:
    """Sum of ``terms(k, i1, i2)`` over the squares of the layers ks: one
    running sum over all squares in exact mode; in sampled mode each
    layer's sum over its ``sample_size`` draws, scaled by the layer count
    over ``sample_size``."""
    total = 0.0
    for k in ks:
        if mode == "exact":
            i1, i2 = coll.layer_indices(k)
        else:
            i1, i2 = coll.sample_indices(k, sample_size, seed)
        acc = total if mode == "exact" else 0.0
        for s in range(0, i1.size, CHUNK):
            t = terms(k, i1[s:s + CHUNK], i2[s:s + CHUNK])
            acc = float(np.cumsum(np.concatenate(([acc], t)))[-1])
        total = acc if mode == "exact" else total + acc / sample_size * coll.layer_count(k)
    return total


def _check_mode(mode: str, sample_size: int) -> None:
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and sample_size < 10:
        raise ValueError("sampled mode needs at least 10 draws per layer")


def bessel_lower_bound(
    eps_param: float,
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
) -> float:
    """sum over Q in the collection of <f_eps, h_Q^{(1,0)}>^2 / |Q| -- by
    Bessel a lower bound for the squared L2 norm of the directional
    projection of f_eps.

    exact mode enumerates (guarded by CAP); sampled mode estimates each
    layer mean from ``sample_size`` squares drawn with the counter-based
    generator."""
    _check_mode(mode, sample_size)
    coll = build_collection(eps_param, sampling=(mode == "sampled"))

    def terms(k: int, i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
        c = _coefficients(coll, k, i1, i2)
        return c * c / 2.0 ** (-2 * coll.level(k))

    return _layer_sums(coll, range(1, coll.layer_total + 1), mode, sample_size, seed, terms)


def gram_norm2(
    eps_param: float,
    variant: str = "plain",
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
) -> float:
    """|| sum of blocks ||_2^2 via the Gram expansion: the diagonal is a
    closed form; same-layer off-diagonal terms vanish exactly; cross-layer
    terms pair each square with its few coarser partners."""
    _check_mode(mode, sample_size)
    coll = build_collection(eps_param, sampling=(mode == "sampled"))
    diag = 0.0
    for k in range(1, coll.layer_total + 1):
        rep = coll.block(DyadicCube(2, coll.level(k), (0, 1)), variant)
        diag += block_vs_block(rep, rep) * coll.layer_count(k)
    cross = _layer_sums(coll, range(2, coll.layer_total + 1), mode, sample_size, seed,
                        lambda k, i1, i2: _cross_terms(coll, k, i1, i2, variant))
    return diag + cross


# ---------------------------------------------------------------------------
# dense-grid embeddings and oracles


def block_field(block: BlockSpec, J: int) -> GridFunction:
    """Exact cell averages of the block on the level-J grid."""
    N = 2**J
    x1, x2 = block.pieces()
    v1 = pieces_cell_averages(x1, N)
    v2 = pieces_cell_averages(x2, N)
    return GridFunction(2, J, np.multiply.outer(v1, v2))


def f_eps_field(eps_param: float, J: int) -> GridFunction:
    """Exact cell averages of the full test function (sum over the
    collection) on the level-J grid."""
    coll = build_collection(eps_param)
    N = 2**J
    acc = np.zeros((N, N))
    for k in range(1, coll.layer_total + 1):
        side = 2.0 ** (-coll.level(k))
        for i1, i2 in zip(*coll.layer_indices(k)):
            x1, x2 = _block_pieces(side, int(i1), int(i2), coll.eps_param, "plain")
            acc += np.multiply.outer(pieces_cell_averages(x1, N), pieces_cell_averages(x2, N))
    return GridFunction(2, J, acc)


# Gauss-Legendre nodes per cell of the L^p quadratures
_QUAD_ORDER = 5


def _gauss_points(N: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = (np.array(a) for a in _LEGENDRE[_QUAD_ORDER])
    nodes = ((np.arange(N)[:, None] + (x[None, :] + 1.0) / 2.0) / N).ravel()
    weights = np.tile(w / 2.0 / N, N)
    return nodes, weights


def dense_lp_norm(blocks: Sequence[BlockSpec], J: int, p: float) -> float:
    """L^p norm of a sum of blocks by per-cell tensor Gauss quadrature of the
    analytic integrand (the cross-check oracle for the Gram engine)."""
    N = 2**J
    t1, w1 = _gauss_points(N)
    t2, w2 = _gauss_points(N)
    vals = np.zeros((t1.size, t2.size))
    for b in blocks:
        x1, x2 = b.pieces()
        vals += np.multiply.outer(pieces_values(x1, t1), pieces_values(x2, t2))
    integrand = np.abs(vals) ** p
    total = float(w1 @ integrand @ w2)
    return total ** (1.0 / p)


def block_lp_norm(block: BlockSpec, J: int, p: float) -> float:
    """L^p norm of one block on the Gauss nodes of ``dense_lp_norm``: the
    integrand |g1(x1) g2(x2)|^p is separable, so the 2D quadrature is the
    product of two 1D ones."""
    t, w = _gauss_points(2**J)
    x1, x2 = block.pieces()
    m1 = w @ np.abs(pieces_values(x1, t)) ** p
    m2 = w @ np.abs(pieces_values(x2, t)) ** p
    return float(m1 * m2) ** (1.0 / p)


# ---------------------------------------------------------------------------
# experiments


@dataclass
class SharpnessRow:
    epsilon: float
    p: float
    eta: float
    norm_f: float
    norm_Rf: float
    lower_P: float
    ratio: float
    mode: str
    detail: str
    seed: int


def sharpness_experiment_pge2(
    eps_list: Sequence[float],
    eta: float,
    sample_size: int = 200,
    seed: int = 0,
) -> list[SharpnessRow]:
    """p = 2 regime: per epsilon report the Bessel lower bound L for
    ||P f_eps||_2, the Gram value N for ||f_eps||_2, the exact-identity upper
    bound R = eps ||f~_eps||_2 for ||R_1 f_eps||_2, and the sharpness ratio
    L / (N^{1/2-eta} R^{1/2+eta})."""
    rows: list[SharpnessRow] = []
    for eps in eps_list:
        coll = build_collection(eps, sampling=True)
        mode = "exact" if coll.total_count() <= CAP else "sampled"
        L2 = bessel_lower_bound(eps, mode, sample_size, seed)
        N2 = gram_norm2(eps, "plain", mode, sample_size, seed)
        Rt2 = gram_norm2(eps, "tilde", mode, sample_size, seed)
        L = math.sqrt(max(L2, 0.0))
        Nn = math.sqrt(max(N2, 0.0))
        R = eps * math.sqrt(max(Rt2, 0.0))
        ratio = L / (Nn ** (0.5 - eta) * R ** (0.5 + eta))
        detail = "all" if mode == "exact" else str(sample_size)
        rows.append(SharpnessRow(eps, 2.0, eta, Nn, R, L, ratio, mode, detail, seed))
    return rows


def single_block_square() -> DyadicCube:
    """Interior level-2 square used for the dense single-block runs (keeps
    the bump support away from the torus seam)."""
    return DyadicCube(2, 2, (1, 2))


# grid rows per strip of the single block's L^p sums
_STRIP_ROWS = 64


def _tensor_riesz1_lp_norm(v1: np.ndarray, v2: np.ndarray, J: int, p: float) -> float:
    """||R_1 (v1 (x) v2)||_p on the level-J grid.  The half spectrum of the
    tensor field is fft(v1) (x) rfft(v2); R_1 runs on it in place, then the
    x1 pass of the inverse, and the x2 pass strip by strip."""
    N = 2**J
    spec = riesz_half_spectrum(np.multiply.outer(np.fft.fft(v1), np.fft.rfft(v2)), J, 1)
    np.fft.ifft(spec, axis=0, out=spec)
    return lp_norm((np.fft.irfft(spec[lo:lo + _STRIP_ROWS], n=N, axis=-1)
                    for lo in range(0, N, _STRIP_ROWS)), 2.0 ** (-2 * J), p)


def _tensor_project10_lp_norm(v1: np.ndarray, v2: np.ndarray, J: int, p: float) -> float:
    """||P^(1,0) (v1 (x) v2)||_p on the level-J grid.  The (1,0) coefficient
    of the level-j square I x K is the Haar coefficient of v1 on I times the
    mean of v2 on K, so P^(1,0) (v1 (x) v2) = sum_j (D_j v1) (x) (E_j v2), with
    D_j the level-j Haar part: rank J.  Each strip of rows is one einsum
    over j (einsum calls no BLAS)."""
    N = 2**J
    _, levels = _analyze(v1, 1, J)
    x1 = Direction((1,))
    D = np.stack([level_field(levels[j][1], x1, J).values for j in range(J)], axis=1)
    E = np.stack([conditional_expectation(GridFunction(1, J, v2), j).values
                  for j in range(J)], axis=1)
    return lp_norm((np.einsum("aj,bj->ab", D[lo:lo + _STRIP_ROWS], E)
                    for lo in range(0, N, _STRIP_ROWS)), 2.0 ** (-2 * J), p)


def single_block_experiment_ple2(
    eps_list: Sequence[float],
    p: float,
    eta: float,
    seed: int = 0,
) -> list[SharpnessRow]:
    """p <= 2 regime on the single block: grid norms of R_1 g and P g at
    grid level n0 + 6, from the block's two 1D factors of cell averages,
    and ||g||_p by separable quadrature on that level."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    q = p / (p - 1.0)
    rows: list[SharpnessRow] = []
    for eps in eps_list:
        _, n0 = _as_eps(eps)
        J = n0 + 6
        block = BlockSpec(single_block_square(), eps)
        v1, v2 = (pieces_cell_averages(x, 2**J) for x in block.pieces())
        norm_g = block_lp_norm(block, J, p)
        norm_Rg = _tensor_riesz1_lp_norm(v1, v2, J, p)
        norm_Pg = _tensor_project10_lp_norm(v1, v2, J, p)
        ratio = norm_Pg / (norm_g ** (1.0 / p - eta) * norm_Rg ** (1.0 / q + eta))
        rows.append(
            SharpnessRow(eps, p, eta, norm_g, norm_Rg, norm_Pg, ratio, "dense", f"J={J}", seed)
        )
    return rows


def unit_square_coefficient(eps_param: float) -> float:
    """Analytic <g, h^{(1,0)}> on the unit square (the paper-valued
    4 eps / pi^2 check lives on the plane, not on the torus)."""
    block = BlockSpec(DyadicCube(2, 0, (0, 0)), eps_param)
    return block_vs_haar(block, DyadicCube(2, 0, (0, 0)))
