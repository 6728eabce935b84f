"""Sharpness machinery: rescaled tensor blocks, the layered square
collections, analytic Gram/Bessel computations, and the ratio experiments
for both exponent regimes.

Everything here is specialized to n = 2 with the Riesz axis i0 = 1 and the
Haar direction (1, 0).  Inner products are separable closed-form sine
integrals; dense grids enter only as cross-check oracles at the coarsest
oscillation parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .fields import stream
from .grid import Direction, DyadicCube, GridFunction
from .haar import directional_project
from .profiles import (
    SinePiece,
    haar_pieces,
    indicator_pieces,
    pieces_cell_averages,
    pieces_values,
    profile_integral,
    profile_product_integral,
    scale_pieces,
)

__all__ = [
    "MotherProfiles",
    "mother_profiles",
    "BlockSpec",
    "SquareCollection",
    "build_collection",
    "block_inner_products",
    "block_vs_haar",
    "block_vs_block",
    "collection_coefficient",
    "bessel_lower_bound",
    "gram_norm2",
    "f_eps_field",
    "block_field",
    "dense_lp_norm",
    "sharpness_experiment_pge2",
    "single_block_experiment_ple2",
    "DIRECTION_10",
]

DIRECTION_10 = Direction((1, 0))

# mother pieces in local coordinates (anchor 0, scale 1)
_A_MOTHER = [SinePiece(0.0, 1.0, 0.0, 1.0, amp=1.0, freq=2.0 * np.pi)]
_B_MOTHER = [SinePiece(-1.0, 1.0, 0.0, 1.0, amp=1.0, freq=np.pi)]
_A_TILDE_MOTHER = [
    SinePiece(0.0, 1.0, 0.0, 1.0, amp=2.0 * np.pi, freq=2.0 * np.pi, phase=np.pi / 2.0)
]
_B_TILDE_MOTHER = [
    SinePiece(
        -1.0, 1.0, 0.0, 1.0, const=-1.0 / np.pi, amp=-1.0 / np.pi, freq=np.pi,
        phase=np.pi / 2.0,
    )
]


@dataclass(frozen=True)
class MotherProfiles:
    """The 1D profiles generating the blocks.

    A(u) = sin(2 pi u) on [0,1]: mean zero, <A, h> = 2/pi, int A^2 = 1/2.
    B(u) = sin(pi u) on [-1,1]: mean zero, int B^2 = 1.
    A~ = A' and B~ = int B: the pair realizing the Riesz identity
    R_1(g_Q) = eps R_2(g~_Q) exactly.
    """

    A: tuple[SinePiece, ...] = tuple(_A_MOTHER)
    B: tuple[SinePiece, ...] = tuple(_B_MOTHER)
    A_tilde: tuple[SinePiece, ...] = tuple(_A_TILDE_MOTHER)
    B_tilde: tuple[SinePiece, ...] = tuple(_B_TILDE_MOTHER)


def mother_profiles() -> MotherProfiles:
    return MotherProfiles()


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

    def x1_pieces(self) -> list[SinePiece]:
        m = mother_profiles()
        mother = m.A if self.variant == "plain" else m.A_tilde
        l1 = self.square.k[0] * self.square.side
        return scale_pieces(mother, l1, self.square.side)

    def x2_pieces(self) -> list[SinePiece]:
        m = mother_profiles()
        mother = m.B if self.variant == "plain" else m.B_tilde
        l2 = self.square.k[1] * self.square.side
        return scale_pieces(mother, l2, self.eps_param * self.square.side)


def block_vs_haar(block: BlockSpec, cube: DyadicCube) -> float:
    """<g_block, h_cube^{(1,0)}> via separable closed forms."""
    if cube.n != 2:
        raise ValueError("cube must be planar")
    l1 = cube.k[0] * cube.side
    l2 = cube.k[1] * cube.side
    x1 = profile_product_integral(block.x1_pieces(), haar_pieces(l1, cube.side))
    if x1 == 0.0:
        return 0.0
    x2 = profile_product_integral(block.x2_pieces(), indicator_pieces(l2, cube.side))
    return x1 * x2


def block_vs_block(b1: BlockSpec, b2: BlockSpec) -> float:
    """<g_b1, g_b2> via separable closed forms."""
    x1 = profile_product_integral(b1.x1_pieces(), b2.x1_pieces())
    if x1 == 0.0:
        return 0.0
    x2 = profile_product_integral(b1.x2_pieces(), b2.x2_pieces())
    return x1 * x2


def block_inner_products(block: BlockSpec, cube: DyadicCube, kind: str) -> float:
    """Umbrella entry point: kind 'vs_haar10' integrates the block against
    h_cube^{(1,0)}; 'vs_block' against the block of the same parameters on
    cube."""
    if kind == "vs_haar10":
        return block_vs_haar(block, cube)
    if kind == "vs_block":
        return block_vs_block(block, BlockSpec(cube, block.eps_param, block.variant))
    raise ValueError(f"unknown kind {kind!r}")


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
    cap: int = 10**6

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

    def layer_measure(self, k: int) -> float:
        m = self.level(k)
        return self.layer_count(k) * 4.0 ** (-m)

    def total_measure(self) -> float:
        return sum(self.layer_measure(k) for k in range(1, self.layer_total + 1))

    def iter_layer(self, k: int) -> Iterator[DyadicCube]:
        m = self.level(k)
        if self.layer_count(k) > self.cap:
            raise ValueError(
                f"layer {k} holds {self.layer_count(k):.3g} squares, beyond the "
                f"cap {self.cap}; use sampling mode"
            )
        for i1 in range(2**m):
            for i2 in range(1, 2**m, 2):
                yield DyadicCube(2, m, (i1, i2))

    def iter_all(self) -> Iterator[DyadicCube]:
        for k in range(1, self.layer_total + 1):
            yield from self.iter_layer(k)

    def sample_layer(self, k: int, count: int, seed: int) -> list[DyadicCube]:
        m = self.level(k)
        rng = stream(seed, 7, k)
        i1 = rng.integers(0, 2**m, size=count, dtype=np.int64)
        i2 = 2 * rng.integers(0, 2 ** (m - 1), size=count, dtype=np.int64) + 1
        return [DyadicCube(2, m, (int(a), int(b))) for a, b in zip(i1, i2)]

    def layer_of(self, Q: DyadicCube) -> int:
        for k in range(1, self.layer_total + 1):
            if self.level(k) == Q.j:
                return k
        raise ValueError(f"cube level {Q.j} not a layer level")

    def block(self, Q: DyadicCube, variant: str = "plain") -> BlockSpec:
        return BlockSpec(Q, self.eps_param, variant)


def build_collection(eps_param: float, cap: int = 10**6, sampling: bool = False) -> SquareCollection:
    """Construct the layered collection (eps < 1/8 raises: its deepest layer
    level 2 n0 2^n0 is past int64 cube indices); in exact mode refuse
    collections beyond the enumeration cap."""
    eps, n0 = _as_eps(eps_param)
    coll = SquareCollection(eps_param=eps, n0=n0, cap=cap)
    if not sampling and coll.total_count() > cap:
        raise ValueError(
            f"collection for eps={eps} holds {coll.total_count():.3g} squares, "
            f"beyond the cap {cap}; pass sampling=True"
        )
    return coll


# ---------------------------------------------------------------------------
# analytic coefficient engine


def _coarser_partners(
    coll: SquareCollection, Q: DyadicCube, variant: str = "plain"
) -> Iterator[BlockSpec]:
    """Blocks of strictly coarser layers whose support can meet Q or the
    support of Q's block: the unique interval ancestor fixes I', and at most
    a few bump windows reach J."""
    k = coll.layer_of(Q)
    eps = coll.eps_param
    sideQ = Q.side
    for kp in range(1, k):
        mp = coll.level(kp)
        shift = Q.j - mp
        i1p = Q.k[0] >> shift
        # candidate J' anchors: odd i2' with bump window meeting an
        # eps*sideQ-enlarged neighborhood of J
        sidep = 2.0 ** (-mp)
        half = eps * sidep
        lo = Q.k[1] * sideQ - eps * sideQ - half
        hi = (Q.k[1] + 1) * sideQ + eps * sideQ + half
        first = int(math.floor(lo / sidep))
        last = int(math.ceil(hi / sidep))
        for i2p in range(first, last + 1):
            if i2p % 2 != 1:
                continue
            if not 0 <= i2p < 2**mp:
                continue
            yield BlockSpec(DyadicCube(2, mp, (i1p, i2p)), eps, variant)


def collection_coefficient(coll: SquareCollection, Q: DyadicCube) -> float:
    """<f_eps, h_Q^{(1,0)}> for Q in the collection: the diagonal block term
    plus the coarser-layer corrections (same-layer and finer blocks vanish
    exactly)."""
    total = block_vs_haar(coll.block(Q), Q)
    for partner in _coarser_partners(coll, Q):
        total += block_vs_haar(partner, Q)
    return total


def bessel_lower_bound(
    eps_param: float,
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
    cap: int = 10**6,
    layers: Optional[Sequence[int]] = None,
) -> float:
    """sum over Q in the collection of <f_eps, h_Q^{(1,0)}>^2 / |Q| -- by
    Bessel a lower bound for the squared L2 norm of the directional
    projection of f_eps.

    exact mode enumerates (guarded by the cap); sampled mode estimates each
    layer mean from ``sample_size`` squares drawn with the counter-based
    generator."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    coll = build_collection(eps_param, cap=cap, sampling=(mode == "sampled"))
    ks = list(range(1, coll.layer_total + 1)) if layers is None else list(layers)
    total = 0.0
    if mode == "exact":
        for k in ks:
            for Q in coll.iter_layer(k):
                c = collection_coefficient(coll, Q)
                total += c * c / Q.volume()
        return total
    if sample_size < 10:
        raise ValueError("sampled mode needs at least 10 draws per layer")
    for k in ks:
        draws = coll.sample_layer(k, sample_size, seed)
        acc = 0.0
        for Q in draws:
            c = collection_coefficient(coll, Q)
            acc += c * c / Q.volume()
        total += acc / sample_size * coll.layer_count(k)
    return total


def gram_norm2(
    eps_param: float,
    variant: str = "plain",
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
    cap: int = 10**6,
    diagonal_only: bool = False,
) -> float:
    """|| sum of blocks ||_2^2 via the Gram expansion: the diagonal is a
    closed form; same-layer off-diagonal terms vanish exactly; cross-layer
    terms pair each square with its few coarser partners."""
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    coll = build_collection(eps_param, cap=cap, sampling=(mode == "sampled"))
    diag = 0.0
    for k in range(1, coll.layer_total + 1):
        rep = coll.block(DyadicCube(2, coll.level(k), (0, 1)), variant)
        diag += block_vs_block(rep, rep) * coll.layer_count(k)
    if diagonal_only:
        return diag
    cross = 0.0
    if mode == "exact":
        for Q in coll.iter_all():
            b = coll.block(Q, variant)
            for partner in _coarser_partners(coll, Q, variant):
                cross += 2.0 * block_vs_block(b, partner)
    else:
        if sample_size < 10:
            raise ValueError("sampled mode needs at least 10 draws per layer")
        for k in range(2, coll.layer_total + 1):
            draws = coll.sample_layer(k, sample_size, seed)
            acc = 0.0
            for Q in draws:
                b = coll.block(Q, variant)
                for partner in _coarser_partners(coll, Q, variant):
                    acc += 2.0 * block_vs_block(b, partner)
            cross += acc / sample_size * coll.layer_count(k)
    return diag + cross


# ---------------------------------------------------------------------------
# dense-grid embeddings and oracles


def block_field(block: BlockSpec, J: int) -> GridFunction:
    """Exact cell averages of the block on the level-J grid."""
    N = 2**J
    v1 = pieces_cell_averages(block.x1_pieces(), N)
    v2 = pieces_cell_averages(block.x2_pieces(), N)
    return GridFunction(2, J, np.multiply.outer(v1, v2))


def f_eps_field(eps_param: float, J: int, cap: int = 10**6, variant: str = "plain") -> GridFunction:
    """Exact cell averages of the full test function (sum over the
    collection) on the level-J grid."""
    coll = build_collection(eps_param, cap=cap)
    N = 2**J
    acc = np.zeros((N, N))
    for Q in coll.iter_all():
        b = coll.block(Q, variant)
        v1 = pieces_cell_averages(b.x1_pieces(), N)
        v2 = pieces_cell_averages(b.x2_pieces(), N)
        acc += np.multiply.outer(v1, v2)
    return GridFunction(2, J, acc)


def _gauss_points(N: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    nodes = ((np.arange(N)[:, None] + (x[None, :] + 1.0) / 2.0) / N).ravel()
    weights = np.tile(w / 2.0 / N, N)
    return nodes, weights


def dense_lp_norm(
    blocks: Sequence[BlockSpec], J: int, p: float, quad_order: int = 5
) -> float:
    """L^p norm of a sum of blocks by per-cell tensor Gauss quadrature of the
    analytic integrand (the cross-check oracle for the Gram engine)."""
    N = 2**J
    t1, w1 = _gauss_points(N, quad_order)
    t2, w2 = _gauss_points(N, quad_order)
    vals = np.zeros((t1.size, t2.size))
    for b in blocks:
        vals += np.multiply.outer(
            pieces_values(b.x1_pieces(), t1), pieces_values(b.x2_pieces(), t2)
        )
    integrand = np.abs(vals) ** p
    total = float(w1 @ integrand @ w2)
    return total ** (1.0 / p)


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
    cap: int = 10**6,
    dense_check_J: int = 7,
) -> list[SharpnessRow]:
    """p = 2 regime: per epsilon report the Bessel lower bound L for
    ||P f_eps||_2, the Gram value N for ||f_eps||_2, the exact-identity upper
    bound R = eps ||f~_eps||_2 for ||R_1 f_eps||_2, and the sharpness ratio
    L / (N^{1/2-eta} R^{1/2+eta})."""
    rows: list[SharpnessRow] = []
    for eps in eps_list:
        coll = build_collection(eps, cap=cap, sampling=True)
        mode = "exact" if coll.total_count() <= cap else "sampled"
        L2 = bessel_lower_bound(eps, mode, sample_size, seed, cap)
        N2 = gram_norm2(eps, "plain", mode, sample_size, seed, cap)
        Rt2 = gram_norm2(eps, "tilde", mode, sample_size, seed, cap)
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


def single_block_experiment_ple2(
    eps_list: Sequence[float],
    p: float,
    eta: float,
    seed: int = 0,
) -> list[SharpnessRow]:
    """p <= 2 regime on the single block: dense-grid norms of g, R_1 g and
    P g at grid level n0 + 6, with the analytic coefficient cross-check."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must be in (1, 2], got {p}")
    from .fourier import riesz

    q = p / (p - 1.0)
    rows: list[SharpnessRow] = []
    for eps in eps_list:
        _, n0 = _as_eps(eps)
        J = n0 + 6
        block = BlockSpec(single_block_square(), eps)
        g = block_field(block, J)
        norm_g = dense_lp_norm([block], J, p)
        norm_Rg = riesz(g, 1).lp_norm(p)
        Pg = directional_project(g, DIRECTION_10)
        norm_Pg = Pg.lp_norm(p)
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
