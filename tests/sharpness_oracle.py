"""Scalar reference for the sharpness Gram/Bessel engine.

One closed-form integral per piece pair and one Python loop per square and
coarser partner, in the order the array engine in ``haarriesz.sharpness``
must reproduce bit for bit: squares of a layer in ``iter_layer`` order (or
the ``sample_layer`` draws), partners by coarser layer and then by
increasing i2'.  The walks over a collection's squares as DyadicCubes live
here too: the engine works on the int64 index arrays of a whole layer.
And the integral of a profile, which the tests read off the mother
profiles.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from haarriesz import sharpness
from haarriesz.fourier import riesz
from haarriesz.grid import DyadicCube
from haarriesz.haar import directional_project
from haarriesz.profiles import SinePiece, _int_sin, haar_pieces, indicator_pieces
from haarriesz.sharpness import BlockSpec, SquareCollection, build_collection


def iter_layer(coll: SquareCollection, k: int) -> Iterator[DyadicCube]:
    """The squares of layer k, in ``layer_indices`` order."""
    m = coll.level(k)
    for i1, i2 in zip(*coll.layer_indices(k)):
        yield DyadicCube(2, m, (int(i1), int(i2)))


def iter_all(coll: SquareCollection) -> Iterator[DyadicCube]:
    for k in range(1, coll.layer_total + 1):
        yield from iter_layer(coll, k)


def sample_layer(coll: SquareCollection, k: int, count: int, seed: int) -> list[DyadicCube]:
    """The squares of ``coll.sample_indices(k, count, seed)``."""
    m = coll.level(k)
    return [DyadicCube(2, m, (int(a), int(b)))
            for a, b in zip(*coll.sample_indices(k, count, seed))]


def layer_of(coll: SquareCollection, Q: DyadicCube) -> int:
    for k in range(1, coll.layer_total + 1):
        if coll.level(k) == Q.j:
            return k
    raise ValueError(f"cube level {Q.j} not a layer level")


def engine_coefficient(coll: SquareCollection, Q: DyadicCube) -> float:
    """<f_eps, h_Q^{(1,0)}> for Q in the collection, from the array engine."""
    i1, i2 = (np.array([i]) for i in Q.k)
    return float(sharpness._coefficients(coll, layer_of(coll, Q), i1, i2)[0])

_W_EPS = 1e-9


def _int_sin(w: float, phi: float, a: float, b: float) -> float:
    if abs(w) < _W_EPS:
        return float(np.sin(phi) * (b - a))
    return float((np.cos(w * a + phi) - np.cos(w * b + phi)) / w)


def _int_cos(w: float, phi: float, a: float, b: float) -> float:
    if abs(w) < _W_EPS:
        return float(np.cos(phi) * (b - a))
    return float((np.sin(w * b + phi) - np.sin(w * a + phi)) / w)


def _piece_in_coords(p: SinePiece, anchor: float, scale: float) -> tuple[float, float]:
    w = p.freq * scale / p.scale
    phi = p.freq * (anchor - p.anchor) / p.scale + p.phase
    return w, phi


def integrate_product(p: SinePiece, q: SinePiece) -> float:
    """integral over t of p(t) q(t) for scalar pieces."""
    a = max(p.lo, q.lo)
    b = min(p.hi, q.hi)
    if b <= a:
        return 0.0
    base = p if p.scale <= q.scale else q
    ua = (a - base.anchor) / base.scale
    ub = (b - base.anchor) / base.scale
    w1, f1 = _piece_in_coords(p, base.anchor, base.scale)
    w2, f2 = _piece_in_coords(q, base.anchor, base.scale)
    total = p.const * q.const * (ub - ua)
    if q.amp != 0.0:
        total += p.const * q.amp * _int_sin(w2, f2, ua, ub)
    if p.amp != 0.0:
        total += q.const * p.amp * _int_sin(w1, f1, ua, ub)
    if p.amp != 0.0 and q.amp != 0.0:
        cross = 0.5 * (
            _int_cos(w1 - w2, f1 - f2, ua, ub) - _int_cos(w1 + w2, f1 + f2, ua, ub)
        )
        total += p.amp * q.amp * cross
    return float(total * base.scale)


def product_integral(P: Sequence[SinePiece], Q: Sequence[SinePiece]) -> float:
    total = 0.0
    for p in P:
        for q in Q:
            total += integrate_product(p, q)
    return float(total)


def block_vs_haar(block: BlockSpec, cube: DyadicCube) -> float:
    l1 = cube.k[0] * cube.side
    l2 = cube.k[1] * cube.side
    p1, p2 = block.pieces()
    x1 = product_integral(p1, haar_pieces(l1, cube.side))
    if x1 == 0.0:
        return 0.0
    x2 = product_integral(p2, indicator_pieces(l2, cube.side))
    return x1 * x2


def block_vs_block(b1: BlockSpec, b2: BlockSpec) -> float:
    (p1, p2), (q1, q2) = b1.pieces(), b2.pieces()
    x1 = product_integral(p1, q1)
    if x1 == 0.0:
        return 0.0
    x2 = product_integral(p2, q2)
    return x1 * x2


def coarser_partners(
    coll: SquareCollection, Q: DyadicCube, variant: str = "plain"
) -> Iterator[BlockSpec]:
    """Blocks of strictly coarser layers whose support can meet Q or the
    support of Q's block."""
    k = layer_of(coll, Q)
    eps = coll.eps_param
    sideQ = Q.side
    for kp in range(1, k):
        mp = coll.level(kp)
        i1p = Q.k[0] >> (Q.j - mp)
        sidep = 2.0 ** (-mp)
        half = eps * sidep
        lo = Q.k[1] * sideQ - eps * sideQ - half
        hi = (Q.k[1] + 1) * sideQ + eps * sideQ + half
        for i2p in range(int(math.floor(lo / sidep)), int(math.ceil(hi / sidep)) + 1):
            if i2p % 2 == 1 and 0 <= i2p < 2**mp:
                yield BlockSpec(DyadicCube(2, mp, (i1p, i2p)), eps, variant)


def collection_coefficient(coll: SquareCollection, Q: DyadicCube) -> float:
    total = block_vs_haar(coll.block(Q), Q)
    for partner in coarser_partners(coll, Q):
        total += block_vs_haar(partner, Q)
    return total


def bessel_lower_bound(
    eps_param: float,
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
    layers: Optional[Sequence[int]] = None,
) -> float:
    coll = build_collection(eps_param, sampling=(mode == "sampled"))
    ks = list(range(1, coll.layer_total + 1)) if layers is None else list(layers)
    total = 0.0
    if mode == "exact":
        for k in ks:
            for Q in iter_layer(coll, k):
                c = collection_coefficient(coll, Q)
                total += c * c / Q.volume()
        return total
    for k in ks:
        acc = 0.0
        for Q in sample_layer(coll, k, sample_size, seed):
            c = collection_coefficient(coll, Q)
            acc += c * c / Q.volume()
        total += acc / sample_size * coll.layer_count(k)
    return total


def gram_diagonal(coll: SquareCollection, variant: str = "plain") -> float:
    """The diagonal of the Gram expansion: sum of ||g_Q||_2^2 over the
    collection, one representative block per layer."""
    diag = 0.0
    for k in range(1, coll.layer_total + 1):
        rep = coll.block(DyadicCube(2, coll.level(k), (0, 1)), variant)
        diag += block_vs_block(rep, rep) * coll.layer_count(k)
    return diag


def gram_norm2(
    eps_param: float,
    variant: str = "plain",
    mode: str = "exact",
    sample_size: int = 200,
    seed: int = 0,
) -> float:
    coll = build_collection(eps_param, sampling=(mode == "sampled"))
    diag = gram_diagonal(coll, variant)
    cross = 0.0
    if mode == "exact":
        for Q in iter_all(coll):
            b = coll.block(Q, variant)
            for partner in coarser_partners(coll, Q, variant):
                cross += 2.0 * block_vs_block(b, partner)
    else:
        for k in range(2, coll.layer_total + 1):
            acc = 0.0
            for Q in sample_layer(coll, k, sample_size, seed):
                b = coll.block(Q, variant)
                for partner in coarser_partners(coll, Q, variant):
                    acc += 2.0 * block_vs_block(b, partner)
            cross += acc / sample_size * coll.layer_count(k)
    return diag + cross


def grid_ple2_norms(eps_param: float, p: float) -> tuple[float, float]:
    """(||R_1 g||_p, ||P^(1,0) g||_p) of the single block g on the dense
    level-(n0 + 6) grid: the field, its Riesz transform and its Haar
    projection as full grids, the oracle of the tensor-factor norms in
    ``single_block_experiment_ple2``."""
    J = round(-math.log2(eps_param)) + 6
    g = sharpness.block_field(BlockSpec(sharpness.single_block_square(), eps_param), J)
    return riesz(g, 1).lp_norm(p), directional_project(g, sharpness.DIRECTION_10).lp_norm(p)


def profile_integral(pieces: Sequence[SinePiece]) -> float:
    """integral over t of the profile, piece by piece in closed form."""
    total = 0.0
    for p in pieces:
        ua = (p.lo - p.anchor) / p.scale
        ub = (p.hi - p.anchor) / p.scale
        total += (p.const * (ub - ua) + p.amp * _int_sin(p.freq, p.phase, ua, ub)) * p.scale
    return float(total)
