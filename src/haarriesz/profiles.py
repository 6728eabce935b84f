"""Exact 1D piecewise-sinusoid algebra.

A profile is a list of pieces, each of the form
    t -> const + amp * sin(freq * u + phase),   u = (t - anchor) / scale,
supported on a t-interval.  Products of two profiles integrate in closed
form, and every sine argument is evaluated in the local coordinate of the
finer piece, so deeply rescaled blocks lose no precision.  A piece whose
fields are arrays stands for many pieces at once (struct of arrays); the
closed forms evaluate elementwise with numpy broadcasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SinePiece",
    "scale_pieces",
    "profile_product_integral",
    "pieces_values",
    "pieces_cell_averages",
    "sine_cell_averages",
    "haar_pieces",
    "indicator_pieces",
]

_W_EPS = 1e-9  # below this local frequency a sinusoid is treated as constant


@dataclass(frozen=True)
class SinePiece:
    """One sinusoid piece; its fields may also be arrays that broadcast
    together, one entry per piece."""

    lo: float
    hi: float
    anchor: float
    scale: float
    const: float = 0.0
    amp: float = 0.0
    freq: float = 0.0
    phase: float = 0.0

    def local(self, t):
        return (np.asarray(t) - self.anchor) / self.scale

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        u = self.local(t)
        v = self.const + self.amp * np.sin(self.freq * u + self.phase)
        inside = (t >= self.lo) & (t < self.hi)
        return np.where(inside, v, 0.0)


def scale_pieces(
    mother: Sequence[SinePiece], anchor: float, scale: float
) -> list[SinePiece]:
    """Rescale mother pieces (given in their own local coordinate with
    anchor 0, scale 1) to t = anchor + scale * u."""
    out = []
    for p in mother:
        out.append(
            SinePiece(
                lo=anchor + scale * p.lo,
                hi=anchor + scale * p.hi,
                anchor=anchor,
                scale=scale,
                const=p.const,
                amp=p.amp,
                freq=p.freq,
                phase=p.phase,
            )
        )
    return out


def haar_pieces(left: float, width: float) -> list[SinePiece]:
    """The L-infinity normalized Haar step on [left, left+width)."""
    return [
        SinePiece(left, left + width / 2.0, left, width, const=1.0),
        SinePiece(left + width / 2.0, left + width, left, width, const=-1.0),
    ]


def indicator_pieces(left: float, width: float) -> list[SinePiece]:
    return [SinePiece(left, left + width, left, width, const=1.0)]


# ---------------------------------------------------------------------------
# closed-form primitives (in a local coordinate u over [a, b])


def _int_sin(w, phi, a, b):
    """integral of sin(w u + phi) over [a, b], elementwise."""
    small = np.abs(w) < _W_EPS
    w = np.where(small, 1.0, w)
    out = (np.cos(w * a + phi) - np.cos(w * b + phi)) / w
    return np.where(small, np.sin(phi) * (b - a), out) if small.any() else out


def _int_cos(w, phi, a, b):
    """integral of cos(w u + phi) over [a, b], elementwise."""
    small = np.abs(w) < _W_EPS
    w = np.where(small, 1.0, w)
    out = (np.sin(w * b + phi) - np.sin(w * a + phi)) / w
    return np.where(small, np.cos(phi) * (b - a), out) if small.any() else out


def _piece_in_coords(p: SinePiece, anchor, scale):
    """Frequency and phase of p's sinusoid in the coordinate
    u = (t - anchor)/scale."""
    w = p.freq * scale / p.scale
    phi = p.freq * (anchor - p.anchor) / p.scale + p.phase
    return w, phi


def integrate_product(p: SinePiece, q: SinePiece) -> float | np.ndarray:
    """integral over t of p(t) q(t) in closed form: a float for scalar
    pieces, an array of the broadcast field shape for array pieces."""
    a = np.maximum(p.lo, q.lo)
    b = np.minimum(p.hi, q.hi)
    # work in the local coordinate of the finer piece
    p_finer = p.scale <= q.scale
    anchor = np.where(p_finer, p.anchor, q.anchor)
    scale = np.where(p_finer, p.scale, q.scale)
    ua = (a - anchor) / scale
    ub = (b - anchor) / scale
    w1, f1 = _piece_in_coords(p, anchor, scale)
    w2, f2 = _piece_in_coords(q, anchor, scale)
    # each sinusoid term is added where its amplitudes are nonzero, and
    # evaluated only if they are somewhere
    total = p.const * q.const * (ub - ua)
    q_osc, p_osc = np.not_equal(q.amp, 0.0), np.not_equal(p.amp, 0.0)
    if q_osc.any():
        total = np.where(q_osc, total + p.const * q.amp * _int_sin(w2, f2, ua, ub), total)
    if p_osc.any():
        total = np.where(p_osc, total + q.const * p.amp * _int_sin(w1, f1, ua, ub), total)
    if (p_osc & q_osc).any():
        cross = 0.5 * (_int_cos(w1 - w2, f1 - f2, ua, ub) - _int_cos(w1 + w2, f1 + f2, ua, ub))
        total = np.where(p_osc & q_osc, total + p.amp * q.amp * cross, total)
    out = np.where(b <= a, 0.0, total * scale)
    return out if out.ndim else float(out)


def profile_product_integral(
    P: Sequence[SinePiece], Q: Sequence[SinePiece]
) -> float | np.ndarray:
    """Sum of integrate_product over all piece pairs, P outer: a float for
    scalar pieces, an array for array pieces."""
    total = 0.0
    for p in P:
        for q in Q:
            total += integrate_product(p, q)
    return total


# ---------------------------------------------------------------------------
# evaluation and exact cell averages on the unit-torus grid


def pieces_values(pieces: Sequence[SinePiece], t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    for p in pieces:
        out = out + p.value(t)
    return out


def _piece_mass(p: SinePiece, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """integral of p over [t1, t2] (arrays), clamping to the support."""
    a = np.clip(t1, p.lo, p.hi)
    b = np.clip(t2, p.lo, p.hi)
    ua = (a - p.anchor) / p.scale
    ub = (b - p.anchor) / p.scale
    lin = p.const * (ub - ua)
    if p.amp != 0.0:
        lin = lin + p.amp * _int_sin(p.freq, p.phase, ua, ub)
    return lin * p.scale


def pieces_cell_averages(pieces: Sequence[SinePiece], N: int) -> np.ndarray:
    """Exact cell averages on the N-cell grid of [0,1), periodizing profiles
    whose support extends beyond the unit interval."""
    edges = np.arange(N + 1) / N
    t1, t2 = edges[:-1], edges[1:]
    out = np.zeros(N)
    for p in pieces:
        m_lo = int(np.floor(p.lo))
        m_hi = int(np.ceil(p.hi)) - 1
        for m in range(m_lo, m_hi + 1):
            out = out + _piece_mass(p, t1 + m, t2 + m)
    return out * N


def sine_cell_averages(N: int, omega: float, t0: float, a: float, b: float) -> np.ndarray:
    """Exact cell averages of t -> sin(omega (t - t0)) on [a, b), periodized
    onto the N-cell unit-torus grid."""
    piece = SinePiece(lo=a, hi=b, anchor=t0, scale=1.0, amp=1.0, freq=omega)
    return pieces_cell_averages([piece], N)
