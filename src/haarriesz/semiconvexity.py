"""Separately convex integrands, Jensen's inequality on the range of the
vector projection, and the desk-scale lower semicontinuity experiment.

The differential constraint here is the off-diagonal gradient: it vanishes
exactly when each component depends on its own coordinate alone.  For such
sequences, separate convexity compensates for the missing compactness; a
deliberately violating sequence demonstrates that the constraint is needed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fourier import derivative
from .grid import GridFunction, axis_direction
from .haar import _block_mean, _project_stack
from .profiles import sine_cell_averages

__all__ = [
    "Integrand",
    "registry_integrands",
    "check_separately_convex",
    "a0_max_entry",
    "jensen_range_check",
    "SemicontinuityRow",
    "semicontinuity_experiment",
    "oscillation_sequence",
    "contrast_sequence",
]


@dataclass
class Integrand:
    """Real integrand on R^d (d = 2 or 3).  ``fn`` must broadcast over
    leading axes of a stacked argument array of shape (..., d)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    d: int

    def __call__(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(a, dtype=np.float64)), dtype=np.float64)

    @functools.cached_property
    def separately_convex(self) -> bool:
        """check_separately_convex, probed on first use only."""
        return check_separately_convex(self)


def check_separately_convex(f: Integrand) -> bool:
    """Probe separate convexity: along every axis, second differences on the
    lattice [-3, 3]^d of step 0.1 must be >= -1e-9."""
    grid = np.arange(-3.0, 3.05, 0.1)
    mesh = np.meshgrid(*([grid] * f.d), indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = f(pts)
    for ax in range(f.d):
        sl_lo = [slice(None)] * f.d
        sl_mid = [slice(None)] * f.d
        sl_hi = [slice(None)] * f.d
        sl_lo[ax] = slice(0, -2)
        sl_mid[ax] = slice(1, -1)
        sl_hi[ax] = slice(2, None)
        second = vals[tuple(sl_lo)] - 2.0 * vals[tuple(sl_mid)] + vals[tuple(sl_hi)]
        if float(second.min()) < -1e-9:
            return False
    return True


def registry_integrands() -> list[Integrand]:
    """The built-in separately convex integrands (all planar)."""
    return [
        Integrand("ab", lambda a: a[..., 0] * a[..., 1], 2),
        Integrand("abs_sum", lambda a: np.abs(a[..., 0]) + np.abs(a[..., 1]), 2),
        Integrand("quad_cross",
                  lambda a: a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 0] * a[..., 1], 2),
        Integrand("relu_prod",
                  lambda a: np.maximum(a[..., 0], 0.0) * np.maximum(a[..., 1], 0.0), 2),
    ]


def _field_grid(v: np.ndarray) -> tuple[int, int]:
    """(n, J) of a vector field: the n components' cell values stacked in
    one array of shape (n, 2^J, .., 2^J)."""
    n = v.shape[0] if v.ndim else 0
    J = v.shape[-1].bit_length() - 1 if v.ndim else 0
    if not 1 <= n <= 3 or v.shape != (n,) + (2**J,) * n:
        raise ValueError(f"a vector field has shape (n, 2^J, .., 2^J), got {v.shape}")
    return n, J


def a0_max_entry(v: np.ndarray) -> float:
    """max |d v_j / d x_i| over i != j: the largest entry of the
    off-diagonal gradient of the vector field v, by spectral
    differentiation."""
    n, J = _field_grid(v)
    comps = [GridFunction(n, J, c) for c in v]
    return max(float(np.abs(derivative(comps[j], i + 1).values).max())
               for i in range(n) for j in range(n) if i != j)


def jensen_range_check(fields: np.ndarray, fs: Sequence[Integrand], M: int) -> list[float]:
    """Per integrand f of ``fs``, min over the vector fields v of the batch
    ``fields`` (shape (batch, n, 2^J, .., 2^J)) and the level-M cells of
    E_M(f(P(v))) - f(E_M(P(v))); separate convexity makes this nonnegative
    up to rounding.  P^(e_i), E_M and each integrand run once for the whole
    batch; each integrand's separate-convexity probe runs once per
    Integrand."""
    for f in fs:
        if not f.separately_convex:
            raise ValueError(f"integrand {f.name!r} failed the separate-convexity probe")
    if not len(fields):
        raise ValueError("no vector fields")
    n, J = _field_grid(fields[0])
    if not 0 <= M <= J:
        raise ValueError(f"M must be within 0..{J}")
    # pw[i, b] = P^(e_i) of component i of field b
    pw = np.stack([_project_stack(fields[:, i], n, J, axis_direction(n, i + 1).index)
                   for i in range(n)])
    # both terms of the defect are constant on level-M cells: compare the
    # level-M averages, with the component axis last for the integrands
    ew = np.moveaxis(_block_mean(pw, M, n), 0, -1)
    pw = np.moveaxis(pw, 0, -1)
    return [float((_block_mean(f(pw), M, n) - f(ew)).min()) for f in fs]


# ---------------------------------------------------------------------------
# semicontinuity experiment


def oscillation_sequence(n: int, J: int, r: int) -> np.ndarray:
    """Compliant sequence member: component i is a zero-mean profile
    oscillating at frequency 2^r in its own coordinate alone, embedded
    exactly (cell averages of sin)."""
    N = 2**J
    wave = sine_cell_averages(N, 2.0 * np.pi * 2**r, 0.0, 0.0, 1.0)
    return np.stack([np.broadcast_to(wave.reshape([N if k == ax else 1 for k in range(n)]),
                                     (N,) * n) for ax in range(n)])


def contrast_sequence(n: int, J: int, r: int) -> np.ndarray:
    """Deliberate violation: every component oscillates in x_1, so the
    off-diagonal gradient is large.  The amplitudes (1, -1, ...)
    anti-correlate the components, which drives product-type integrands
    strictly below their weak-limit value."""
    N = 2**J
    wave = sine_cell_averages(N, 2.0 * np.pi * 2**r, 0.0, 0.0, 1.0)
    return np.multiply.outer((-1.0) ** np.arange(n),
                             np.broadcast_to(wave.reshape([N] + [1] * (n - 1)), (N,) * n))


@dataclass
class SemicontinuityRow:
    f_name: str
    r: int
    I_r: float
    I_limit: float
    a0_norm: float
    compliant: bool


def semicontinuity_experiment(
    fs: Sequence[Integrand],
    phi: GridFunction,
    r_list: Sequence[int],
    sequence: Callable[[int], np.ndarray],
) -> list[list[SemicontinuityRow]]:
    """Per integrand f of ``fs``, tabulate I_r = sum f(v_r) phi vol against
    the weak-limit row I_inf = int f(v) phi, v the global means of the
    vector field v_r = sequence(r).  Each v_r, its off-diagonal gradient
    and its weak limit are built once for all of ``fs``.

    Sequences whose off-diagonal gradient exceeds 1e-8 are flagged as
    contrast rows rather than rejected.
    """
    if float(phi.values.min()) < 0.0:
        raise ValueError("test function must be nonnegative")
    rows: list[list[SemicontinuityRow]] = [[] for _ in fs]
    vol = phi.cell_volume()
    for r in r_list:
        v = sequence(r)
        if _field_grid(v) != (phi.n, phi.J):
            raise ValueError("sequence and test function live on different grids")
        a0 = a0_max_entry(v)
        compliant = a0 <= 1e-8
        # the component axis last for the integrands; the weak limit, the
        # component means, broadcasts against phi as one constant cell
        values = np.moveaxis(v, 0, -1)
        limit = np.moveaxis(_block_mean(v, 0, phi.n), 0, -1)
        for f, f_rows in zip(fs, rows):
            I_r = float((f(values) * phi.values).sum() * vol)
            I_inf = float((f(limit) * phi.values).sum() * vol)
            f_rows.append(SemicontinuityRow(f.name, r, I_r, I_inf, a0, compliant))
    return rows
