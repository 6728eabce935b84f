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
from .haar import _block_mean, _project_stack, conditional_expectation
from .profiles import sine_cell_averages

__all__ = [
    "Integrand",
    "registry_integrands",
    "check_separately_convex",
    "VectorField",
    "a0_apply",
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


@dataclass
class VectorField:
    """n grid fields sharing (n, J): a discrete map from the torus to R^n."""

    components: list[GridFunction]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("empty vector field")
        n = self.components[0].n
        if len(self.components) != n:
            raise ValueError(f"need {n} components, got {len(self.components)}")
        for c in self.components[1:]:
            self.components[0]._check_compatible(c)

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def J(self) -> int:
        return self.components[0].J

    def stacked(self) -> np.ndarray:
        return np.stack([c.values for c in self.components], axis=-1)


def a0_apply(v: VectorField) -> dict[tuple[int, int], GridFunction]:
    """Off-diagonal gradient: entries (i, j) = d v_j / d x_i for i != j,
    by spectral differentiation."""
    out: dict[tuple[int, int], GridFunction] = {}
    for i in range(1, v.n + 1):
        for j in range(1, v.n + 1):
            if i == j:
                continue
            out[(i, j)] = derivative(v.components[j - 1], i)
    return out


def a0_max_entry(v: VectorField) -> float:
    entries = a0_apply(v)
    return max(float(np.abs(e.values).max()) for e in entries.values())


def jensen_range_check(vs: Sequence[VectorField], fs: Sequence[Integrand], M: int) -> list[float]:
    """Per integrand f of ``fs``, min over the fields v of ``vs`` and the
    level-M cells of E_M(f(P(v))) - f(E_M(P(v))); separate convexity makes
    this nonnegative up to rounding.  Component i of every field joins one
    stack, so P^(e_i), E_M and each integrand run once for the whole family;
    each integrand's separate-convexity probe runs once per Integrand."""
    for f in fs:
        if not f.separately_convex:
            raise ValueError(f"integrand {f.name!r} failed the separate-convexity probe")
    if not vs:
        raise ValueError("no vector fields")
    n, J = vs[0].n, vs[0].J
    if any((v.n, v.J) != (n, J) for v in vs):
        raise ValueError("vector fields live on different grids")
    if not 0 <= M <= J:
        raise ValueError(f"M must be within 0..{J}")
    # pw[i, b] = P^(e_i) of component i of field b
    pw = np.stack([
        _project_stack(np.stack([v.components[i].values for v in vs]), n, J,
                       axis_direction(n, i + 1).index)
        for i in range(n)
    ])
    # both terms of the defect are constant on level-M cells: compare the
    # level-M averages, with the component axis last for the integrands
    ew = np.moveaxis(_block_mean(pw, M, n), 0, -1)
    pw = np.moveaxis(pw, 0, -1)
    return [float((_block_mean(f(pw), M, n) - f(ew)).min()) for f in fs]


# ---------------------------------------------------------------------------
# semicontinuity experiment


def oscillation_sequence(n: int, J: int, r: int) -> VectorField:
    """Compliant sequence member: component i is a zero-mean profile
    oscillating at frequency 2^r in its own coordinate alone, embedded
    exactly (cell averages of sin)."""
    N = 2**J
    comps = []
    for ax in range(n):
        vals1d = sine_cell_averages(N, 2.0 * np.pi * 2**r, 0.0, 0.0, 1.0)
        shape = [1] * n
        shape[ax] = N
        arr = np.broadcast_to(vals1d.reshape(shape), (N,) * n).copy()
        comps.append(GridFunction(n, J, arr))
    return VectorField(comps)


def contrast_sequence(n: int, J: int, r: int) -> VectorField:
    """Deliberate violation: every component oscillates in x_1, so the
    off-diagonal gradient is large.  The amplitudes (1, -1, ...)
    anti-correlate the components, which drives product-type integrands
    strictly below their weak-limit value."""
    N = 2**J
    vals1d = sine_cell_averages(N, 2.0 * np.pi * 2**r, 0.0, 0.0, 1.0)
    arr = np.broadcast_to(vals1d.reshape([N] + [1] * (n - 1)), (N,) * n)
    return VectorField([GridFunction(n, J, arr * (-1.0) ** i) for i in range(n)])


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
    sequence: Callable[[int], VectorField],
) -> list[list[SemicontinuityRow]]:
    """Per integrand f of ``fs``, tabulate I_r = sum f(v_r) phi vol against
    the weak-limit row I_inf = int f(v) phi, v the global means of v_r.  Each
    v_r, its off-diagonal gradient and its weak limit are built once for all
    of ``fs``.

    Sequences whose off-diagonal gradient exceeds 1e-8 are flagged as
    contrast rows rather than rejected.
    """
    if float(phi.values.min()) < 0.0:
        raise ValueError("test function must be nonnegative")
    rows: list[list[SemicontinuityRow]] = [[] for _ in fs]
    vol = phi.cell_volume()
    for r in r_list:
        v = sequence(r)
        if (v.n, v.J) != (phi.n, phi.J):
            raise ValueError("sequence and test function live on different grids")
        a0 = a0_max_entry(v)
        compliant = a0 <= 1e-8
        stacked = v.stacked()
        limit = np.stack([conditional_expectation(c, 0).values for c in v.components], axis=-1)
        for f, f_rows in zip(fs, rows):
            I_r = float((f(stacked) * phi.values).sum() * vol)
            I_inf = float((f(limit) * phi.values).sum() * vol)
            f_rows.append(SemicontinuityRow(f.name, r, I_r, I_inf, a0, compliant))
    return rows
