"""Field-side power iteration, the oracle for the range-side
op_norm2_estimate; the slice-by-slice field sum, the oracle for the
closed-form decomposition residuals; and those residuals folded from the
grid's full spectrum, the oracle for their mode-list form.  The first two
run t_ell_operator's grid-space apply and adjoint (one resolving
convolution and one Haar pickup per level), which are the definition of
T_ell and need no oracle of their own.
"""

import math

import numpy as np

from haarriesz.fields import standard_random_field, stream
from haarriesz.fourier import beta_factor
from haarriesz.grid import GridFunction, dot
from haarriesz.haar import directional_project
from haarriesz.multiscale import (
    OpNormResult,
    _fold,
    _haar_factor,
    _window,
    default_levels,
    t_ell_operator,
)


def field_op_norm2_estimate(op, n, J, iters=20, seed=0, tol=1e-4):
    """Power iteration on the field side, v -> N v / ||N v|| with
    N = op.normal_apply, from op_norm2_estimate's start vector: the oracle
    for its range-side iteration (same Rayleigh sequence, residual and flag
    in exact arithmetic)."""
    rng = stream(seed, 4, n, J)
    v = GridFunction(n, J, rng.standard_normal((2**J,) * n))
    v = v * (1.0 / v.lp_norm(2))
    history = []
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


def field_decomposition_residuals(n, J, direction, L_max, levels=None, seed=0):
    """decomposition_residuals by summing the fields t_ell_operator(ell).apply(u)
    for |ell| <= L and measuring P u minus the sum: one FFT pair per slice."""
    lv = default_levels(J) if levels is None else list(levels)
    u = standard_random_field(n, J, seed)
    target = directional_project(u, direction, lv)
    acc = GridFunction.zeros(n, J)
    residuals = []
    for L in range(L_max + 1):
        for ell in [0] if L == 0 else [-L, L]:
            acc = acc + t_ell_operator(n, J, direction, ell, lv).apply(u)
        residuals.append((target - acc).lp_norm(2))
    return residuals, target.lp_norm(2)


def grid_slice_sum_residuals(u, direction, orders, levels):
    """multiscale.slice_sum_residuals for a grid field u: the same Parseval
    sums, with every level-j fold taken over the rfftn half spectrum of the
    whole grid (multiscale._fold) as a full (2^j,)*n array."""
    n, J = u.n, u.J
    spec = np.fft.rfftn(u.values, axes=tuple(range(n)))
    squares = [0.0] * len(orders)
    for j in _window(J, levels):
        g = np.conj([_haar_factor(J, j, b) for b in direction.bits])
        folds = {}

        def fold(s):
            if s not in folds:
                f = g if s is None else g * beta_factor(s, J)
                folds[s] = _fold(spec, f[np.newaxis], 2**j) * 2.0 ** (-n * (2 * J - j))
            return folds[s]

        for k, L in enumerate(orders):
            y = fold(None) - fold(min(J - 1, j + L + 1)) + fold(max(0, j - L))
            squares[k] += dot(y.view(np.float64), y.view(np.float64))
    return [math.sqrt(x) for x in squares]
