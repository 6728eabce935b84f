"""Field-side power iteration, the oracle for the range-side
op_norm2_estimate; and the slice-by-slice field sum, the oracle for the
closed-form decomposition residuals.  Both run t_ell_operator's grid-space
apply and adjoint (one resolving convolution and one Haar pickup per
level), which are the definition of T_ell and need no oracle of their own.
"""

import math

from haarriesz.fields import standard_random_field, stream
from haarriesz.grid import GridFunction
from haarriesz.haar import directional_project
from haarriesz.multiscale import OpNormResult, default_levels, t_ell_operator


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
