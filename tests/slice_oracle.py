"""Field-side power iteration, the oracle for the range-side
op_norm2_estimate, with the field its range start stands for; the grid
fold of a half spectrum onto level cosets, and with it the range image of
a field, the oracle for the range form of T_ell; the slice-by-slice field
sum, the oracle for the closed-form decomposition residuals; and those
residuals folded from the grid's full spectrum, or summed in longdouble,
the oracles for their mode-list form.  The field-side loops run
t_ell_operator's grid-space apply and adjoint (one resolving convolution
and one Haar pickup per level), which are the definition of T_ell and need
no oracle of their own.
"""

import math

import numpy as np
from projection_oracle import level_sum_by_fields, project_by_pyramid

from haarriesz.fields import standard_random_field
from haarriesz.fourier import beta_complement, beta_factor, resolvable
from haarriesz.grid import GridFunction, dot
from haarriesz.multiscale import (
    OpNormResult,
    _haar_factor,
    _level_modes,
    _range_draw,
    _slice_levels,
    _window,
    default_levels,
    t_ell_operator,
)


def field_op_norm2_estimate(op, start, iters=20, tol=1e-4):
    """Power iteration on the field side, v -> N v / ||N v|| with
    N = op.normal_apply, from the unit field along ``start``: the oracle
    for op_norm2_estimate's range-side iteration (same Rayleigh sequence,
    residual and flag in exact arithmetic when ``start`` is op^T z for the
    form's draw z)."""
    norm = start.lp_norm(2)
    v = start * (1.0 / norm) if norm > 0.0 else start
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
    target = project_by_pyramid(u, direction, lv)
    acc = GridFunction.zeros(n, J)
    residuals = []
    for L in range(L_max + 1):
        for ell in [0] if L == 0 else [-L, L]:
            acc = acc + t_ell_operator(n, J, direction, ell, lv).apply(u)
        residuals.append((target - acc).lp_norm(2))
    return residuals, target.lp_norm(2)


def range_start_field(n, J, direction, seed):
    """The level field sum_j sum_Q Z_j(Q) h_Q^(eps) over every level
    0..J-1 whose coefficients the range starts draw (multiscale._range_draw).
    The adjoints of T_ell and of the rearrangement read only their own
    window's levels, so op.adjoint of this field is op^T z for the draw z
    of any window, and the range start is op v_0 for v_0 along it."""
    return level_sum_by_fields({j: _range_draw(n, J, j, seed) for j in range(J)}, direction, J)


def _on_axis(blocks, ax, n):
    """Per-term factor blocks (terms, ...) shaped to broadcast against a
    (terms, d_0, .., d_{n-1}) array whose axis ax is split as blocks[0]."""
    return blocks.reshape(blocks.shape[:1] + (1,) * ax + blocks.shape[1:] + (1,) * (n - 1 - ax))


def fold(spec, f, M):
    """Coset fold F(eta) = sum_{xi = eta mod M} m(xi) spec(xi) on Z_M^n, as a
    full (M,)*n array, of the rfftn half spectrum ``spec`` of a real field
    against the Hermitian separable sum m = sum_q f[q, 0] x .. x f[q, n-1]
    (1D factors over the N frequencies of the FFT layout).  Axes fold one
    at a time (the first for every term in one batched product); the last,
    held as its N/2+1 nonnegative frequencies, is completed by the symmetry
    half(-eta', -xi_n) = conj half(eta', xi_n) once the others are folded."""
    T, n, N = f.shape
    w, H = N // M, N // 2 + 1
    blocks = f.reshape(T, n, w, M)
    x, first = spec[np.newaxis], 0
    if n > 1:
        x = np.matmul(blocks[:, 0].transpose(2, 0, 1), spec.reshape(w, M, -1).transpose(1, 0, 2))
        x, first = x.transpose(1, 0, 2).reshape((T, M) + spec.shape[1:]), 1
    for ax in range(first, n - 1):
        sh = x.shape
        x = x.reshape(sh[: ax + 1] + (w, M) + sh[ax + 2:]) * _on_axis(blocks[:, ax], ax, n)
        x = x.sum(axis=ax + 1)
    half = (x * _on_axis(f[:, -1, :H], n - 1, n)).sum(axis=0)
    mirror = np.conj(half[..., N // 2 - 1: 0: -1])
    for ax in range(n - 1):
        mirror = mirror.take(-np.arange(M) % M, axis=ax)
    full = np.concatenate([half, mirror], axis=-1)
    return full.reshape(full.shape[:-1] + (w, M)).sum(axis=-2)


def range_image(v, direction, ell, levels=None):
    """T_ell v in the range coordinates of its range form, by Poisson
    summation from the rfftn of v: block j is 2^(-nJ) sqrt(c_j)
    fold(a_j v^) (multiscale._slice_gram), for the levels of ``levels``
    (default window) that t_ell_operator keeps."""
    n, J = v.n, v.J
    window = default_levels(J) if levels is None else levels
    lv = _window(J, [j for j in window if resolvable(j + ell, J)])
    spec = np.fft.rfftn(v.values, axes=tuple(range(n)))
    blocks = [fold(spec, a, M) * (2.0 ** (-n * J) * math.sqrt(c))
              for M, c, a in _slice_levels(J, direction, ell, lv)]
    return np.concatenate([b.ravel() for b in blocks])


def grid_slice_sum_residuals(u, direction, orders, levels):
    """multiscale.slice_sum_residuals for a grid field u: the same Parseval
    sums, with every level-j fold taken over the rfftn half spectrum of the
    whole grid (fold) as a full (2^j,)*n array."""
    n, J = u.n, u.J
    spec = np.fft.rfftn(u.values, axes=tuple(range(n)))
    squares = [0.0] * len(orders)
    for j in _window(J, levels):
        g = np.conj([_haar_factor(J, j, b) for b in direction.bits])
        folds = {}

        def scale_fold(s):
            if s not in folds:
                f = g if s is None else g * beta_factor(s, J)
                folds[s] = fold(spec, f[np.newaxis], 2**j) * 2.0 ** (-n * (2 * J - j))
            return folds[s]

        for k, L in enumerate(orders):
            y = scale_fold(None) - scale_fold(min(J - 1, j + L + 1)) + scale_fold(max(0, j - L))
            squares[k] += dot(y.view(np.float64), y.view(np.float64))
    return [math.sqrt(x) for x in squares]


def longdouble_slice_sum_residuals(J, modes, spectrum, direction, orders, levels):
    """multiscale.slice_sum_residuals with the same per-axis symbols
    (beta_factor and beta_complement, float64) and the same sums run in
    longdouble: the products over the axes, the per-mode weights, the
    scatter-adds onto the cosets and the Parseval sums."""
    n, ld = direction.n, np.longdouble
    at = modes % 2**J

    def end(s):
        h, d = beta_factor(s, J)[at].astype(ld), beta_complement(s, J, at).astype(ld)
        prod, comp = h[:, 0], d[:, 0]
        for i in range(1, n):
            comp, prod = comp + prod * d[:, i], prod * h[:, i]
        return prod, comp

    squares = [ld(0)] * len(orders)
    for j in _window(J, levels):
        coset, w = _level_modes(J, j, direction, modes, spectrum)
        wr, wi = w.real.astype(ld), w.imag.astype(ld)
        for k, L in enumerate(orders):
            r = end(min(J - 1, j + L + 1))[1] + end(max(0, j - L))[0]
            yr, yi = np.zeros(coset.max() + 1, ld), np.zeros(coset.max() + 1, ld)
            np.add.at(yr, coset, wr * r)
            np.add.at(yi, coset, wi * r)
            squares[k] += (yr * yr).sum() + (yi * yi).sum()
    return [np.sqrt(x) for x in squares]
