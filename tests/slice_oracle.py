"""Grid-space scale slices, the oracle for the Fourier-coordinate T_ell.

T_ell = -sum_j P_j^(eps) Delta_{j+ell} and its adjoint
-sum_j Delta_{j+ell} P_j^(eps), with P_j^(eps) = level_field o
level_coefficients and Delta_s = delta_conv: one rfftn/irfftn pair and one
block-mean pickup per level.  ``levels`` must be resolvable at every level.
"""

from haarriesz.fourier import delta_conv
from haarriesz.grid import GridFunction
from haarriesz.haar import level_coefficients, level_field


def _pick(u, j, direction):
    return level_field(level_coefficients(u, j, direction), direction, u.J)


def grid_t_ell(u, direction, ell, levels):
    acc = GridFunction.zeros(u.n, u.J)
    for j in levels:
        acc = acc - _pick(delta_conv(u, j + ell), j, direction)
    return acc


def grid_t_ell_adjoint(v, direction, ell, levels):
    acc = GridFunction.zeros(v.n, v.J)
    for j in levels:
        acc = acc - delta_conv(_pick(v, j, direction), j + ell)
    return acc
