"""Per-cell ring projections, the oracle for the index map of
ring_projection_operator.

``covers`` maps each cube Q of a family to its ring cover cells.  The
forward map adds c_Q onto every cover cell of Q, the adjoint sums
c_E |E| / |Q| over the cover of Q, both one cell at a time, and the
validator compares every pair of cover cells of every pair of cubes.
"""

import numpy as np
from projection_oracle import level_sum_by_fields as _level_sum

from haarriesz.haar import level_coefficients
from haarriesz.multiscale import ring_cover


def ring_covers(family, direction, lam):
    return {Q: ring_cover(Q, direction, lam) for Q in family}


def validate_ring_family(covers):
    """Compatibility checks for ring projections; raises naming the
    offending pair:

    - across distinct Q, Q' the covers share no cube;
    - within one cover, cubes are pairwise distinct (same level, hence
      disjoint);
    - strict containment of cover cells implies containment of their bases;
    - intersecting cover cells of nested bases must themselves nest (holds
      automatically for dyadic cells; checked for completeness).
    """
    items = list(covers.items())
    sets = [set(cov) for _, cov in items]
    for a, (Q, cov) in enumerate(items):
        if len(sets[a]) != len(cov):
            raise ValueError(f"cover of {Q} repeats a cell")
        for b in range(a + 1, len(items)):
            Qp, covp = items[b]
            shared = sets[a] & sets[b]
            if shared:
                raise ValueError(f"covers of ({Q}, {Qp}) share cell {next(iter(shared))}")
            for E in cov:
                for Ep in covp:
                    if Ep.contains(E) and E != Ep and not Qp.contains(Q):
                        raise ValueError(
                            f"nesting violation: cover cell of {Q} inside a cover "
                            f"cell of {Qp} but {Q} not inside {Qp}"
                        )
                    if E.contains(Ep) and E != Ep and not Q.contains(Qp):
                        raise ValueError(
                            f"nesting violation: cover cell of {Qp} inside a cover "
                            f"cell of {Q} but {Qp} not inside {Q}"
                        )


def ring_apply(u, covers, direction):
    """S(u) = sum_Q <u, h_Q> g_Q / |Q| over ``covers``."""
    c = {j: level_coefficients(u, j, direction) for j in {Q.j for Q in covers}}
    out = {}
    for Q, cov in covers.items():
        for E in cov:
            if E.j >= u.J:
                raise ValueError(f"cover cell {E} finer than the grid (J={u.J})")
            out.setdefault(E.j, np.zeros((2**E.j,) * u.n))[E.k] += c[Q.j][Q.k]
    return _level_sum(out, direction, u.J)


def ring_adjoint(v, covers, direction):
    """S^* v: per Q, sum_E <v, h_E> / |Q| over the cover of Q."""
    c = {j: level_coefficients(v, j, direction) for j in {E.j for cov in covers.values() for E in cov}}
    out = {}
    for Q, cov in covers.items():
        val = 0.0
        for E in cov:
            val += c[E.j][E.k] * E.volume()
        out.setdefault(Q.j, np.zeros((2**Q.j,) * v.n))[Q.k] += val / Q.volume()
    return _level_sum(out, direction, v.J)
