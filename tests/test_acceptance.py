"""Acceptance criteria: every numbered requirement runs at its stated
tolerance and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest
from fields_oracle import cone_band_field, white_noise
from riesz_oracle import riesz_inverse, riesz_inverse_composite
from sharpness_oracle import engine_coefficient, iter_all

from haarriesz.experiments import decomposition_residuals, interp_ratio_sup, ring_decay_norms
from haarriesz.fields import haar_polynomial, random_field
from haarriesz.fourier import riesz
from haarriesz.grid import Direction, GridFunction
from haarriesz.haar import directional_project, haar_analyze, haar_synthesize
from haarriesz.multiscale import op_norm2_estimate, rearrangement_operator, t_ell_operator
from haarriesz.semiconvexity import (
    contrast_sequence,
    jensen_range_check,
    oscillation_sequence,
    registry_integrands,
    semicontinuity_experiment,
)
from haarriesz.sharpness import (
    DIRECTION_10,
    bessel_lower_bound,
    build_collection,
    f_eps_field,
    gram_norm2,
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
    unit_square_coefficient,
)

D10 = Direction((1, 0))
GROWTH_FLOOR = 2.0**0.1 * 0.7


def report(num: int, name: str, passed: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}: {detail} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert passed, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime limit ({elapsed:.1f}s)"


def test_criterion_1_roundtrip_and_parseval():
    t0 = time.monotonic()
    worst_cell, worst_parseval = 0.0, 0.0
    for n, J in ((1, 6), (2, 5), (3, 4)):
        for i in range(100):
            u = white_noise(n, J, seed=101, index=i)
            c = haar_analyze(u)
            v = haar_synthesize(c)
            worst_cell = max(worst_cell, float(np.abs(v.values - u.values).max()))
            e = u.lp_norm(2) ** 2
            worst_parseval = max(worst_parseval, abs(c.energy() - e) / e)
    elapsed = time.monotonic() - t0
    ok = worst_cell <= 1e-12 and worst_parseval <= 1e-10
    report(1, "Haar round-trip and Parseval", ok,
           f"cell={worst_cell:.2e} parseval={worst_parseval:.2e}", elapsed, 10.0)


def test_criterion_2_riesz_identities():
    t0 = time.monotonic()
    worst_energy = 0.0
    for i in range(100):
        u = random_field(2, 6, seed=102, index=i)
        total = sum(riesz(u, ax).lp_norm(2) ** 2 for ax in (1, 2))
        e = u.lp_norm(2) ** 2
        worst_energy = max(worst_energy, abs(total - e) / e)
    worst_inverse = 0.0
    for i in range(100):
        w = cone_band_field(2, 6, seed=103, index=i, i0=1)
        d = riesz_inverse(w, 1)
        c = riesz_inverse_composite(w, 1)
        worst_inverse = max(worst_inverse, (d - c).lp_norm(2) / d.lp_norm(2))
    elapsed = time.monotonic() - t0
    ok = worst_energy <= 1e-10 and worst_inverse <= 1e-8
    report(2, "Riesz identities", ok,
           f"energy={worst_energy:.2e} inverse-vs-composite={worst_inverse:.2e}", elapsed, 30.0)


def test_criterion_3_decomposition():
    t0 = time.monotonic()
    res, base = decomposition_residuals(2, 7, D10, L_max=4, levels=range(1, 6), seed=0)
    mono = all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))
    rel = res[-1] / base
    elapsed = time.monotonic() - t0
    report(3, "scale decomposition", rel <= 0.05 and mono,
           f"residual={rel:.4f} monotone={mono}", elapsed, 60.0)


def test_criterion_4_tl_decay():
    t0 = time.monotonic()
    m = {ell: op_norm2_estimate(t_ell_operator(2, 7, D10, ell, range(1, 6)), iters=24, seed=0).value
         for ell in range(-4, 5)}
    pos = all(m[ell] <= m[0] * 2.0 ** (-ell / 2.0) * 2.0 for ell in (1, 2, 3, 4))
    neg = all(m[-ell] <= m[-1] * 2.0 ** (-(ell - 1) / 2.0) * 2.0 for ell in (2, 3, 4))
    elapsed = time.monotonic() - t0
    detail = " ".join(f"m({ell})={m[ell]:.4f}" for ell in sorted(m))
    report(4, "scale-slice decay", pos and neg, detail, elapsed, 300.0)


def test_criterion_5_ring_and_rearrangement():
    t0 = time.monotonic()
    rn = ring_decay_norms(2, 7, (3, 4, 5))
    ring_ok = all(rn[l + 1] / rn[l] <= 2.0**-0.5 * 1.5 for l in (3, 4))
    sn = {lam: op_norm2_estimate(rearrangement_operator(2, 7, lam), iters=16, seed=0).value
          for lam in (1, 2, 3)}
    rearr_ok = all(sn[l + 1] / sn[l] <= 2.0**2 * 1.5 for l in (1, 2))
    elapsed = time.monotonic() - t0
    report(5, "ring projection and rearrangement scalings", ring_ok and rearr_ok,
           f"ring={[round(rn[l],4) for l in (3,4,5)]} rearr={[round(sn[l],3) for l in (1,2,3)]}",
           elapsed, 300.0)


def test_criterion_6_interpolatory_ratio():
    t0 = time.monotonic()
    ok = True
    details = []
    for p in (2.0, 3.0, 1.5):
        sup_a = interp_ratio_sup(2, 6, [p], seed=0, count=20)[0]
        sup_b = interp_ratio_sup(2, 7, [p], seed=0, count=20)[0]
        rel = abs(sup_b - sup_a) / sup_a
        ok &= math.isfinite(sup_a) and sup_a > 0 and rel <= 0.2
        details.append(f"p={p}: sup={sup_a:.3f} drift={rel:.3f}")
    elapsed = time.monotonic() - t0
    report(6, "interpolatory ratio", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_7_sharpness_ple2():
    t0 = time.monotonic()
    rows = single_block_experiment_ple2([0.5, 0.25, 0.125], p=1.5, eta=0.1)
    growth_ok = all(b.ratio / a.ratio >= GROWTH_FLOOR for a, b in zip(rows, rows[1:]))
    coef_ok = all(
        abs(unit_square_coefficient(e) - 4.0 * e / math.pi**2) <= 1e-10
        for e in (0.5, 0.25, 0.125)
    )
    elapsed = time.monotonic() - t0
    report(7, "sharpness p<=2 single block", growth_ok and coef_ok,
           f"ratios={[round(r.ratio,4) for r in rows]}", elapsed, 120.0)


def test_criterion_8_sharpness_pge2():
    t0 = time.monotonic()
    # dense checks at eps = 1/2
    eps = 0.5
    f = f_eps_field(eps, 7)
    pf = directional_project(f, DIRECTION_10).lp_norm(2)
    lower_ok = pf >= 0.1 * math.sqrt(eps)
    r_meas = riesz(f, 1).lp_norm(2)
    r_scale = 3.0 * eps * math.sqrt(gram_norm2(eps, "tilde", "exact"))
    riesz_ok = r_meas <= r_scale
    # analytic engine vs dense oracle: every coefficient and the Gram value
    coll = build_collection(eps)
    c = haar_analyze(f)
    coef_err = max(
        abs(engine_coefficient(coll, Q) - c.coefficient(Q, DIRECTION_10) * Q.volume())
        for Q in iter_all(coll)
    )
    from haarriesz.sharpness import dense_lp_norm

    blocks = [coll.block(Q) for Q in iter_all(coll)]
    gram_rel = abs(gram_norm2(eps, "plain", "exact") - dense_lp_norm(blocks, 7, 2.0) ** 2)
    gram_rel /= dense_lp_norm(blocks, 7, 2.0) ** 2
    engine_ok = coef_err <= 1e-6 and gram_rel <= 1e-6
    # ratio growth across eps in sampled mode
    rows = sharpness_experiment_pge2([0.5, 0.25, 0.125], eta=0.1, sample_size=200, seed=0)
    growth_ok = all(b.ratio / a.ratio >= GROWTH_FLOOR for a, b in zip(rows, rows[1:]))
    elapsed = time.monotonic() - t0
    ok = lower_ok and riesz_ok and engine_ok and growth_ok
    report(8, "sharpness p>=2 layered function", ok,
           f"||Pf||={pf:.4f} ||R1f||={r_meas:.4f}<= {r_scale:.4f} coef_err={coef_err:.1e} "
           f"gram_rel={gram_rel:.1e} ratios={[round(r.ratio,4) for r in rows]}",
           elapsed, 600.0)


def test_criterion_9_jensen():
    t0 = time.monotonic()
    regs = registry_integrands()
    worst = math.inf
    for i in range(200):
        v = np.stack(
            [haar_polynomial(2, 4, seed=109, index=2 * i + c, max_level=3).values for c in (0, 1)]
        )
        for M in range(0, 4):
            worst = min(worst, *jensen_range_check(v[None], regs, M))
    elapsed = time.monotonic() - t0
    report(9, "Jensen on the projection range", worst >= -1e-9,
           f"min defect={worst:.2e} over 200x4x4", elapsed, 60.0)


def test_criterion_10_semicontinuity():
    t0 = time.monotonic()
    regs = {f.name: f for f in registry_integrands()}
    phi = GridFunction.constant(2, 8, 1.0)
    r_list = [1, 2, 3, 4, 5]
    compliant_ok = True
    for f in regs.values():
        (rows,) = semicontinuity_experiment([f], phi, r_list,
                                            lambda r: oscillation_sequence(2, 8, r))
        compliant_ok &= all(row.I_r >= row.I_limit - 1e-8 for row in rows)
    (crows,) = semicontinuity_experiment(
        [regs["ab"]], phi, r_list, lambda r: contrast_sequence(2, 8, r)
    )
    violation = max(row.I_limit - row.I_r for row in crows)
    elapsed = time.monotonic() - t0
    report(10, "semicontinuity desk experiment", compliant_ok and violation >= 0.4,
           f"compliant={compliant_ok} contrast violation={violation:.3f}", elapsed, 60.0)
