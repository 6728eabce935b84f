"""Reproducible experiment runner.

Every verification is a subcommand writing ``results.csv`` and
``manifest.json`` into the output directory.  All randomness flows from the
counter-based generator keyed by the mandatory seed, so identical manifests
reproduce identical CSV bytes.  Exit codes: 0 all assertions pass,
2 validation failure, 3 assertion failure, 4 resource-cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .grid import Direction, DyadicCube, GridFunction, all_directions, embed
from .fields import cone_band_field, haar_polynomial, random_field
from .fourier import ResolvingKernel, delta_conv, riesz, riesz_inverse, smoothing_conv
from .haar import (
    bmo_d_norm,
    conditional_expectation,
    directional_project,
    haar_analyze,
    haar_synthesize,
    square_function,
)
from .multiscale import ring_cover, t_ell
from .semiconvexity import (
    VectorField,
    contrast_sequence,
    jensen_range_check,
    oscillation_sequence,
    registry_integrands,
    semicontinuity_experiment,
)
from .experiments import (
    decomposition_residuals,
    interp_ratio_sup,
    rearrangement_norms,
    ring_decay_norms,
    tl_decay_norms,
)
from .sharpness import (
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
    unit_square_coefficient,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3
EXIT_RESOURCE = 4

DEFAULT_CAP_BYTES = 4 * 1024**3


class ValidationError(Exception):
    pass


class ResourceRefusal(Exception):
    pass


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_dyadic(text: str) -> float:
    """Exact dyadic rational: '1/8' or '0.5' with a power-of-two denominator."""
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        num, den = int(num_s), int(den_s)
    else:
        val = float(text)
        num, den = val.as_integer_ratio()
    if den <= 0 or (den & (den - 1)) != 0:
        raise ValidationError(f"{text!r} is not a dyadic rational")
    return num / den


def parse_eps_list(text: str) -> list[float]:
    return [parse_dyadic(tok) for tok in text.split(",") if tok.strip()]


def parse_int_list(text: str) -> list[int]:
    """Either 'a..b' (inclusive range) or comma-separated integers."""
    text = text.strip()
    if ".." in text:
        a_s, b_s = text.split("..", 1)
        a, b = int(a_s), int(b_s)
        if b < a:
            raise ValidationError(f"empty range {text!r}")
        return list(range(a, b + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# ---------------------------------------------------------------------------
# run output


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


class Run:
    def __init__(self, subcommand: str, params: dict, out_dir: Path):
        self.subcommand = subcommand
        self.params = params
        self.out_dir = out_dir
        self.columns: Optional[list[str]] = None
        self.rows: list[list] = []
        self.assertions: list[Assertion] = []
        self.t_start = time.time()

    def set_columns(self, cols: Sequence[str]) -> None:
        self.columns = list(cols)

    def add_row(self, *values) -> None:
        if self.columns is None or len(values) != len(self.columns):
            raise ValueError("row does not match the declared columns")
        self.rows.append(list(values))

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns or [])
        writer.writerows([fmt(v) for v in row] for row in self.rows)
        return buf.getvalue()

    def finish(self) -> int:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        csv_text = self.csv_text()
        (self.out_dir / "results.csv").write_text(csv_text)
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        failed = [a for a in self.assertions if not a.passed]
        manifest = {
            "subcommand": self.subcommand,
            "tool_version": __version__,
            "parameters": {k: self.params[k] for k in sorted(self.params)},
            "started_unix": self.t_start,
            "finished_unix": time.time(),
            "results_digest_sha256": digest,
            "assertions_total": len(self.assertions),
            "assertions_failed": [a.name for a in failed],
        }
        (self.out_dir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        for a in self.assertions:
            status = "PASS" if a.passed else "FAIL"
            print(f"[{status}] {a.name}" + (f" :: {a.detail}" if a.detail else ""))
        print(f"rows={len(self.rows)} assertions={len(self.assertions)} failed={len(failed)}")
        print(f"wrote {self.out_dir / 'results.csv'}")
        if failed:
            print(f"first failure: {failed[0].name} :: {failed[0].detail}", file=sys.stderr)
            return EXIT_ASSERTION
        return EXIT_OK


def enforce_cap(bytes_needed: int, cap: int) -> None:
    if bytes_needed > cap:
        raise ResourceRefusal(
            f"estimated working set {bytes_needed} bytes exceeds cap {cap}; "
            f"lower J or raise --cap-bytes"
        )


def grid_budget(n: int, J: int, copies: int = 96) -> int:
    return 8 * 2 ** (n * J) * copies


# ---------------------------------------------------------------------------
# subcommands


def cmd_tl_decay(args, run: Run) -> None:
    n, J, p, seed = args.n, args.J, args.p, args.seed
    ells = parse_int_list(args.ell)
    enforce_cap(grid_budget(n, J), args.cap_bytes)
    direction = Direction(tuple([1] + [0] * (n - 1)))
    if p == 2.0:
        norms = tl_decay_norms(n, J, direction, ells, iters=args.trials * 3, seed=seed)
    else:
        raise ValidationError("tl-decay measures the p = 2 power-iteration norms")
    run.set_columns(
        ["experiment", "n", "J", "p", "ell_or_lambda", "epsilon_bits", "i0",
         "trials", "seed", "measured", "bound_model", "slack"]
    )
    m0 = norms.get(0)
    m_neg1 = norms.get(-1)
    for ell in ells:
        m = norms[ell]
        if ell > 0 and m0:
            bound = m0 * 2.0 ** (-ell / 2.0)
            slack = m / bound
            model = "m(0)*2^(-ell/2)"
        elif ell < -1 and m_neg1:
            bound = m_neg1 * 2.0 ** (-(abs(ell) - 1) / 2.0)
            slack = m / bound
            model = "m(-1)*2^(-(|ell|-1)/2)"
        else:
            slack = 1.0
            model = "reference"
        run.add_row("tl-decay", n, J, p, ell, str(direction), 1,
                    args.trials, seed, m, model, slack)
        if model != "reference":
            run.check(
                f"tl-decay ell={ell} slack<=: {args.slack}",
                slack <= args.slack,
                f"measured={m:.6f} slack={slack:.4f}",
            )
    # decomposition residual on the standard field
    res, base = decomposition_residuals(n, J, direction, L_max=4, seed=seed)
    run.add_row("tl-decomposition", n, J, p, 4, str(direction), 1,
                args.trials, seed, res[-1] / base, "<=0.05*||Pu||", (res[-1] / base) / 0.05)
    run.check("tl-decomposition residual <= 0.05", res[-1] <= 0.05 * base,
              f"relative={res[-1]/base:.4f}")
    mono = all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))
    run.check("tl-decomposition residual monotone", mono,
              " ".join(f"{r/base:.4f}" for r in res))


def cmd_ring_decay(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    lams = parse_int_list(args.lam) if args.lam else [3, 4, 5]
    enforce_cap(grid_budget(n, J), args.cap_bytes)
    direction = Direction(tuple([1] + [0] * (n - 1)))
    norms = ring_decay_norms(n, J, direction, lams, base_level=1, iters=args.trials * 3, seed=seed)
    run.set_columns(
        ["experiment", "n", "J", "p", "ell_or_lambda", "epsilon_bits", "i0",
         "trials", "seed", "measured", "bound_model", "slack"]
    )
    for lam in lams:
        run.add_row("ring-decay", n, J, 2.0, lam, str(direction), 1,
                    args.trials, seed, norms[lam], "C*2^(-lam/2)", 0.0)
    for lo, hi in zip(lams, lams[1:]):
        ratio = norms[hi] / norms[lo]
        bound = 2.0 ** (-0.5 * (hi - lo)) * args.slack
        run.check(f"ring-decay ratio lam {lo}->{hi}", ratio <= bound,
                  f"ratio={ratio:.4f} bound={bound:.4f}")


def cmd_rearrange(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    lams = parse_int_list(args.lam) if args.lam else [1, 2, 3]
    enforce_cap(grid_budget(n, J, copies=160), args.cap_bytes)
    norms = rearrangement_norms(n, J, lams, iters=max(10, args.trials * 2), seed=seed)
    run.set_columns(
        ["experiment", "n", "J", "p", "ell_or_lambda", "epsilon_bits", "i0",
         "trials", "seed", "measured", "bound_model", "slack"]
    )
    for lam in lams:
        run.add_row("rearrange-scaling", n, J, 2.0, lam, "1" * n, 1,
                    args.trials, seed, norms[lam], "C0*2^(n*lam)", 0.0)
    for lo, hi in zip(lams, lams[1:]):
        ratio = norms[hi] / norms[lo]
        bound = 2.0 ** (n * (hi - lo)) * args.slack
        run.check(f"rearrange growth lam {lo}->{hi}", ratio <= bound,
                  f"ratio={ratio:.4f} bound={bound:.4f}")


def cmd_interp_ratio(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(grid_budget(n, J + 1), args.cap_bytes)
    direction = Direction(tuple([1] + [0] * (n - 1)))
    ps = [float(tok) for tok in args.p_list.split(",")] if args.p_list else [args.p]
    run.set_columns(
        ["experiment", "n", "J", "p", "ell_or_lambda", "epsilon_bits", "i0",
         "trials", "seed", "measured", "bound_model", "slack"]
    )
    for p in ps:
        sup_a, _ = interp_ratio_sup(n, J, p, direction, 1, seed=seed, count=args.trials)
        sup_b, _ = interp_ratio_sup(n, J + 1, p, direction, 1, seed=seed, count=args.trials)
        rel = abs(sup_b - sup_a) / sup_a if sup_a > 0 else 0.0
        regime = "(1/2,1/2)" if p >= 2 else "(1/p,1/q)"
        run.add_row("interp-ratio", n, J, p, 0, str(direction), 1,
                    args.trials, seed, sup_a, f"sup finite, stable {regime}", rel)
        run.add_row("interp-ratio", n, J + 1, p, 0, str(direction), 1,
                    args.trials, seed, sup_b, f"sup finite, stable {regime}", rel)
        run.check(f"interp-ratio p={p} finite", math.isfinite(sup_a) and sup_a > 0,
                  f"sup={sup_a:.4f}")
        run.check(f"interp-ratio p={p} stable under J->J+1", rel <= 0.2,
                  f"rel change={rel:.4f}")


def cmd_sharpness(args, run: Run) -> None:
    eps_list = parse_eps_list(args.eps)
    eta = args.eta
    run.set_columns(
        ["epsilon", "p", "eta", "norm_f", "norm_Rf", "lower_P", "ratio",
         "mode", "J_or_sample_size", "seed"]
    )
    growth_floor = 2.0**eta * 0.7
    if args.regime in ("pge2", "both"):
        enforce_cap(grid_budget(2, 7, copies=64), args.cap_bytes)
        rows = sharpness_experiment_pge2(eps_list, eta, sample_size=args.sample, seed=args.seed)
        for r in rows:
            run.add_row(r.epsilon, r.p, r.eta, r.norm_f, r.norm_Rf, r.lower_P,
                        r.ratio, r.mode, r.detail, r.seed)
        for a, b in zip(rows, rows[1:]):
            g = b.ratio / a.ratio
            run.check(f"pge2 ratio growth eps {a.epsilon}->{b.epsilon}",
                      g >= growth_floor, f"growth={g:.4f} floor={growth_floor:.4f}")
        lead = rows[0]
        run.check("pge2 lower bound >= 0.1*sqrt(eps)",
                  lead.lower_P >= 0.1 * math.sqrt(lead.epsilon),
                  f"L={lead.lower_P:.4f}")
    if args.regime in ("ple2", "both"):
        p = args.p if args.p < 2 else 1.5
        n0_max = max(int(round(-math.log2(e))) for e in eps_list)
        enforce_cap(grid_budget(2, n0_max + 6, copies=64), args.cap_bytes)
        rows = single_block_experiment_ple2(eps_list, p, eta, seed=args.seed)
        for r in rows:
            run.add_row(r.epsilon, r.p, r.eta, r.norm_f, r.norm_Rf, r.lower_P,
                        r.ratio, r.mode, r.detail, r.seed)
        for a, b in zip(rows, rows[1:]):
            g = b.ratio / a.ratio
            run.check(f"ple2 ratio growth eps {a.epsilon}->{b.epsilon}",
                      g >= growth_floor, f"growth={g:.4f} floor={growth_floor:.4f}")
        for e in eps_list:
            c = unit_square_coefficient(e)
            run.check(f"ple2 unit-square coefficient eps={e}",
                      abs(c - 4.0 * e / math.pi**2) <= 1e-10,
                      f"coef={c!r}")


def cmd_jensen(args, run: Run) -> None:
    n, J, seed = args.n, min(args.J, 4), args.seed
    enforce_cap(grid_budget(n, J), args.cap_bytes)
    regs = registry_integrands()
    run.set_columns(
        ["experiment", "f_name", "r", "I_r", "I_limit", "defect_min", "compliant_flag"]
    )
    trials = max(args.trials, 10)
    for f in regs:
        for M in range(0, 4):
            worst = math.inf
            for i in range(trials):
                v = VectorField(
                    [haar_polynomial(n, J, seed, index=1000 * M + 2 * i + c, max_level=J - 1)
                     for c in range(n)]
                )
                worst = min(worst, jensen_range_check(v, f, M))
            run.add_row("jensen", f.name, M, 0.0, 0.0, worst, worst >= -1e-9)
            run.check(f"jensen defect f={f.name} M={M}", worst >= -1e-9,
                      f"min defect={worst:.3e} over {trials} fields")


def cmd_semicontinuity(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(grid_budget(n, J), args.cap_bytes)
    regs = registry_integrands()
    phi = GridFunction.constant(n, J, 1.0)
    r_list = list(range(1, min(J - 2, 6) + 1))
    run.set_columns(
        ["experiment", "f_name", "r", "I_r", "I_limit", "defect_min", "compliant_flag"]
    )
    for f in regs:
        rows = semicontinuity_experiment(f, phi, r_list, lambda r: oscillation_sequence(n, J, r))
        for row in rows:
            run.add_row("semicontinuity", row.f_name, row.r, row.I_r, row.I_limit,
                        row.I_r - row.I_limit, row.compliant)
        worst = min(row.I_r - row.I_limit for row in rows)
        run.check(f"semicontinuity compliant f={f.name}", worst >= -1e-8,
                  f"min(I_r - I_inf)={worst:.3e}")
    f_ab = regs[0]
    crows = semicontinuity_experiment(f_ab, phi, r_list, lambda r: contrast_sequence(n, J, r))
    for row in crows:
        run.add_row("semicontinuity-contrast", row.f_name, row.r, row.I_r, row.I_limit,
                    row.I_r - row.I_limit, row.compliant)
    violation = max(row.I_limit - row.I_r for row in crows)
    run.check("contrast violates by >= 0.4", violation >= 0.4,
              f"violation={violation:.4f}")
    run.check("contrast flagged non-compliant", not any(r.compliant for r in crows), "")


def cmd_selftest(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(grid_budget(n, J), args.cap_bytes)
    run.set_columns(["check", "measured", "expected", "tol", "status"])

    def row(name: str, measured: float, expected: float, tol: float) -> None:
        ok = abs(measured - expected) <= tol
        run.add_row(name, measured, expected, tol, "pass" if ok else "FAIL")
        run.check(name, ok, f"measured={measured!r} expected={expected!r}")

    dirs = all_directions(n)
    # Haar round trip / Parseval on ten fields
    for i in range(10):
        u = random_field(n, J, seed, index=i)
        c = haar_analyze(u)
        v = haar_synthesize(c)
        row(f"roundtrip[{i}]", float(np.abs(v.values - u.values).max()), 0.0, 1e-12)
        e = u.lp_norm(2) ** 2
        row(f"parseval[{i}]", abs(c.energy() - e) / e, 0.0, 1e-10)
    # projections
    u = random_field(n, J, seed, index=100)
    parts = [directional_project(u, d) for d in dirs]
    recon = GridFunction.constant(n, J, u.mean())
    for ppart in parts:
        recon = recon + ppart
    row("projection-reconstruction", float(np.abs(recon.values - u.values).max()), 0.0, 1e-10)
    for a in range(min(3, len(parts))):
        for b in range(a + 1, min(3, len(parts))):
            row(f"projection-orthogonality[{a},{b}]", abs(parts[a].inner(parts[b])), 0.0, 1e-10)
    pp = directional_project(parts[0], dirs[0])
    row("projection-idempotent", (pp - parts[0]).lp_norm(2), 0.0, 1e-10)
    # square function identities
    sq = square_function(u)
    row("square-fn-norm-identity", sq.lp_norm(2) ** 2 - (u.lp_norm(2) ** 2 - u.mean() ** 2), 0.0, 1e-10)
    const = GridFunction.constant(n, J, 3.25)
    row("square-fn-const", square_function(const).lp_norm(2), 0.0, 1e-12)
    # conditional expectation
    em = conditional_expectation(u, 0)
    row("E0-global-mean", float(np.abs(em.values - u.mean()).max()), 0.0, 1e-12)
    row("EJ-identity", (conditional_expectation(u, J) - u).lp_norm(2), 0.0, 0.0)
    e2 = conditional_expectation(conditional_expectation(u, 2), 1)
    row("EM-tower", (e2 - conditional_expectation(u, 1)).lp_norm(2), 0.0, 1e-12)
    # lp norms
    row("lp-const-1", GridFunction.constant(n, J, 1.0).lp_norm(max(1.0, args.p)), 1.0, 1e-12)
    # bmo examples
    row("bmo-const", bmo_d_norm(GridFunction.constant(n, J, -2.0)), 2.0, 1e-12)
    from .fields import single_haar_block

    hb = single_haar_block(n, J, 0, (0,) * n, (1,) + (0,) * (n - 1))
    row("bmo-haar-block", bmo_d_norm(hb), 1.0, 1e-12)
    # embed oracle: sin cell averages against closed form
    two_pi = 2.0 * math.pi
    u_sin = embed(lambda *xs: np.sin(two_pi * xs[0]), n, J, quad_order=5)
    from .profiles import sine_cell_averages

    exact = sine_cell_averages(2**J, two_pi, 0.0, 0.0, 1.0)
    shape = [1] * n
    shape[0] = 2**J
    row("embed-sin-cell-averages", float(np.abs(u_sin.values - exact.reshape(shape)).max()), 0.0, 1e-10)
    # riesz identities
    total = sum(riesz(u, i).lp_norm(2) ** 2 for i in range(1, n + 1))
    row("riesz-energy", (total - u.lp_norm(2) ** 2) / u.lp_norm(2) ** 2, 0.0, 1e-10)
    for i in range(5):
        w = cone_band_field(n, J, seed, index=i, i0=1)
        d_ = riesz_inverse(w, 1, "direct")
        c_ = riesz_inverse(w, 1, "composite")
        row(f"riesz-inverse-modes[{i}]", (d_ - c_).lp_norm(2) / max(d_.lp_norm(2), 1e-30), 0.0, 1e-8)
        row(f"riesz-inverse-identity[{i}]", (riesz_inverse(riesz(w, 1), 1) - w).lp_norm(2), 0.0, 1e-8)
    # resolving kernel invariants
    for s in (1, 2, J - 2):
        kern = ResolvingKernel(n=n, s=s, J=J)
        row(f"kernel-integral[s={s}]", kern.integral(), 0.0, 1e-10)
        for ax, mom in enumerate(kern.first_moments()):
            row(f"kernel-moment[s={s},axis={ax+1}]", mom, 0.0, 1e-8)
    one = GridFunction.constant(n, J, 1.0)
    row("delta-const", delta_conv(one, 1).lp_norm(2), 0.0, 1e-10)
    acc = GridFunction.zeros(n, J)
    for s in range(1, J - 1):
        acc = acc + delta_conv(u, s)
    tele = smoothing_conv(u, 1) - smoothing_conv(u, J - 1)
    row("delta-telescoping", (acc - tele).lp_norm(2), 0.0, 1e-8)
    # t_ell range containment
    tl = t_ell(u, dirs[0], 0, levels=[1, 2], skip_unresolvable=True)
    row("t-ell-range", (directional_project(tl, dirs[0]) - tl).lp_norm(2), 0.0, 1e-10)
    # ring cover example (planar)
    if n == 2:
        cover = ring_cover(DyadicCube(2, 0, (0, 0)), Direction((1, 0)), 3, C=0.5)
        row("ring-cover-40cells", float(len(cover)), 40.0, 0.0)
        measure = sum(E.volume() for E in cover)
        row("ring-cover-measure", measure, 40.0 / 64.0, 1e-12)
        # mother profile integrals
        from .profiles import profile_product_integral, haar_pieces, profile_integral
        from .sharpness import mother_profiles

        m = mother_profiles()
        row("profile-A-mean", profile_integral(list(m.A)), 0.0, 1e-14)
        row("profile-B-mean", profile_integral(list(m.B)), 0.0, 1e-14)
        row("profile-A-vs-haar", profile_product_integral(list(m.A), haar_pieces(0.0, 1.0)),
            2.0 / math.pi, 1e-12)
        row("profile-A-energy", profile_product_integral(list(m.A), list(m.A)), 0.5, 1e-12)
        row("profile-B-energy", profile_product_integral(list(m.B), list(m.B)), 1.0, 1e-12)
        for e in (0.5, 0.25):
            row(f"block-coefficient[eps={e}]", unit_square_coefficient(e), 4.0 * e / math.pi**2, 1e-10)
    # jensen quick cases
    regs = registry_integrands()
    if n == 2:
        v = VectorField([haar_polynomial(2, min(J, 4), seed, index=7, max_level=2),
                         haar_polynomial(2, min(J, 4), seed, index=8, max_level=2)])
        for f in regs[:3]:
            row(f"jensen[{f.name}]", min(jensen_range_check(v, f, 1), 0.0), 0.0, 1e-9)
    # serialization
    blob = u.to_bytes()
    u2 = GridFunction.from_bytes(blob)
    row("serialization-roundtrip", float(np.abs(u2.values - u.values).max()), 0.0, 0.0)


SUBCOMMANDS: dict[str, Callable] = {
    "tl-decay": cmd_tl_decay,
    "ring-decay": cmd_ring_decay,
    "rearrange-scaling": cmd_rearrange,
    "interp-ratio": cmd_interp_ratio,
    "sharpness": cmd_sharpness,
    "jensen": cmd_jensen,
    "semicontinuity": cmd_semicontinuity,
    "selftest": cmd_selftest,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarriesz",
        description="Reproducible verification runner for the dyadic Haar / Riesz workbench.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=2, help="dimension (1..3)")
        p.add_argument("--J", type=int, default=7, help="grid resolution level")
        p.add_argument("--p", type=float, default=2.0, help="Lebesgue exponent")
        p.add_argument("--p-list", type=str, default="", help="comma list of exponents (interp-ratio)")
        p.add_argument("--ell", type=str, default="-4..4", help="scale offsets, 'a..b' or comma list")
        p.add_argument("--lambda", dest="lam", type=str, default="", help="lambda list")
        p.add_argument("--eps", type=str, default="1/2,1/4,1/8", help="dyadic epsilons")
        p.add_argument("--eta", type=float, default=0.1, help="sharpness exponent shift")
        p.add_argument("--trials", type=int, default=8, help="trials / family size / iteration scale")
        p.add_argument("--seed", type=int, default=0, help="seed for the counter-based generator")
        p.add_argument("--out", type=str, default="", help="output directory")
        p.add_argument("--slack", type=float, default=2.0, help="multiplicative slack factor")
        p.add_argument("--cap-bytes", type=int, default=DEFAULT_CAP_BYTES, help="memory cap")
        p.add_argument("--sample", type=int, default=200, help="sampling draws per layer")
        p.add_argument("--regime", type=str, default="both", choices=["pge2", "ple2", "both"],
                       help="sharpness regime")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    if not 1 <= args.n <= 3:
        print("validation: --n must be 1..3", file=sys.stderr)
        return EXIT_VALIDATION
    if args.J < 2 or args.J > 12:
        print("validation: --J must be 2..12", file=sys.stderr)
        return EXIT_VALIDATION
    if args.subcommand in ("ring-decay", "rearrange-scaling") and args.slack == 2.0:
        args.slack = 1.5
    out_dir = Path(args.out) if args.out else Path("runs") / args.subcommand
    params = {
        k: v for k, v in vars(args).items() if k not in ("out",) and v is not None
    }
    run = Run(args.subcommand, params, out_dir)
    try:
        SUBCOMMANDS[args.subcommand](args, run)
    except ValidationError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceRefusal as exc:
        print(f"resource: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())
