"""Reproducible experiment runner.

Every verification is a subcommand writing ``results.csv`` and
``manifest.json`` into the output directory.  All randomness flows from the
counter-based generator keyed by the mandatory seed, so identical manifests
reproduce identical CSV bytes.  Exit codes: 0 all assertions pass, 1 internal
error, 2 flag validation failure, 3 assertion failure, 4 resource-cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys
import time
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import __version__
from .grid import Direction, DyadicCube, GridFunction, all_directions, axis_direction
from .fields import haar_polynomials, random_field
from .fourier import ResolvingKernel, delta_conv, riesz, smoothing_conv
from .haar import conditional_expectation, directional_project, haar_analyze, haar_synthesize
from .multiscale import (
    OpNormResult,
    default_levels,
    op_norm2_estimate,
    rearrangement_operator,
    ring_cover,
    slice_window,
    t_ell_operator,
)
from .profiles import haar_pieces, profile_product_integral
from .semiconvexity import (
    contrast_sequence,
    jensen_range_check,
    oscillation_sequence,
    registry_integrands,
    semicontinuity_experiment,
)
from .experiments import decomposition_residuals, interp_ratio_sup, ring_decay_norms
from .sharpness import (
    A_PROFILE,
    B_PROFILE,
    build_collection,
    sharpness_experiment_pge2,
    single_block_experiment_ple2,
    unit_square_coefficient,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3
EXIT_RESOURCE = 4

DEFAULT_CAP_BYTES = 4 * 1024**3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ValidationError(ValueError):
    """A flag value outside its domain (argparse reports it as a usage error)."""


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
    """Strictly decreasing comma-separated dyadic rationals: the growth
    checks compare consecutive values."""
    values = [parse_dyadic(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValidationError("empty list")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"{text!r} is not strictly decreasing")
    return values


def parse_int_list(text: str) -> list[int]:
    """Either 'a..b' (inclusive range) or strictly increasing
    comma-separated integers."""
    text = text.strip()
    if ".." in text:
        a_s, b_s = text.split("..", 1)
        a, b = int(a_s), int(b_s)
        if b < a:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(a, b + 1))
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(f"{text!r} is not strictly increasing")
    return values


def parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _domain(parse: Callable, ok: Callable, what: str) -> Callable:
    """argparse ``type=``: ``parse`` the text, then require ``ok`` of every value."""

    def checked(text: str):
        value = parse(text)
        for v in value if isinstance(value, list) else [value]:
            if not ok(v):
                raise argparse.ArgumentTypeError(f"{v!r} is not {what}")
        return value

    checked.__name__ = parse.__name__
    return checked


def _int_in(lo: int, hi: Optional[int] = None) -> Callable:
    if hi is None:
        return _domain(int, lambda v: v >= lo, f">= {lo}")
    return _domain(int, lambda v: lo <= v <= hi, f"in {lo}..{hi}")


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
        self.cpu_start = time.process_time()

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
        writer.writerows([repr(v) if isinstance(v, float) else str(v) for v in row]
                         for row in self.rows)
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
            # CPU of every thread of the process (BLAS too); above the wall
            # time between the two stamps when threads run in parallel
            "cpu_s": time.process_time() - self.cpu_start,
            # the CPU of every thread before the run began: start-up and imports
            "startup_cpu_s": self.cpu_start,
            # the BLAS thread-count variables of the environment; null when unset
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "results_digest_sha256": digest,
            "assertions_total": len(self.assertions),
            "assertions_failed": [a.name for a in failed],
            # identical CSV bytes are promised only for a fixed numpy FFT;
            # platform.platform() would spawn `uname -p`
            "environment": {"python": platform.python_version(), "numpy": np.__version__,
                            "platform": "-".join((platform.system(), platform.release(),
                                                  platform.machine()))},
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


# what every run holds whatever its grid: the parser, the result rows,
# Run.finish writing the CSV and manifest (a rearrange-scaling --n 2 --J 3
# run peaks at 88 kB before it and 209 kB in it), integrand probes, profile
# tables and ring covers; the traced peak of a selftest at n = 2, J = 4 is
# 0.41 MB
RUN_BASE = 1 << 19


def enforce_cap(compute_bytes: int, cap: int) -> None:
    """Refuse a run whose charge, its subcommand's ``compute_bytes`` plus
    RUN_BASE, exceeds ``cap``."""
    charge = compute_bytes + RUN_BASE
    if charge > cap:
        raise ResourceRefusal(
            f"estimated working set {charge} bytes exceeds cap {cap}; "
            f"lower J or raise --cap-bytes"
        )


# per-call Python objects (dicts, cube lists, 1D tables) that do not scale
# with the grid: ring-decay at n = 1, J = 3 peaks at about 5.1 kB
GRID_BUDGET_BASE = 1 << 13


def grid_budget(n: int, J: int, copies: int) -> int:
    """Working-set estimate: ``copies`` float64 grids of 2^(nJ) cells plus
    GRID_BUDGET_BASE.  Each subcommand's compute term counts the copies its
    run peaks at (tests/test_multiscale.py::TestWorkingSet measures them),
    and enforce_cap adds RUN_BASE to it.  tl-decay holds no level-J grid
    and is charged by tl_decay_budget instead."""
    return 8 * 2 ** (n * J) * copies + GRID_BUDGET_BASE


def tl_decay_budget(n: int, J: int) -> int:
    """cmd_tl_decay's compute term.  Its norms hold one slice's range
    form: the dense complex blocks W_kj, k <= j, 2^(nj) entries each over
    the default window, and up to 8 complex range vectors of sum_j 2^(nj)
    entries (iterates, Gram output and scratch, the start's draw).  Its
    residuals, which run after the norms have let go of theirs, hold up to
    5 float64 copies of the level-(J-1) grid they take ||Pu|| on.  Both
    hold 1D tables of about 64 n J 2^J bytes, which set the peak at n = 1.
    The traced peak of its compute phase is 0.5-0.9 of it
    (tests/test_multiscale.py::TestWorkingSet)."""
    lv = default_levels(J)
    blocks = sum(2 ** (n * j) for k in lv for j in lv if k <= j)
    range_size = sum(2 ** (n * j) for j in lv)
    norms, residuals = 16 * (blocks + 8 * range_size), 5 * 8 * 2 ** (n * (J - 1))
    return max(norms, residuals) + 64 * n * J * 2**J + GRID_BUDGET_BASE


SCALING_COLUMNS = ["experiment", "n", "J", "p", "ell_or_lambda", "epsilon_bits", "i0",
                   "trials", "seed", "measured", "bound_model", "slack",
                   "iterations", "residual", "converged"]
INTEGRAND_COLUMNS = ["experiment", "f_name", "r", "I_r", "I_limit", "defect_min",
                     "compliant_flag"]
# the solver columns of a scaling row that runs no power iteration
NO_SOLVER = (0, 0.0, "")


def solver_columns(r: OpNormResult) -> tuple:
    return r.iterations, r.residual, r.converged


# ---------------------------------------------------------------------------
# subcommands


def cmd_tl_decay(args, run: Run) -> None:
    n, J, p, ells, seed = args.n, args.J, args.p, args.ell, args.seed
    # a slice that keeps no level is the zero operator: its norm would
    # pass every check without measuring anything
    empty = [ell for ell in ells if not slice_window(J, ell)]
    if empty:
        raise ValidationError(f"--ell values {empty} keep no level of the window "
                              f"1..{J - 2} at J={J}")
    enforce_cap(tl_decay_budget(n, J), args.cap_bytes)
    direction = axis_direction(n, 1)
    # every slice starts from the same per-level range draws (_range_draw),
    # so nothing passes between slices
    norms = {ell: op_norm2_estimate(t_ell_operator(n, J, direction, ell), iters=args.trials * 3,
                                    seed=seed) for ell in ells}
    run.set_columns(SCALING_COLUMNS)
    values = {ell: r.value for ell, r in norms.items()}
    m0, m_neg1 = values.get(0), values.get(-1)
    for ell in ells:
        m = values[ell]
        if ell > 0 and m0:
            slack = m / (m0 * 2.0 ** (-ell / 2.0))
            model = "m(0)*2^(-ell/2)"
        elif ell < -1 and m_neg1:
            slack = m / (m_neg1 * 2.0 ** (-(abs(ell) - 1) / 2.0))
            model = "m(-1)*2^(-(|ell|-1)/2)"
        else:
            slack = 1.0
            model = "reference"
        run.add_row("tl-decay", n, J, p, ell, str(direction), 1,
                    args.trials, seed, m, model, slack, *solver_columns(norms[ell]))
        if model != "reference":
            run.check(f"tl-decay ell={ell} slack<=: {args.slack}", slack <= args.slack,
                      f"measured={m:.6f} slack={slack:.4f}")
    # decomposition residual on the standard field; from L = J-1 on it is the
    # truncation floor, its limit as L -> inf
    res, base = decomposition_residuals(n, J, direction, L_max=max(4, J - 1), seed=seed)
    floor, res = res[-1], res[:5]
    run.add_row("tl-decomposition", n, J, p, 4, str(direction), 1,
                args.trials, seed, res[-1] / base, "<=0.05*||Pu||", (res[-1] / base) / 0.05,
                *NO_SOLVER)
    run.add_row("tl-decomposition-floor", n, J, p, J - 1, str(direction), 1,
                args.trials, seed, floor / base, "<=0.05*||Pu||", (floor / base) / 0.05,
                *NO_SOLVER)
    run.check("tl-decomposition residual <= 0.05", res[-1] <= 0.05 * base,
              f"relative={res[-1]/base:.4f}")
    mono = all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))
    run.check("tl-decomposition residual monotone", mono,
              " ".join(f"{r/base:.4f}" for r in res))


def lambda_scaling(args, run: Run, norms: dict, trials: int, bits: str, model: str,
                   rate: float, check: str) -> None:
    """One row per lambda from norms[lam] = (norm, solver columns); each
    consecutive ratio must be <= 2^(rate*step) * slack."""
    lams = getattr(args, "lambda")
    run.set_columns(SCALING_COLUMNS)
    for lam in lams:
        norm, solver = norms[lam]
        run.add_row(run.subcommand, args.n, args.J, 2.0, lam, bits, 1,
                    trials, args.seed, norm, model, 0.0, *solver)
    for lo, hi in zip(lams, lams[1:]):
        ratio = norms[hi][0] / norms[lo][0]
        bound = 2.0 ** (rate * (hi - lo)) * args.slack
        run.check(f"{check} lam {lo}->{hi}", ratio <= bound,
                  f"ratio={ratio:.4f} bound={bound:.4f}")


def cmd_ring_decay(args, run: Run) -> None:
    n, J, lams = args.n, args.J, getattr(args, "lambda")
    if not all(0 <= lam <= J - 2 for lam in lams):
        raise ValidationError(f"--lambda values must lie in 0..J-2 = 0..{J - 2}")
    # exact norms from the cover counts (no iterations: trials reads 0); the
    # cover scan peaks below 8 grids at n = 1, J = 8 and 1.2 grids at n >= 2
    enforce_cap(grid_budget(n, J, copies=16), args.cap_bytes)
    norms = {lam: (v, NO_SOLVER) for lam, v in ring_decay_norms(n, J, lams).items()}
    lambda_scaling(args, run, norms, 0, str(axis_direction(n, 1)), "C*2^(-lam/2)", -0.5,
                   "ring-decay ratio")


def rearrange_budget(n: int, J: int) -> int:
    """cmd_rearrange's compute term: 10 grid copies (6.3-8.2 traced at n = 2, 3
    from J = 7 on); one operator's float64 profile matrices A_j, 2^j x 2^J
    each and at most 2^(J-1) rows, which set the peak at n = 1; 16 arrays
    of 2^J while a row of A_j is built (12-14 traced); 64 KiB of fixed
    objects.  The traced peak is 0.6-0.75 of it at n >= 2."""
    return grid_budget(n, J, copies=10) + 8 * 2**J * (2 ** (J - 1) + 16) + (1 << 16)


def cmd_rearrange(args, run: Run) -> None:
    n, J, lams = args.n, args.J, getattr(args, "lambda")
    if not all(0 <= lam <= J - 1 for lam in lams):
        raise ValidationError(f"--lambda values must lie in 0..J-1 = 0..{J - 1}")
    enforce_cap(rearrange_budget(n, J), args.cap_bytes)
    norms = {}
    for lam in lams:  # one operator is alive at a time
        r = op_norm2_estimate(rearrangement_operator(n, J, lam), iters=args.trials * 2,
                              seed=args.seed)
        norms[lam] = r.value, solver_columns(r)
    lambda_scaling(args, run, norms, args.trials, "1" * n, "C0*2^(n*lam)", n,
                   "rearrange growth")


def interp_ratio_budget(n: int, J: int) -> int:
    """cmd_interp_ratio's compute term: 11 copies of the level-(J+1) grid
    whatever --trials is, since it builds its family one member at a time
    (9.0-9.5 traced from 2^14 cells on)."""
    return grid_budget(n, J + 1, copies=11)


def cmd_interp_ratio(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(interp_ratio_budget(n, J), args.cap_bytes)
    direction = axis_direction(n, 1)
    run.set_columns(SCALING_COLUMNS)
    sups_a = interp_ratio_sup(n, J, args.p_list, seed=seed, count=args.trials)
    sups_b = interp_ratio_sup(n, J + 1, args.p_list, seed=seed, count=args.trials)
    for p, sup_a, sup_b in zip(args.p_list, sups_a, sups_b):
        rel = abs(sup_b - sup_a) / sup_a if sup_a > 0 else 0.0
        regime = "(1/2,1/2)" if p >= 2 else "(1/p,1/q)"
        for level, sup in ((J, sup_a), (J + 1, sup_b)):
            run.add_row("interp-ratio", n, level, p, 0, str(direction), 1,
                        args.trials, seed, sup, f"sup finite, stable {regime}", rel, *NO_SOLVER)
        run.check(f"interp-ratio p={p} finite", math.isfinite(sup_a) and sup_a > 0,
                  f"sup={sup_a:.4f}")
        run.check(f"interp-ratio p={p} stable under J->J+1", rel <= 0.2,
                  f"rel change={rel:.4f}")


def ple2_budget(J: int) -> int:
    """The ple2 compute term at grid level J = n0_max + 6.  The single block
    builds no grid: its one half spectrum is about a grid copy, and its row
    strips and symbol blocks stay below 1 MB at J <= 9 and about 0.05
    copies above (tests/test_multiscale.py::TestWorkingSet)."""
    return grid_budget(2, J, copies=2) + (1 << 20)


def cmd_sharpness(args, run: Run) -> None:
    eps_list, eta = args.eps, args.eta
    if args.regime in ("pge2", "both"):
        for eps in eps_list:
            try:
                build_collection(eps, sampling=True)
            except ValueError as exc:
                raise ValidationError(f"--eps in the pge2 regime: {exc}") from None
    run.set_columns(
        ["epsilon", "p", "eta", "norm_f", "norm_Rf", "lower_P", "ratio",
         "mode", "J_or_sample_size", "seed"]
    )
    growth_floor = 2.0**eta * 0.7

    def add(regime: str, rows: list) -> list:
        for r in rows:
            run.add_row(*astuple(r))
        for a, b in zip(rows, rows[1:]):
            g = b.ratio / a.ratio
            run.check(f"{regime} ratio growth eps {a.epsilon}->{b.epsilon}",
                      g >= growth_floor, f"growth={g:.4f} floor={growth_floor:.4f}")
        return rows

    if args.regime in ("pge2", "both"):
        # the pair terms are chunked; a sampled layer's index arrays hold
        # 16 B per draw
        enforce_cap(grid_budget(2, 7, copies=64) + 16 * args.sample, args.cap_bytes)
        rows = add("pge2", sharpness_experiment_pge2(eps_list, eta, sample_size=args.sample,
                                                     seed=args.seed))
        lead = rows[0]
        run.check("pge2 lower bound >= 0.1*sqrt(eps)",
                  lead.lower_P >= 0.1 * math.sqrt(lead.epsilon),
                  f"L={lead.lower_P:.4f}")
    if args.regime in ("ple2", "both"):
        n0_max = max(int(round(-math.log2(e))) for e in eps_list)
        enforce_cap(ple2_budget(n0_max + 6), args.cap_bytes)
        add("ple2", single_block_experiment_ple2(eps_list, args.p, eta, seed=args.seed))
        for e in eps_list:
            c = unit_square_coefficient(e)
            run.check(f"ple2 unit-square coefficient eps={e}",
                      abs(c - 4.0 * e / math.pi**2) <= 1e-10,
                      f"coef={c!r}")


# jensen_range_check projects its whole batch at once; cmd_jensen hands it
# at most JENSEN_BATCH fields at a time, which peak at about 12 grid copies
# each (tests/test_multiscale.py::TestWorkingSet)
JENSEN_BATCH = 64


def cmd_jensen(args, run: Run) -> None:
    n, J, seed, trials = args.n, args.J, args.seed, args.trials
    enforce_cap(grid_budget(n, J, copies=16 * min(trials, JENSEN_BATCH)), args.cap_bytes)
    run.set_columns(INTEGRAND_COLUMNS)
    regs = registry_integrands()
    worst = {M: [math.inf] * len(regs) for M in range(0, 4)}
    for M in worst:
        for start in range(0, trials, JENSEN_BATCH):
            batch = range(start, min(start + JENSEN_BATCH, trials))
            stack = haar_polynomials(n, J, seed, [1000 * M + 2 * i + c for i in batch
                                                  for c in range(n)], max_level=J - 1)
            defects = jensen_range_check(stack.reshape((len(batch), n) + stack.shape[1:]),
                                         regs, M)
            worst[M] = [min(w, d) for w, d in zip(worst[M], defects)]
    for k, f in enumerate(regs):
        for M in worst:
            w = worst[M][k]
            run.add_row("jensen", f.name, M, 0.0, 0.0, w, w >= -1e-9)
            run.check(f"jensen defect f={f.name} M={M}", w >= -1e-9,
                      f"min defect={w:.3e} over {trials} fields")


def semicontinuity_budget(n: int, J: int) -> int:
    """cmd_semicontinuity's compute term: 10 grid copies (traced: 7.1-7.3 at
    n = 2 from 2^16 cells on, 9.1-9.5 at n = 3 from 2^15)."""
    return grid_budget(n, J, copies=10)


def cmd_semicontinuity(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(semicontinuity_budget(n, J), args.cap_bytes)
    regs = registry_integrands()
    phi = GridFunction.constant(n, J, 1.0)
    r_list = list(range(1, min(J - 2, 6) + 1))
    run.set_columns(INTEGRAND_COLUMNS)
    per_f = semicontinuity_experiment(regs, phi, r_list, lambda r: oscillation_sequence(n, J, r))
    for f, rows in zip(regs, per_f):
        for row in rows:
            run.add_row("semicontinuity", row.f_name, row.r, row.I_r, row.I_limit,
                        row.I_r - row.I_limit, row.compliant)
        worst = min(row.I_r - row.I_limit for row in rows)
        run.check(f"semicontinuity compliant f={f.name}", worst >= -1e-8,
                  f"min(I_r - I_inf)={worst:.3e}")
    (crows,) = semicontinuity_experiment([regs[0]], phi, r_list,
                                         lambda r: contrast_sequence(n, J, r))
    for row in crows:
        run.add_row("semicontinuity-contrast", row.f_name, row.r, row.I_r, row.I_limit,
                    row.I_r - row.I_limit, row.compliant)
    violation = max(row.I_limit - row.I_r for row in crows)
    run.check("contrast violates by >= 0.4", violation >= 0.4,
              f"violation={violation:.4f}")
    run.check("contrast flagged non-compliant", not any(r.compliant for r in crows), "")


def selftest_budget(n: int, J: int) -> int:
    """cmd_selftest's compute term: 24 grid copies (14-21 traced from 2^14
    cells on) and the 1D lag tables and symbols it caches for every scale
    of the telescoping check (16 J 2^J bytes, which set the peak at n = 1)."""
    return grid_budget(n, J, copies=24) + 16 * J * 2**J


def cmd_selftest(args, run: Run) -> None:
    n, J, seed = args.n, args.J, args.seed
    enforce_cap(selftest_budget(n, J), args.cap_bytes)
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
    # conditional expectation
    em = conditional_expectation(u, 0)
    row("E0-global-mean", float(np.abs(em.values - u.mean()).max()), 0.0, 1e-12)
    row("EJ-identity", (conditional_expectation(u, J) - u).lp_norm(2), 0.0, 0.0)
    e2 = conditional_expectation(conditional_expectation(u, 2), 1)
    row("EM-tower", (e2 - conditional_expectation(u, 1)).lp_norm(2), 0.0, 1e-12)
    # lp norms
    row("lp-const-1", GridFunction.constant(n, J, 1.0).lp_norm(2.0), 1.0, 1e-12)
    # riesz energy identity
    total = sum(riesz(u, i).lp_norm(2) ** 2 for i in range(1, n + 1))
    row("riesz-energy", (total - u.lp_norm(2) ** 2) / u.lp_norm(2) ** 2, 0.0, 1e-10)
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
    tl = t_ell_operator(n, J, dirs[0], 0, levels=[1, 2]).apply(u)
    row("t-ell-range", (directional_project(tl, dirs[0]) - tl).lp_norm(2), 0.0, 1e-10)
    # ring cover example (planar)
    if n == 2:
        cover = ring_cover(DyadicCube(2, 0, (0, 0)), Direction((1, 0)), 3)
        row("ring-cover-40cells", float(len(cover)), 40.0, 0.0)
        measure = sum(E.volume() for E in cover)
        row("ring-cover-measure", measure, 40.0 / 64.0, 1e-12)
        # mother profile integrals
        row("profile-A-vs-haar", profile_product_integral(A_PROFILE, haar_pieces(0.0, 1.0)),
            2.0 / math.pi, 1e-12)
        row("profile-A-energy", profile_product_integral(A_PROFILE, A_PROFILE), 0.5, 1e-12)
        row("profile-B-energy", profile_product_integral(B_PROFILE, B_PROFILE), 1.0, 1e-12)
        for e in (0.5, 0.25):
            row(f"block-coefficient[eps={e}]", unit_square_coefficient(e), 4.0 * e / math.pi**2, 1e-10)
    # jensen quick cases
    regs = registry_integrands()
    if n == 2:
        v = haar_polynomials(2, min(J, 4), seed, [7, 8], max_level=2)
        for f, defect in zip(regs[:3], jensen_range_check(v[None], regs[:3], 1)):
            row(f"jensen[{f.name}]", min(defect, 0.0), 0.0, 1e-9)


# ---------------------------------------------------------------------------
# flag table: each subcommand declares the flags its cmd_* reads, as
# (type with domain check, the default it runs)

FLAG_HELP = {
    "--n": "dimension", "--J": "grid resolution level", "--p": "Lebesgue exponent",
    "--p-list": "comma list of exponents", "--ell": "scale offsets, 'a..b' or comma list",
    "--lambda": "levels, 'a..b' or comma list", "--eps": "dyadic epsilons 2^-k",
    "--eta": "sharpness exponent shift", "--trials": "trials / family size / iteration scale",
    "--slack": "multiplicative slack factor", "--sample": "sampling draws per layer",
    "--regime": "sharpness regime", "--seed": "seed of the generator",
    "--out": "output directory", "--cap-bytes": "memory cap",
}
COMMON_FLAGS = {"--seed": (int, 0), "--cap-bytes": (int, DEFAULT_CAP_BYTES)}
DIM = _int_in(1, 3)
SLACK = _domain(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")

SUBCOMMANDS: dict[str, tuple[Callable, dict[str, tuple]]] = {
    "tl-decay": (cmd_tl_decay, {
        "--n": (DIM, 2), "--J": (_int_in(4, 12), 7),
        "--p": (_domain(float, lambda p: p == 2, "2"), 2.0), "--ell": (parse_int_list, "-4..4"),
        "--trials": (_int_in(4), 8), "--slack": (SLACK, 2.0)}),
    "ring-decay": (cmd_ring_decay, {
        "--n": (DIM, 2), "--J": (_int_in(2, 12), 7), "--lambda": (parse_int_list, "3,4,5"),
        "--slack": (SLACK, 1.5)}),
    "rearrange-scaling": (cmd_rearrange, {
        "--n": (DIM, 2), "--J": (_int_in(2, 12), 7), "--lambda": (parse_int_list, "1,2,3"),
        "--trials": (_int_in(5), 8), "--slack": (SLACK, 1.5)}),
    "interp-ratio": (cmd_interp_ratio, {
        "--n": (DIM, 2), "--J": (_int_in(4, 12), 7),
        "--p-list": (_domain(parse_float_list, lambda p: 1 <= p < math.inf, "in [1, inf)"), "2"),
        "--trials": (_int_in(1), 8)}),
    "sharpness": (cmd_sharpness, {
        "--p": (_domain(float, lambda p: 1 < p <= 2, "in (1, 2]"), 1.5),
        "--eps": (_domain(parse_eps_list, lambda e: 0 < e <= 0.5 and math.frexp(e)[0] == 0.5,
                          "2^-k with k >= 1"), "1/2,1/4,1/8"),
        "--eta": (_domain(float, math.isfinite, "finite"), 0.1), "--sample": (_int_in(10), 200),
        "--regime": (_domain(str, lambda r: r in ("pge2", "ple2", "both"), "pge2, ple2 or both"), "both")}),
    "jensen": (cmd_jensen, {"--n": (_int_in(2, 3), 2), "--J": (_int_in(3, 4), 4),
                            "--trials": (_int_in(1), 10)}),
    "semicontinuity": (cmd_semicontinuity, {"--n": (_int_in(2, 3), 2), "--J": (_int_in(3, 12), 7)}),
    "selftest": (cmd_selftest, {"--n": (DIM, 2), "--J": (_int_in(3, 12), 7)}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarriesz",
        description="Reproducible verification runner for the dyadic Haar / Riesz workbench.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        for flag, (type_, default) in {**flags, **COMMON_FLAGS,
                                       "--out": (str, f"runs/{name}")}.items():
            p.add_argument(flag, type=type_, default=default, help=FLAG_HELP[flag])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    params = dict(vars(args))
    name, out = params.pop("subcommand"), params.pop("out")
    run = Run(name, params, Path(out))
    try:
        SUBCOMMANDS[name][0](args, run)
    except ValidationError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceRefusal as exc:
        print(f"resource: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    return run.finish()


if __name__ == "__main__":
    sys.exit(main())
