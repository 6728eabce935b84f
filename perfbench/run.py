"""End-to-end benchmark of the haarriesz verification runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

A closed loop with one job in flight: each job is one ``haarriesz`` CLI
invocation in a fresh child interpreter (so peak RSS and the kernel
``lru_cache`` never carry over), and one pass runs every job of the
workload in order.  Passes repeat while the next one is expected to end
within ``--seconds``; there is always at least one.  The CLI seed is the
benchmark seed, so the same seed gives the same inputs.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` untraced and traced passes alternate
and the last line reports the per-layer metrics (medians over traced
passes) and ``trace.overhead_s``.

Correctness is checked after the timed loop: every job's exit code,
manifest and CSV digest; identical CSV bytes across passes (traced or not);
and an independent re-check of README criteria 1-2 on the workload's
generated fields and of the resolving kernel (``verify.py``).  Every job
and every assertion the program itself ran (from its manifest) counts in
``attempted``.  A job or check that fails counts in ``failed``, and so does
a failed program assertion, unless the workload declares it as a known
failure of this program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_DEADLINE_S = 160.0  # every job is killed past this; the run must end by 180 s
VERIFY_MIN_S = 10.0
SETUP_PROBES = 7
CLI_EXIT_OK, CLI_EXIT_ASSERTION = 0, 3

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    jobs: tuple[tuple[str, ...], ...]
    grids: tuple[str, ...]  # n:J grids re-checked by verify.py
    # program assertions that fail at the seed commit; reported, not counted as failed
    known_failures: frozenset[str] = frozenset()


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "slices": Workload(
        (("tl-decay", "--n", "2", "--J", "8", "--ell=-4..4"),),
        ("2:8",),
    ),
    "slices-3d": Workload(
        (("tl-decay", "--n", "3", "--J", "6", "--ell=-1..1", "--trials", "4"),),
        ("3:6",),
        # the relative residual is 0.056-0.059 on every seed tried; "monotone"
        # fails on some seeds only
        frozenset({"tl-decomposition residual <= 0.05", "tl-decomposition residual monotone"}),
    ),
    "operators": Workload(
        (("rearrange-scaling", "--n", "2", "--J", "7", "--lambda", "1,2,3"),
         ("ring-decay", "--n", "2", "--J", "7", "--lambda", "3,4,5")),
        ("2:7",),
    ),
    "analytic": Workload(
        (("sharpness", "--regime", "both"),
         ("interp-ratio", "--J", "6", "--p-list", "2,3,1.5"),
         ("jensen", "--J", "4", "--trials", "50"),
         ("semicontinuity", "--J", "8")),
        ("2:6", "2:8"),
    ),
}


def _flag(args: tuple[str, ...], name: str, default: int) -> int:
    return int(args[args.index(name) + 1]) if name in args else default


@dataclass
class Job:
    args: tuple[str, ...]
    out: Path
    traced: bool
    child_exit: int = -1
    cpu_s: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Pass:
    traced: bool
    jobs: list[Job]
    wall_s: float = 0.0

    @property
    def cpu_s(self) -> float:
        return sum(j.cpu_s for j in self.jobs)

    @property
    def rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)


@dataclass
class Outcome:
    """What a job left behind, checked after the timed loop."""
    ok: bool
    reason: str = ""
    checks_total: int = 0
    digest: str = ""
    csv_bytes: int = 0
    failed_names: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc)
    return env


def wait_child(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` and return its own rusage; kill it at ``deadline``."""
    killer = threading.Timer(max(deadline - time.perf_counter(), 0.1), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def setup_probe(env: dict[str, str], deadline: float) -> float:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--probe"], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(deadline - start, 0.1), check=True)
    return float(proc.stdout.strip()) - start


def run_pass(workload: Workload, seed: int, tag: str, traced: bool, env: dict[str, str],
             deadline: float) -> Pass:
    jobs = []
    for i, args in enumerate(workload.jobs):
        out = OUT / "jobs" / f"{tag}-{i}"
        out.mkdir(parents=True)
        jobs.append(Job(args, out, traced))
    start = time.perf_counter()
    for job in jobs:
        argv = [sys.executable, str(HERE / "child.py"), str(job.out / "status.json"),
                str(job.out / "spans.json") if traced else "-", "--",
                *job.args, "--seed", str(seed), "--out", str(job.out)]
        with open(job.out / "log.txt", "wb") as log:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
            usage = wait_child(proc, deadline)
        job.child_exit = proc.returncode
        job.cpu_s = usage.ru_utime + usage.ru_stime
        job.rss_mb = usage.ru_maxrss / 1024.0
    return Pass(traced, jobs, time.perf_counter() - start)


def check_job(job: Job, seed: int) -> Outcome:
    if job.child_exit != 0:
        return Outcome(False, f"child exited {job.child_exit} (see {job.out / 'log.txt'})")
    try:
        status = json.loads((job.out / "status.json").read_text())
        manifest = json.loads((job.out / "manifest.json").read_text())
        csv_bytes = (job.out / "results.csv").read_bytes()
    except (OSError, ValueError) as exc:
        return Outcome(False, f"missing or unreadable output: {exc}")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    params = manifest.get("parameters", {})
    failed = manifest.get("assertions_failed", [])
    total = manifest.get("assertions_total", 0)
    rows = csv_bytes.decode().splitlines()
    problems = []
    if status["exit"] not in (CLI_EXIT_OK, CLI_EXIT_ASSERTION):
        problems.append(f"CLI exit {status['exit']}")
    if (status["exit"] == CLI_EXIT_ASSERTION) != bool(failed):
        problems.append("exit code disagrees with the manifest's failed assertions")
    if manifest.get("subcommand") != job.args[0]:
        problems.append(f"manifest subcommand {manifest.get('subcommand')!r}")
    if params.get("seed") != seed:
        problems.append(f"manifest seed {params.get('seed')!r} != {seed}")
    for flag in ("--n", "--J"):
        if flag in job.args and params.get(flag[2:]) != _flag(job.args, flag, 0):
            problems.append(f"manifest {flag[2:]}={params.get(flag[2:])!r}")
    if manifest.get("results_digest_sha256") != digest:
        problems.append("results.csv does not match the manifest digest")
    if total < 1 or len(failed) > total:
        problems.append(f"assertion counts total={total} failed={len(failed)}")
    if len(rows) < 2:
        problems.append("results.csv has no data rows")
    return Outcome(not problems, "; ".join(problems), total, digest, len(csv_bytes), list(failed))


def tally(workload: Workload, passes: list[Pass],
          outcomes: list[list[Outcome]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every job of every pass: one
    operation per job and one per program assertion it ran."""
    attempted = failed = 0
    problems = []
    for i in range(len(workload.jobs)):
        digests = {o[i].digest for o in outcomes if o[i].ok}
        for p, o in zip(passes, outcomes):
            job, outcome = p.jobs[i], o[i]
            label = " ".join(job.args)
            attempted += 1 + outcome.checks_total
            if not outcome.ok:
                failed += 1
                problems.append(f"{label}: {outcome.reason}")
            elif len(digests) > 1:
                failed += 1
                problems.append(f"{label}: results.csv differs between passes"
                                f"{' (traced)' if job.traced else ''}")
            unexpected = [n for n in outcome.failed_names if n not in workload.known_failures]
            failed += len(unexpected)
            problems += [f"{label}: program assertion failed: {n}" for n in unexpected]
    return attempted, failed, problems


def load_spans(p: Pass) -> tuple[list, dict[str, int]]:
    """Spans of every job in a pass, renumbered into one id space."""
    spans, counts = [], {}
    for job in p.jobs:
        blob = json.loads((job.out / "spans.json").read_text())
        base = len(spans)
        for sid, parent, name, start, end, extra in blob["spans"]:
            spans.append((sid + base, parent + base if parent >= 0 else -1, name, start, end, extra))
        for k, v in blob["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return spans, counts


def verify_fields(workload: Workload, seed: int, env: dict[str, str], deadline: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(HERE / "verify.py"), str(seed), *workload.grids],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), VERIFY_MIN_S))
    except subprocess.TimeoutExpired:
        return {"checks": 1, "failures": ["verify.py timed out"], "env": {}}
    if proc.returncode != 0:
        return {"checks": 1, "failures": [f"verify.py exited {proc.returncode}: {proc.stderr[-400:]}"],
                "env": {}}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end_metrics(untraced: list[Pass], setup: list[float],
                       checks_total: list[int]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of BENCHMARK.json from the untraced passes."""
    walls = [p.wall_s for p in untraced]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s_max": (max(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in untraced), "MB"),
        "cpu_s": (statistics.median(p.cpu_s for p in untraced), "s"),
        "checks_total": (statistics.median(checks_total), "count"),
    }


def per_layer_metrics(passes: list[Pass], outcomes: list[list[Outcome]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (medians over the traced passes) and the tracing
    overhead, traced minus untraced median pass wall time."""
    per_pass = []
    for p, o in zip(passes, outcomes):
        if p.traced:
            spans, counts = load_spans(p)
            counts["cli.csv_bytes"] = sum(x.csv_bytes for x in o)
            counts["cli.checks_failed"] = sum(len(x.failed_names) for x in o)
            per_pass.append(tracer.layer_metrics(spans, counts))
    values = {name: statistics.median(m[name] for m in per_pass) for name, *_ in tracer.LAYER_METRICS}
    values["trace.overhead_s"] = (statistics.median(p.wall_s for p in passes if p.traced)
                                  - statistics.median(p.wall_s for p in passes if not p.traced))
    return {name: (values[name], unit) for name, unit, _, _ in tracer.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "haarriesz" / "__init__.py").is_file():
        print(f"perfbench: no haarriesz sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    for job in workload.jobs:
        # n=3, J>=7 passes the CLI's --cap-bytes guard but needs about 16 GB
        if _flag(job, "--n", 2) == 3 and _flag(job, "--J", 7) >= 7:
            parser.error(f"refusing n=3, J>=7 job {' '.join(job)}")
    traced_run = bool(args.trace)
    env = child_env()
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_DEADLINE_S
    shutil.rmtree(OUT, ignore_errors=True)

    setup = [] if traced_run else [setup_probe(env, deadline) for _ in range(SETUP_PROBES)]

    passes: list[Pass] = []
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        n = len(passes)
        if traced_run:
            passes.append(run_pass(workload, args.seed, f"p{n}", False, env, deadline))
            passes.append(run_pass(workload, args.seed, f"p{n + 1}", True, env, deadline))
        else:
            passes.append(run_pass(workload, args.seed, f"p{n}", False, env, deadline))
        now = time.perf_counter()
        last = now - round_start
        if (now - loop_start) + last > args.seconds or now + last > deadline:
            break

    # ---- correctness, outside the timed loop
    outcomes = [[check_job(job, args.seed) for job in p.jobs] for p in passes]
    attempted, failed, problems = tally(workload, passes, outcomes)
    check = verify_fields(workload, args.seed, env, deadline)
    attempted += check["checks"]
    failed += len(check["failures"])
    problems += check["failures"]

    untraced = [p for p in passes if not p.traced]
    per_pass_total = [sum(x.checks_total for x in o) for o in outcomes]
    checks_failed = max(sum(len(x.failed_names) for x in o) for o in outcomes)
    failed_names = sorted({name for o in outcomes for x in o for name in x.failed_names})

    if traced_run:
        metrics = per_layer_metrics(passes, outcomes)
    else:
        metrics = end_to_end_metrics(untraced, setup, per_pass_total)

    moves = {name: m for name, _, _, m in tracer.LAYER_METRICS}
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(passes) - len(untraced)} traced, "
          f"{len(workload.jobs)} job(s) each, closed loop, 1 job in flight")
    print("env " + " ".join(f"{k}={v}" for k, v in check["env"].items()))
    print("pass wall_s " + " ".join(f"{p.wall_s:.3f}{'(traced)' if p.traced else ''}" for p in passes))
    for name, (value, unit) in metrics.items():
        note = f"  -> moves {moves[name]}" if name in moves else ""
        if name == "wall_s_max":
            note = f"  (p100 of {len(untraced)} passes)"
        print(f"  {name:<40} {value:>16.6g} {unit}{note}")
    known = [n for n in failed_names if n in workload.known_failures]
    print(f"  program assertions: {per_pass_total[0]} per pass, {checks_failed} failed"
          + (f" ({', '.join(failed_names)})" if failed_names else "")
          + (f"; known failures, not counted in failed: {', '.join(known)}" if known else ""))
    for problem in problems:
        print(f"FAILED: {problem}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  env=check["env"], checks_failed=checks_failed, failed_assertions=failed_names,
                  passes=len(passes), elapsed_s=time.perf_counter() - t_begin)
    (OUT / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
