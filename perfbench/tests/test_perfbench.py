"""Tests of the benchmark itself: self-time arithmetic, tracing
transparency, and the metric names it emits."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_on_synthetic_span_tree():
    spans = [
        (0, -1, "cli", 0.0, 10.0, None),
        (1, 0, "haar.analyze", 1.0, 4.0, {"points": 64}),
        (2, 0, "fourier.fft", 4.5, 6.0, {"points": 100}),
        (3, 0, "haar.analyze", 8.0, 9.0, {"points": 64}),
        (4, 1, "fourier.fft", 2.0, 2.5, {"points": 28}),
        (5, 2, "grid.lp_norm", 5.0, 5.5, None),
    ]
    assert tracer.self_times(spans) == {0: 4.5, 1: 2.5, 2: 1.0, 3: 1.0, 4: 0.5, 5: 0.5}
    m = tracer.layer_metrics(spans, {"profiles.integrate_product.calls": 7})
    assert m["cli.self_s"] == 4.5
    assert m["haar.analyze.calls"] == 2 and m["haar.analyze.self_s"] == 3.5
    assert m["haar.analyze.points"] == 128
    assert m["fourier.fft.calls"] == 2 and m["fourier.fft.self_s"] == 1.5
    assert m["fourier.fft.bytes"] == 128 * tracer.FFT_BYTES_PER_POINT
    assert m["grid.lp_norm.self_s"] == 0.5
    assert m["profiles.integrate_product.calls"] == 7
    assert m["multiscale.op_norm.converged_ratio"] == 0.0


def test_failed_program_assertions_count_unless_known():
    workload = run.Workload((("tl-decay",),), (), frozenset({"residual <= 0.05"}))
    passes = [run.Pass(False, [run.Job(("tl-decay",), Path("."), False)]) for _ in range(2)]
    known = run.Outcome(True, checks_total=3, digest="d", failed_names=["residual <= 0.05"])
    new = run.Outcome(True, checks_total=3, digest="d",
                      failed_names=["residual <= 0.05", "slack <= 1.5"])
    attempted, failed, problems = run.tally(workload, passes, [[known], [known]])
    assert (attempted, failed, problems) == (8, 0, [])
    attempted, failed, problems = run.tally(workload, passes, [[known], [new]])
    assert (attempted, failed) == (8, 1)
    assert problems == ["tl-decay: program assertion failed: slack <= 1.5"]


def test_wrap_records_parents_and_skips_same_layer_nesting():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    inner = t.wrap("grid.lp_norm", leaf)
    nested = t.wrap("haar.analyze", lambda x: inner(x) * 2)
    outer = t.wrap("haar.analyze", lambda x: nested(x))  # same layer: one span
    root = t.wrap("cli", lambda x: outer(x), extras=lambda a, r: {"points": r})
    assert root(1) == 4
    spans = sorted(t.spans, key=lambda s: s[0])
    assert [(s[0], s[1], s[2]) for s in spans] == [
        (0, -1, "cli"), (1, 0, "haar.analyze"), (2, 1, "grid.lp_norm")]
    assert spans[0][5] == {"points": 4}
    assert all(s[3] < s[4] for s in spans)


def _cli_job(tmp: Path, traced: bool, args: list[str]) -> Path:
    out = tmp / ("traced" if traced else "plain")
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(BENCH / "child.py"), str(out / "status.json"),
            str(out / "spans.json") if traced else "-", "--", *args, "--out", str(out)]
    subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)
    return out


def test_tracing_is_transparent(tmp_path):
    for k, args in enumerate([
        ["tl-decay", "--n", "2", "--J", "5", "--ell=-1..1", "--trials", "4", "--seed", "3"],
        ["rearrange-scaling", "--n", "2", "--J", "4", "--lambda", "1,2", "--seed", "3"],
    ]):
        case = tmp_path / str(k)
        case.mkdir()
        plain = _cli_job(case, False, args)
        traced = _cli_job(case, True, args)
        digests = {hashlib.sha256((d / "results.csv").read_bytes()).hexdigest()
                   for d in (plain, traced)}
        assert len(digests) == 1
        blob = json.loads((traced / "spans.json").read_text())
        metrics = tracer.layer_metrics([tuple(s) for s in blob["spans"]], blob["counts"])
        assert metrics["haar.analyze.calls"] > 0 and metrics["multiscale.op_norm.calls"] > 0
        assert list(metrics) == [name for name, *_ in tracer.LAYER_METRICS]


def test_emitted_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared_layers == [(n, u, b) for n, u, b, _ in tracer.LAYER_METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)

    job = run.Job(("tl-decay",), Path("."), False, 0, 1.5, 40.0)
    e2e = run.end_to_end_metrics([run.Pass(False, [job], 2.0)], [0.3], [9])
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: unit for k, (_, unit) in e2e.items()} == declared_e2e
    assert e2e["checks_total"][0] == 9 and e2e["peak_rss_mb"][0] == 40.0
    for name in [*e2e, *(n for n, *_ in tracer.LAYER_METRICS), *run.WORKLOADS]:
        assert NAME.fullmatch(name), name
