"""Print the SHA-256 of the results.csv of every checked-in CLI invocation.

    python tools/csv_digests.py

The invocations are every ``python -m haarriesz.cli`` step of
``.github/workflows/tier1.yml``, every ``haarriesz ...`` line of the README
usage block, and every job of ``perfbench/run.py``'s WORKLOADS at seeds 1
and 2.  Each runs in a fresh interpreter with ``PYTHONPATH=src`` and its
own temporary ``--out``, and prints one line: ``sha256 exit argv`` (``-``
for the digest of a run that wrote no CSV).  Two checkouts give the same
lines exactly when every run writes the same CSV bytes, so comparing two
versions is one ``diff`` of this output.

Exits 1 if a run exits other than 0 or 3 (1 internal error, 2 flag
validation, 4 resource refusal) or writes no CSV.  Exit 3, a failed
assertion, is reported and allowed: a failing check still writes its CSV,
and the digest list of a version is taken whatever its checks say.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "tier1.yml"
README = ROOT / "README.md"
BENCH = ROOT / "perfbench" / "run.py"
CLI_STEP = "python -m haarriesz.cli "
SEEDS = (1, 2)
ALLOWED_EXITS = (0, 3)


def _without_out(args: list[str]) -> list[str]:
    """A CI step's arguments without its ``--out DIR``: every run writes
    to its own temporary directory."""
    i = args.index("--out")
    return args[:i] + args[i + 2:]


def _workload_jobs() -> list[list[str]]:
    """Every WORKLOADS job at each seed, with the ``--seed`` the benchmark
    appends.  perfbench/run.py is imported without writing bytecode next
    to it, and the directory it puts on ``sys.path`` is taken off again."""
    dont_write, path = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH)
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.dont_write_bytecode, sys.path[:] = dont_write, path
    return [[*job, "--seed", str(seed)]
            for seed in SEEDS for workload in run.WORKLOADS.values() for job in workload.jobs]


def invocations() -> list[list[str]]:
    """The CLI arguments of every invocation, without ``--out``: the CI
    steps, the README usage lines, then the workload jobs."""
    ci = [_without_out(shlex.split(line.split(CLI_STEP, 1)[1]))
          for line in CI.read_text().splitlines() if CLI_STEP in line]
    readme = [shlex.split(line)[1:] for line in README.read_text().splitlines()
              if line.startswith("haarriesz ")]
    return ci + readme + _workload_jobs()


def run_one(args: list[str], out: Path) -> tuple[str, int]:
    """(CSV digest or '-', exit code) of one fresh-interpreter run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "haarriesz.cli", *args, "--out", str(out)],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    csv = out / "results.csv"
    digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else "-"
    if done.returncode not in ALLOWED_EXITS:
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return digest, done.returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(invocations()):
            digest, code = run_one(args, Path(tmp) / str(i))
            print(digest, code, shlex.join(args), flush=True)
            bad += digest == "-" or code not in ALLOWED_EXITS
    if bad:
        print(f"{bad} run(s) failed or wrote no CSV", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
