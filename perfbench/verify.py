"""Independent re-check of a workload's numerics, run after the timed
region in its own interpreter.

    python3 perfbench/verify.py SEED N:J [N:J ...]

For each grid it generates the workload's fields from SEED and checks
README criteria 1-2: the Haar round trip (max cell error <= 1e-12),
Parseval (relative <= 1e-10) and the Riesz energy identity
sum_i ||R_i u||^2 = ||u||^2 (relative <= 1e-10).  It then checks the
resolving kernel that ``delta_conv`` uses, with the invariants of the CLI
``selftest``: kernel integral <= 1e-10 and first moments <= 1e-8 at scales
1, 2 and J-2, Delta_1 of a constant <= 1e-10, and the telescoping identity
sum_{s=1}^{J-2} Delta_s u = beta_1 * u - beta_{J-1} * u <= 1e-8.  It prints
one JSON object: the checks run, the failures, and the versions the result
was measured with.
"""

import json
import os
import platform
import sys

import numpy as np

from haarriesz.fields import random_field, standard_random_field
from haarriesz.fourier import ResolvingKernel, delta_conv, riesz, smoothing_conv
from haarriesz.grid import GridFunction
from haarriesz.haar import haar_analyze, haar_synthesize

ROUNDTRIP_TOL = 1e-12
PARSEVAL_TOL = 1e-10
RIESZ_TOL = 1e-10
KERNEL_INTEGRAL_TOL = 1e-10
KERNEL_MOMENT_TOL = 1e-8
DELTA_CONST_TOL = 1e-10
TELESCOPING_TOL = 1e-8
FIELDS_PER_GRID = 3


def check_grid(n: int, J: int, seed: int) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) for every check on one grid."""
    fields = [("standard", standard_random_field(n, J, seed))]
    fields += [(f"random[{i}]", random_field(n, J, seed, index=i)) for i in range(FIELDS_PER_GRID)]
    out = []
    for label, u in fields:
        tag = f"n={n} J={J} {label}"
        c = haar_analyze(u)
        back = haar_synthesize(c)
        out.append((f"roundtrip {tag}", float(np.abs(back.values - u.values).max()), ROUNDTRIP_TOL))
        energy = u.lp_norm(2) ** 2
        out.append((f"parseval {tag}", abs(c.energy() - energy) / energy, PARSEVAL_TOL))
        if label != "standard":  # the identity needs a mean-free field
            total = sum(riesz(u, i).lp_norm(2) ** 2 for i in range(1, n + 1))
            out.append((f"riesz-energy {tag}", abs(total - energy) / energy, RIESZ_TOL))
    return out + check_kernel(n, J, fields[1][1])


def check_kernel(n: int, J: int, u: GridFunction) -> list[tuple[str, float, float]]:
    """The resolving-kernel invariants of the CLI selftest on one grid."""
    tag = f"n={n} J={J}"
    out = []
    for s in sorted({1, 2, J - 2}):
        kern = ResolvingKernel(n=n, s=s, J=J)
        out.append((f"kernel-integral {tag} s={s}", abs(kern.integral()), KERNEL_INTEGRAL_TOL))
        for ax, mom in enumerate(kern.first_moments()):
            out.append((f"kernel-moment {tag} s={s} axis={ax + 1}", abs(mom), KERNEL_MOMENT_TOL))
        del kern  # n=3 samples take about 1 GB; free them before the next scale
    one = GridFunction.constant(n, J, 1.0)
    out.append((f"delta-const {tag}", delta_conv(one, 1).lp_norm(2), DELTA_CONST_TOL))
    acc = GridFunction.zeros(n, J)
    for s in range(1, J - 1):
        acc = acc + delta_conv(u, s)
    tele = smoothing_conv(u, 1) - smoothing_conv(u, J - 1)
    out.append((f"delta-telescoping {tag}", (acc - tele).lp_norm(2), TELESCOPING_TOL))
    return out


def blas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    checks = []
    for grid in argv[1:]:
        n, J = (int(x) for x in grid.split(":"))
        checks += check_grid(n, J, seed)
    failures = [f"{name}: {value:.3e} > {tol:.0e}" for name, value, tol in checks
                if not value <= tol]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }
    print(json.dumps({"checks": len(checks), "failures": failures, "env": env}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
