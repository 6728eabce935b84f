"""One benchmark job in a fresh interpreter.

    python3 perfbench/child.py --probe
        import haarriesz, print the clock reading when the import returned
    python3 perfbench/child.py STATUS SPANS -- <haarriesz CLI arguments>
        run ``haarriesz.cli.main`` on the arguments and write a JSON status
        to STATUS; with SPANS other than '-', trace the run and write its
        spans there when it ends

The import comes first so that the probe measures interpreter start-up plus
``import haarriesz`` and nothing else.  ``time.perf_counter`` reads the
system-wide monotonic clock, so the parent can subtract its own reading
taken before the spawn.
"""

import time

import haarriesz  # noqa: F401

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    if argv == ["--probe"]:
        print(repr(IMPORTED_AT))
        return 0
    status_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: child.py STATUS SPANS -- <cli arguments>", file=sys.stderr)
        return 2
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from haarriesz import cli

    try:
        code = cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
    Path(status_path).write_text(json.dumps({"exit": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
