"""Run one affinespde CLI command in this (fresh) process and record it.

    python3 perfbench/child.py RESULT.json TRACE -- <cli arguments>

Times the import of ``affinespde.cli`` (the set-up every CLI call pays) and
the call of ``affinespde.cli.main`` separately, then writes both, the exit
code and, with TRACE=1, the span summary to RESULT.json.  TRACE=2 also
records tracemalloc peaks (spans.PEAK_SPANS).  The package is
imported from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    result_path, trace = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import affinespde.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"affinespde imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 90

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer(peaks=trace == 2)
        spans.install(tracer)

    t1, c1 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught exception exits 1, as the CLI would
        traceback.print_exc()
        rc = 1
    main_s = time.perf_counter() - t1
    cpu_s = time.process_time() - c1

    record = {"import_s": import_s, "main_s": main_s, "cpu_s": cpu_s,
              "rc": rc}
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
