"""One ``mertens`` CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 -I child.py SPEC_JSON RECORD_PATH

SPEC_JSON holds ``src`` (the directory that contains ``mertens_sums``),
``argv`` (the CLI arguments) and ``trace`` (whether to run under the
outside-in tracer).  The child writes one JSON record to RECORD_PATH when
it is done:

* ``import_done``: ``time.monotonic()`` right after ``import
  mertens_sums.cli``; the parent subtracts its own reading taken before
  it started the process, which gives the set-up time.
* ``wall_s`` / ``cpu_s``: time and user+system CPU of ``cli.main``.
* ``stdout``: what ``cli.main`` wrote, captured in memory.
* ``trace``: the spans, when traced.
"""

import io
import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import mertens_sums.cli as cli

    record = {"import_done": time.monotonic(), "module": os.path.abspath(cli.__file__)}
    argv = spec["argv"]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    stdout = sys.stdout
    sys.stdout = captured
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv) if tracer is None else tracer.run_root(cli.main, argv)
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        sys.stdout = stdout
    record.update(rc=rc, wall_s=wall, cpu_s=cpu, stdout=captured.getvalue())
    if tracer is not None:
        if argv[0] == "sum":
            tracer.seed_probe()
        record["trace"] = tracer.report()
    with open(sys.argv[2], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
