"""Benchmark of the ``mertens`` CLI, measured from outside the program.

Run from the repository root:

    python3 perfbench/run.py --workload sum-deep --seed 1 --seconds 42 --trace 0

Each invocation of the workload's CLI command runs in a fresh,
single-threaded child interpreter, one child at a time, until the time
budget is spent.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics (medians over the invocations); with
``--trace 1`` one more invocation runs under the outside-in tracer and the
metrics are the per-layer ones.  Every output is checked against
``references.json``.  ``--workload all`` runs every workload in turn.
``--smoke`` swaps in tiny inputs so that every path runs in seconds.

Full results (quartiles, sample counts, checks, environment) go to
``.perfbench/results/`` and spans of traced runs to ``.perfbench/trace/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_output, normalized  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench"
CHILD_LIMIT_S = 170.0  # a run has 180 s in all
# Unset everything else: MERTENS_CACHE_DIR would turn the sieve into a file read.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_rate": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def _wait(proc: subprocess.Popen, limit_s: float):
    """Reap ``proc`` within ``limit_s`` (killing it after); its rusage or None."""
    end = time.monotonic() + limit_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage
        if time.monotonic() > end:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None
        time.sleep(0.005)


class Runner:
    """Starts child interpreters from one checkout and reads their records."""

    def __init__(self, root: str, limit_at: float):
        self.root = root
        self.limit_at = limit_at
        self.work = os.path.join(root, WORK_DIR)
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(CHILD_ENV, PATH=os.environ.get("PATH", os.defpath))
        # One bytecode cache for every child, warmed before anything is timed,
        # so set-up time does not depend on the order of runs.
        self.cmd = [sys.executable, "-I", "-X",
                    f"pycache_prefix={os.path.join(self.work, 'pycache')}",
                    os.path.join(HERE, "child.py")]

    def run(self, argv, trace: bool = False) -> dict:
        record_path = os.path.join(self.work, "record.json")
        err_path = os.path.join(self.work, "child.stderr")
        if os.path.exists(record_path):
            os.remove(record_path)
        spec = json.dumps({"src": os.path.join(self.root, "src"),
                           "argv": list(argv), "trace": trace})
        with open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(self.cmd + [spec, record_path], cwd=self.root,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            rusage = _wait(proc, max(1.0, self.limit_at - time.monotonic()))
        sample = {"exit": proc.returncode, "duration_s": time.monotonic() - t_spawn}
        if rusage is None:
            sample["error"] = "timed out"
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
            sample.update(record)
            sample["setup_s"] = record["import_done"] - t_spawn
        else:
            with open(err_path, errors="replace") as fh:
                sample.setdefault("error", fh.read()[-2000:] or "no record written")
        if rusage is not None:
            sample["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6
        return sample


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment(root: str, runner: Runner) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "child_command": runner.cmd[:4],
        "child_env": runner.env,
    }


def measure(root: str, name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, references: dict) -> dict:
    """One run of one workload; the result object the benchmark prints."""
    start = time.monotonic()
    deadline = start + seconds
    workload = WORKLOADS[name]
    argv = workload.pick(seed, smoke)
    ref = references[" ".join(argv)]
    runner = Runner(root, start + CHILD_LIMIT_S)
    label = f"{name}-seed{seed}" + ("-smoke" if smoke else "")  # names of the output files
    meta = environment(root, runner)
    meta["loadavg_start"] = os.getloadavg()
    expected_module = os.path.realpath(os.path.join(root, "src", "mertens_sums", "cli.py"))
    checks: list[dict] = []

    def check(sample: dict, label: str) -> None:
        results = [("exit", sample["exit"] == 0 and sample.get("rc") == 0,
                    sample.get("error", f"exit {sample['exit']}, cli rc {sample.get('rc')}")),
                   ("module", os.path.realpath(sample.get("module", "")) == expected_module,
                    sample.get("module", "no module"))]
        if "stdout" in sample:
            results += check_output(argv, sample["stdout"], ref)
            if samples and samples[0] is not sample and "stdout" in samples[0]:
                results.append(("stdout.stable",
                                normalized(sample["stdout"]) == normalized(samples[0]["stdout"]),
                                "identical to the first invocation apart from elapsed_s"))
        checks.extend({"invocation": label, "check": c, "passed": ok, "detail": d}
                      for c, ok, d in results)

    runner.run(workload.smoke)  # untimed: fills the bytecode cache
    samples: list[dict] = []
    while True:
        sample = runner.run(argv)
        samples.append(sample)
        check(sample, f"untraced-{len(samples)}")
        longest = max(s["duration_s"] for s in samples)
        reserve = 2 * longest if trace else 0.0  # the traced invocation and its probe
        if "wall_s" not in sample or time.monotonic() + longest + reserve > deadline:
            break

    timed = [s for s in samples if "wall_s" in s]
    stats = {}
    if timed:
        for metric in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
            stats[metric] = quartiles([s[metric] for s in timed if metric in s])

    layers = None
    if trace:
        traced = runner.run(argv, trace=True)
        samples.append(traced)
        check(traced, "traced")
        if "trace" in traced and timed:
            layers = layer_metrics(traced["trace"], traced["rc"], len(traced["stdout"]))
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - stats["wall_s"]["median"]
            trace_dir = os.path.join(runner.work, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            with open(os.path.join(trace_dir, f"{label}.json"), "w") as fh:
                json.dump({"argv": argv, **traced["trace"]}, fh)

    failed = sum(not c["passed"] for c in checks)
    attempted = len(checks)
    stats["pass_rate"] = {"median": (attempted - failed) / attempted, "n": attempted}
    correct = failed == 0 and "wall_s" in stats and "setup_s" in stats and (
        not trace or layers is not None)
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in (layers or {}).items()}
    else:
        metrics = {k: {"value": v["median"], "unit": END_TO_END_UNITS[k]}
                   for k, v in stats.items()}
    meta["loadavg_end"] = os.getloadavg()
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "argv": argv, "environment": meta, "stats": stats,
        "error_rate": {"value": failed / attempted, "failed": failed, "base": attempted,
                       "base_is": "output checks attempted"},
        "checks": checks, "layers": layers,
        "samples": [{k: v for k, v in s.items() if k not in ("stdout", "trace")}
                    for s in samples],
        "run_s": time.monotonic() - start,
    }
    results_dir = os.path.join(runner.work, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{label}-trace{int(trace)}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print_table(detail, sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(detail: dict, out) -> None:
    print(f"perfbench {detail['workload']} seed={detail['seed']}: mertens "
          f"{' '.join(detail['argv'])}", file=out)
    print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>5}  unit", file=out)
    for name, q in detail["stats"].items():
        if name != "pass_rate":
            print(f"  {name:<28}{q['median']:>14.6g}{q['q1']:>14.6g}{q['q3']:>14.6g}"
                  f"{q['n']:>5}  {END_TO_END_UNITS[name]}", file=out)
    err = detail["error_rate"]
    print(f"  {'error_rate':<28}{err['value']:>14.6g}  ({err['failed']} of {err['base']} "
          f"output checks failed)", file=out)
    for name, value in (detail["layers"] or {}).items():
        print(f"  {name:<28}{value:>14.6g}  {unit_of(name)}", file=out)
    for c in detail["checks"]:
        if not c["passed"]:
            print(f"  FAILED {c['invocation']} {c['check']}: {c['detail']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs that exercise every path in seconds")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mertens_sums", "cli.py")):
        print("perfbench: src/mertens_sums/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "references.json")) as fh:
        references = json.load(fh)["outputs"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(root, n, args.seed, args.seconds, bool(args.trace), args.smoke,
                          references) for n in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
