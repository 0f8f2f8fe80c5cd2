"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs use tiny inputs, so every workload path and the traced
run finish in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_output, last_digit_unit, normalized  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
with open(os.path.join(HERE, "references.json")) as _fh:
    REFERENCES = json.load(_fh)["outputs"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_references_cover_every_input():
    for w in WORKLOADS.values():
        for argv in (w.smoke, *w.inputs):
            assert " ".join(argv) in REFERENCES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(v for k, v in values.items() if k.endswith("_s") and k not in (
            "sums.seed_s", "sums.level_s", "trace.wall_s", "trace.overhead_s"))
        assert self_s == pytest.approx(values["trace.wall_s"], rel=0.02, abs=0.002)
        assert values["trace.absent"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sum-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "sums.sk_fast", "start": 1.0, "end": 7.0, "parent": 0},
        {"name": "sums.keyspace", "start": 1.5, "end": 2.5, "parent": 1},
        {"name": "harness.emit", "start": 8.0, "end": 9.0, "parent": 0},
    ]
    assert self_times(spans) == [3.0, 5.0, 1.0, 1.0]


def test_missing_targets_are_reported_absent():
    tracer = Tracer()
    tracer_targets = (("sums.gone", "mertens_sums.sums", "no_such_function"),
                      ("other.gone", "no_such_module_anywhere", "f"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        tracer.install(tracer_targets)
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))
    assert tracer.absent == ["mertens_sums.sums.no_such_function",
                             "no_such_module_anywhere.f"]


def _flip(text: str, i: int) -> str:
    """``text`` with the digit at position ``i`` changed."""
    return text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]


def _sum_output(argv, **changes):
    ref = REFERENCES[" ".join(argv)]
    out = {"k": int(argv[2]), "x": int(argv[4]), "value": ref["value"][:22],
           "error_bound": "1.0e-62", "method": "memoized", "terms": ref["terms"],
           "elapsed_s": 0.5}
    out.update(changes)
    return json.dumps(out, indent=2)


def test_sum_checks_catch_wrong_outputs():
    argv = WORKLOADS["sum-deep"].smoke
    ref = REFERENCES[" ".join(argv)]

    def failed(stdout):
        return {name for name, ok, _ in check_output(argv, stdout, ref) if not ok}

    assert failed(_sum_output(argv)) == set()
    assert failed(_sum_output(argv, value=_flip(ref["value"][:22], 15))) == {"sum.value"}
    assert failed(_sum_output(argv, terms=ref["terms"] + 1)) == {"sum.terms"}
    assert failed(_sum_output(argv, error_bound="1.0e-50")) == {"sum.error_bound"}
    assert failed(_sum_output(argv, x=int(argv[4]) + 1)) == {"sum.input"}
    assert failed("Traceback") == {"output.parse"}


def test_sweep_checks_catch_wrong_outputs():
    argv = WORKLOADS["sweep"].smoke
    ref = REFERENCES[" ".join(argv)]
    rows = [{"k": r["k"], "x": r["x"], "S_k": r["S_k"][:22], "P_k": r["P_k"][:22],
             "abs_err": "0.1", "ratio": "0.5"} for r in ref["rows"]]
    report = {"schema": "mertens-verification-report/1", "rows": rows,
              "summary": {"max_ratio": "0.5", "median_ratio": "0.5"}}
    assert all(ok for _, ok, _ in check_output(argv, json.dumps(report), ref))
    rows[3]["ratio"] = "10.5"
    rows[5]["S_k"] = "9.0"
    failed = {n for n, ok, _ in check_output(argv, json.dumps(report), ref) if not ok}
    assert failed == {"sweep.ratio", "sweep.values"}



def test_decimal_helpers():
    assert last_digit_unit("35.21") == pytest.approx(0.01)
    assert last_digit_unit("9.35e-62") == pytest.approx(1e-64)
    assert last_digit_unit("1.5e+3") == 100
    assert normalized('{\n  "elapsed_s": 8.62,\n  "k": 4\n}') == '{\n  "elapsed_s": _,\n  "k": 4\n}'
