"""Checks of one CLI output against the stored references.

Numbers are compared as exact rationals parsed from their decimal
strings.  A printed value matches a reference when they differ by at most
one unit in the printed value's last digit (plus the stated error bounds,
for sums), so a later engine may change bits below the printed precision.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

_DECIMAL = re.compile(r"^[-+]?\d+(?:\.(\d*))?(?:[eE]([-+]?\d+))?$")
_ELAPSED = re.compile(r'"elapsed_s": [^,\n}]*')
SCHEMA = os.path.join("src", "mertens_sums", "schemas", "verification_report.schema.json")


def last_digit_unit(text: str) -> Fraction:
    """The value of one unit in the last printed digit of a decimal string."""
    m = _DECIMAL.match(text)
    if m is None:
        raise ValueError(f"not a decimal: {text!r}")
    places = len(m.group(1) or "") - int(m.group(2) or 0)
    return Fraction(1, 10**places) if places >= 0 else Fraction(10**-places)


def matches(printed: str, reference: str, slack: Fraction = Fraction(0)) -> bool:
    return abs(Fraction(printed) - Fraction(reference)) <= last_digit_unit(printed) + slack


def normalized(stdout: str) -> str:
    """stdout with the run-dependent ``elapsed_s`` value blanked."""
    return _ELAPSED.sub('"elapsed_s": _', stdout)


def _flag(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_sum(argv, out: dict, ref: dict) -> list[tuple[str, bool, str]]:
    prec = int(_flag(argv, "--prec"))
    value = Fraction(out["value"])
    bound = Fraction(out["error_bound"])
    stated = Fraction(1, 2**prec) * max(1, abs(value))
    slack = bound + Fraction(ref["error_bound"])
    return [
        ("sum.input", out["k"] == int(_flag(argv, "--k")) and out["x"] == int(_flag(argv, "--x")),
         f"k={out['k']} x={out['x']}"),
        ("sum.value", matches(out["value"], ref["value"], slack),
         f"{out['value']} vs reference {ref['value'][:40]}"),
        ("sum.error_bound", 0 <= bound <= stated,
         f"error_bound {out['error_bound']} against 2^-{prec}*max(1,|value|)"),
        ("sum.terms", out["terms"] == ref["terms"], f"{out['terms']} vs {ref['terms']}"),
    ]


def check_sweep(argv, out: dict, ref: dict) -> list[tuple[str, bool, str]]:
    try:
        import jsonschema
    except ImportError:
        schema = (False, "jsonschema is not installed")
    else:
        try:
            with open(SCHEMA) as fh:
                jsonschema.validate(out, json.load(fh))
            schema = (True, "valid")
        except (OSError, jsonschema.ValidationError) as exc:
            schema = (False, f"{type(exc).__name__}: {exc}"[:200])
    rows = out.get("rows", [])
    grid = [[r.get("k"), r.get("x")] for r in rows]
    bad = [
        f"k={r['k']} x={r['x']}"
        for r, want in zip(rows, ref["rows"])
        if not (matches(r["S_k"], want["S_k"]) and matches(r["P_k"], want["P_k"]))
    ]
    bound = Fraction(ref["ratio_bound"])
    over = [f"k={r['k']} x={r['x']} ratio={r['ratio']}" for r in rows
            if Fraction(r["ratio"]) > bound]
    return [
        ("sweep.schema", *schema),
        ("sweep.grid", grid == [[r["k"], r["x"]] for r in ref["rows"]], f"{len(rows)} rows"),
        ("sweep.values", not bad, "mismatch at " + ", ".join(bad) if bad else "all rows"),
        ("sweep.ratio", not over, ", ".join(over) or f"all <= {ref['ratio_bound']}"),
    ]


CHECKS = {"sum": check_sum, "verify": check_sweep}


def check_output(argv, stdout: str, ref: dict) -> list[tuple[str, bool, str]]:
    """Named (check, passed, detail) results for one invocation's stdout."""
    try:
        out = json.loads(stdout)
        return CHECKS[argv[0]](argv, out, ref)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [("output.parse", False, f"{type(exc).__name__}: {exc}"[:200])]
