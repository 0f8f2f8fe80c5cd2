"""Remainder-term verification: sweep x, compare S_k(x) to P_k(loglog x).

For each grid point the harness records the exact sum, the main-term
value, their absolute gap, and the normalized ratio

    ratio = |S_k(x) - P_k(loglog x)| * log x / (loglog x)^(k-1),

whose boundedness over the sweep is the testable content of the
asymptotic statement.  The exponent in the denominator is the paper's k-1,
a valid bound but not a sharp one: for k = 3, from x = 10^4 to 10^7, the
k-1 normalization falls from 4.10 to 3.23 while the (loglog x)^(k-2)
normalization stays at 9.10 to 8.98.  The k variant decays faster still.

All row fields are decimal strings rendered at a fixed digit count, and
every numeric input is deterministic, so reports are byte-identical
across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

from mpmath import mp, mpf

from .bigreal import DEFAULT_DIGITS, DEFAULT_PRECISION, to_decimal, working_precision
from .constants import ConstantsBundle
from .asymptotics import MAX_DEGREE, _check_degree, evaluate_main_term
from .errors import CapacityError, DomainError
from .primes import sieve
from .sums import FAST_MAX_X, MertensSumResult, sk_levels

DEFAULT_GRID_START = 1_000
DEFAULT_GRID_STOP = 100_000_000
DEFAULT_GRID_POINTS = 25
MAX_GRID_POINTS = 1_000  # every point is a full S_k evaluation
DEFAULT_K_SET = (1, 2, 3, 4)
RATIO_BOUND = 10.0  # empirical calibration; the asymptotic statement fixes no constant

CSV_HEADER = ["k", "x", "S_k", "P_k", "abs_err", "ratio"]  # also the text table's header
TEXT_WIDTHS = (6, 12, 24, 24, 14, 12)  # text table column widths
JSON_SCHEMA_ID = "mertens-verification-report/1"


@dataclass(frozen=True)
class GridSpec:
    """Geometric evaluation grid in [start, stop]."""

    start: int = DEFAULT_GRID_START
    stop: int = DEFAULT_GRID_STOP
    points: int = DEFAULT_GRID_POINTS

    def __post_init__(self):
        if self.start < 3:
            raise DomainError(f"grid start must be >= 3, got {self.start}")
        if self.stop <= self.start:
            raise DomainError(f"grid stop {self.stop} must exceed start {self.start}")
        if self.points < 2:
            raise DomainError(f"grid needs at least 2 points, got {self.points}")
        if self.points > MAX_GRID_POINTS:
            raise CapacityError(f"grid points {self.points} exceed the maximum {MAX_GRID_POINTS}")

    def values(self) -> list[int]:
        """Strictly increasing integers; duplicates from rounding removed."""
        ratio = math.log(self.stop / self.start)
        pts = []
        for i in range(self.points):
            v = round(self.start * math.exp(ratio * i / (self.points - 1)))
            if not pts or v > pts[-1]:
                pts.append(int(v))
        return pts


@dataclass(frozen=True)
class VerificationRow:
    """One grid point, all fields as decimal strings (see module docstring)."""

    k: int
    x: int
    s_value: str
    main_term: str
    abs_err: str
    ratio: str


def verify_row(
    result: MertensSumResult,
    bundle: ConstantsBundle,
    precision: int = DEFAULT_PRECISION,
    digits: int = DEFAULT_DIGITS,
) -> VerificationRow:
    """The report row comparing one S_k(x) evaluation with P_k(loglog x)."""
    k, x = result.k, result.x
    with working_precision(precision):
        main = evaluate_main_term(k, x, bundle)
        err = abs(result.value - main)
        loglog = mp.log(mp.log(x))
        ratio = err * mp.log(x) / loglog ** (k - 1)
    return VerificationRow(
        k=k,
        x=int(x),
        s_value=to_decimal(result.value, digits),
        main_term=to_decimal(main, digits),
        abs_err=to_decimal(err, digits),
        ratio=to_decimal(ratio, digits),
    )


def check_ks(ks: int | Sequence[int]) -> list[int]:
    """The ks of a sweep as a list, each checked: 1 <= k <= ``MAX_DEGREE``."""
    ks = [ks] if isinstance(ks, int) else list(ks)
    if not ks:
        raise DomainError("verify_grid needs at least one k")
    for k in ks:
        _check_degree(k)
    return ks


def verify_grid(
    ks: int | Sequence[int],
    grid: GridSpec,
    precision: int = DEFAULT_PRECISION,
    digits: int = DEFAULT_DIGITS,
) -> list[VerificationRow]:
    """One row per grid point for each k in ``ks`` (a k or a sequence of ks).

    Each x is evaluated once, by one :func:`sk_levels` pass up to the
    largest k over the primes up to isqrt(``grid.stop``).  Rows come out
    k-major in the order of ``ks``, repeats included: the same list as
    concatenating one single-k call per entry.  The constants bundle is
    built at ``precision``.  Each k (:func:`check_ks`) and the grid's top
    against ``FAST_MAX_X`` are checked before any work; every other failure
    (precision, digits) raises before the first row exists.
    """
    ks = check_ks(ks)
    if grid.stop > FAST_MAX_X:
        raise CapacityError(f"grid stop {grid.stop} exceeds the configured maximum {FAST_MAX_X}")
    primes = sieve(math.isqrt(grid.stop))
    bundle = ConstantsBundle.build(precision, m_max=MAX_DEGREE)
    by_k: dict[int, list[VerificationRow]] = {k: [] for k in ks}
    for x in grid.values():
        levels = sk_levels(max(ks), x, primes, precision=precision)
        for k, rows in by_k.items():
            rows.append(verify_row(levels[k - 1], bundle, precision, digits))
    return [r for k in ks for r in by_k[k]]


def summary_stats(rows: list[VerificationRow], digits: int = DEFAULT_DIGITS) -> dict:
    """Max and median of the normalized ratios, as decimal strings."""
    if not rows:
        raise DomainError("no rows to summarize")
    with mp.workprec(128):
        ratios = sorted(mpf(r.ratio) for r in rows)
        n = len(ratios)
        med = ratios[n // 2] if n % 2 else (ratios[n // 2 - 1] + ratios[n // 2]) / 2
        return {
            "max_ratio": to_decimal(ratios[-1], digits),
            "median_ratio": to_decimal(med, digits),
        }


def emit_report(rows: list[VerificationRow], format: str = "csv",
                digits: int = DEFAULT_DIGITS) -> bytes:
    """Serialize rows (plus summary) to text, CSV or JSON bytes.

    ``text`` is an aligned table with each value cut to fit its column;
    CSV and JSON carry every field in full.  Output is byte-identical for
    identical inputs: fixed field order, fixed separators, no timestamps.
    """
    if not rows:
        raise DomainError("cannot emit an empty report")
    summary = summary_stats(rows, digits)
    if format == "text":
        lines = ["".join(h.ljust(w) for h, w in zip(CSV_HEADER, TEXT_WIDTHS))]
        for r in rows:
            cells = [str(r.k), str(r.x), r.s_value[:22], r.main_term[:22],
                     r.abs_err[:12], r.ratio[:10]]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, TEXT_WIDTHS)))
        lines.append(f"max_ratio    = {summary['max_ratio']}")
        lines.append(f"median_ratio = {summary['median_ratio']}")
        return ("\n".join(lines) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([r.k, r.x, r.s_value, r.main_term, r.abs_err, r.ratio])
        buf.write(f"# max_ratio={summary['max_ratio']}\n")
        buf.write(f"# median_ratio={summary['median_ratio']}\n")
        return buf.getvalue().encode()
    if format == "json":
        payload = {
            "schema": JSON_SCHEMA_ID,
            "rows": [
                {
                    "k": r.k,
                    "x": r.x,
                    "S_k": r.s_value,
                    "P_k": r.main_term,
                    "abs_err": r.abs_err,
                    "ratio": r.ratio,
                }
                for r in rows
            ],
            "summary": summary,
        }
        return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()
    raise DomainError(f"unknown report format {format!r}")


def parse_report(data: bytes, format: str = "csv") -> list[VerificationRow]:
    """Inverse of :func:`emit_report` at printed precision."""
    text = data.decode()
    rows: list[VerificationRow] = []
    if format == "csv":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        reader = csv.reader(lines)
        header = next(reader)
        if header != CSV_HEADER:
            raise DomainError(f"unexpected CSV header {header!r}")
        for rec in reader:
            k, x, s, p, e, q = rec
            rows.append(VerificationRow(int(k), int(x), s, p, e, q))
        return rows
    if format == "json":
        payload = json.loads(text)
        for rec in payload["rows"]:
            rows.append(
                VerificationRow(
                    int(rec["k"]), int(rec["x"]), rec["S_k"], rec["P_k"],
                    rec["abs_err"], rec["ratio"],
                )
            )
        return rows
    raise DomainError(f"unknown report format {format!r}")
