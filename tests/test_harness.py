import json
import math
from importlib import resources

import jsonschema
import pytest
from mpmath import mp, mpf

from mertens_sums.asymptotics import MAX_DEGREE, evaluate_main_term
from mertens_sums.constants import ConstantsBundle
from mertens_sums.errors import CapacityError, DomainError
from mertens_sums.harness import (
    MAX_GRID_POINTS,
    GridSpec,
    VerificationRow,
    emit_report,
    parse_report,
    summary_stats,
    verify_grid,
)


@pytest.fixture(scope="module")
def small_rows():
    grid = GridSpec(start=1000, stop=10**6, points=4)
    rows = []
    for k in (1, 2):
        rows.extend(verify_grid(k, grid))
    return rows


class TestGridSpec:
    def test_geometric_values(self):
        grid = GridSpec(start=1000, stop=10**6, points=4)
        assert grid.values() == [1000, 10000, 100000, 1000000]

    def test_strictly_increasing_after_rounding(self):
        grid = GridSpec(start=10, stop=30, points=25)
        vals = grid.values()
        assert vals == sorted(set(vals))
        assert vals[0] == 10 and vals[-1] == 30

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(start=2, stop=100, points=5)
        with pytest.raises(DomainError):
            GridSpec(start=100, stop=100, points=5)
        with pytest.raises(DomainError):
            GridSpec(start=10, stop=100, points=1)
        with pytest.raises(CapacityError):
            GridSpec(start=10, stop=100, points=MAX_GRID_POINTS + 1)


class TestVerifyGrid:
    def test_row_values_match_fsum_oracle(self, small_rows, primes_1e6):
        # each k=1 row's S value must equal an independent one-pass
        # reciprocal sum at that x
        for row in (r for r in small_rows if r.k == 1):
            upto = primes_1e6.count_upto(row.x)
            oracle = math.fsum(1.0 / p for p in primes_1e6.primes[:upto].tolist())
            assert abs(float(mpf(row.s_value)) - oracle) < 1e-12

    def test_zero_sum_region(self):
        # every grid point below 2^k has S_k = 0; main term and ratio are
        # still produced normally
        grid = GridSpec(start=3, stop=7, points=3)
        rows = verify_grid(3, grid)
        assert rows  # grid is nonempty even in the degenerate corner
        for r in rows:
            assert r.x < 2**3
            assert mpf(r.s_value) == 0
            assert mpf(r.main_term) != 0
            assert math.isfinite(float(mpf(r.ratio)))

    def test_abs_err_recomputable_from_row_fields(self, small_rows):
        digits = 20
        with mp.workprec(128):
            for r in small_rows:
                recomputed = abs(mpf(r.s_value) - mpf(r.main_term))
                stated = mpf(r.abs_err)
                ulp = mpf(10) ** (-digits + 1) * max(abs(mpf(r.s_value)), 1)
                assert abs(recomputed - stated) <= 2 * ulp

    def test_ratio_definition(self, small_rows):
        with mp.workprec(128):
            for r in small_rows:
                ll = mp.log(mp.log(r.x))
                expect = mpf(r.abs_err) * mp.log(r.x) / ll ** (r.k - 1)
                assert abs(mpf(r.ratio) - expect) < mpf(10) ** -15 * max(1, expect)

    def test_k1_denominator_is_one(self, small_rows):
        with mp.workprec(128):
            for r in (r for r in small_rows if r.k == 1):
                assert abs(mpf(r.ratio) - mpf(r.abs_err) * mp.log(r.x)) < mpf(10) ** -18

    def test_determinism(self):
        grid = GridSpec(start=1000, stop=100_000, points=3)
        a = verify_grid(2, grid)
        b = verify_grid(2, grid)
        assert a == b

    def test_multi_k_equals_per_k_calls(self):
        grid = GridSpec(start=1000, stop=100_000, points=3)
        per_k = [row for k in (4, 1, 1)
                 for row in verify_grid(k, grid)]
        assert verify_grid([4, 1, 1], grid) == per_k

    def test_main_term_at_the_requested_precision(self):
        # the constants follow ``precision``: at 320 bits P_k holds all 80 printed digits
        grid = GridSpec(start=1000, stop=10**5, points=3)
        reference = ConstantsBundle.build(640, m_max=MAX_DEGREE)
        with mp.workprec(700):
            for r in verify_grid(2, grid, precision=320, digits=80):
                exact = evaluate_main_term(2, r.x, reference)
                assert abs(mpf(r.main_term) - exact) < mpf(10) ** -78 * abs(exact), r.x

    def test_k_validation(self):
        grid = GridSpec(start=1000, stop=10_000, points=2)
        for ks in ([], [1, 0], 0):
            with pytest.raises(DomainError):
                verify_grid(ks, grid)


class TestReports:
    def test_csv_schema_and_shape(self, small_rows):
        data = emit_report(small_rows[:1], "csv")
        lines = data.decode().splitlines()
        assert lines[0] == "k,x,S_k,P_k,abs_err,ratio"
        assert len([l for l in lines if not l.startswith("#")]) == 2
        assert any(l.startswith("# max_ratio=") for l in lines)
        assert any(l.startswith("# median_ratio=") for l in lines)

    def test_csv_round_trip(self, small_rows):
        data = emit_report(small_rows, "csv")
        assert parse_report(data, "csv") == small_rows

    def test_json_round_trip(self, small_rows):
        data = emit_report(small_rows, "json")
        assert parse_report(data, "json") == small_rows

    def test_json_validates_against_shipped_schema(self, small_rows):
        schema = json.loads(
            resources.files("mertens_sums")
            .joinpath("schemas/verification_report.schema.json")
            .read_text()
        )
        payload = json.loads(emit_report(small_rows, "json").decode())
        jsonschema.validate(payload, schema)

    def test_byte_identical(self, small_rows):
        assert emit_report(small_rows, "csv") == emit_report(small_rows, "csv")
        assert emit_report(small_rows, "json") == emit_report(small_rows, "json")

    def test_summary_stats(self):
        rows = [
            VerificationRow(1, 10, "1.0", "1.0", "0.0", "3.0"),
            VerificationRow(1, 20, "1.0", "1.0", "0.0", "1.0"),
            VerificationRow(1, 30, "1.0", "1.0", "0.0", "2.0"),
        ]
        stats = summary_stats(rows, digits=5)
        assert mpf(stats["max_ratio"]) == 3
        assert mpf(stats["median_ratio"]) == 2

    def test_empty_and_unknown(self, small_rows):
        with pytest.raises(DomainError):
            emit_report([], "csv")
        with pytest.raises(DomainError):
            emit_report(small_rows, "yaml")
        with pytest.raises(DomainError):
            parse_report(b"k,x\n", "csv")
