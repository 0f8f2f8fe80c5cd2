"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and do not depend on calibration done
elsewhere.
"""

import json
import math
import random
import resource
import time
from fractions import Fraction
from importlib import resources as importlib_resources

import jsonschema
import pytest
from mpmath import mp, mpf

from conftest import prime_log_series
import mertens_sums.asymptotics as asy
import mertens_sums.constants as cn
from mertens_sums.harness import GridSpec, emit_report, parse_report, verify_grid
from mertens_sums.hankel import HankelContour, hankel_power_quad, im_quad, power_law_closed_form
from mertens_sums.primes import sieve
from mertens_sums.sums import sk_direct, sk_fast


def report(name: str, detail: str) -> None:
    print(f"\n[PASS] {name}: {detail}")


class TestAcceptance:
    def test_criterion_1_mertens_constant(self, primes_1e6):
        t0 = time.perf_counter()
        with mp.workprec(420):
            acc = cn.mertens_c1(192)
            rounded = mp.nstr(acc, 6)
            assert rounded == "0.261497", f"six published decimals, got {rounded}"

            # the defining prime series, summed directly at 224 bits, is
            # short by under 1/limit; 2/limit covers its rounding as well
            with mp.workprec(224):
                direct = cn.euler_gamma(192) - prime_log_series(primes_1e6, 224)
            bound = mpf(2) / primes_1e6.limit
            assert bound < mpf(10) ** -5
            assert abs(acc - direct) < bound

            doubled = cn.mertens_c1(384)
            self_consistency = abs(acc - doubled)
            assert self_consistency < mpf(10) ** -25
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
        report(
            "criterion 1 (Mertens constant)",
            f"c1={rounded}, |direct-accel|={float(abs(acc - direct)):.2e} < "
            f"{float(bound):.1e}, self-consistency {float(self_consistency):.1e} < 1e-25, "
            f"{elapsed:.2f}s",
        )

    def test_criterion_2_reciprocal_gamma_derivatives(self, bundle192):
        a = bundle192.recip_gamma_derivs
        with mp.workprec(420):
            g = bundle192.gamma
            pi2 = bundle192.zeta[2] * 6
            pi4 = bundle192.zeta[4] * 90
            z3 = bundle192.zeta[3]
            tol = mpf(10) ** -25
            checks = {
                "a1": abs(a[1] - g),
                "a2": abs(a[2] - (g**2 - pi2 / 6)),
                "a3": abs(a[3] - (2 * z3 - pi2 * g / 2 + g**3)),
            }
            for label, delta in checks.items():
                assert delta < tol, f"{label} differs from closed form by {float(delta):.2e}"

            redone = cn.recip_gamma_derivs(16, 384)  # doubled precision and truncation
            a4_delta = abs(a[4] - redone[4])
            assert a4_delta < tol
            assert abs(a[4] - mpf("3.9969267")) < mpf(10) ** -7
            # the documented sign: the minus variant matches, the plus one is far off
            minus_variant = pi4 / 60 + 8 * g * z3 - pi2 * g**2 + g**4
            plus_variant = pi4 / 60 + 8 * g * z3 + pi2 * g**2 + g**4
            assert abs(a[4] - minus_variant) < tol
            assert abs(a[4] - plus_variant) > 6
        report(
            "criterion 2 (reciprocal-gamma derivatives)",
            "a1,a2,a3 match closed forms to >= 25 digits; "
            f"a4={float(a[4]):.7f} matches doubled-precision series "
            f"(delta {float(a4_delta):.1e}) and the minus-sign closed form",
        )

    def test_criterion_3_golden_polynomials(self, bundle224):
        with mp.workprec(420):
            tol25 = mpf(10) ** -25
            worst_gold = mpf(0)
            for k in (1, 2, 3, 4):
                lam = asy.pk_polynomial(k, bundle224).coeffs
                golden = asy.closed_form_coefficients(k, bundle224)
                for j, (have, want) in enumerate(zip(lam, golden)):
                    delta = abs(have - want)
                    worst_gold = max(worst_gold, delta)
                    assert delta < tol25 * max(1, abs(want)), f"k={k}, X^{j}"

            two_path_tol = mpf(2) ** -(bundle224.precision - 16)
            worst_paths = mpf(0)
            for k in range(1, 9):
                lam = asy.pk_polynomial(k, bundle224, "lambda").coeffs
                bino = asy.pk_polynomial(k, bundle224, "binomial").coeffs
                for have, want in zip(lam, bino):
                    delta = abs(have - want) / max(1, abs(want))
                    worst_paths = max(worst_paths, delta)
                    assert delta < two_path_tol
        report(
            "criterion 3 (golden polynomials)",
            f"k=1..4 coefficients match expansions (worst {float(worst_gold):.1e}); "
            f"two-path agreement k=1..8 (worst rel {float(worst_paths):.1e} "
            f"< 2^-{bundle224.precision - 16})",
        )

    def test_criterion_4_hankel_verification(self, bundle224):
        t0 = time.perf_counter()
        worst_rel = 0.0
        for z in (0.0, 0.5, 1.0, 2.5):
            for x in (10.0, 1e3, 1e6):
                res = hankel_power_quad(z, x)
                closed = power_law_closed_form(z, x)
                rel = abs(res.value - closed) / abs(closed)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-8, f"z={z}, x={x}: rel {rel:.2e}"
                assert res.imag_part <= 1e-8

        worst_abs = 0.0
        for m in range(5):
            for x in (20.0, math.exp(math.e), 1e3, 1e6):
                res = im_quad(m, x)
                closed = float(asy.im_closed_form(m, x, bundle224))
                delta = abs(res.value - closed)
                worst_abs = max(worst_abs, delta)
                assert delta <= 1e-6, f"m={m}, x={x}: abs {delta:.2e}"

        base = HankelContour.for_x(1e3)
        moved = HankelContour(radius=base.radius, offset=base.offset / 2,
                              truncation=base.truncation,
                              nodes_per_panel=base.nodes_per_panel * 2)
        r0, r1 = im_quad(3, 1e3, base), im_quad(3, 1e3, moved)
        shift = abs(r0.value - r1.value)
        assert shift < max(r0.error_estimate, r1.error_estimate)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        report(
            "criterion 4 (Hankel verification)",
            f"12-point matrix worst rel {worst_rel:.1e} <= 1e-8; I_m grid worst "
            f"{worst_abs:.1e} <= 1e-6; contour shift {shift:.1e} within estimate; "
            f"{elapsed:.1f}s < 30s",
        )

    def test_criterion_5_engine_oracle_equivalence(self, primes_1e4):
        # exact rational anchors
        for k, x, expected in (
            (1, 10, Fraction(247, 210)),
            (2, 6, Fraction(7, 12)),
            (2, 10, Fraction(161, 180)),
            (3, 8, Fraction(1, 8)),
        ):
            got = sk_direct(k, x, primes_1e4, exact=True).value
            assert got == expected, f"S_{k}({x}) = {got}, expected {expected}"

        rng = random.Random(20250810)
        extras = rng.sample(range(2001, 5001), 20)
        xs = list(range(2, 2001)) + extras
        worst = mpf(0)
        with mp.workprec(256):
            tol = mpf(10) ** -15
            for x in xs:
                for k in (1, 2, 3):
                    d = sk_direct(k, x, primes_1e4)
                    f = sk_fast(k, x, primes_1e4)
                    delta = abs(d.value - f.value)
                    worst = max(worst, delta)
                    assert delta < tol, f"k={k}, x={x}: |direct-fast| = {float(delta):.2e}"
        report(
            "criterion 5 (engine oracle equivalence)",
            f"hand values exact; {len(xs)}x3 grid agrees within 1e-15 "
            f"(worst {float(worst):.1e})",
        )

    def test_criterion_6_remainder_bound_at_desk_scale(self):
        grid = GridSpec()  # 25 geometric points in [1e3, 1e8]
        max_ratios = {}
        rows_by_k = {}
        all_rows = verify_grid((1, 2, 3, 4), grid)
        for k in (1, 2, 3, 4):
            rows = [r for r in all_rows if r.k == k]
            rows_by_k[k] = rows
            with mp.workprec(96):
                ratios = [float(mpf(r.ratio)) for r in rows]
            assert all(math.isfinite(r) for r in ratios)
            max_ratios[k] = max(ratios)
            assert max_ratios[k] <= 10.0, f"k={k}: max ratio {max_ratios[k]:.3f} > 10"

        # corrected exponent (k-1) must spread less than the uncorrected (k)
        # normalization over the top decade
        with mp.workprec(96):
            top = [r for r in rows_by_k[2] if r.x >= grid.stop // 10]
            corrected = [float(mpf(r.ratio)) for r in top]
            uncorrected = [c / math.log(math.log(r.x)) for c, r in zip(corrected, top)]
        spread_corr = max(corrected) / min(corrected)
        spread_unc = max(uncorrected) / min(uncorrected)
        assert spread_corr < spread_unc
        report(
            "criterion 6 (remainder bound at desk scale)",
            "max normalized ratios "
            + ", ".join(f"k={k}: {v:.3f}" for k, v in max_ratios.items())
            + f" (all <= 10); exponent check: spread {spread_corr:.4f} < {spread_unc:.4f}",
        )

    def test_criterion_7_performance(self):
        primes8 = sieve(10**8)
        sk_fast(3, 60_000, primes8)  # warm up outside the timed window

        t0 = time.perf_counter()
        res = sk_fast(3, 10**8, primes8)
        engine_elapsed = time.perf_counter() - t0
        assert engine_elapsed < 60.0, f"sk_fast(3, 1e8) took {engine_elapsed:.1f}s"
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
        assert peak_gb < 1.0, f"peak RSS {peak_gb:.2f} GB exceeds 1 GB"
        del primes8

        t0 = time.perf_counter()
        big = sieve(10**9)
        sieve_elapsed = time.perf_counter() - t0
        assert sieve_elapsed < 60.0, f"sieve(1e9) took {sieve_elapsed:.1f}s"
        assert big.count == 50_847_534
        report(
            "criterion 7 (performance)",
            f"sk_fast(3, 1e8) = {mp.nstr(res.value, 15)} in {engine_elapsed:.1f}s "
            f"(peak RSS {peak_gb:.2f} GB); sieve(1e9) -> {big.count} primes "
            f"in {sieve_elapsed:.1f}s",
        )

    def test_criterion_8_determinism_and_formats(self):
        grid = GridSpec(start=1000, stop=10**6, points=6)
        rows1, rows2 = [], []
        for k in (1, 2):
            rows1.extend(verify_grid(k, grid))
            rows2.extend(verify_grid(k, grid))
        csv1, csv2 = emit_report(rows1, "csv"), emit_report(rows2, "csv")
        json1, json2 = emit_report(rows1, "json"), emit_report(rows2, "json")
        assert csv1 == csv2 and json1 == json2, "repeated runs are not byte-identical"
        assert parse_report(csv1, "csv") == rows1
        assert parse_report(json1, "json") == rows1
        schema = json.loads(
            importlib_resources.files("mertens_sums")
            .joinpath("schemas/verification_report.schema.json")
            .read_text()
        )
        jsonschema.validate(json.loads(json1.decode()), schema)
        report(
            "criterion 8 (determinism and formats)",
            f"byte-identical reports ({len(csv1)} bytes CSV, {len(json1)} bytes JSON); "
            "CSV/JSON round-trips and schema validation pass",
        )
