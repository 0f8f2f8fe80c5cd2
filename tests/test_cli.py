import contextlib
import hashlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mertens_sums import cli, hankel, harness, primes, sums
from mertens_sums.cli import main
from mertens_sums.primes import sieve


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstantsCommand:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "constants", "--digits", "10")
        assert code == 0
        assert "c1    = 0.2614972128" in out
        assert "zeta(10)" in out
        assert "a_8" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "constants", "--format", "json", "--digits", "12")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"gamma", "c1", "h0", "zeta", "recip_gamma_deriv"}
        assert payload["c1"].startswith("0.26149721284")
        assert set(payload["zeta"]) == {str(k) for k in range(2, 11)}
        assert set(payload["recip_gamma_deriv"]) == {str(m) for m in range(9)}

    def test_golden_1024_bits(self, capsys):
        # pinned stdout of the full-precision bundle, to 300 digits
        code, out, _ = run(capsys, "constants", "--prec", "1024", "--digits", "300")
        assert code == 0
        assert len(out.encode()) == 6522
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b9cff082fe208af83f96d99b09459c99562c0df614d6cb3f1fc193e9fc05e44a"
        )


class TestPolyCommand:
    def test_numeric_table(self, capsys):
        code, out, _ = run(capsys, "poly", "--k", "3", "--digits", "12")
        assert code == 0
        assert "X^0" in out and "X^3" in out

    def test_symbolic(self, capsys):
        code, out, _ = run(capsys, "poly", "--k", "4", "--symbolic")
        assert code == 0
        assert "P_4(X) = (X + c1)^4 - pi^2 (X + c1)^2" in out
        assert "delta vs closed form" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"k", "coefficients"}
        assert payload["k"] == 2
        assert payload["coefficients"]["2"].startswith("1.0")

    def test_symbolic_json(self, capsys):
        # the closed form and per-degree deltas join the payload; null past k = 4
        _, plain, _ = run(capsys, "poly", "--k", "4", "--format", "json")
        code, out, _ = run(capsys, "poly", "--k", "4", "--symbolic", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"].startswith("P_4(X) = (X + c1)^4 - pi^2 (X + c1)^2")
        assert set(payload["deltas"]) == {str(j) for j in range(5)}
        assert all(float(d) < 1e-50 for d in payload["deltas"].values())
        del payload["closed_form"], payload["deltas"]
        assert payload == json.loads(plain)
        code, out, _ = run(capsys, "poly", "--k", "5", "--symbolic", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] is None and payload["deltas"] is None

    def test_degree_cap(self, capsys):
        # the bundle is built at the degree cap, so any larger k meets the cap itself
        code, out, err = run(capsys, "poly", "--k", "100")
        assert code == 4
        assert out == ""
        assert err == "mertens: error: k=100 exceeds the supported degree cap 12\n"


class TestHankelCommand:
    def test_power_mode(self, capsys):
        code, out, _ = run(capsys, "hankel", "--z", "0.5", "--x", "100")
        assert code == 0
        assert "quadrature" in out and "closed_form" in out and "imag_part" in out

    def test_im_mode(self, capsys):
        code, out, _ = run(capsys, "hankel", "--m", "2", "--x", "1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["abs_delta"]) < 1e-6

    def test_missing_selector(self, capsys):
        code, out, err = run(capsys, "hankel", "--x", "50")
        assert code == 2
        assert out == "" and err == "mertens: error: one of the arguments --m --z is required\n"

    def test_both_selectors(self, capsys):
        code, out, err = run(capsys, "hankel", "--m", "3", "--z", "0.5", "--x", "1000")
        assert code == 2
        assert out == "" and err == "mertens: error: argument --z: not allowed with argument --m\n"

    def test_z_beyond_envelope_before_any_quadrature(self, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature started before the |z| check")

        monkeypatch.setattr(hankel, "_refine", no_quadrature)
        code, out, err = run(capsys, "hankel", "--z", "4.5", "--x", "100")
        assert (code, out) == (2, "")
        assert err == "mertens: error: |z| <= 4 is the tested envelope, got 4.5\n"

    @pytest.mark.parametrize("z,x", [("4", "1e50"), ("4", "1e100"), ("3", "1e300")])
    def test_large_values_settle(self, capsys, z, x):
        # (log x)^z / Gamma(z + 1) of 7e6 to 1e8: the refinement target scales with the value
        code, out, _ = run(capsys, "hankel", "--z", z, "--x", x, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        quad, closed = float(payload["quadrature"]), float(payload["closed_form"])
        assert abs(quad - closed) <= 1e-12 * abs(closed)

    @pytest.mark.parametrize("x", ["1.0000001", "1.001"])
    def test_default_contour_near_one(self, capsys, x):
        # the default rays reach as far as the (1 + T)^(-1-z) tail rule needs at z = -3.5
        code, out, _ = run(capsys, "hankel", "--z", "-3.5", "--x", x, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        quad, closed = float(payload["quadrature"]), float(payload["closed_form"])
        assert closed == hankel.power_law_closed_form(-3.5, float(x))
        assert abs(quad - closed) <= 1e-12 * abs(closed)

    @pytest.mark.parametrize("prec,expected", [("5", 2), ("100000", 4)])
    def test_prec_checked_where_the_mode_ignores_it(self, capsys, prec, expected):
        # --z needs no multiprecision constants, yet --prec is validated for every command
        code, out, err = run(capsys, "hankel", "--z", "0.5", "--x", "100", "--prec", prec)
        assert (code, out) == (expected, "")
        assert err.startswith("mertens: error: precision ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("--z", "nan", "--x", "1000"),
        ("--z", "inf", "--x", "1000"),
        ("--z", "0.5", "--x", "inf"),
        ("--m", "2", "--x", "inf"),
        ("--m", "2", "--x", "nan"),
    ])
    def test_non_finite_inputs_exit_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "hankel", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("mertens: error: ") and len(err.splitlines()) == 1


class TestSumCommand:
    def test_fast_json(self, capsys):
        code, out, _ = run(capsys, "sum", "--k", "2", "--x", "1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "memoized"
        assert payload["terms"] == 587
        assert payload["value"].startswith("3.6348692940")

    def test_exit_code_capacity(self, capsys):
        code, _, err = run(capsys, "sum", "--k", "2", "--x", "10**15")
        assert code == 2  # argparse rejects the literal -> invalid arguments
        code, out, err = run(capsys, "sum", "--k", "2", "--x", "20000000000")
        assert code == 4
        assert out == "" and len(err.splitlines()) == 1

    def test_exit_code_domain(self, capsys):
        code, _, err = run(capsys, "sum", "--k", "0", "--x", "100")
        assert code == 2

    @pytest.mark.parametrize("x", ["-5", "0"])
    def test_x_below_one_exits_2(self, capsys, x):
        code, out, err = run(capsys, "sum", "--k", "2", "--x", x)
        assert (code, out, err) == (2, "", f"mertens: error: x must be >= 1, got {x}\n")

    # pinned output of the fixed-point engine, one `sum` command a line: argv, value,
    # error_bound, terms.  Any change to its bits shows here
    @pytest.mark.parametrize("line", [
        ("--k 4 --x 1000000", "24.143274536327463252", "5.87e-62", 3350815),
        ("--k 1 --x 3000000000 --prec 64", "3.3444109554507137268", "2.77e-24", 144449537),
        ("--k 1 --x 99700000", "3.1748120556676379920", "7.72e-63", 5745162),
        ("--k 4 --x 10000000", "32.567224777133110799", "7.92e-62", 36716238),
        ("--k 6 --x 100000000", "123.52458269274584181", "3.01e-61", 1902498117),
        ("--k 4 --x 100000000 --prec 1024", "41.533700535444608388", "3.53e-312", 390340637),
        ("--k 20 --x 100000000 --prec 64", "0.65971798663402032564", "5.47e-25", 39627601),
        *(pytest.param(line, marks=pytest.mark.slow) for line in [
            ("--k 1 --x 10000000000 --prec 64", "3.3981153422405079726", "2.81e-24", 455052511),
            ("--k 2 --x 10000000000 --prec 64", "10.023526221024202055", "8.31e-24", 2987543294),
            ("--k 3 --x 10000000000 --prec 64", "26.079887147483893034", "2.16e-23", 12672880360),
            ("--k 6 --x 10000000000 --prec 64", "238.80396698197668000", "1.99e-22", 273362077071),
            ("--k 12 --x 10000000000 --prec 64", "1639.8751044942952464", "1.37e-21",
             4358607629366),
        ]),
    ], ids=lambda line: "-".join(line[0].split()[1::2]))  # k-x or k-x-prec
    def test_golden_json(self, line, capsys):
        argv, value, bound, terms = line
        code, out, _ = run(capsys, "sum", *argv.split(), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        del payload["elapsed_s"]
        k, x = map(int, argv.split()[1:4:2])
        assert payload == {"error_bound": bound, "k": k, "method": "memoized", "terms": terms,
                           "value": value, "x": x}

    @pytest.mark.parametrize("x", [10**18, 10**20])
    def test_huge_x_is_refused_before_a_large_sieve(self, x, capsys, monkeypatch):
        limits = []

        def recording_sieve(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(cli, "sieve", recording_sieve)
        code, out, err = run(capsys, "sum", "--k", "1", "--x", str(x))
        assert (code, out) == (4, "")
        assert err == f"mertens: error: x={x} exceeds the configured maximum 10000000000\n"
        assert max(limits) <= 100_000


def forbid_work(monkeypatch):
    """Make every sieve, DP pass and constants build fail the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the capacity checks")

    for module, name in ((primes, "sieve"), (harness, "sieve"), (sums, "sk_levels"),
                         (harness, "sk_levels"), (harness.ConstantsBundle, "build")):
        monkeypatch.setattr(module, name, no_work)


class TestVerifyCommand:
    def test_csv_to_file_and_determinism(self, capsys, tmp_path):
        args = ["verify", "--k", "1", "--start", "1000", "--stop", "100000",
                "--points", "3", "--format", "csv"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        text = out1.read_text()
        assert text.startswith("k,x,S_k,P_k,abs_err,ratio\n")

    def test_golden_json_bytes(self, capsys):
        # pinned report bytes for k = 1..4 on a five-point grid
        code, out, _ = run(capsys, "verify", "--start", "1000", "--stop", "100000",
                           "--points", "5", "--format", "json")
        assert code == 0
        assert len(out.encode()) == 3053
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "784fbb6476117f796b71fccbd70282bba2e9a2edb92e74a6119b469f415711b8"
        )

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "2", "--start", "1000",
                           "--stop", "50000", "--points", "3")
        assert code == 0
        assert "max_ratio" in out and "median_ratio" in out

    def test_degree_cap_before_any_work(self, capsys, monkeypatch):
        # k above the main term's degree cap exits 4 before sieving or summing
        forbid_work(monkeypatch)
        code, out, err = run(capsys, "verify", "--k", "13", "--stop", "100000000")
        assert code == 4
        assert out == "" and len(err.splitlines()) == 1

    def test_stop_cap_before_any_work(self, capsys, monkeypatch):
        # a grid above the engine's FAST_MAX_X exits 4 before its lower points run
        forbid_work(monkeypatch)
        code, out, err = run(capsys, "verify", "--k", "1", "--stop", "20000000000",
                             "--points", "12")
        assert code == 4
        assert out == ""
        assert err == ("mertens: error: grid stop 20000000000 exceeds the configured "
                       "maximum 10000000000\n")

    def test_sieves_only_to_isqrt(self, capsys, monkeypatch):
        # the engine reads primes up to isqrt(x), never up to x
        limits = []

        def recording_sieve(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(primes, "sieve", recording_sieve)
        monkeypatch.setattr(cli, "sieve", recording_sieve)
        monkeypatch.setattr(harness, "sieve", recording_sieve)
        assert run(capsys, "sum", "--k", "2", "--x", "1000000")[0] == 0
        assert run(capsys, "verify", "--k", "1", "--start", "1000", "--stop", "250000",
                   "--points", "2")[0] == 0
        assert limits == [1000, 500]

class TestArgumentHandling:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_sum_negative_digits(self, capsys):
        code, out, err = run(capsys, "sum", "--k", "2", "--x", "100", "--digits", "-3")
        assert code == 2
        assert out == ""
        assert err == "mertens: error: digits must be >= 1, got -3\n"

    def test_verify_zero_digits(self, capsys):
        code, out, err = run(capsys, "verify", "--k", "1", "--start", "1000",
                             "--stop", "5000", "--points", "3", "--digits", "0")
        assert code == 2
        assert out == ""
        assert err == "mertens: error: digits must be >= 1, got 0\n"

    def test_out_in_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f.json"
        code, out, err = run(capsys, "sum", "--k", "2", "--x", "100", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("mertens: error: --out directory does not exist")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("sum", "--k", "2", "--x", "100", "--format", "csv"),
        ("poly", "--k", "2", "--format", "csv"),
        ("constants", "--format", "csv"),
        ("hankel", "--m", "2", "--x", "100", "--format", "csv"),
        ("sum", "--k", "2", "--x", "100", "--sieve-limit", "100"),
        ("verify", "--k", "1", "--stop", "5000", "--sieve-limit", "1000"),
        ("constants", "--c1-method", "direct"),
        ("sum", "--k", "2", "--x", "1000", "--method", "direct"),
        ("hankel", "--m", "2", "--x", "100", "--digits", "5"),
    ])
    def test_removed_options_exit_2(self, capsys, argv):
        # csv is a verify report format only; --sieve-limit, --c1-method,
        # sum's --method and hankel's --digits are gone
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("mertens: error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        ((), "the following arguments are required: command"),
        (("transmogrify",), "argument command: invalid choice: 'transmogrify'"),
        (("sum", "--k", "2"), "the following arguments are required: --x"),
        (("sum", "--k", "2", "--x", "1e3"), "argument --x: invalid int value: '1e3'"),
        (("verify", "--points"), "argument --points: expected one argument"),
        (("sum", "--k", "2", "--x", "10", "--bogus"), "unrecognized arguments: --bogus"),
    ])
    def test_usage_errors_are_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith(f"mertens: error: {message}") and err.count("\n") == 1

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "mertens" in capsys.readouterr().out


# Edge values every flag may get: zero, negative, non-finite, beyond every cap, empty.
EDGE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1" + "0" * 30, "")
COMMON_FLAGS = {"--prec": ("64", "192"), "--digits": ("1", "20"),
                "--format": ("text", "csv", "json")}
SUBCOMMAND_FLAGS = {  # small valid values keep each example well under a second
    "sum": {"--k": ("1", "2", "4"), "--x": ("1", "2", "10", "1000")},
    "verify": {"--k": ("1", "3"), "--start": ("3", "100"), "--stop": ("20", "2000"),
               "--points": ("2", "5")},
    "poly": {"--k": ("1", "4"), "--symbolic": None},
    "constants": {},
    "hankel": {"--x": ("3", "100"), "--z": ("0.5", "4", "-3.5"), "--m": ("0", "3")},
    "nosuch": {},
}
ALWAYS_GIVEN = {"--stop"}  # the default verify grid runs to 10^8


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    argv = [command]
    for flag, valid in {**COMMON_FLAGS, **SUBCOMMAND_FLAGS[command]}.items():
        if flag not in ALWAYS_GIVEN and draw(st.booleans()):
            continue
        if valid is None:
            argv.append(flag)
        else:
            argv += [flag, draw(st.sampled_from(valid + EDGE_VALUES))]
    return argv


class TestFuzz:
    @given(argv=cli_argv())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_input_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        if code == 0:
            assert out.getvalue(), argv
        else:
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
