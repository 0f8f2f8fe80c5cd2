"""Regenerate ``references.json``: the expected output of every input a seed can pick.

Run from the repository root:  python3 perfbench/make_references.py

Each reference is computed at 256 bits, above the benchmark's 192, and
cross-checked where that is cheap: the 192- and 256-bit sums agree within both ledgers; for k = 1,
the count and the float sum of 1/p come from a separate plain sieve; for
x <= 1e5, the direct enumeration oracle agrees; each main term agrees
with the polynomial's other assembly route.  Finally the CLI's own output
for the input must pass the benchmark's checks against the reference.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

from checks import check_output  # noqa: E402
from mertens_sums import cli  # noqa: E402
from mertens_sums.asymptotics import evaluate_main_term, pk_polynomial  # noqa: E402
from mertens_sums.constants import ConstantsBundle  # noqa: E402
from mertens_sums.harness import RATIO_BOUND, GridSpec  # noqa: E402
from mertens_sums.primes import sieve  # noqa: E402
from mertens_sums.sums import sk_direct, sk_fast  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_PREC = 256


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference cross-check failed: {what}")


def flag(argv, name):
    return argv[argv.index(name) + 1]


def plain_primes(n: int) -> np.ndarray:
    """Primes <= n from an unsegmented sieve, independent of ``primes.sieve``."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def sum_reference(argv) -> dict:
    k, x = int(flag(argv, "--k")), int(flag(argv, "--x"))
    primes = sieve(x)
    hi = sk_fast(k, x, primes, precision=REF_PREC)
    lo = sk_fast(k, x, primes, precision=int(flag(argv, "--prec")))
    with mp.workprec(REF_PREC + 64):
        require(abs(hi.value - lo.value) <= hi.error_bound + lo.error_bound, argv)
        require(hi.terms == lo.terms, argv)
        if k == 1:
            plain = plain_primes(x)
            require(plain.size == hi.terms, (plain.size, hi.terms))
            require(abs(math.fsum(1.0 / plain.astype(float)) - hi.value) < 1e-9, argv)
        if x <= 100_000:
            direct = sk_direct(k, x, primes, precision=REF_PREC)
            require(abs(direct.value - hi.value) <= direct.error_bound + hi.error_bound, argv)
            require(direct.terms == hi.terms, argv)
        return {"value": mp.nstr(hi.value, 70, strip_zeros=False),
                "error_bound": mp.nstr(2 * hi.error_bound, 3),
                "terms": hi.terms}


def sweep_reference(argv) -> dict:
    grid = GridSpec(start=int(flag(argv, "--start")), stop=int(flag(argv, "--stop")),
                    points=int(flag(argv, "--points")))
    primes = sieve(grid.stop)
    bundle = ConstantsBundle.build(REF_PREC, m_max=12)
    rows = []
    with mp.workprec(REF_PREC):
        for k in (1, 2, 3, 4):
            other = pk_polynomial(k, bundle, "binomial")
            for x in grid.values():
                s = sk_fast(k, x, primes, precision=REF_PREC)
                p = evaluate_main_term(k, x, bundle)
                require(abs(p - other(mp.log(mp.log(x)))) < mpf(2) ** (20 - REF_PREC), (k, x))
                rows.append({"k": k, "x": x, "S_k": mp.nstr(s.value, 40, strip_zeros=False),
                             "P_k": mp.nstr(p, 40, strip_zeros=False)})
    return {"rows": rows, "ratio_bound": repr(RATIO_BOUND)}


BUILDERS = {"sum": sum_reference, "verify": sweep_reference}


def main() -> None:
    outputs = {}
    for workload in WORKLOADS.values():
        for argv in (workload.smoke, *workload.inputs):
            ref = BUILDERS[argv[0]](argv)
            captured = io.StringIO()
            with redirect_stdout(captured):
                require(cli.main(list(argv)) == 0, argv)
            failed = [c for c in check_output(argv, captured.getvalue(), ref) if not c[1]]
            require(not failed, (argv, failed))
            outputs[" ".join(argv)] = ref
            print("ok", " ".join(argv), file=sys.stderr, flush=True)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump({"generated_at": sha.strip(), "generator": "perfbench/make_references.py",
                   "outputs": outputs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
