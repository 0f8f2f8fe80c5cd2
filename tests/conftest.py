import pytest
from mpmath import mp, mpf

from mertens_sums.constants import ConstantsBundle
from mertens_sums.primes import sieve


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="also run the checks at x = 10^10 marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a check at x = 10^10, run only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="a check at x = 10^10: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def primes_1e4():
    return sieve(10**4)


@pytest.fixture(scope="session")
def primes_1e6():
    return sieve(10**6)


@pytest.fixture(scope="session")
def bundle192():
    # m_max 42 so the reciprocal-gamma consistency check at M=40 can see a_41
    return ConstantsBundle.build(192, m_max=42)


@pytest.fixture(scope="session")
def bundle224():
    return ConstantsBundle.build(224, m_max=12)


def assert_close_digits(actual, expected, digits, label=""):
    """|actual - expected| < 10^-digits * max(1, |expected|)."""
    with mp.workprec(max(mp.prec, int(digits * 3.33) + 64)):
        a, e = mpf(actual), mpf(expected)
        tol = mpf(10) ** (-digits) * max(1, abs(e))
        assert abs(a - e) < tol, (
            f"{label or 'value'}: |{mp.nstr(a, digits + 5)} - {mp.nstr(e, digits + 5)}| "
            f"= {mp.nstr(abs(a - e), 5)} >= {mp.nstr(tol, 3)}"
        )


def prime_log_series(primes, precision):
    """sum_p { log(1/(1-1/p)) - 1/p } over the table's primes, ascending, at ``precision`` bits.

    The series over all primes is g(1) = gamma - c1.  The dropped tail over
    p > primes.limit is below sum_{n > limit} n^-2 < 1/limit, so 2/limit
    bounds it with room for the rounding of this sum.
    """
    with mp.workprec(precision):
        one = mpf(1)
        total = mpf(0)
        for p in primes.primes.tolist():
            invp = one / p
            total += -mp.log(one - invp) - invp
        return total
