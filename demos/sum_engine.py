#!/usr/bin/env python3
"""The two routes to S_k(x): brute-force enumeration vs the key-space engine.

Shows exact rational values at toy sizes, oracle agreement at medium
sizes, and the engine's scaling up to x = 10^7 with timings, term
counts, and error ledgers.
"""

import math
import time

from mertens_sums import sieve, sk_direct, sk_fast, sk_levels, to_decimal
from mertens_sums.sums import KeySpace

print("=== exact rational values (enumeration) ===")
# the oracle walks every prime up to x; the engine reads primes only up to isqrt(x)
oracle_primes = sieve(5000)
engine_primes = sieve(math.isqrt(10**7))
for k, x in ((1, 10), (2, 6), (2, 10), (3, 8)):
    res = sk_direct(k, x, oracle_primes, exact=True)
    print(f"S_{k}({x}) = {res.value}   ({res.terms} ordered tuples)")

print()
print("=== the key space is tiny compared to x ===")
for x in (10**4, 10**6, 10**7):
    ks = KeySpace.build(x)
    print(f"x = {x:>10,}: {len(ks):6d} keys hold every recursion argument")

print()
print("=== level 1: prime reciprocal partial sums at the keys of x=30 ===")
for key in KeySpace.build(30).keys.tolist():
    s1 = sk_levels(1, key, engine_primes)[0]
    print(f"  sum 1/p over p <= {key:3d}  =  {to_decimal(s1.value, 15)}")

print()
print("=== oracle vs engine ===")
for k, x in ((2, 5000), (3, 5000)):
    t0 = time.perf_counter()
    d = sk_direct(k, x, oracle_primes)
    t_direct = time.perf_counter() - t0
    f = sk_fast(k, x, engine_primes)
    print(
        f"S_{k}({x}): direct {to_decimal(d.value, 18)} ({t_direct*1e3:6.1f} ms)"
        f"  fast {to_decimal(f.value, 18)} ({f.elapsed*1e3:6.1f} ms)"
    )

print()
print("=== scaling (memoized engine) ===")
for k in (1, 2, 3):
    for x in (10**5, 10**6, 10**7):
        res = sk_fast(k, x, engine_primes)
        print(
            f"S_{k}(10^{len(str(x))-1}) = {to_decimal(res.value, 18)}  "
            f"[{res.elapsed:6.2f} s, {res.terms:>12,} tuples, "
            f"ledger {to_decimal(res.error_bound, 3)}]"
        )
