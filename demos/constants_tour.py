#!/usr/bin/env python3
"""A tour of the constants layer.

Prints the base constants at a few precisions, demonstrates the identity
c1 = gamma - g(1), and shows the derivatives of 1/Gamma at 1 together
with their classical closed forms.
"""

import math

from mpmath import mp

from mertens_sums import (
    ConstantsBundle,
    euler_gamma,
    g_at_1,
    mertens_c1,
    recip_gamma_derivs,
    to_decimal,
    zeta_int,
)

print("=== base constants at 192 bits ===")
print("gamma   =", to_decimal(euler_gamma(192), 40))
print("zeta(2) =", to_decimal(zeta_int(2, 192), 40))
print("zeta(3) =", to_decimal(zeta_int(3, 192), 40))

print()
print("=== the Mertens constant through the series g(1) ===")
c1 = mertens_c1(192)
g1 = g_at_1(192)
print("c1 = gamma - g(1)  =", to_decimal(c1, 40))
print("series value g(1)  =", to_decimal(g1, 40))
print("published c1          0.261497")

print()
print("=== precision is a knob, not a constant ===")
for bits in (64, 128, 256, 512):
    print(f"c1 at {bits:4d} bits: {to_decimal(mertens_c1(bits), bits // 4)}")

print()
print("=== derivatives of 1/Gamma at 1 ===")
bundle = ConstantsBundle.build(192, m_max=8)
a = bundle.recip_gamma_derivs
gam, z3 = bundle.gamma, bundle.zeta[3]
pi2 = bundle.zeta[2] * 6
pi4 = bundle.zeta[4] * 90
closed = {
    1: gam,
    2: gam**2 - pi2 / 6,
    3: 2 * z3 - pi2 * gam / 2 + gam**3,
    # note the minus sign on pi^2 gamma^2: the series recursion and the
    # degree-4 polynomial both force it, although a plus variant
    # circulates in print
    4: pi4 / 60 + 8 * gam * z3 - pi2 * gam**2 + gam**4,
}
for m in range(5):
    line = f"a_{m} = {to_decimal(a[m], 30)}"
    if m in closed:
        with mp.workprec(224):
            delta = abs(a[m] - closed[m])
        line += f"   |a_{m} - closed form| = {to_decimal(delta, 3)}"
    print(line)

print()
print("=== sanity: sum a_m/m! telescopes to 1/Gamma(2) = 1 ===")
partial = sum(a[m] / math.factorial(m) for m in range(9))
print("sum_{m<=8} a_m/m! =", to_decimal(partial, 20))
