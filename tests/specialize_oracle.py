"""Reference specialization in ``Fraction`` arithmetic.

This is the body ``conedec.genfunc.specialize`` had before its series ran in
``int``, kept unchanged as an oracle: for the same generating function,
direction and order both must return the same coefficients, or raise the
same ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from conedec.genfunc import RationalGF, _bernoulli
from conedec.linalg import idot
from helpers import dot


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] += x * y
    return out


def specialize(gf: RationalGF, direction: Sequence[int], order: int
               ) -> list[Fraction]:
    """Coefficients of s^0..s^order of gf(exp(s·λ)), as exact rationals.

    Each term with k denominator factors has a pole of order k at s = 0; the
    series bookkeeping divides it out exactly.  The direction must satisfy
    ⟨λ, b⟩ ≠ 0 for every denominator exponent b.  Raises ValueError if the
    negative-order coefficients fail to cancel across terms (the input was
    not the generating function of a bounded set).
    """
    lam = [int(x) for x in direction]
    max_pole = max((len(t.denominators) for t in gf.terms), default=0)
    total = [Fraction(0)] * (max_pole + order + 1)  # s^{-max_pole} .. s^{order}
    for t in gf.terms:
        k = len(t.denominators)
        work = k + order
        # Σ_a exp(s·⟨λ,a⟩) = Σ_i s^i·p_i/i! with p_i the i-th power sum
        dots = [idot(lam, a) for a in t.numerators]
        num = [Fraction(sum(x ** i for x in dots), factorial(i))
               for i in range(work + 1)]
        prefactor = t.coeff
        for b in t.denominators:
            beta = Fraction(dot(lam, b))
            if beta == 0:
                raise ValueError(f"direction {lam} degenerates denominator {b}")
            prefactor *= Fraction(-1) / beta
            # 1/(1 − exp(β·s)) = −1/(β·s) · Σ_i B_i·(β·s)^i/i!
            num = _series_mul(num, [_bernoulli(i) * beta ** i / factorial(i)
                                    for i in range(work + 1)], work)
        # term = prefactor · s^{-k} · num(s)
        for i in range(work + 1):
            total[max_pole - k + i] += prefactor * num[i]
    for j in range(max_pole):
        if total[j] != 0:
            raise ValueError(
                f"pole of order {max_pole - j} does not cancel; "
                "not the generating function of a bounded set")
    return total[max_pole:max_pole + order + 1]
