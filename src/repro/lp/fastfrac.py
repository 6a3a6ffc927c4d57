"""Exact-``Fraction`` hot-path helpers: normalize once per result, not once
per operator, and pause the cyclic collector while millions of acyclic
Fractions are allocated (each collection would rescan the whole heap)."""

import gc
from contextlib import contextmanager
from fractions import Fraction
from math import gcd


def raw_fraction(num: int, den: int) -> Fraction:
    """Fraction from an already-normalized ``num/den`` (``den > 0``)."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


try:  # guard against fractions implementations without those slots
    if raw_fraction(3, 2) + Fraction(1, 2) != 2:
        raw_fraction = Fraction                        # pragma: no cover
except Exception:                                      # pragma: no cover
    raw_fraction = Fraction


def sub_mul(a, b, c) -> Fraction:
    """``a - b * c`` over int/Fraction operands."""
    ad, pd = a.denominator, b.denominator * c.denominator
    if pd == ad:
        num, den = a.numerator - b.numerator * c.numerator, ad
    else:
        num, den = a.numerator * pd - b.numerator * c.numerator * ad, ad * pd
    g = gcd(num, den)
    return raw_fraction(num // g, den // g)


def frac_div(a, b) -> Fraction:
    """``a / b`` over int/Fraction operands."""
    num, den = a.numerator * b.denominator, a.denominator * b.numerator
    if den < 0:
        num, den = -num, -den
    elif not den:
        raise ZeroDivisionError("division by zero")
    g = gcd(num, den)
    return raw_fraction(num // g, den // g)


@contextmanager
def paused_gc():
    """Disable the cyclic collector for the block or decorated call; its
    previous state is restored on exit, so nesting is harmless."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
