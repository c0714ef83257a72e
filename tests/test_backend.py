"""The numeric kernel: one pure-Python implementation."""

from fractions import Fraction

import pytest

import shardcalc
from shardcalc import _kernel_py
from shardcalc._backend import BACKEND, kernel


def test_active_backend_is_reported():
    assert BACKEND == shardcalc.BACKEND == "pure"
    assert kernel is _kernel_py
    assert shardcalc.Rational is Fraction


def test_pivot_rejects_zero_pivot():
    tab = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(3)]]
    with pytest.raises(ZeroDivisionError):
        kernel.pivot_step([row[:] for row in tab], 0, 0)
