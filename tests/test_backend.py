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
    # the names the benchmark's tracer wraps and its runner reports
    for name in ("pivot_step", "sign_eval", "quick_check"):
        assert callable(getattr(kernel, name)), name


def test_sign_eval_packs_signs_and_refuses_zero_sums():
    # bit i from the top is set where the i-th subset sum is negative
    nums = [3, -5, 2]
    assert kernel.sign_eval([0b001, 0b010, 0b011, 0b110], nums) == 0b0111
    assert kernel.sign_eval([0b001, 0b101], nums) == 0b00
    assert kernel.sign_eval([0b001, 0b111, 0b010], nums) is None
    assert kernel.sign_eval([], nums) == 0


def test_pivot_rejects_zero_pivot():
    tab = [[0, 1], [2, 3]]
    with pytest.raises(ZeroDivisionError):
        kernel.pivot_step([row[:] for row in tab], 0, 0, 1)


def test_pivot_matches_rational_elimination():
    # the integer tableau over its determinant is the Gauss-Jordan tableau
    start = [[2, 1, -1, 8], [-3, -1, 2, -11], [-2, 1, 2, -3]]
    tab = [row[:] for row in start]
    ref = [[Fraction(x) for x in row] for row in start]
    det = 1
    for k in range(3):
        det = kernel.pivot_step(tab, k, k, det)
        p = ref[k][k]
        ref[k] = [x / p for x in ref[k]]
        for i in range(3):
            if i != k:
                f = ref[i][k]
                ref[i] = [x - f * y for x, y in zip(ref[i], ref[k])]
        assert all(type(x) is int for row in tab for x in row)
        assert [[Fraction(x, det) for x in row] for row in tab] == ref
    assert [Fraction(row[3], det) for row in tab] == [2, 3, -1]
