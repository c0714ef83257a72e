import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shardcalc import exactla
from shardcalc.arrangement import enumerate_shards
from shardcalc.calculus import Functional, ShardVector
from shardcalc.exactla import (
    ONE,
    Rational,
    RationalMatrix,
    ZERO,
    integer_coefficients,
    kernel_basis,
    rank,
    rat,
    strictly_feasible,
)
from shardcalc.ground import GroundSet, Partition


def M(cols, rows):
    return RationalMatrix(cols, rows)


def test_rank_trivial_cases():
    assert rank(M([0, 1, 2], [])) == 0
    assert rank(M([0, 1, 2], [{}, {}])) == 0
    assert rank(M([0, 1, 2], [{0: 1}, {1: 1}, {2: 1}])) == 3
    assert rank(M([0, 1], [{0: 1, 1: 1}, {0: 2, 1: 2}])) == 1


def test_sparse_vector_arithmetic():
    # sparse exact vectors are ShardVectors: a {shard: nonzero Fraction} map
    P = Partition(GroundSet.of_size(3), [0b111])
    x, y, z = enumerate_shards(P)[:3]
    a = ShardVector(P, {x: 1, y: 2})
    b = ShardVector(P, {y: -2, z: 5})
    assert (a + b) == ShardVector(P, {x: 1, z: 5})
    assert y not in (a + b).entries
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(rat("1/2")) == ShardVector(P, {x: rat("1/2"), y: 1})
    assert Functional.from_callable(P, b.coefficient).evaluate_vector(a) == -4
    assert (-a) == ShardVector(P, {x: -1, y: -2})
    for r in (a + b, a.scale(rat("1/2")), -a):
        assert all(type(c) is Fraction and c != 0 for c in r.entries.values())


def test_rank_with_rational_entries():
    m = M(["a", "b"], [{"a": rat("1/3"), "b": rat("1/6")}, {"a": 4, "b": 2}])
    assert rank(m) == 1


def test_kernel_trivial_cases():
    assert kernel_basis(M([0, 1], [{0: 1}, {1: 1}])) == []
    basis = kernel_basis(M(["x", "y"], [{"x": 1, "y": -1}]))
    assert basis == [{"x": 1, "y": 1}]
    assert all(type(c) is Fraction for vec in basis for c in vec.values())


def test_one_echelon_per_row_set(monkeypatch):
    calls = []
    real = exactla._echelon

    def counted(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(exactla, "_echelon", counted)
    m = M(["x", "y", "z"], [{"x": 1, "y": -1}])
    assert rank(m) == 1
    assert kernel_basis(m) == [{"x": 1, "y": 1}, {"z": 1}]
    assert len(calls) == 1
    m.add_row({"y": 1, "z": 1})
    assert rank(m) == 2
    assert len(calls) == 2


def test_int_rows_equal_fraction_rows():
    rows = [{0: 2, 1: -4, 3: 6}, {1: 3, 2: -1}, {0: 2, 1: 2, 2: -2, 3: 6}]
    ints = M([0, 1, 2, 3], rows)
    fracs = M([0, 1, 2, 3], [{c: Fraction(v) for c, v in r.items()} for r in rows])
    assert all(type(v) is int for r in ints.rows for v in r.values())
    assert all(type(v) is Fraction for r in fracs.rows for v in r.values())
    assert ints.pivots() == fracs.pivots()
    assert rank(ints) == rank(fracs) == 2
    assert kernel_basis(ints) == kernel_basis(fracs)
    with pytest.raises(TypeError):
        M([0, 1], [{0: 1, 1: 0.5}])


def test_kernel_vectors_annihilate_rows():
    rows = [{0: 1, 1: 2, 2: 3, 3: 4}, {0: 1, 2: 1}, {1: 2, 2: 4, 3: 8}]
    m = M([0, 1, 2, 3], rows)
    basis = kernel_basis(m)
    assert len(basis) == 4 - rank(m)
    for vec in basis:
        for row in rows:
            assert sum(v * vec.get(k, 0) for k, v in row.items()) == 0


def _dense_back_substitution(m):
    # every pivot row, largest pivot column first, for every free column
    pivots = m.pivots()
    out = []
    for f in (j for j in range(len(m.columns)) if j not in pivots):
        x = {f: Fraction(1)}
        for col, prow in sorted(pivots.items(), reverse=True):
            s = sum((v * x[c] for c, v in prow.items() if c != col and c in x),
                    Fraction(0))
            if s:
                x[col] = -s / prow[col]
        out.append({m.columns[j]: v for j, v in x.items() if v})
    return out


def test_kernel_basis_solves_only_reachable_rows_in_order():
    # the queued solve gives the dense one's vectors, entry order included
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = [{j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.35}
                for _ in range(rng.randint(1, 8))]
        m = M(range(n), rows)
        basis = kernel_basis(m)
        assert [list(v.items()) for v in basis] == \
            [list(v.items()) for v in _dense_back_substitution(m)]
        assert len(basis) == n - rank(m)


def test_kernel_basis_of_relation_matrices_matches_dense_solve():
    # the annihilator bases the quotient reads, entry order included
    from shardcalc.steinmann import steinmann_relations

    for n in range(2, 6):
        m = steinmann_relations(GroundSet.of_size(n)).matrix()
        basis = kernel_basis(m)
        assert [list(v.items()) for v in basis] == \
            [list(v.items()) for v in _dense_back_substitution(m)]
        assert len(basis) == len(m.columns) - rank(m)


def test_integer_coefficients_clears_denominators_by_their_lcm():
    assert integer_coefficients({}) == ({}, 1)
    values = {"a": Rational(1, 4), "b": Rational(-5, 6), "c": ZERO, "d": 3}
    ints, scale = integer_coefficients(values)
    # lcm(4, 6) = 12, where the product of the denominators would be 24
    assert scale == 12
    assert ints == {"a": 3, "b": -10, "d": 36}
    assert all(type(v) is int for v in ints.values())
    assert {k: Rational(v, scale) for k, v in ints.items()} == {
        k: v for k, v in values.items() if v}


def test_strictly_feasible_trivial():
    assert strictly_feasible([{0: 1}], 1) == [1]
    assert strictly_feasible([{0: 1}, {0: -1}], 1) is None


def test_strictly_feasible_witness_is_normalized():
    # x > 0, 3y - x > 0 and y - 2x < 0: the point is content-1 ints
    w = strictly_feasible([{0: 1}, {0: -1, 1: 3}, {0: 2, 1: -1}], 2)
    assert all(type(q) is int for q in w) and math.gcd(*w) == 1
    assert w[0] > 0 and 3 * w[1] - w[0] > 0 and w[1] - 2 * w[0] < 0
    # no rows: the zero point of the right width, and no division by gcd() = 0
    assert strictly_feasible([], 3) == [0, 0, 0]
    assert strictly_feasible([], 0) == []


def test_adjoint_sign_patterns_n4_count_32():
    # raw LP scan over all 128 sign patterns on the 7 subset-sum classes
    # of a 4-element set, in the sum-zero hyperplane's coordinates x1..x3
    # (x4 = -x1 - x2 - x3)
    full = 0b1111
    reps = []
    for e in range(1, full):
        if e < full ^ e:
            reps.append(e)
    assert len(reps) == 7
    rows = []
    for e in reps:
        row = {i: 1 for i in range(3) if e >> i & 1}
        if e >> 3 & 1:
            row = {i: row.get(i, 0) - 1 for i in range(3)}
        rows.append({i: v for i, v in row.items() if v})
    feasible = 0
    for bits in range(1 << 7):
        oriented = [{i: -v for i, v in row.items()} if bits >> k & 1 else row
                    for k, row in enumerate(rows)]
        if strictly_feasible(oriented, 3) is not None:
            feasible += 1
    assert feasible == 32


small_rats = st.integers(-6, 6).map(lambda a: rat(a)) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).map(lambda f: rat(Fraction(f)))


@st.composite
def small_matrices(draw):
    ncols = draw(st.integers(1, 5))
    nrows = draw(st.integers(0, 5))
    rows = [
        {
            j: draw(small_rats)
            for j in range(ncols)
            if draw(st.booleans())
        }
        for _ in range(nrows)
    ]
    return RationalMatrix(range(ncols), rows)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    t = RationalMatrix(range(len(m.rows)))
    t.rows = [
        {i: row[j] for i, row in enumerate(m.rows) if j in row}
        for j in range(len(m.columns))
    ]
    assert rank(m) == rank(t)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    basis = kernel_basis(m)
    assert len(m.columns) == rank(m) + len(basis)
    for vec in basis:
        for row in m.rows:
            s = sum((v * vec.get(m.columns[j], 0) for j, v in row.items()), rat(0))
            assert s == 0


def _oriented(m, signs):
    # each row times its sign, denominators cleared by a positive scale
    return [integer_coefficients({j: s * v for j, v in row.items()})[0]
            for row, s in zip(m.rows, signs)]


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_feasibility_of_realized_sign_patterns(m, data):
    # orient the rows by the signs of a concrete point, dropping the rows
    # that vanish there; must come back feasible
    x = [data.draw(small_rats) for _ in range(len(m.columns))]
    vals = [sum((v * x[j] for j, v in row.items()), rat(0)) for row in m.rows]
    rows = _oriented(m, [1 if val > 0 else -1 for val in vals])
    rows = [row for row, val in zip(rows, vals) if val]
    w = strictly_feasible(rows, len(m.columns))
    assert w is not None  # witness re-verification runs inside


@given(small_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_verdict_on_arbitrary_sign_patterns_is_checked(m, data):
    # arbitrary orientations, mostly unrealizable, so the Farkas path runs
    rows = _oriented(m, [data.draw(st.sampled_from((1, -1))) for _ in m.rows])
    verdicts = []
    holds = exactla._farkas_holds

    def recording(*args):
        verdicts.append(holds(*args))
        return verdicts[-1]

    with mock.patch.object(exactla, "_farkas_holds", recording):
        w = strictly_feasible(rows, len(m.columns))
    if w is None:
        assert verdicts == [True]
    else:
        assert verdicts == []
        assert len(w) == len(m.columns) and all(type(q) is int for q in w)
        assert math.gcd(*w) in (0, 1)
        for row in rows:
            assert sum(v * w[j] for j, v in row.items()) > 0


# x > 0, y > 0 and -x - y > 0; then x > 0, y > 0 and -x - 2y > 0
INFEASIBLE = [
    ([{0: 1}, {1: 1}, {0: -1, 1: -1}], [1, 1, 1]),
    ([{0: 1}, {1: 1}, {0: -1, 1: -2}], [1, 2, 1]),
]


@pytest.mark.parametrize("rows, mults", INFEASIBLE)
def test_farkas_predicate_accepts_real_multipliers(rows, mults):
    assert exactla._farkas_holds(rows, mults)
    assert exactla._farkas_holds(rows, [3 * y for y in mults])
    assert strictly_feasible(rows, 2) is None


@pytest.mark.parametrize("rows, mults", INFEASIBLE)
def test_farkas_predicate_rejects_perturbed_multipliers(rows, mults):
    for k in range(len(mults)):
        for delta in (-1, 1):
            bad = list(mults)
            bad[k] += delta
            assert not exactla._farkas_holds(rows, bad), bad
    assert not exactla._farkas_holds(rows, [-y for y in mults])
    assert not exactla._farkas_holds(rows, [0] * len(mults))
    assert not exactla._farkas_holds(rows, mults[:-1])


def test_failed_certificate_check_raises(monkeypatch):
    monkeypatch.setattr(exactla, "_farkas_holds", lambda *args: False)
    with pytest.raises(AssertionError):
        strictly_feasible([{0: 1}, {0: -1}], 1)
    assert strictly_feasible([{0: 1}, {0: 1}], 1) == [1]
