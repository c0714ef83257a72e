import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from shardcalc import exactla
from shardcalc.arrangement import context_for, enumerate_shards
from shardcalc.calculus import Functional, ShardVector
from shardcalc.exactla import (
    ONE,
    Rational,
    ZERO,
    integer_coefficients,
    kernel_basis,
    rank,
    rat,
    strictly_feasible,
)
from shardcalc.ground import GroundSet, Partition
from shardcalc.steinmann import RelationSet, QuotientSpace, steinmann_relations


def basis_of(rows, columns):
    return kernel_basis(exactla._echelon(rows), columns)


def test_rank_trivial_cases():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank([{0: 1}, {1: 1}, {2: 1}]) == 3
    assert rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1


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
    assert rank([{"a": rat("1/3"), "b": rat("1/6")}, {"a": 4, "b": 2}]) == 1


def test_kernel_trivial_cases():
    assert basis_of([{0: 1}, {1: 1}], [0, 1]) == []
    basis = basis_of([{"x": 1, "y": -1}], ["x", "y"])
    assert basis == [{"x": 1, "y": 1}]
    assert all(type(c) is Fraction for vec in basis for c in vec.values())


def test_one_echelon_per_row_set(monkeypatch):
    # rank, the annihilator basis and the quotient share one elimination
    from shardcalc import steinmann

    calls = []
    real = exactla._echelon

    def counted(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(steinmann, "_echelon", counted)
    g = GroundSet.of_size(4)
    cached = steinmann_relations(g)
    R = RelationSet(g, cached.relations, cached.provenance)
    monkeypatch.setattr(context_for(Partition.one_block(g)), "relations", R)
    assert R.rank() == 6
    assert len(R.annihilator_basis()) == 26
    Q = QuotientSpace(g)
    assert Q.relation_set is R and Q.dim == 26
    assert len(calls) == 1


def test_int_rows_equal_fraction_rows():
    rows = [{0: 2, 1: -4, 3: 6}, {1: 3, 2: -1}, {0: 2, 1: 2, 2: -2, 3: 6}]
    fracs = [{c: Fraction(v) for c, v in r.items()} for r in rows]
    pivots = exactla._echelon(fracs)
    assert all(type(v) is int for r in pivots.values() for v in r.values())
    assert exactla._echelon(rows) == pivots
    assert rank(rows) == rank(fracs) == 2
    assert basis_of(rows, range(4)) == basis_of(fracs, range(4))


def test_row_api_guards():
    # a float entry is inexact, on either path into the echelon
    with pytest.raises(TypeError):
        rank([{0: 1, 1: 0.5}])
    with pytest.raises(TypeError):
        basis_of([{0: 1.0}], [0])
    # zero entries are ignored: they neither pivot nor fill a row
    assert rank([{0: 0, 1: ZERO}]) == 0
    assert exactla._echelon([{0: 0, 1: 2, 2: -4}]) == {1: {1: 1, 2: -2}}
    assert basis_of([{0: 0, 1: 1}], [0, 1]) == basis_of([{1: 1}], [0, 1])
    # every column of the echelon must be one of columns
    with pytest.raises(ValueError):
        basis_of([{0: 1, 1: 1}], [1])
    with pytest.raises(ValueError):
        basis_of([{0: 1, 1: 1}], [0])


def test_rows_keyed_by_ids_bits_or_positions_agree():
    # id order is bits order, so the three keyings re-key one echelon
    R = steinmann_relations(GroundSet.of_size(4))
    shards = R.shard_basis()
    keyings = [lambda X: X.id(), lambda X: X.bits, shards.index]
    results = []
    for key in keyings:
        rows = [{key(X): c for X, c in v.entries.items()} for v in R]
        basis = basis_of(rows, [key(X) for X in shards])
        back = {key(X): X for X in shards}
        results.append((rank(rows),
                        [[(back[k], c) for k, c in vec.items()] for vec in basis]))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == R.rank() == 6
    assert [[(X, c) for X, c in f.values.items()] for f in R.annihilator_basis()] \
        == results[0][1]


def test_kernel_vectors_annihilate_rows():
    rows = [{0: 1, 1: 2, 2: 3, 3: 4}, {0: 1, 2: 1}, {1: 2, 2: 4, 3: 8}]
    basis = basis_of(rows, range(4))
    assert len(basis) == 4 - rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(v * vec.get(k, 0) for k, v in row.items()) == 0


def _dense_back_substitution(pivots, columns):
    # every pivot row, largest pivot column first, for every free column
    out = []
    for f in (j for j in columns if j not in pivots):
        x = {f: Fraction(1)}
        for col, prow in sorted(pivots.items(), reverse=True):
            s = sum((v * x[c] for c, v in prow.items() if c != col and c in x),
                    Fraction(0))
            if s:
                x[col] = -s / prow[col]
        out.append({j: v for j, v in x.items() if v})
    return out


def test_kernel_basis_of_random_rows_matches_dense_solve():
    # reading the back-reduced echelon gives the dense solve's vectors,
    # entry order included
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 10)
        rows = [{j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.35}
                for _ in range(rng.randint(1, 8))]
        pivots = exactla._echelon(rows)
        basis = kernel_basis(pivots, range(n))
        assert [list(v.items()) for v in basis] == \
            [list(v.items()) for v in _dense_back_substitution(pivots, range(n))]
        assert len(basis) == n - rank(rows)


def test_kernel_basis_of_relation_matrices_matches_dense_solve():
    # the annihilator bases the quotient reads, entry order included
    for n in range(2, 6):
        R = steinmann_relations(GroundSet.of_size(n))
        columns = [X.bits for X in R.shard_basis()]
        basis = kernel_basis(R.pivots(), columns)
        assert [list(v.items()) for v in basis] == \
            [list(v.items()) for v in _dense_back_substitution(R.pivots(), columns)]
        assert len(basis) == len(columns) - R.rank()


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
    # (number of columns, rows over columns 0..ncols-1), zeros included
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
    return ncols, rows


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(m):
    ncols, rows = m
    t = [{i: row[j] for i, row in enumerate(rows) if j in row}
         for j in range(ncols)]
    assert rank(rows) == rank(t)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    ncols, rows = m
    basis = basis_of(rows, range(ncols))
    assert ncols == rank(rows) + len(basis)
    for vec in basis:
        for row in rows:
            s = sum((v * vec.get(j, 0) for j, v in row.items()), rat(0))
            assert s == 0


def _oriented(rows, signs):
    # each row times its sign, denominators cleared per row by a positive scale
    return [integer_coefficients({j: s * v for j, v in row.items()})[0]
            for row, s in zip(rows, signs)]


@given(small_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_feasibility_of_realized_sign_patterns(m, data):
    # orient the rows by the signs of a concrete point, dropping the rows
    # that vanish there; must come back feasible
    ncols, rows = m
    x = [data.draw(small_rats) for _ in range(ncols)]
    vals = [sum((v * x[j] for j, v in row.items()), rat(0)) for row in rows]
    rows = _oriented(rows, [1 if val > 0 else -1 for val in vals])
    rows = [row for row, val in zip(rows, vals) if val]
    w = strictly_feasible(rows, ncols)
    assert w is not None  # witness re-verification runs inside


@given(small_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_every_verdict_on_arbitrary_sign_patterns_is_checked(m, data):
    # arbitrary orientations, mostly unrealizable, so the Farkas path runs
    ncols, rows = m
    rows = _oriented(rows, [data.draw(st.sampled_from((1, -1))) for _ in rows])
    verdicts = []
    holds = exactla._farkas_holds

    def recording(*args):
        verdicts.append(holds(*args))
        return verdicts[-1]

    with mock.patch.object(exactla, "_farkas_holds", recording):
        w = strictly_feasible(rows, ncols)
    if w is None:
        assert verdicts == [True]
    else:
        assert verdicts == []
        assert len(w) == ncols and all(type(q) is int for q in w)
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
