"""Exact rational linear algebra and strict-feasibility LP.

All arithmetic is over arbitrary-precision rationals: fractions.Fraction,
exported as Rational.  A row is a plain {column: int or Rational} map
whose keys are mutually orderable (shard bits, id strings or tuples);
zero entries are ignored.  Kernel vectors are {column: nonzero Rational}
dicts.  rank and kernel_basis share one fraction-free integer echelon
with content reduction, {pivot column: row}, where a row's pivot is its
least key; kernel_basis reduces it back to front and reads each vector
off the reduced rows.  The columns at play downstream are shards, so
rows are mostly small incidence data.

integer_coefficients is the package's one rule for clearing denominators:
it multiplies a rational map by the lcm of its denominators.  The scale
is positive, so signs survive it.

strictly_feasible answers Gordan's alternative for integer rows: either
some integer point makes every row positive, or nonnegative multipliers,
not all zero, combine the rows to zero.  Callers orient each row by the
sign they want, so every row asks for "> 0".  An exact simplex with
Bland's rule maximizes a slack t with every row relaxed by t and every
variable boxed; the rows are feasible iff the optimum is positive.  The
tableau is one integer matrix over a running determinant (fraction-free
pivoting, as in Avis's lrs); each of its rows starts as zeros with only
its few nonzeros set, so building it costs its size, not its height
squared.  A point is re-verified and divided by its
content; a "no" carries the multipliers of the final objective row,
checked in integers.  arrangement.py poses its LPs in the flat's own
coordinates.
"""

import re
from fractions import Fraction as Rational
from math import gcd, lcm

from ._backend import kernel

ZERO = Rational(0)
ONE = Rational(1)

_MAX_EXPONENT = 4300  # Python's digit limit for int literals
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def rat(x):
    """The one reader of an exact number: an int, a Rational or a rational
    string such as "-2/5" becomes a Rational.  Bools, floats (inexact),
    other types, zero denominators and exponents above 4300 in magnitude,
    which Fraction would evaluate in full, raise ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, Rational, str)):
        raise ValueError("expected an integer, a Rational or a rational "
                         "string, got %r" % (x,))
    if isinstance(x, str) and (m := _EXPONENT.search(x)):
        digits = m.group(1).replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError("exponent of %r is above %d in magnitude"
                             % (x, _MAX_EXPONENT))
    try:
        return Rational(x)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (x,)) from None


def rat_str(q):
    """Serialize a rational as 'p/q' or 'p'."""
    return str(q)


def _content_reduce(row):
    g = 0
    for x in row.values():
        g = gcd(g, abs(x))
        if g == 1:
            return row
    if g > 1:
        return {c: x // g for c, x in row.items()}
    return row


def integer_coefficients(coefficients):
    """({key: int}, scale): the nonzero values of a {key: int or Rational} map
    times scale, the lcm of their denominators.  The scale is positive, so
    no nonzero value becomes zero and no comparison changes direction."""
    scale = lcm(*(c.denominator for c in coefficients.values()))
    return {k: c.numerator * (scale // c.denominator)
            for k, c in coefficients.items() if c}, scale


def _int_row(row):
    """Clear denominators and content of one row: a positive rescaling."""
    try:
        ints = integer_coefficients(row)[0]
    except AttributeError:  # a float has no denominator
        raise TypeError("row entries must be int or Rational; floats are "
                        "not allowed in exact arithmetic") from None
    return _content_reduce(ints)


def _eliminate(row, pivots):
    """Reduce an integer row against pivot rows by cross-multiplication.

    A pivot row holds only columns >= its own pivot column, so clearing
    the smallest pivotal column present strictly raises that minimum and
    the loop terminates.
    """
    while row:
        col = min((c for c in row if c in pivots), default=None)
        if col is None:
            return row
        prow = pivots[col]
        r = row[col]
        p = prow[col]
        new = {}
        for c, v in row.items():
            nv = p * v - r * prow.get(c, 0)
            if nv:
                new[c] = nv
        for c, v in prow.items():
            if c not in row:
                nv = -r * v
                if nv:
                    new[c] = nv
        row = _content_reduce(new)
    return row


def _echelon(rows):
    """Incremental integer echelon; returns {pivot col: row} by col order.

    Each stored row's minimum column is its pivot column; entries of a row
    at other pivot columns are tolerated (kernel_basis clears them).
    """
    pivots = {}
    for row in rows:
        row = _eliminate(_int_row(row), pivots)
        if row:
            pivots[min(row)] = row
    return dict(sorted(pivots.items()))


def rank(rows):
    """Row rank of {column: int or Rational} maps by fraction-free
    elimination; exact."""
    return len(_echelon(rows))


def kernel_basis(pivots, columns):
    """Basis of the right kernel of an echelon, one {column: Rational}
    dict per free column, in columns order.

    Each basis vector has entry 1 at its free column and 0 at the other
    free columns.  The pivot rows are reduced back to front, largest pivot
    column first, so each holds only its pivot and free columns; a free
    column's vector then reads -row[f] / row[col] off every reduced row
    holding it, in decreasing pivot-column order.  A column of the echelon
    missing from columns raises ValueError.
    """
    known = set(columns)
    if not all(row.keys() <= known for row in pivots.values()):
        raise ValueError("the echelon holds a column outside columns")
    reduced = {}
    for col in sorted(pivots, reverse=True):
        reduced[col] = _eliminate(pivots[col], reduced)
    basis = {f: {f: ONE} for f in columns if f not in pivots}
    for col, row in reduced.items():
        p = row[col]
        for f, v in row.items():
            if f != col:
                basis[f][col] = Rational(-v, p)
    return list(basis.values())


def _farkas_holds(rows, mults):
    """True when mults prove that no x makes every row positive.

    Holds when every y_k >= 0, their sum is positive and sum_k y_k * row_k
    = 0: at a point with every row positive that sum would be positive and
    zero at once (Gordan's alternative).
    """
    if len(mults) != len(rows) or any(y < 0 for y in mults):
        return False
    total = {}
    for row, y in zip(rows, mults):
        for j, v in row.items():
            total[j] = total.get(j, 0) + y * v
    return sum(mults) > 0 and not any(total.values())


def strictly_feasible(rows, width):
    """An integer point x with row . x > 0 for every row, or None.

    rows: {position: int} maps over positions 0..width-1.  The point is
    a list of width ints divided by their content; with no rows it is
    the zero point.  None comes only with multipliers that passed
    _farkas_holds; a point or multipliers that fail their check raise
    AssertionError.
    """
    # Columns u_0..u_{m-1}, v_0..v_{m-1} (x = u - v), t, then one slack
    # per row, then the right-hand side.  Rows: -a.(u - v) + t <= 0 per
    # row a, then every structural variable <= 1; the objective row
    # maximizes t.
    m = width
    nv = 2 * m + 1
    height = len(rows) + nv
    tab = []
    for i, row in enumerate(rows):
        tr = [0] * (nv + height + 1)
        for j, v in row.items():
            tr[j] = -v
            tr[m + j] = v
        tr[nv - 1] = tr[nv + i] = 1
        tab.append(tr)
    for j in range(nv):
        tr = [0] * (nv + height + 1)
        tr[j] = tr[nv + len(rows) + j] = tr[-1] = 1
        tab.append(tr)
    obj = [0] * (nv + height + 1)
    obj[nv - 1] = -1
    tab.append(obj)
    basis = list(range(nv, nv + height))

    det = 1
    while True:
        objrow = tab[height]
        enter = next((j for j in range(nv + height) if objrow[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(height):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][-1]
                if leave >= 0:
                    # b / a against best_b / best_a, by cross-multiplication
                    lhs, rhs = b * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_a, best_b = i, a, b
        if leave < 0:
            raise ArithmeticError("unbounded LP; the box bound is missing")
        det = kernel.pivot_step(tab, leave, enter, det)
        basis[leave] = enter

    objrow = tab[height]
    if objrow[-1] <= 0:
        # The slack reduced costs are det times the duals of the LP rows.
        if not _farkas_holds(rows, objrow[nv : nv + len(rows)]):
            raise AssertionError("simplex Farkas certificate failed its check")
        return None

    value = [0] * nv
    for i in range(height):
        if basis[i] < nv:
            value[basis[i]] = tab[i][-1]
    x = [value[j] - value[m + j] for j in range(m)]  # det times the point
    for row in rows:
        if not sum(v * x[j] for j, v in row.items()) > 0:
            raise AssertionError("simplex witness failed re-verification")
    content = gcd(*x)
    return [q // content for q in x] if content else x
