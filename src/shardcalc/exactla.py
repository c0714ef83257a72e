"""Exact rational linear algebra and strict-feasibility LP.

All arithmetic is over arbitrary-precision rationals: fractions.Fraction,
exported as Rational.  Matrices are sparse rows over a shared ordered
column basis of arbitrary hashable keys.  rank and kernel_basis use
fraction-free integer elimination with content reduction; the columns at
play downstream are shard bases, so rows are mostly small incidence data.

strictly_feasible answers "is there a point where these linear forms take
these signs" by an exact dense simplex with Bland's rule: maximize a slack
t with all strict rows relaxed by t and every variable boxed, feasible iff
the optimum is strictly positive.  Witnesses are re-verified and scaled so
the largest absolute entry is 1 (a zero witness, possible only for the
all-zero sign pattern, is returned unscaled).
"""

from fractions import Fraction as Rational
from math import gcd

from ._backend import kernel

ZERO = Rational(0)
ONE = Rational(1)


def rat(x):
    """Coerce int / string / rational to Rational."""
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Rational(x)


def rat_str(q):
    """Serialize a rational as 'p/q' or 'p'."""
    return str(q)


class SparseVector:
    """Mapping key -> nonzero Rational; zero entries are never stored."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, dict) else entries
            for k, v in items:
                v = v if type(v) is Rational else rat(v)
                if v:
                    self.entries[k] = v

    def get(self, key):
        return self.entries.get(key, ZERO)

    def items(self):
        return self.entries.items()

    def keys(self):
        return self.entries.keys()

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = SparseVector()
        r.entries = out
        return r

    def __sub__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, ZERO) - v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        r = SparseVector()
        r.entries = out
        return r

    def __neg__(self):
        r = SparseVector()
        r.entries = {k: -v for k, v in self.entries.items()}
        return r

    def scale(self, c):
        c = c if type(c) is Rational else rat(c)
        r = SparseVector()
        if c:
            r.entries = {k: c * v for k, v in self.entries.items()}
        return r

    def dot(self, other):
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        s = ZERO
        for k, v in a.items():
            w = b.get(k)
            if w is not None:
                s += v * w
        return s

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        body = ", ".join("%r: %s" % (k, v) for k, v in sorted(
            self.entries.items(), key=lambda kv: repr(kv[0])))
        return "SparseVector({%s})" % body


class RationalMatrix:
    """Ordered sparse rows over a shared ordered column basis."""

    def __init__(self, columns, rows=()):
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column keys must be distinct")
        self.col_index = {c: i for i, c in enumerate(self.columns)}
        self.rows = []
        for r in rows:
            self.add_row(r)

    def add_row(self, row):
        entries = row.entries if isinstance(row, SparseVector) else dict(row)
        out = {}
        for k, v in entries.items():
            if k not in self.col_index:
                raise KeyError("row key %r outside the column basis" % (k,))
            v = v if type(v) is Rational else rat(v)
            if v:
                out[self.col_index[k]] = v
        self.rows.append(out)


def _content_reduce(row):
    g = 0
    for x in row.values():
        g = gcd(g, abs(x))
        if g == 1:
            return row
    if g > 1:
        return {c: x // g for c, x in row.items()}
    return row


def _int_rows(M):
    """Clear denominators rowwise, reduce content; exact for rank purposes."""
    out = []
    for row in M.rows:
        if not row:
            continue
        lcm = 1
        for v in row.values():
            d = v.denominator
            lcm = lcm * d // gcd(lcm, d)
        r = {}
        for c, v in row.items():
            r[c] = int(v.numerator) * (lcm // int(v.denominator))
        out.append(_content_reduce(r))
    return out


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


def _echelon(int_rows):
    """Incremental integer echelon; returns {pivot col: row} by col order.

    Each stored row's minimum column is its pivot column; entries of a row
    at other pivot columns are tolerated (resolved at back-substitution).
    """
    pivots = {}
    for row in int_rows:
        row = _eliminate(row, pivots)
        if row:
            pivots[min(row)] = row
    return dict(sorted(pivots.items()))


def rank(M):
    """Row rank by fraction-free elimination; exact."""
    return len(_echelon(_int_rows(M)))


def kernel_basis(M):
    """Basis of the right kernel, one SparseVector per free column.

    Each basis vector has entry 1 at its free column and 0 at the other
    free columns; pivot coordinates are solved bottom-up.
    """
    pivots = _echelon(_int_rows(M))
    n = len(M.columns)
    free = [j for j in range(n) if j not in pivots]
    piv_desc = sorted(pivots.items(), reverse=True)
    basis = []
    for f in free:
        x = {f: ONE}
        for col, prow in piv_desc:
            s = ZERO
            for c, v in prow.items():
                if c != col and c in x:
                    s += v * x[c]
            if s:
                x[col] = -s / prow[col]
        vec = SparseVector()
        vec.entries = {M.columns[j]: v for j, v in x.items() if v}
        basis.append(vec)
    return basis


def rowspace_reducer(M):
    """Linear map to canonical coset representatives mod the rowspace of M.

    The representative is the unique coset member supported on free
    columns.  One pass over pivot columns in increasing order suffices:
    a pivot row's minimum column is its own pivot column, so clearing a
    column never reintroduces an earlier one.
    """
    pivots = _echelon(_int_rows(M))
    index = M.col_index
    cols = M.columns

    def reduce(vec):
        entries = vec.entries if isinstance(vec, SparseVector) else dict(vec)
        work = {}
        for key, val in entries.items():
            if key not in index:
                raise KeyError("vector key %r outside the column basis" % (key,))
            val = val if type(val) is Rational else rat(val)
            if val:
                work[index[key]] = val
        for col in sorted(pivots):
            v = work.get(col)
            if not v:
                continue
            prow = pivots[col]
            f = v / prow[col]
            for c, w in prow.items():
                nv = work.get(c, ZERO) - f * w
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
        out = SparseVector()
        out.entries = {cols[j]: v for j, v in work.items()}
        return out

    return reduce


class _Simplex:
    """Dense exact simplex, maximize one structural variable, Bland's rule."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.g_rows = []
        self.b = []

    def add_le(self, coeffs, rhs):
        # coeffs: dict var index -> Rational, constraint coeffs . z <= rhs
        self.g_rows.append(dict(coeffs))
        self.b.append(rhs)

    def maximize(self, objective_var):
        nv, m = self.nvars, len(self.g_rows)
        width = nv + m + 1
        tab = []
        for i, g in enumerate(self.g_rows):
            row = [ZERO] * width
            for j, v in g.items():
                row[j] = v
            row[nv + i] = ONE
            row[width - 1] = self.b[i]
            tab.append(row)
        obj = [ZERO] * width
        obj[objective_var] = -ONE
        tab.append(obj)
        basis = [nv + i for i in range(m)]

        while True:
            enter = -1
            objrow = tab[m]
            for j in range(width - 1):
                if objrow[j] < 0:
                    enter = j
                    break
            if enter < 0:
                break
            leave, best = -1, None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    ratio = tab[i][width - 1] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        leave, best = i, ratio
            if leave < 0:
                raise ArithmeticError("unbounded LP; the box bound is missing")
            kernel.pivot_step(tab, leave, enter)
            basis[leave] = enter

        values = [ZERO] * nv
        for i in range(m):
            if basis[i] < nv:
                values[basis[i]] = tab[i][width - 1]
        return tab[m][width - 1], values


def strictly_feasible(A, signs):
    """Witness x with (A x)_i strictly +, strictly -, or 0 per signs, or None.

    signs: one of '+', '-', '0' per row.  The witness is a SparseVector
    over A's column basis with max absolute entry 1.
    """
    if len(signs) != len(A.rows):
        raise ValueError("need exactly one sign per row")
    bad = [s for s in signs if s not in ("+", "-", "0")]
    if bad:
        raise ValueError("signs must be '+', '-' or '0', got %r" % bad[0])

    m = len(A.columns)
    nv = 2 * m + 1  # u_0..u_{m-1}, v_0..v_{m-1}, t
    t_var = 2 * m
    lp = _Simplex(nv)
    for row, s in zip(A.rows, signs):
        plus = {}
        for j, v in row.items():
            plus[j] = plus.get(j, ZERO) + v
            plus[m + j] = plus.get(m + j, ZERO) - v
        minus = {j: -v for j, v in plus.items()}
        if s == "+":
            g = dict(minus)
            g[t_var] = g.get(t_var, ZERO) + ONE
            lp.add_le(g, ZERO)
        elif s == "-":
            g = dict(plus)
            g[t_var] = g.get(t_var, ZERO) + ONE
            lp.add_le(g, ZERO)
        else:
            lp.add_le(plus, ZERO)
            lp.add_le(minus, ZERO)
    for j in range(nv):
        lp.add_le({j: ONE}, ONE)

    t_star, values = lp.maximize(t_var)
    if t_star <= 0:
        return None

    x = [values[j] - values[m + j] for j in range(m)]
    top = max((abs(q) for q in x), default=ZERO)
    if top:
        x = [q / top for q in x]
    for row, s in zip(A.rows, signs):
        val = sum((v * x[j] for j, v in row.items()), ZERO)
        if (s == "+" and not val > 0) or (s == "-" and not val < 0) or (
            s == "0" and val != 0
        ):
            raise AssertionError("simplex witness failed re-verification")
    vec = SparseVector()
    vec.entries = {A.columns[j]: q for j, q in enumerate(x) if q}
    return vec
