"""Arrows, dual forest derivatives, and forest derivatives of functionals.

A cut V splitting a block of P into C and D sends a shard X with support Q
(the fine side) to the shard X^V with support P lying on the positive side
of the new wall; the dual derivative of a cut is the difference X^V - X^Vbar,
and a layered forest derives cut by cut, innermost (last-listed) cut first.
Every coefficient of a shard's dual derivative is an integer: dual_rows
derives any number of coefficient maps along one forest over plain ints,
checking each against the antisymmetrized sum of arrow chains, and
dual_forest_derivative is its one-row form on ShardVectors.  Functionals
on the coarse side pull back along the dual derivative, read through
_functional_index and _totals, the one evaluator of functionals on rows.
"""

from .arrangement import Shard, context_for, enumerate_shards, shard_from_signs
from .exactla import ONE, ZERO, Rational, integer_coefficients, rat, rat_str
from .forests import BoundaryMismatchError, antisymmetrize
from .ground import GroundMismatchError, Partition


class InvariantViolation(AssertionError):
    """Two evaluation routes that must agree did not."""


def _merged_source(Q, V):
    # coarse partition on the far side of V: C and D fused back together
    if V.ground != Q.ground:
        raise GroundMismatchError("cut over a different ground set")
    if V.left not in Q.blocks or V.right not in Q.blocks:
        raise BoundaryMismatchError(
            "cut %r does not split a block of %s into two of its blocks"
            % (V, Q.format())
        )
    blocks = [b for b in Q.blocks if b != V.left and b != V.right]
    blocks.append(V.parent)
    return Partition(Q.ground, blocks)


def arrow(X, V):
    """X^V: the shard one level coarser, positive toward V's left part.

    Per canonical key of the coarse support: the key representing the new
    wall is + when it reduces to C (and - when to D); every other key class
    misses {C, D, empty} mod the fine support, so its sign is inherited.
    The fine context keeps, per cut, the coarse context, its key table
    (the new wall's sides fixed) and the memo {fine bits: X^V}.
    """
    fine = X.ctx
    try:
        return fine._arrow_tables[V][2][X.bits]
    except KeyError:
        pass
    found = fine._arrow_tables.get(V)
    if found is None:
        ctx = context_for(_merged_source(fine.P, V))
        try:
            table = ctx.table_from(fine, fixed={V.left: 1, V.right: -1})
        except AssertionError as exc:
            raise InvariantViolation(str(exc)) from None
        found = fine._arrow_tables[V] = ctx, table, {}
    ctx, table, memo = found
    Y = memo[X.bits] = ctx.intern(ctx.read(X.bits, table))
    return Y


def _json_values(obj):
    """{shard id: Rational} from a "values" map or a bare map of shard id
    to rational, as to_json_obj writes it and the CLI reads it."""
    values = obj.get("values") if isinstance(obj, dict) else None
    if isinstance(obj, dict) and "values" not in obj and "signs" not in obj:
        values = {k: v for k, v in obj.items()
                  if k not in ("kind", "support", "schema")}
    if not isinstance(values, dict):
        raise ValueError("expected a JSON map of shard id to rational")
    out = {}
    for key, val in values.items():
        try:
            out[key] = rat(val)
        except ValueError as exc:
            raise ValueError("value of shard %r: %s" % (key, exc)) from None
    return out


class ShardVector:
    """Formal rational combination of shards sharing one support partition.

    entries maps each interned shard of ctx with a nonzero coefficient to
    that coefficient, a Rational.
    """

    __slots__ = ("ctx", "entries")

    def __init__(self, support, entries=None):
        ctx = context_for(support)
        clean = {}
        for X, c in (entries or {}).items():
            if X.ctx is not ctx:
                raise BoundaryMismatchError("basis shard has a different support")
            c = rat(c)
            if c != ZERO:
                clean[X] = c
        self.ctx = ctx
        self.entries = clean

    @classmethod
    def _trusted(cls, ctx, entries):
        """Wrap {interned shard of ctx: int or Rational}, skipping validation."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.entries = {
            X: c if type(c) is Rational else Rational(c)
            for X, c in entries.items()
            if c
        }
        return out

    @classmethod
    def from_json_obj(cls, P, obj):
        """The inverse of to_json_obj: a "values" map or a bare map of shard
        id to rational, or a "signs" string or map naming one shard.  Every
        sign pattern must be a face of P."""
        if isinstance(obj, dict) and "signs" in obj:
            signs = obj["signs"]
            if not isinstance(signs, (str, dict)):
                raise ValueError("signs must be a sign string or a map of "
                                 "key subset to sign, got %r" % (signs,))
            return cls.basis(shard_from_signs(P, signs, certify=True))
        return cls(P, {shard_from_signs(P, k, certify=True): c
                       for k, c in _json_values(obj).items()})

    @classmethod
    def zero(cls, support):
        return cls(support)

    @classmethod
    def basis(cls, X, coeff=ONE):
        return cls(X.support, {X: coeff})

    @property
    def support(self):
        return self.ctx.P

    @property
    def ground(self):
        return self.ctx.ground

    def coefficient(self, X):
        return self.entries.get(X, ZERO)

    def items(self):
        return sorted(self.entries.items(), key=lambda kv: kv[0].bits)

    def is_zero(self):
        return not self.entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.items())

    def __add__(self, other):
        if not isinstance(other, ShardVector) or other.ctx is not self.ctx:
            raise BoundaryMismatchError("vectors over different supports")
        out = dict(self.entries)
        for X, c in other.entries.items():
            out[X] = out.get(X, ZERO) + c
        return ShardVector._trusted(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ShardVector._trusted(
            self.ctx, {X: -c for X, c in self.entries.items()})

    def scale(self, c):
        c = rat(c)
        return ShardVector._trusted(
            self.ctx, {X: c * v for X, v in self.entries.items()})

    def __eq__(self, other):
        return (
            isinstance(other, ShardVector)
            and other.ctx is self.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx.ground.labels, self.ctx.P.blocks, tuple(self.items())))

    def to_json_obj(self):
        return {
            "kind": "shard_vector",
            "support": self.ctx.P.format(),
            "values": {X.id(): rat_str(c) for X, c in self.items()},
        }

    def __repr__(self):
        if self.is_zero():
            return "ShardVector(%s, 0)" % self.ctx.P.format()
        bits = ["%s*%s" % (rat_str(c), X.id()) for X, c in self.items()]
        return "ShardVector(%s, %s)" % (self.ctx.P.format(), " + ".join(bits))


class Functional:
    """Total rational-valued map on the shards of one support partition.

    values maps each interned shard of ctx with a nonzero value to that
    value, a Rational; a shard that is absent takes zero.
    """

    __slots__ = ("ctx", "values")

    def __init__(self, support, values):
        ctx = context_for(support)
        basis = enumerate_shards(ctx.P)
        table = {}
        for k, c in values.items():
            X = shard_from_signs(ctx.P, k) if isinstance(k, str) else k
            table[X] = rat(c)
        if set(table) != set(basis):  # by identity: refuses other supports' shards
            raise ValueError(
                "functional must assign a value to each of the %d shards of %s"
                % (len(basis), ctx.P.format())
            )
        self.ctx = ctx
        self.values = {X: c for X, c in table.items() if c}

    @classmethod
    def _trusted(cls, ctx, values):
        """Wrap {interned shard of ctx: Rational}, skipping validation;
        zeros are dropped and missing shards take zero."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.values = {X: c for X, c in values.items() if c}
        return out

    @classmethod
    def from_json_obj(cls, P, obj):
        """The inverse of to_json_obj: a "values" map or a bare map of shard
        id to rational, naming every shard of P."""
        return cls(P, _json_values(obj))

    @classmethod
    def zero(cls, support):
        return cls._trusted(context_for(support), {})

    @classmethod
    def indicator(cls, X):
        return cls._trusted(X.ctx, {X: ONE})

    @classmethod
    def from_callable(cls, support, fn):
        return cls(support, {X: fn(X) for X in enumerate_shards(support)})

    @property
    def support(self):
        return self.ctx.P

    @property
    def ground(self):
        return self.ctx.ground

    def __call__(self, X):
        if X.ctx is not self.ctx:
            raise BoundaryMismatchError("shard has a different support")
        return self.values.get(X, ZERO)

    def evaluate_vector(self, v):
        if v.ctx is not self.ctx:
            raise BoundaryMismatchError("vector over a different support")
        get = self.values.get
        total = ZERO
        for X, c in v.entries.items():
            a = get(X)
            if a is not None:
                total += c * a
        return total

    def items(self):
        get = self.values.get
        return [(X, get(X, ZERO)) for X in enumerate_shards(self.ctx.P)]

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and other.ctx is self.ctx
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.ctx.ground.labels, self.ctx.P.blocks, tuple(self.items())))

    def to_json_obj(self):
        return {
            "kind": "functional",
            "support": self.ctx.P.format(),
            "values": {X.id(): rat_str(c) for X, c in self.items()},
        }

    def __repr__(self):
        return "Functional(%s, %d shards)" % (
            self.ctx.P.format(), len(enumerate_shards(self.ctx.P)))


def random_functional(support, seed, span=9):
    """Deterministic pseudorandom functional; integer values in [-span, span]."""
    import random

    rng = random.Random(seed)
    return Functional(
        support, {X: rat(rng.randint(-span, span)) for X in enumerate_shards(support)}
    )


def _functional_index(functionals, P):
    """(functionals, {shard: [(position, value)]}, scales): functionals
    over support P, each scaled to integers once and listed where nonzero."""
    by_shard, scales = {}, []
    for i, f in enumerate(functionals):
        if f.support is not P:
            raise BoundaryMismatchError("functional over a different support")
        weights, scale = integer_coefficients(f.values)
        scales.append(scale)
        for X, a in weights.items():
            by_shard.setdefault(X, []).append((i, a))
    return functionals, by_shard, scales


def _totals(by_shard, row):
    """{position: the functional's value on a {shard: int or Rational} row
    times its scale}, zeros left out; totals of two rows compare directly."""
    totals = {}
    for X, m in row.items():
        for i, a in by_shard.get(X, ()):
            totals[i] = totals.get(i, 0) + m * a
    return {i: t for i, t in totals.items() if t}


def _dual_cut(entries, V, W):
    # X -> X^V - X^W for the cut V and its reversal W
    out = {}
    for X, c in entries.items():
        Y = arrow(X, V)
        out[Y] = out.get(Y, 0) + c
        Y = arrow(X, W)
        out[Y] = out.get(Y, 0) - c
    return {Y: c for Y, c in out.items() if c}


def dual_rows(F, vectors):
    """Push maps {shard of target(F): coefficient} up to source(F).

    Returns one {shard of source(F): coefficient} map per input, nonzero
    entries only; integer inputs give integer coefficients.  Each row is
    evaluated twice: cut by cut (innermost first), and as the signed sum
    of arrow chains over the switches of F, antisymmetrized once for the
    whole call.  The two must match; disagreement raises
    InvariantViolation.
    """
    fine = context_for(F.target)
    cuts = [(V, V.reversed()) for V in reversed(F.cuts)]
    chains = [(sign, G.cuts[::-1]) for sign, G in antisymmetrize(F)]
    rows = []
    for v in vectors:
        entries = {}
        for X, c in v.items():
            if X.ctx is not fine:
                raise BoundaryMismatchError(
                    "shard %s is not over the forest target %s"
                    % (X.id(), F.target.format()))
            if c:
                entries[X] = c
        out = entries
        for V, W in cuts:
            out = _dual_cut(out, V, W)
        acc = {}
        for sign, chain in chains:
            for X, c in entries.items():
                for V in chain:
                    X = arrow(X, V)
                acc[X] = acc.get(X, 0) + (c if sign > 0 else -c)
        if out != {Y: c for Y, c in acc.items() if c}:
            raise InvariantViolation(
                "cut-by-cut and antisymmetrized evaluations disagree for %r" % (F,)
            )
        rows.append(out)
    return rows


def dual_forest_derivative(F, v):
    """Push a shard or shard vector from target(F) up to source(F): the
    one-row dual_rows, with its cross-check, as a ShardVector."""
    if v.support is not F.target:
        raise BoundaryMismatchError(
            "vector support %s is not the forest target %s"
            % (v.support.format(), F.target.format())
        )
    entries = {v: 1} if isinstance(v, Shard) else v.entries
    return ShardVector._trusted(context_for(F.source), dual_rows(F, [entries])[0])


def forest_derivative(F, f):
    """The functional on target(F) given by X -> f(dual derivative of X).

    All shards of target(F) are derived in one dual_rows call, and each
    row's total under f's index is divided by f's scale."""
    if f.support is not F.source:
        raise BoundaryMismatchError(
            "functional support %s is not the forest source %s"
            % (f.support.format(), F.source.format())
        )
    shards = enumerate_shards(F.target)
    _, by_shard, (scale,) = _functional_index([f], F.source)
    return Functional._trusted(context_for(F.target), {
        X: Rational(_totals(by_shard, row).get(0, 0), scale)
        for X, row in zip(shards, dual_rows(F, [{X: 1} for X in shards]))})
