"""Wall relations, the semisimple quotient, products, and factorization.

A bipartition (S|T) with both sides of size at least two carries pairs
of shards that differ on exactly one movable key.  Pushing such a pair
up to the one-block support along the merging cut and its reverse gives
a four-term alternating vector; the span of all of these is the
relation subspace, and the quotient of the one-block shard span by it
is the semisimple quotient.  By restriction to the hyperplane lambda_S
= 0 (Zaslavsky 1975; Orlik and Terao 1992), each shard over (S|T) is
exactly the pair of one-block chambers it is pushed up to, which differ
only on the key of S; so the relations are read off the one-block
chambers, and no support with two blocks is walked.  A functional kills
every relation exactly when all its single-cut derivatives are constant
on Steinmann classes, and such functionals over a product support expand
uniquely in blockwise tensor bases.  All orders are fixed by shard ids,
which keeps outputs reproducible.
"""

from itertools import product as iter_product

from .arrangement import (
    Shard,
    SupportMismatchError,
    context_for,
    enumerate_shards,
    project,
    steinmann_classes,
)
from .calculus import (Functional, InvariantViolation, ShardVector,
                       _functional_index, _totals, dual_rows)
from .exactla import ONE, ZERO, Rational, _echelon, kernel_basis
from .forests import cut_forest
from .ground import (
    GroundMismatchError,
    GroundSet,
    Partition,
    all_partitions,
    is_r_semisimple,
    iter_bits,
    popcount,
)


class NotSemisimpleError(ValueError):
    """The functional fails a required Steinmann class constancy."""


def _halves(ground):
    """Bipartition masks (S, T), |S|, |T| >= 2, S holding the least label."""
    return [P.blocks for P in all_partitions(ground)
            if len(P.blocks) == 2 and min(map(popcount, P.blocks)) >= 2]


class RelationSet:
    """Four-term wall relations over the one-block support.

    Each relation equals X1^V - X1^W + X2^W - X2^V for a cut V of the
    ground into C and D, its reverse W and two shards X1, X2 over (C|D);
    the list is deduplicated up to overall sign, in cut-then-pair order.
    The echelon, the free shards, the annihilator basis and its index are
    each built once, on first use, and read by the quotient and the audit.
    """

    __slots__ = ("ground", "relations", "_pivots", "_free", "_basis", "_index")

    def __init__(self, ground, relations):
        self.ground = ground
        self.relations = tuple(relations)
        self._pivots = None
        self._free = None
        self._basis = None
        self._index = None

    def __len__(self):
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def shard_basis(self):
        """One-block shards sorted by id, the ambient column order."""
        return enumerate_shards(Partition.one_block(self.ground))

    def pivots(self):
        """Integer echelon of the relation rows keyed by shard bits, cached.

        Ascending bits is id order, so a row's pivot is its id-least shard;
        the rows are read off relations as they are eliminated.
        """
        if self._pivots is None:
            self._pivots = _echelon({Y.bits: c for Y, c in v.entries.items()}
                                    for v in self.relations)
        return self._pivots

    def rank(self):
        return len(self.pivots())

    def free(self):
        """The one-block shards at the free columns of the echelon, by id."""
        if self._free is None:
            pivots = self.pivots()
            self._free = tuple(X for X in self.shard_basis()
                               if X.bits not in pivots)
        return self._free

    def annihilator_basis(self):
        """Functionals over the one-block support killing every relation;
        the j-th is 1 at the j-th free shard and 0 at the others."""
        if self._basis is None:
            ctx = context_for(Partition.one_block(self.ground))
            columns = [X.bits for X in self.shard_basis()]
            self._basis = tuple(
                Functional._trusted(ctx, {ctx.intern(b): c for b, c in vec.items()})
                for vec in kernel_basis(self.pivots(), columns))
        return list(self._basis)

    def annihilator_index(self):
        """The _functional_index of annihilator_basis(), built once: a
        one-block row lies in the relation span exactly when _totals finds
        no nonzero value on it."""
        if self._index is None:
            self._index = _functional_index(
                self.annihilator_basis(), Partition.one_block(self.ground))
        return self._index


def steinmann_relations(ground):
    """All four-term wall relations over ground, deduplicated up to sign.

    For each bipartition (S|T) with both sides of size at least two, a
    one-block chamber Y with lambda_S > 0 whose flip at the key of S is
    also a chamber is X^V for exactly one shard X over Q = (S|T), and the
    flip is X^W; X's sign at a key of Q is Y's.  Pairs of such X that
    differ on one key that is not Q-semisimple give the candidates, in
    (S, T) order and then by the pair's sign patterns; each vector is
    normalized so its id-least entry is positive before deduplication.
    The set is kept on the one-block context.
    """
    ctx = context_for(Partition.one_block(ground))
    if ctx.relations is not None:
        return ctx.relations
    relations, seen = [], set()
    neg = -ONE  # rows share ONE and neg rather than a Fraction per entry
    halves = _halves(ground)
    chambers = {Y.bits: Y for Y in enumerate_shards(ctx.P)} if halves else {}
    for S, T in halves:
        Q = Partition(ground, [S, T])
        ctxQ = context_for(Q)
        kS, oS = ctx.lookup(S)
        flip = ctx.bit(kS)
        above = 0 if oS > 0 else flip  # Y's bit at kS where lambda_S > 0
        table = ctxQ.table_from(ctx)
        lifts = {}  # Q pattern -> (X^V, X^W)
        for bits, Y in chambers.items():
            if bits & flip == above and bits ^ flip in chambers:
                lifts[ctxQ.read(bits, table)] = (Y, chambers[bits ^ flip])
        movable = [ctxQ.bit(k) for k, r in enumerate(ctxQ.keys)
                   if not is_r_semisimple(Q, Q, r)]
        pairs = sorted((q, q | b) for q in lifts for b in movable
                       if not q & b and q | b in lifts)
        for q1, q2 in pairs:
            (Y1V, Y1W), (Y2V, Y2W) = lifts[q1], lifts[q2]
            plus = min(Y1V.bits, Y2W.bits), max(Y1V.bits, Y2W.bits)
            minus = min(Y1W.bits, Y2V.bits), max(Y1W.bits, Y2V.bits)
            # the bits-least chamber's coefficient is made positive
            if plus < minus:
                s, t, sig = ONE, neg, plus + minus
            else:
                s, t, sig = neg, ONE, minus + plus
            if sig in seen:
                continue
            seen.add(sig)
            relations.append(ShardVector._trusted(
                ctx, {Y1V: s, Y1W: t, Y2W: s, Y2V: t}))
    ctx.relations = RelationSet(ground, relations)
    return ctx.relations


class QuotientSpace:
    """One-block shard span modulo the relation span, a view over its dual.

    free holds the shards at the free columns of the relation echelon.  The
    j-th annihilator functional f_j is 1 at the j-th free shard Y_j and 0
    at the others, so sum_j f_j(v) Y_j is the unique member of v's coset
    supported on free, its canonical representative.  The free shards and
    the indexed f_j are the relation set's, built once per ground.
    """

    __slots__ = ("ground", "relation_set", "shards", "free", "dim")

    def __init__(self, ground):
        self.ground = ground
        self.relation_set = steinmann_relations(ground)
        self.shards = tuple(self.relation_set.shard_basis())
        self.free = self.relation_set.free()
        self.dim = len(self.free)

    def reduce(self, v):
        """Canonical coset representative of a one-block ShardVector."""
        if isinstance(v, Shard):
            v = ShardVector.basis(v)
        if v.support != Partition.one_block(self.ground):
            raise SupportMismatchError("vector is not over the one-block support")
        _, by_shard, scales = self.relation_set.annihilator_index()
        totals = _totals(by_shard, v.entries)
        return ShardVector._trusted(v.ctx, {
            self.free[j]: Rational(totals[j], scales[j]) for j in sorted(totals)})

    def contains(self, v):
        """True iff v lies in the relation span."""
        return self.reduce(v).is_zero()


def quotient_space(ground):
    """The QuotientSpace of ground."""
    return QuotientSpace(ground)


def quotient_dim(ground):
    """Number of one-block shards minus the relation rank."""
    R = steinmann_relations(ground)
    return len(R.shard_basis()) - R.rank()


def is_semisimple(f, R=None):
    """True iff f is constant on every Steinmann R-class of its support.

    R defaults to the support itself; coarser R demands constancy on the
    larger classes joined by keys movable relative to R.
    """
    if R is None:
        R = f.support
    for cls in steinmann_classes(f.support, R):
        v = f(cls[0])
        for X in cls[1:]:
            if f(X) != v:
                return False
    return True


def _single_cut_forests(P):
    """One forest per ordered proper split of each block of P."""
    out = []
    for U in P.blocks:
        A = (U - 1) & U
        while A:
            out.append(cut_forest(P, U, A))
            A = (A - 1) & U
    return out


def _smoothness_rows(P):
    """(F, rows) per single-cut forest F of P, in _single_cut_forests order,
    kept on P's context: the integer rows d_F(X) - d_F(X0), X in a Steinmann
    class of F.target with head X0.  They come from the walk and dual_rows,
    never the relations' one-block lifts, which duality.relations checks."""
    ctx = context_for(P)
    if ctx.smoothness is None:
        out = []
        for F in _single_cut_forests(P):
            shards = enumerate_shards(F.target)
            d = dict(zip(shards, dual_rows(F, [{X: 1} for X in shards])))
            out.append((F, [{Y: c for Y in {**d[X], **d[X0]}
                             if (c := d[X].get(Y, 0) - d[X0].get(Y, 0))}
                            for X0, *rest in steinmann_classes(F.target, F.target)
                            for X in rest]))
        ctx.smoothness = out
    return ctx.smoothness


def _rough_cut(f):
    """First single-cut forest with a non-semisimple derivative of f, or None."""
    _, by_shard, _ = _functional_index([f], f.support)
    return next((F for F, rows in _smoothness_rows(f.support)
                 if any(_totals(by_shard, row) for row in rows)), None)


def is_semisimply_differentiable(f):
    """True iff f and all its single-cut derivatives are semisimple."""
    return is_semisimple(f) and _rough_cut(f) is None


def product(P, factors):
    """Blockwise product functional over the common refinement.

    factors[j], taken in P.blocks order, lives over a partition whose
    blocks inside P's j-th block refine it and are singletons elsewhere;
    in the simple case every factor sits on the simple flat of its block
    and the result is a functional over P itself.  The value at a shard
    multiplies the factor values on its projected components.
    """
    factors = list(factors)
    if len(factors) != len(P.blocks):
        raise ValueError(
            "expected %d factors, got %d" % (len(P.blocks), len(factors))
        )
    ground = P.ground
    fine = []
    for T, f in zip(P.blocks, factors):
        Pj = f.support
        if f.ground != ground:
            raise GroundMismatchError("factor ground differs from the partition ground")
        for b in Pj.blocks:
            if b & T:
                if b & ~T:
                    raise SupportMismatchError(
                        "factor block %s straddles %s"
                        % (ground.mask_labels(b), ground.mask_labels(T))
                    )
                fine.append(b)
            elif popcount(b) != 1:
                raise SupportMismatchError(
                    "factor for block %s must be singletons outside it"
                    % ground.mask_labels(T)
                )
    Q = Partition(ground, fine)

    def value(X):
        comps = project(P, X)
        v = ONE
        for f, c in zip(factors, comps):
            v = v * f(c)
        return v

    return Functional.from_callable(Q, value)


def simple_flat(P, T):
    """The partition with block T and singletons elsewhere."""
    blocks = [T]
    blocks += [1 << i for i in iter_bits(P.ground.full_mask ^ T)]
    return Partition(P.ground, blocks)


def _flat_move(P, T):
    """T's sub-ground, and {shard of T's simple flat: one-block shard of
    the sub-ground} read key by key off the key's spread into T; raises
    InvariantViolation unless that map is a bijection of the shards."""
    positions = list(iter_bits(T))
    sub = GroundSet(P.ground.labels[i] for i in positions)
    sub_ctx = context_for(Partition.one_block(sub))
    spreads = [sum(1 << positions[i] for i in iter_bits(r)) for r in sub_ctx.keys]
    flat = context_for(simple_flat(P, T))
    table = sub_ctx.table_from(flat, spreads)
    moved = {X: sub_ctx.read(X.bits, table) for X in enumerate_shards(flat.P)}
    shards = {Y.bits: Y for Y in enumerate_shards(sub_ctx.P)}
    if sorted(moved.values()) != list(shards):  # both ascending, no repeats
        raise InvariantViolation(
            "the shards of the simple flat of %s do not move one to one onto "
            "those of %s" % (P.ground.mask_labels(T), sub))
    return sub, {X: shards[bits] for X, bits in moved.items()}


def flat_annihilator_basis(P, T):
    """Annihilator basis over the sub-ground of T, moved to its simple flat
    along _flat_move."""
    sub, moved = _flat_move(P, T)
    flat = simple_flat(P, T)
    return [Functional(flat, {X: g(Y) for X, Y in moved.items()})
            for g in steinmann_relations(sub).annihilator_basis()]


class Factorization:
    """Expansion of a functional in blockwise annihilator bases.

    bases[j] is the fixed basis for the j-th block moved to its simple
    flat; coefficients maps index tuples to nonzero rationals; factors
    holds the recovered factor functionals when the coefficient tensor
    has rank one (scalars folded into the first factor), None otherwise.
    """

    __slots__ = ("partition", "bases", "coefficients", "factors")

    def __init__(self, partition, bases, coefficients, factors):
        self.partition = partition
        self.bases = bases
        self.coefficients = coefficients
        self.factors = factors

    def expand(self):
        """Rebuild the functional: the sum over index tuples alpha of the
        coefficient times product(P, [bases[j][alpha_j]])."""
        P = self.partition
        terms = [(c, product(P, [self.bases[j][i] for j, i in enumerate(alpha)]))
                 for alpha, c in self.coefficients.items()]
        return Functional.from_callable(
            P, lambda X: sum((c * term(X) for c, term in terms), ZERO))


def _rank_one_factors(bases, coefficients, dims):
    """Factor functionals when the coefficient tensor is an outer product."""
    if not coefficients:
        return None
    pivot = min(coefficients)
    base = coefficients[pivot]
    k = len(dims)
    slices = []
    for j in range(k):
        col = []
        for i in range(dims[j]):
            alpha = pivot[:j] + (i,) + pivot[j + 1 :]
            col.append(coefficients.get(alpha, ZERO))
        slices.append(col)
    scale = base ** (k - 1)
    for alpha in iter_product(*[range(d) for d in dims]):
        lhs = coefficients.get(alpha, ZERO) * scale
        rhs = ONE
        for j, i in enumerate(alpha):
            rhs = rhs * slices[j][i]
        if lhs != rhs:
            return None
    factors = []
    for j in range(k):
        flat = bases[j][0].support
        values = {}
        for X in enumerate_shards(flat):
            v = ZERO
            for i in range(dims[j]):
                if slices[j][i]:
                    v += slices[j][i] * bases[j][i](X)
            values[X] = v / scale if j == 0 else v
        factors.append(Functional(flat, values))
    return factors


def factorize(P, f):
    """Expand a semisimply differentiable f over P in blockwise bases.

    Raises NotSemisimpleError unless f is constant on Steinmann classes
    and every single-cut derivative is as well; the expansion then
    exists and is unique because the blockwise product map is injective
    onto the semisimple span.  Each block's basis is 1 at one free shard
    and 0 at the others, so the coefficient at an index tuple is f's
    value at a shard whose components are those free shards; a tuple read
    at no shard raises InvariantViolation.  The result reports the
    coefficient tensor, the bases, and the recovered factors for pure
    products.
    """
    if f.support is not P:
        raise SupportMismatchError("functional is not over %s" % P.format())
    if not is_semisimple(f):
        raise NotSemisimpleError(
            "functional is not constant on a Steinmann class of %s" % P.format()
        )
    F = _rough_cut(f)
    if F is not None:
        raise NotSemisimpleError(
            "derivative along %r is not semisimple" % (F.cuts[0],))
    bases = [flat_annihilator_basis(P, T) for T in P.blocks]
    dims = [len(b) for b in bases]
    at = {}  # index tuple -> f at a shard where its basis product is 1
    for X in enumerate_shards(P):
        alpha = []
        for basis, c in zip(bases, project(P, X)):
            hits = [(i, v) for i, g in enumerate(basis) if (v := g(c))]
            if len(hits) != 1 or hits[0][1] != 1:
                break
            alpha.append(hits[0][0])
        else:
            at[tuple(alpha)] = f(X)
    alphas = list(iter_product(*[range(d) for d in dims]))
    if not all(alpha in at for alpha in alphas):
        raise InvariantViolation(
            "some blockwise basis index is 1 at no shard of %s" % P.format()
        )
    coefficients = {alpha: at[alpha] for alpha in alphas if at[alpha]}
    out = Factorization(P, bases, coefficients, _rank_one_factors(bases, coefficients, dims))
    if out.expand() != f:
        raise InvariantViolation("expansion does not reproduce the functional")
    return out
