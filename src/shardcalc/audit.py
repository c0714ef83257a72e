"""Machine verification suites for the structural identities of the calculus.

Every claim is an entry of one table, _CLAIMS, whose rows give the suite
that runs them (None: only the full audit), the ground sizes they are
checked at, each claim's statement and replay, and the run that checks
them.  run_suite runs a suite's rows and returns an AuditReport: one
AuditEntry per claim with the instance count and, on failure, the first
counterexample found.

Every claim has one witness function: given an instance it returns None
if the claim holds there, else the serialized counterexample.  The
exhaustive sweep, the seeded sampler and replay_counterexample all call
that same function; replay reads the counterexample back into the
witness's arguments with the readers the CLI uses for its input.

Exhaustive checks cover ground sizes up to four; size five is covered by
fixed-seed sampling (SAMPLE_SEED) plus the exhaustive-in-one-parameter
sweeps that stay affordable there, so reports are reproducible run to run.
"""

import collections
import functools
import itertools
import math
import random

from .arrangement import (
    enumerate_shards,
    project,
    shard_from_signs,
    steinmann_classes,
)
from .calculus import (
    Functional,
    ShardVector,
    _functional_index,
    _totals,
    dual_rows,
    forest_derivative,
    random_functional,
)
from .exactla import ZERO, rank, rat_str
from .forests import (
    Cut,
    LayeredForest,
    all_trees,
    compose,
    cut_forest,
    format_forest,
    identity_forest,
    iter_forests,
    parse_forest,
)
from .ground import (
    GroundSet,
    Partition,
    all_partitions,
    coarser_partitions,
    iter_bits,
)
from .steinmann import (
    _flat_move,
    _rough_cut,
    _smoothness_rows,
    flat_annihilator_basis,
    is_semisimply_differentiable,
    product,
    quotient_dim,
    simple_flat,
    steinmann_relations,
)

# One-block shard counts by ground size, cross-checked against the naive
# LP enumeration for sizes up to four in the test suite.
CHAMBER_COUNTS = {1: 1, 2: 2, 3: 6, 4: 32, 5: 370, 6: 11292}

# Every sampled check derives its randomness from this constant.
SAMPLE_SEED = 271828


def zie_dimension(n):
    """Expected quotient dimension at ground size n: n! [x^n] -log(2 - e^x),
    which is the sum over k of (k - 1)! S(n, k).  With u = e^x - 1 the
    series is -log(1 - u) = sum_k u^k / k, and n! [x^n] u^k / k! is
    S(n, k), the Stirling number of the second kind, built row by row
    from S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
    if not 1 <= n <= 12:
        raise ValueError("the series oracle covers sizes 1..12")
    row = [1]  # S(0, k) for k = 0
    for _ in range(n):
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return sum(math.factorial(k - 1) * s for k, s in enumerate(row) if k)


class AuditEntry:
    """Outcome of one checked claim at one ground size."""

    __slots__ = ("claim", "statement", "n", "instances", "passed", "counterexample", "notes")

    def __init__(self, claim, statement, n, instances, passed,
                 counterexample=None, notes=None):
        self.claim = claim
        self.statement = statement
        self.n = n
        self.instances = instances
        self.passed = bool(passed)
        self.counterexample = counterexample
        self.notes = notes

    def to_json_obj(self):
        obj = {
            "claim": self.claim,
            "statement": self.statement,
            "n": self.n,
            "instances": self.instances,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if self.notes:
            obj["notes"] = self.notes
        return obj

    def __repr__(self):
        return "AuditEntry(%s, n=%d, %s)" % (
            self.claim, self.n, "pass" if self.passed else "FAIL")


class AuditReport:
    """Ordered collection of audit entries with an overall verdict."""

    __slots__ = ("suite", "n", "entries")

    def __init__(self, suite, n, entries=None):
        self.suite = suite
        self.n = n
        self.entries = list(entries or [])

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def entry(self, claim):
        for e in self.entries:
            if e.claim == claim:
                return e
        raise KeyError(claim)

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "n": self.n,
            "passed": self.passed,
            "entries": [e.to_json_obj() for e in self.entries],
        }

    def format_text(self):
        import json

        lines = ["suite %s at n=%d: %s" % (
            self.suite, self.n, "PASS" if self.passed else "FAIL")]
        for e in self.entries:
            mark = "PASS" if e.passed else "FAIL"
            lines.append("  %s %-28s n=%d %8d instances  %s" % (
                mark, e.claim, e.n, e.instances, e.statement))
            if e.counterexample is not None:
                lines.append("       counterexample: %s" % json.dumps(
                    e.counterexample, sort_keys=True))
        return "\n".join(lines)


def _sweep(witness, instances):
    """Run a witness over instance argument tuples until one fails.

    Returns (instances checked, first counterexample or None).
    """
    count = 0
    for args in instances:
        count += 1
        ce = witness(*args)
        if ce is not None:
            return count, ce
    return count, None


def _basis_sweep(witness, g, instances):
    """_sweep with g's indexed annihilator basis passed first to the
    witness.  An instance counts once per basis functional, and a failing
    one up to the functional its counterexample names."""
    index = steinmann_relations(g).annihilator_index()
    basis = index[0]
    count, ce = _sweep(functools.partial(witness, index), instances)
    if ce is None:
        return count * len(basis), None
    objs = [f.to_json_obj() for f in basis]
    return (count - 1) * len(basis) + objs.index(ce["functional"]) + 1, ce


def _counterexample(claim, g, **fields):
    return {"claim": claim, "ground": list(g.labels), **fields}


def _shard_ref(X):
    return {"support": X.support.format(), "id": X.id()}


def _vector_ref(P, v):
    return {"support": P.format(),
            "values": dict(sorted((X.id(), rat_str(c)) for X, c in v.items()))}


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out


# ---------------------------------------------------------------- lie axioms

# blocks grouped under each bracket: two for antisymmetry, three for Jacobi
_BRACKET_PARTS = {"lie.antisymmetry": 2, "lie.jacobi": 3}


def _units(shards):
    return [{X: 1} for X in shards]


def _cancellation_witness(claim, forests, shards):
    """The dual derivatives of `forests` must sum to zero on each shard."""
    totals = [collections.Counter() for _ in shards]
    for F in forests:
        for total, row in zip(totals, dual_rows(F, _units(shards))):
            total.update(row)
    for X, total in zip(shards, totals):
        if any(total.values()):
            return _counterexample(
                claim, X.ground,
                forests=[format_forest(F) for F in forests],
                shard=_shard_ref(X))
    return None


def _bracket_terms(g, split, others, Bs, trees):
    """The forests of one bracket instance, composed over the inner forest
    made of `trees` (one per group block in Bs, over `split`): the two
    sides of the root cut for two groups, the three cyclic double cuts
    for three."""
    top = _union(Bs)
    merged = Partition(g, others + [top])
    inner = LayeredForest(split, [c for D in trees for c in D.cuts])
    if len(Bs) == 2:
        skeletons = [cut_forest(merged, top, B) for B in Bs]
    else:
        B1, B2, B3 = Bs
        skeletons = [
            LayeredForest(merged, [Cut(g, top, Ba | Bb), Cut(g, Ba | Bb, Ba)])
            for Ba, Bb in ((B1, B2), (B3, B1), (B2, B3))]
    return [compose(S, inner) for S in skeletons]


def _ordered_groups(free, k, low=0):
    """Tuples of k disjoint nonempty submasks of `free` whose least bits
    increase, each above `low`."""
    if not k:
        yield ()
        return
    s = free
    while s:
        if (s & -s) > low:
            for rest in _ordered_groups(free ^ s, k - 1, s & -s):
                yield (s,) + rest
        s = (s - 1) & free


def _bracket_setup(g, groups, others):
    """The trees of each of `groups` (lists of blocks) over the partition
    that splits the groups' unions off beside `others`, and the function
    taking one tree per group to the bracket's forests."""
    Bs = [_union(p) for p in groups]
    split = Partition(g, others + Bs)
    return ([all_trees(split, B, p) for B, p in zip(Bs, groups)],
            functools.partial(_bracket_terms, g, split, others, Bs))


def _bracket_instances(g, claim):
    """Every instance of a bracket claim, with all shards of its support."""
    k = _BRACKET_PARTS[claim]
    for P in all_partitions(g):
        blocks = list(P.blocks)
        if len(blocks) < k:
            continue
        shards = enumerate_shards(P)
        full = (1 << len(blocks)) - 1
        for masks in _ordered_groups(full, k):
            groups = [[blocks[i] for i in iter_bits(s)] for s in masks]
            others = [blocks[i] for i in iter_bits(full ^ _union(masks))]
            choices, bracket = _bracket_setup(g, groups, others)
            for trees in itertools.product(*choices):
                yield claim, bracket(trees), shards


def _sample_parts(rng, blocks, count):
    # uniform assignment of blocks to `count` parts or the remainder,
    # rejected until every part is nonempty
    while True:
        assign = [rng.randrange(count + 1) for _ in blocks]
        parts = [[b for b, a in zip(blocks, assign) if a == c + 1]
                 for c in range(count)]
        if all(parts):
            others = [b for b, a in zip(blocks, assign) if a == 0]
            return parts, others


def _check_lie(g, seed, per_claim=500):
    """Both bracket claims: exhaustive below five; at five, per_claim
    draws each from one fixed-seed stream, with one census of depths."""
    if g.n < 5:
        return [_sweep(_cancellation_witness, _bracket_instances(g, claim))
                for claim in _BRACKET_PARTS]
    rng = random.Random(seed)
    census = {}
    notes = {"seed": seed, "cut_census": census}
    out = []
    for claim, k in _BRACKET_PARTS.items():
        supports = [P for P in all_partitions(g) if len(P.blocks) >= k]
        depths = census.setdefault(claim.split(".")[1], {})
        ce = None
        for _ in range(per_claim):
            P = rng.choice(supports)
            groups, others = _sample_parts(rng, list(P.blocks), k)
            choices, bracket = _bracket_setup(g, groups, others)
            terms = bracket([rng.choice(c) for c in choices])
            X = rng.choice(enumerate_shards(P))
            depth = str(len(terms[0].cuts))
            depths[depth] = depths.get(depth, 0) + 1
            if ce is None:
                ce = _cancellation_witness(claim, terms, [X])
        out.append((per_claim, ce, notes))
    return out


# -------------------------------------------------------------- module axioms

def _unit_witness(F, X):
    if dual_rows(F, [{X: 1}]) != [{X: 1}]:
        return _counterexample(
            "module.unit", X.ground,
            forests=[format_forest(F)], shard=_shard_ref(X))
    return None


def _unit_instances(g):
    for P in all_partitions(g):
        F = identity_forest(P)
        for X in enumerate_shards(P):
            yield F, X


def _composite_witness(claim, outer, inner, shards):
    """Deriving along compose(outer, inner) must equal deriving along
    inner, then along outer, on each shard of the inner target."""
    direct = dual_rows(compose(outer, inner), _units(shards))
    staged = dual_rows(outer, dual_rows(inner, _units(shards)))
    for X, d, s in zip(shards, direct, staged):
        if d != s:
            return _counterexample(
                claim, X.ground,
                forests=[format_forest(outer), format_forest(inner)],
                shard=_shard_ref(X))
    return None


def _composite_instances(claim, supports, budget=2):
    """Forest pairs of up to `budget` cuts each, from `supports` down."""
    for P in supports:
        for F1 in iter_forests(P, budget):
            for F2 in iter_forests(F1.target, budget):
                yield claim, F1, F2, enumerate_shards(F2.target)


def _blockwise_kernel_vectors(Q):
    """Spanning vectors of the kernel of the blockwise coset map.

    A shard vector dies in the tensor product of the per-block quotients
    exactly when it lies in the span of the within-fiber differences of
    componentwise projection together with per-block wall relations, moved
    to the block's simple flat, lifted through every choice of the other
    components.
    """
    fibers = {}
    for X in enumerate_shards(Q):
        fibers.setdefault(_component_key(Q, X), []).append(X)
    vectors = []
    for members in fibers.values():
        for X in members[1:]:
            vectors.append({X: 1, members[0]: -1})
    blocks = list(Q.blocks)
    reps = {key: min(ms, key=lambda s: s.bits) for key, ms in fibers.items()}
    per_block_ids = [sorted({key[j] for key in fibers})
                     for j in range(len(blocks))]
    for j, T in enumerate(blocks):
        sub, moved = _flat_move(Q, T)
        rels = steinmann_relations(sub)
        if not rels.relations:
            continue
        flat_of = {Y: X for X, Y in moved.items()}
        others = [per_block_ids[i] for i in range(len(blocks)) if i != j]
        for rho in rels.relations:
            for choice in itertools.product(*others):
                entries = {}
                for Y, c in rho.items():
                    key = list(choice)
                    key.insert(j, flat_of[Y].bits)
                    X = reps[tuple(key)]
                    entries[X] = entries.get(X, 0) + int(c)
                vectors.append({X: c for X, c in entries.items() if c})
    return vectors


def _coset_witness(index, T, v):
    """No annihilating functional may be nonzero on v's dual derivative."""
    if _totals(index[1], dual_rows(T, [v])[0]):
        return _counterexample(
            "module.coset_kernel", T.ground,
            forests=[format_forest(T)], vector=_vector_ref(T.target, v))
    return None


def _coset_instances(g, max_cuts):
    index = steinmann_relations(g).annihilator_index()
    kernels = {}
    for T in iter_forests(Partition.one_block(g), max_cuts):
        Q = T.target
        if Q.blocks not in kernels:
            kernels[Q.blocks] = _blockwise_kernel_vectors(Q)
        for v in kernels[Q.blocks]:
            yield index, T, v


def _layering_pairs(g, max_cuts):
    """(first layering, another layering, shards of their target) for
    every delayered forest of the one-block support with more than one
    layering, the target's shards enumerated once per forest."""
    groups = {}
    for F in iter_forests(Partition.one_block(g), max_cuts):
        groups.setdefault(frozenset(F.cuts), []).append(F)
    for F0, *others in groups.values():
        if others:
            shards = enumerate_shards(F0.target)
            for Fi in others:
                yield F0, Fi, shards


# ------------------------------------------------------------- kernel theorem

def _component_key(R, X):
    return tuple(Y.bits for Y in project(R, X))


def _nested_pairs(g):
    for P in all_partitions(g):
        for R in coarser_partitions(g, P):
            yield P, R


def _span_witness(P, R):
    shards = enumerate_shards(P)
    keys = {X: _component_key(R, X) for X in shards}
    dim_kernel = len(shards) - rank({keys[X]: 1} for X in shards)
    pairs = [(X0, X) for X0, *rest in steinmann_classes(P, R) for X in rest]
    contained = all(keys[X] == keys[X0] for X0, X in pairs)
    span = rank({X.bits: 1, X0.bits: -1} for X0, X in pairs)
    if not contained or span != dim_kernel:
        return _counterexample(
            "kernel.span", P.ground, fine=P.format(), coarse=R.format(),
            difference_rank=span, kernel_dim=dim_kernel, contained=contained)
    return None


def _surjective_witness(P, R):
    shards = enumerate_shards(P)
    got = {_component_key(R, X) for X in shards}
    expected = math.prod(len(enumerate_shards(Y.support))
                         for Y in project(R, shards[0]))
    if len(got) != expected:
        return _counterexample(
            "kernel.surjective", P.ground, fine=P.format(), coarse=R.format(),
            realized=len(got), expected=expected)
    return None


# -------------------------------------------------------------- factorization

def _block_subforests(P, F):
    """Split F's cuts by the block of P each one refines, keeping order."""
    subcuts = {T: [] for T in P.blocks}
    for c in F.cuts:
        for T in P.blocks:
            if c.parent & ~T == 0:
                subcuts[T].append(c)
                break
    return [LayeredForest(simple_flat(P, T), subcuts[T]) for T in P.blocks]


def _diagram_witness(P, F, shards, factors=None):
    """Dual derivatives along F must split blockwise on each shard, and
    deriving the product of `factors` (one functional per block) must
    give the product of the blockwise derivatives."""
    subforests = _block_subforests(P, F)
    for X, row in zip(shards, dual_rows(F, _units(shards))):
        lhs = collections.Counter()
        for Y, c in row.items():
            lhs[_component_key(P, Y)] += c
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {(): 1}  # products of nonzero rows: no entry cancels
        for Fj, Xj in zip(subforests, project(P, X)):
            (dj,) = dual_rows(Fj, [{Xj: 1}])
            rhs = {key + (Z.bits,): c * cz
                   for key, c in rhs.items() for Z, cz in dj.items()}
        if lhs != rhs:
            return _counterexample(
                "factorization.diagram", P.ground, support=P.format(),
                forests=[format_forest(F)], shard=_shard_ref(X))
    if factors is not None:
        derived = [forest_derivative(Fj, fj)
                   for Fj, fj in zip(subforests, factors)]
        if forest_derivative(F, product(P, factors)) != product(P, derived):
            return _counterexample(
                "factorization.diagram", P.ground, support=P.format(),
                forests=[format_forest(F)],
                functionals=[fj.to_json_obj() for fj in factors])
    return None


def _diagram_instances(g, max_cuts=3, spot_cuts=2, seed=SAMPLE_SEED):
    """Every forest on each multi-block support against all shards, then
    the same square at the level of functionals on fixed-seed factors."""
    supports = [P for P in all_partitions(g) if len(P.blocks) >= 2]
    for P in supports:
        for F in iter_forests(P, max_cuts):
            yield P, F, enumerate_shards(F.target)
    for P in supports:
        factors = [random_functional(simple_flat(P, T), seed + j)
                   for j, T in enumerate(P.blocks)]
        for F in iter_forests(P, spot_cuts):
            yield P, F, (), factors


_DIMENSION_SAMPLE = ("(1234|5)", "(123|45)", "(12|345)", "(12|34|5)")


def _product_rank(P, bases):
    shards = enumerate_shards(P)
    rows = []
    for combo in itertools.product(*bases):
        h = product(P, list(combo))
        rows.append({X.bits: v for X in shards if (v := h(X))})
    return rank(rows)


def _solvable_dim(P):
    """Dimension cut out by semisimplicity of the value table and of all
    its single-cut derivatives (the smoothness rows), by elimination."""
    rows = [{X.bits: 1, X0.bits: -1}
            for X0, *rest in steinmann_classes(P, P) for X in rest]
    rows += [{Y.bits: c for Y, c in row.items()}
             for _, smooth in _smoothness_rows(P) for row in smooth]
    return len(enumerate_shards(P)) - rank(rows)


def _dimension_witness(P):
    g = P.ground
    expected = 1
    for T in P.blocks:
        expected *= quotient_dim(_flat_move(P, T)[0])
    got_rank = _product_rank(
        P, [flat_annihilator_basis(P, T) for T in P.blocks])
    got_dim = _solvable_dim(P)
    if got_rank != expected or got_dim != expected:
        return _counterexample(
            "factorization.dimension", g, support=P.format(),
            expected=expected, product_rank=got_rank, solvable_dim=got_dim)
    return None


def _check_dimension(g):
    """Every partition below five, those of _DIMENSION_SAMPLE at five."""
    if g.n < 5:
        return [_sweep(_dimension_witness, ((P,) for P in all_partitions(g)))]
    parts = ((Partition.parse(g, t),) for t in _DIMENSION_SAMPLE)
    return [_sweep(_dimension_witness, parts)
            + ({"partitions": list(_DIMENSION_SAMPLE)},)]


# --------------------------------------------------- main theorem, delayering

def _first_failure(pairs):
    """Least (functional position, pair position) whose functional tells
    apart the two sides of that pair of _totals, or None.

    This is the first failure of the functional-major loop "for each
    functional, for each pair: value on one side != value on the other"."""
    best = None
    for pos, (t0, t1) in enumerate(pairs):
        if t0 == t1:
            continue
        i = min(i for i in t0.keys() | t1.keys() if t0.get(i) != t1.get(i))
        if best is None or i < best[0]:
            best = (i, pos)
    return best


def _annihilator_witness(index, F, shards, classes):
    """Each indexed functional must take one value on the dual derivatives
    along F of every shard in each class.  Every shard in `shards` is
    derived, so the sweep (all shards of F.target) also runs the
    derivative's own cross-check on shards in singleton classes."""
    functionals, by_shard, _ = index
    duals = dict(zip(shards, dual_rows(F, _units(shards))))
    pairs = [(cls[0], X) for cls in classes for X in cls[1:]]
    totals = {X: _totals(by_shard, duals[X])
              for cls in classes if len(cls) > 1 for X in cls}
    fail = _first_failure((totals[X0], totals[X]) for X0, X in pairs)
    if fail is None:
        return None
    i, pos = fail
    return _counterexample(
        "maintheorem.annihilator", F.ground,
        forests=[format_forest(F)],
        functional=functionals[i].to_json_obj(),
        shards=[_shard_ref(X) for X in pairs[pos]])


def _converse_witness(g, f):
    """f, a functional pairing with a relation (None if the search found
    none), must have a non-semisimple single-cut derivative."""
    if f is not None and _rough_cut(f) is not None:
        return None
    return _counterexample(
        "maintheorem.converse", g,
        functional=None if f is None else f.to_json_obj())


def _check_maintheorem_converse(g, seed=SAMPLE_SEED):
    one = Partition.one_block(g)
    rels = steinmann_relations(g)
    for attempt in range(32):
        f = random_functional(one, seed + attempt)
        if any(f.evaluate_vector(v) != ZERO for v in rels.relations):
            return 1, _converse_witness(g, f), {"seed": seed + attempt}
    return 1, _converse_witness(g, None), None


def _delayering_witness(index, claim, F0, F1, shards):
    """Each indexed functional must agree on the dual derivatives along the
    layerings F0 and F1 of each shard; `claim` names the counterexample."""
    functionals, by_shard, _ = index
    rows0, rows1 = (dual_rows(F, _units(shards)) for F in (F0, F1))
    fail = _first_failure((_totals(by_shard, r0), _totals(by_shard, r1))
                          for r0, r1 in zip(rows0, rows1))
    if fail is None:
        return None
    i, pos = fail
    return _counterexample(
        claim, F0.ground, forests=[format_forest(F0), format_forest(F1)],
        functional=functionals[i].to_json_obj(), shard=_shard_ref(shards[pos]))


def _separation_witness(g, seed):
    """The functional drawn from `seed` must tell apart the two layerings
    of some layering pair of the one-block support (forests of up to
    n - 1 cuts), each pair judged by _delayering_witness.  Returns (pairs
    examined, counterexample or None)."""
    one = Partition.one_block(g)
    index = _functional_index([random_functional(one, seed)], one)
    instances = 0
    for F0, F1, shards in _layering_pairs(g, g.n - 1):
        instances += 1
        if _delayering_witness(index, "delayering.separation",
                               F0, F1, shards) is not None:
            return instances, None
    return instances, _counterexample(
        "delayering.separation", g, seed=seed)


def _check_delayering_separation(g, seed):
    """Try the functionals drawn from seed, seed + 1, ... (at most 32, as
    for the converse) until one separates a layering pair.  A single
    random functional misses every layering difference for about one seed
    in a thousand at n=4, which says nothing about the claim.  Returns the
    pairs examined by the last functional tried, its counterexample or
    None, and its seed as the notes."""
    for attempt in range(32):
        instances, ce = _separation_witness(g, seed + attempt)
        if ce is None:
            break
    return instances, ce, {"seed": seed + attempt}


# --------------------------------------------------- remaining global claims

def _counts_witness(g):
    got = len(enumerate_shards(Partition.one_block(g)))
    if got != CHAMBER_COUNTS[g.n]:
        return _counterexample(
            "counts.maximal_shards", g, expected=CHAMBER_COUNTS[g.n], got=got)
    return None


def _dims_witness(g):
    got = quotient_dim(g)
    want = zie_dimension(g.n)
    if got != want:
        return _counterexample("dims.series", g, expected=want, got=got)
    return None


def _sizes(n):
    return ((GroundSet.of_size(k),) for k in range(1, n + 1))


def _duality_witness(f):
    rels = steinmann_relations(f.ground)
    kills = all(f.evaluate_vector(v) == ZERO for v in rels.relations)
    smooth = is_semisimply_differentiable(f)
    if kills != smooth:
        return _counterexample(
            "duality.relations", f.ground, functional=f.to_json_obj(),
            kills_relations=kills, semisimply_differentiable=smooth)
    return None


def _duality_sample(g, seed=SAMPLE_SEED):
    one = Partition.one_block(g)
    rels = steinmann_relations(g)
    sample = list(rels.annihilator_basis()[:3])
    for k in range(5):
        sample.append(random_functional(one, seed + k))
    if rels.relations:
        X0 = rels.relations[0].items()[0][0]
        sample.append(Functional.indicator(X0))
    return [(f,) for f in sample]


def _functoriality_draws(g, count=200, budget=2, seed=SAMPLE_SEED):
    rng = random.Random(seed)
    parts = all_partitions(g)
    cache = {}

    def draw(P):
        if P not in cache:
            cache[P] = iter_forests(P, budget)
        return rng.choice(cache[P])
    for _ in range(count):
        F1 = draw(rng.choice(parts))
        F2 = draw(F1.target)
        X = rng.choice(enumerate_shards(F2.target))
        yield "calculus.functoriality", F1, F2, [X]


def _check_functoriality(g, seed):
    """Every forest pair below five, fixed-seed draws at five."""
    if g.n < 5:
        return [_sweep(_composite_witness, _composite_instances(
            "calculus.functoriality", all_partitions(g)))]
    return [_sweep(_composite_witness, _functoriality_draws(g, seed=seed))
            + ({"seed": seed},)]


# ------------------------------------------------------------- claim table

def _decoded(g, ce):
    """The fields a counterexample records, each read by the strict reader
    of its kind (partitions, forests, certified shards, functionals, vector
    entries, seeds); fields it does not record are absent."""
    def partition(text):
        return Partition.parse(g, text)

    def shard(ref):
        return shard_from_signs(partition(ref["support"]), ref["id"],
                                certify=True)

    def functional(obj):
        return (None if obj is None
                else Functional.from_json_obj(partition(obj["support"]), obj))

    def seed(value):
        if type(value) is not int:
            raise ValueError("a seed is an integer, got %r" % (value,))
        return value

    readers = {
        "fine": partition, "coarse": partition, "support": partition,
        "forests": lambda texts: [parse_forest(g, t) for t in texts],
        "shard": shard, "shards": lambda refs: [shard(r) for r in refs],
        "functional": functional,
        "functionals": lambda objs: [functional(o) for o in objs],
        "vector": lambda obj: ShardVector.from_json_obj(
            partition(obj["support"]), obj).entries,
        "seed": seed,
    }
    return {key: read(ce[key]) for key, read in readers.items() if key in ce}


# A row: its suite (None: only the full audit), its smallest and largest
# ground size, {claim: (statement, replay(ground, _decoded fields))} and
# run(ground, seed), which returns one (instances, counterexample[, notes])
# per claim.  Rows run in table order.
_Row = collections.namedtuple("_Row", "suite smallest largest claims run")

_CLAIMS = (
    _Row(None, 2, 5, {"counts.maximal_shards": (
        "one-block shard enumeration matches the recorded chamber counts",
        lambda g, d: _counts_witness(g))},
        lambda g, seed: [_sweep(_counts_witness, _sizes(g.n))]),
    _Row(None, 2, 5, {"dims.series": (
        "quotient dimensions match the series -log(2 - e^x)",
        lambda g, d: _dims_witness(g))},
        lambda g, seed: [_sweep(_dims_witness, _sizes(g.n))]),
    _Row(None, 2, 5, {"duality.relations": (
        "killing the wall relations is the same as having semisimple cut derivatives",
        lambda g, d: _duality_witness(d["functional"]))},
        lambda g, seed: [_sweep(_duality_witness, _duality_sample(g, seed))]),
    _Row(None, 2, 5, {"calculus.functoriality": (
        "dual derivatives compose contravariantly along forest composition",
        lambda g, d: _composite_witness(
            "calculus.functoriality", *d["forests"], [d["shard"]]))},
        _check_functoriality),
    _Row(None, 2, 5, {"maintheorem.annihilator": (
        "forest derivatives of relation-killing functionals stay semisimple",
        lambda g, d: _annihilator_witness(
            _functional_index([d["functional"]], d["forests"][0].source),
            *d["forests"], d["shards"], [d["shards"]]))},
        lambda g, seed: [_basis_sweep(_annihilator_witness, g, (
            (F, enumerate_shards(F.target), steinmann_classes(F.target, F.target))
            for F in iter_forests(Partition.one_block(g), min(g.n - 1, 3))))]),
    _Row(None, 4, 5, {"maintheorem.converse": (
        "a functional pairing with a relation has a non-semisimple cut derivative",
        lambda g, d: _converse_witness(g, d["functional"]))},
        lambda g, seed: [_check_maintheorem_converse(g, seed)]),
    _Row(None, 4, 4, {"delayering.annihilator": (
        "relation-killing functionals do not see the layering order",
        lambda g, d: _delayering_witness(
            _functional_index([d["functional"]], d["forests"][0].source),
            "delayering.annihilator", *d["forests"], [d["shard"]]))},
        lambda g, seed: [_basis_sweep(_delayering_witness, g, (
            ("delayering.annihilator", *pair)
            for pair in _layering_pairs(g, g.n - 1)))]),
    _Row(None, 4, 4, {"delayering.separation": (
        "a fixed reference functional distinguishes two layerings of one forest",
        lambda g, d: _separation_witness(g, d["seed"])[1])},
        lambda g, seed: [_check_delayering_separation(g, seed)]),
    _Row("lie", 2, 5, {
        "lie.antisymmetry": (
            "swapping the favored side of the root cut negates the dual derivative",
            lambda g, d: _cancellation_witness(
                "lie.antisymmetry", d["forests"], [d["shard"]])),
        "lie.jacobi": (
            "the cyclic sum of double-cut dual derivatives vanishes",
            lambda g, d: _cancellation_witness(
                "lie.jacobi", d["forests"], [d["shard"]]))},
        _check_lie),
    _Row("module", 2, 4, {"module.unit": (
        "the identity forest acts as the identity on shard vectors",
        lambda g, d: _unit_witness(*d["forests"], d["shard"]))},
        lambda g, seed: [_sweep(_unit_witness, _unit_instances(g))]),
    _Row("module", 2, 4, {"module.action": (
        "the dual derivative of a composite is the composite of dual derivatives",
        lambda g, d: _composite_witness(
            "module.action", *d["forests"], [d["shard"]]))},
        lambda g, seed: [_sweep(_composite_witness, _composite_instances(
            "module.action", [Partition.one_block(g)]))]),
    _Row("module", 2, 4, {"module.coset_kernel": (
        "dual tree derivatives map the blockwise relation kernel into the relation span",
        lambda g, d: _coset_witness(
            steinmann_relations(g).annihilator_index(), *d["forests"],
            d["vector"]))},
        lambda g, seed: [_sweep(_coset_witness, _coset_instances(g, g.n - 1))]),
    _Row("module", 2, 4, {"module.layering": (
        "layerings of one delayered forest agree modulo the relation span",
        lambda g, d: _delayering_witness(
            steinmann_relations(g).annihilator_index(), "module.layering",
            *d["forests"], [d["shard"]]))},
        lambda g, seed: [_sweep(
            functools.partial(_delayering_witness,
                              steinmann_relations(g).annihilator_index()),
            (("module.layering", F0, F1, [X])
             for F0, F1, shards in _layering_pairs(g, g.n - 1) for X in shards))]),
    _Row("kernel", 2, 5, {"kernel.span": (
        "within-class differences span the kernel of componentwise projection",
        lambda g, d: _span_witness(d["fine"], d["coarse"]))},
        lambda g, seed: [_sweep(_span_witness, _nested_pairs(g))]),
    _Row("kernel", 2, 4, {"kernel.surjective": (
        "componentwise projection reaches every tuple of component shards",
        lambda g, d: _surjective_witness(d["fine"], d["coarse"]))},
        lambda g, seed: [_sweep(_surjective_witness, _nested_pairs(g))]),
    _Row("factorization", 2, 4, {"factorization.diagram": (
        "dual forest derivatives commute with componentwise splitting",
        lambda g, d: _diagram_witness(
            d["support"], *d["forests"], [d["shard"]] if "shard" in d else (),
            d.get("functionals") or None))},
        lambda g, seed: [_sweep(
            _diagram_witness, _diagram_instances(g, seed=seed))]),
    _Row("factorization", 2, 5, {"factorization.dimension": (
        "the product-expressible span has the product of the block quotient dimensions",
        lambda g, d: _dimension_witness(d["support"]))},
        lambda g, seed: _check_dimension(g)),
)

SUITES = tuple(dict.fromkeys(row.suite for row in _CLAIMS if row.suite))


def run_suite(suite, n, seed=SAMPLE_SEED):
    """The claims of one of SUITES, or of every row for "full", at ground
    size n: each row at min(n, its largest size) unless that is below its
    smallest, and each entry with the size it was checked at.  A suite
    takes sizes 2 up to the largest size among its rows."""
    if suite not in SUITES + ("full",):
        raise ValueError("suite must be one of %s or \"full\", got %r"
                         % (", ".join(SUITES), suite))
    rows = [row for row in _CLAIMS if suite in ("full", row.suite)]
    largest = max(row.largest for row in rows)
    if not 2 <= n <= largest:
        raise ValueError("suite %s is checked at sizes 2..%d" % (suite, largest))
    entries = []
    for row in rows:
        m = min(n, row.largest)
        if m >= row.smallest:
            for (claim, (statement, _)), (instances, ce, *notes) in zip(
                    row.claims.items(), row.run(GroundSet.of_size(m), seed)):
                entries.append(AuditEntry(
                    claim, statement, m, instances, ce is None, ce, *notes))
    return AuditReport(suite, n, entries)


def full_audit(n, seed=SAMPLE_SEED):
    """Every claim at the largest size it supports up to n (2..5), sorted
    by claim."""
    report = run_suite("full", n, seed)
    report.entries.sort(key=lambda e: e.claim)
    return report


def replay_counterexample(ce):
    """Re-run one serialized counterexample through its claim's witness;
    True means the claim holds on that instance after all.  Malformed
    input (an inexact number, a shard that is no face, a ground label that
    is not a string, a ground above the claim's sizes) raises ValueError; a
    witness's AssertionError propagates."""
    if not (isinstance(ce, dict) and "claim" in ce
            and isinstance(ce.get("ground"), list)
            and all(isinstance(label, str) for label in ce["ground"])):
        raise ValueError("a counterexample is a map with a claim and a "
                         "ground list of label strings")
    for row in _CLAIMS:
        for claim, (_, replay) in row.claims.items():
            if claim == ce["claim"]:
                if len(ce["ground"]) > row.largest:
                    raise ValueError("%s is checked at sizes up to %d"
                                     % (claim, row.largest))
                try:
                    g = GroundSet(ce["ground"])
                    return replay(g, _decoded(g, ce)) is None
                except (KeyError, TypeError, AttributeError) as exc:
                    raise ValueError("malformed %s counterexample: %r"
                                     % (claim, exc)) from None
    raise ValueError("unknown claim %r" % (ce["claim"],))
