"""Subgroup distortion in integer unitriangular groups.

Distortion compares word length in a finitely generated subgroup with
word length in the ambient group.  For unitriangular groups the
asymptotic comparison is polynomial with a rational exponent, and that
exponent is computed exactly here: ambient depth is level_weight, and
depth inside the subgroup is the position of an element in the
subgroup's isolated lower central series.  By the Malcev
correspondence that position is the largest k with log h in L_k, the
k-th lower central term of the rational Lie algebra L_1 generated by
the logarithms of the subgroup's generators.  lie_span brackets them
layer by layer and tags each vector with its layer; LieAlgebraSpan is
the one echelon those tagged vectors feed, holding the whole series
L_1 >= L_2 >= ... in integer echelon form, pivoting in level-major
order, and permuted feeds it the same rows re-keyed.  The degree
(Osin: the largest level(h)/depth(h)) and its strata are read off that
one echelon (LieAlgebraSpan.strata and .degree), so callers that want
only the degree, such as jennings.image_degree and the ordering
surveys, never standardize.  distortion_degree standardizes to print
slot witnesses beside the same strata.  standardize sifts into one
table from each lead (level, row) to its slot and the slot's inverse;
the sifter, the closure's dry check and member_certificate all peel
that table (_peel), and the StandardizedSequence keeps only that table
and the leads and slots read off it.  Any generating set gives the same
series, so distortion_degree and subgroup_depth both build it, through
one cache, from what they are given: the input generators of a
SubgroupGens, whose independent logarithms are never more than the
slots, or the slots of a StandardizedSequence.  The group-side series
(lower_central_gens, commutators of the generators) serves only the
independent oracle depth_by_powers.

Everything is exact.  Searches that could blow up (brute-force word
enumeration, metric balls) take explicit bounds and raise GuardError
rather than start an open-ended computation; so does standardize for a
subgroup size N past MAX_POSITIONS.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import gcd, lcm

from .matgroup import (
    GuardError,
    RationalNilpotentMatrix,
    UnitriangularMatrix,
    _add_into,
    _build,
    _check_positions,
    _entry_from_json,
    _fields,
    _Frozen,
    _lead,
    _log_numerator,
    _sequence,
    binary_power,
    commutator,
    elementary,
    identity,
    level_weight,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "SubgroupGens",
    "StandardizedSequence",
    "standardize",
    "member",
    "member_certificate",
    "lower_central_gens",
    "LieAlgebraSpan",
    "lie_span",
    "subgroup_depth",
    "DistortionReport",
    "Stratum",
    "distortion_degree",
    "distorted_subgroup",
    "brute_force_degree",
    "depth_by_powers",
    "ball",
    "empirical_distortion",
    "subgroup_to_json",
    "subgroup_from_json",
    "report_to_json",
]


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b == g == gcd(a, b), g > 0 for a, b not
    both zero."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class SubgroupGens(_Frozen):
    """A finitely generated subgroup, given by matrix generators.

    Immutable and hashable so computed invariants can be cached on it;
    equal when of equal size with equal generators in the same order.
    The size n must be an integer (or a decimal string); a float or a
    boolean raises ValueError.
    """

    __slots__ = ("n", "generators")

    def __init__(self, n, generators):
        n = _entry_from_json(n, "subgroup size N")
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, UnitriangularMatrix):
                raise ValueError("generators must be unitriangular matrices")
            if g.n != n:
                raise ValueError("generator size does not match ambient size")
        self._freeze(n=n, generators=generators)

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupGens)
            and self.n == other.n
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.n, self.generators))

    def __repr__(self):
        return f"SubgroupGens(n={self.n}, {len(self.generators)} generators)"


def subgroup_to_json(sub):
    return {
        "N": sub.n,
        "generators": [matrix_to_json(g) for g in sub.generators],
    }


def subgroup_from_json(obj):
    n, gens = _fields(obj, "subgroup object", ("N", "generators"))
    return SubgroupGens(
        n, [matrix_from_json(g) for g in _sequence(gens, "generators")]
    )


class StandardizedSequence(_Frozen):
    """Generators of a subgroup in standard form.

    Built from a table mapping each lead (level, 0-based row) to its
    slot and the slot's inverse, as standardize's sifter leaves it, and
    keeps that table, privately, for the peel of member_certificate.
    Slots are ordered by the lead of their first nonzero entry in
    level-major order (see matgroup._lead); lead_pairs holds the leads,
    strictly increasing, and lead coefficients are positive.  After
    conjugation closure the sequence is polycyclic: every element of
    the subgroup is a product of slot powers in slot order, which makes
    membership decidable by a greedy peel with divisibility checks.
    """

    __slots__ = ("n", "slots", "lead_pairs", "_table")

    def __init__(self, n, table):
        leads = tuple(sorted(table))
        self._freeze(
            n=n, lead_pairs=leads,
            slots=tuple(table[k][0] for k in leads), _table=dict(table),
        )

    def __eq__(self, other):
        return (
            isinstance(other, StandardizedSequence)
            and self.n == other.n
            and self.slots == other.slots
        )

    def __hash__(self):
        return hash((self.n, self.slots))

    @property
    def levels(self):
        """Ambient depth of each slot's lead position."""
        return tuple(l for l, _ in self.lead_pairs)

    def __len__(self):
        return len(self.slots)

    def __repr__(self):
        return (
            f"StandardizedSequence(n={self.n}, leads="
            f"{[(i + 1, i + 1 + l) for l, i in self.lead_pairs]})"
        )


def _power(x, xi, e):
    """x**e, given xi == x**-1, without inverting anything."""
    return binary_power(x, e, identity(x.n), inverse=lambda _: xi)


def _peel(m, table, exps=None):
    """Reduce m by the slots, lead by lead, as far as they reach.

    table maps a lead (level, row) to a slot and its inverse, as a
    pair.  While m's lead is a slot's lead and that slot's lead
    coefficient divides m's, m is multiplied on the left by the power
    of the slot, or of its inverse, that clears the lead; the exponent
    cleared is stored in exps[lead] when exps is given.  Each step
    raises the lead, since at the lead's level a product adds entries.
    No inverse is formed.  Returns (lead, coefficient, rest) where it
    stops: rest's lead and lead coefficient, with lead None when rest
    is the identity.
    """
    while True:
        k = _lead(m)
        if k is None:
            return None, 0, m
        level, i = k
        a = m.entries[i][i + level]
        entry = table.get(k)
        if entry is None:
            return k, a, m
        g, gi = entry
        e, r = divmod(a, g.entries[i][i + level])
        if r:
            return k, a, m
        if exps is not None:
            exps[k] = e
        m = _power(g, gi, -e) * m


class _Sifter:
    """Mutable workspace for building a standardized sequence.

    ``table`` maps each lead (level, row) to its slot and the slot's
    inverse (inverted once, when the slot is set), so a reduction step
    is a power of the slot or of its inverse times the element.  A sift
    peels the element (_peel); where the peel stops short of the
    identity, the element fills an empty slot, or, at a slot whose lead
    coefficient does not divide the element's, an xgcd merge of the two
    replaces the slot, the old slot is queued for sifting again, and
    the peel resumes.
    """

    def __init__(self):
        self.table = {}
        self.queue = []

    def sift(self, m):
        while True:
            k, a, m = _peel(m, self.table)
            if k is None:
                return
            entry = self.table.get(k)
            if entry is None:
                mi = m.inverse()
                self.table[k] = (m, mi) if a > 0 else (mi, m)
                return
            level, i = k
            g, gi = entry
            d, u, v = _xgcd(g.entries[i][i + level], a)
            # h = g**u * m**v has lead coefficient u*c + v*a = d > 0,
            # c being g's.
            # Only m**-1 is unknown, so form whichever of h and h**-1
            # takes a positive power of m, and invert that one.
            if v > 0:
                h = _power(g, gi, u) * m**v
                hi = h.inverse()
            else:
                hi = m ** (-v) * _power(g, gi, -u)
                h = hi.inverse()
            self.table[k] = h, hi
            self.queue.append(g)

    def drain(self):
        while self.queue:
            self.sift(self.queue.pop())


@lru_cache(maxsize=128)
def standardize(sub):
    """Standardized polycyclic sequence for the subgroup.

    Sifts the generators into lead-indexed slots, then closes under
    conjugation between slots until a fixpoint, so that every slot
    conjugate is again a product of later-or-equal slots.  Termination
    is certain (slots only gain positions or shrink lead coefficients)
    but a generous round cap guards against implementation bugs.  The
    conjugations read each slot's inverse from the sifter's table,
    which keeps it beside the slot; the returned sequence keeps that
    table.

    Before each round of conjugate sifts over all pairs of slots, a dry
    check peels every forward conjugate s_a**-1 * s_b * s_a with
    lead(s_a) < lead(s_b), changing no slot, and the closure stops when
    each peels to the identity.  That is exact.  Let N_a be the set of
    normal words in s_a and the slots after it.  From the last slot
    down, if N_b (b = a + 1) is a subgroup, the check puts
    s_a**-1 N_b s_a inside N_b; since subgroups of UT_n(Z) satisfy the
    ascending chain condition, the chain N_b <= s_a N_b s_a**-1 <= ...
    is stationary, so s_a normalizes N_b and N_a = <s_a> N_b is a
    subgroup.  Then N_1, which holds the slots, is the whole subgroup,
    a member's peel ends at the identity, and every later sift, either
    conjugate of either pair included, would change nothing.  When the
    check fails, the round sifts some conjugate that changes a slot, so
    the closure runs exactly the rounds, in the same order, that it
    would run until a round changed nothing.  Raises GuardError, before
    building anything, when N(N-1)/2 exceeds MAX_POSITIONS.
    """
    cap = _check_positions(sub.n) ** 2 + 4
    sifter = _Sifter()
    for g in sub.generators:
        sifter.sift(g)
    sifter.drain()
    table = sifter.table
    for _ in range(cap):
        leads = sorted(table)
        if all(
            _peel(table[ka][1] * table[kb][0] * table[ka][0], table)[0]
            is None
            for ka, kb in combinations(leads, 2)
        ):
            break
        for ka in leads:
            a, ai = table[ka]
            for kb in leads:
                if kb == ka:
                    continue
                sifter.sift(ai * table[kb][0] * a)
                sifter.drain()
                sifter.sift(a * table[kb][0] * ai)
                sifter.drain()
    else:
        raise RuntimeError("conjugation closure did not stabilize")
    return StandardizedSequence(sub.n, table)


def _as_sequence(sub):
    if isinstance(sub, StandardizedSequence):
        return sub
    if isinstance(sub, SubgroupGens):
        return standardize(sub)
    raise TypeError("expected SubgroupGens or StandardizedSequence")


def _nontrivial_sequence(sub):
    """_as_sequence for the distortion measures, which are undefined on
    the trivial subgroup; generators that are all the identity are
    refused before any basis is built."""
    trivial = isinstance(sub, SubgroupGens) and all(
        g.is_identity for g in sub.generators
    )
    seq = None if trivial else _as_sequence(sub)
    if seq is None or not seq.slots:
        raise ValueError("subgroup is trivial; distortion is undefined")
    return seq


def member_certificate(h, sub):
    """Exponent tuple e with h == prod(slot_i ** e_i), or None.

    The greedy peel (_peel) over the sequence's table of slots and
    their inverses, so no inverse is formed.  The peel is complete
    thanks to the closure performed by standardize: a nonmember stops
    it at a lead that is no slot's, at a lead coefficient the slot's
    does not divide, or with a residue past the last slot.
    """
    seq = _as_sequence(sub)
    if h.n != seq.n:
        raise ValueError("size mismatch")
    exps = {}
    if _peel(h, seq._table, exps)[0] is not None:
        return None
    return tuple(exps.get(k, 0) for k in seq.lead_pairs)


def member(h, sub):
    """True when h lies in the subgroup."""
    return member_certificate(h, sub) is not None


@lru_cache(maxsize=128)
def _bracket_layers(seq):
    """Layers of left-normed commutator values in the generators.

    Layer w holds the values of weight-(w+1) left-normed brackets of
    the slots; layer 0 is the slots themselves.  Ambient depth grows
    with each bracket, so the chain stops before reaching the matrix
    size.
    """
    layers = []
    current = []
    seen = set()
    for s in seq.slots:
        if not s.is_identity and s not in seen:
            seen.add(s)
            current.append(s)
    while current:
        layers.append(tuple(current))
        if len(layers) >= seq.n:
            break
        nxt = []
        seen = set()
        for x in current:
            for g in seq.slots:
                c = commutator(x, g)
                if not c.is_identity and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        current = nxt
    return tuple(layers)


def lower_central_gens(sub, k):
    """Generators of the k-th lower central subgroup.

    The k-th term is generated by all left-normed commutators of
    weight at least k in any generating set.
    """
    if k < 1:
        raise ValueError("lower central series starts at k = 1")
    seq = _as_sequence(sub)
    layers = _bracket_layers(seq)
    gens = []
    for layer in layers[k - 1 :]:
        gens.extend(layer)
    return SubgroupGens(seq.n, gens)


def _primitive(m):
    """(x, vec): x is the positive multiple of m (for a group element,
    of its logarithm) with coprime integer entries, vec its entries
    keyed by their level-major (level, row), the order of _lead."""
    if isinstance(m, UnitriangularMatrix):
        m = _log_numerator(m)[0]
    rows = m.entries
    if any(type(e) is not int for r in rows for e in r.values()):
        d = lcm(*(e.denominator for r in rows for e in r.values()))
        rows = [{j: int(e * d) for j, e in r.items()} for r in rows]
    g = gcd(*(e for r in rows for e in r.values()))
    if g > 1:
        rows = [{j: e // g for j, e in r.items()} for r in rows]
    return _build(RationalNilpotentMatrix, m.n, rows), {
        (j - i, i): e for i, r in enumerate(rows) for j, e in r.items()
    }


def _reduce(rows, vec):
    """Reduce the sparse integer vector vec by echelon rows, a dict from
    pivot to (row, tag), while its leading (least) key is a pivot.

    Returns the remainder's lead (None when vec lies in the span of the
    rows), the remainder, and the smallest tag among the rows used.
    The rows used are exactly those with a nonzero coefficient when vec
    is written in the row basis.
    """
    low = None
    while vec:
        lead = min(vec)
        if lead not in rows:
            return lead, vec, low
        row, tag = rows[lead]
        g = gcd(row[lead], vec[lead])
        a, c = row[lead] // g, vec[lead] // g
        vec = _add_into({k: a * e for k, e in vec.items()}, -c, row)
        low = tag if low is None else min(low, tag)
    return None, vec, low


def _insert(rows, vec, tag):
    """Add vec as a primitive echelon row unless the rows span it;
    True when it was added."""
    lead, vec, _ = _reduce(rows, vec)
    if lead is not None:
        g = gcd(*vec.values())
        rows[lead] = ({k: e // g for k, e in vec.items()}, tag)
    return lead is not None


def _independent(pairs):
    """The (x, vec) pairs whose vec is independent of those before."""
    rows = {}
    return [p for p in pairs if _insert(rows, p[1], 0)]


class LieAlgebraSpan:
    """Lower central series of a rational Lie algebra of n x n nilpotent
    matrices, as one echelon of tagged vectors.

    Built from (vector, tag) pairs: each vector a primitive integer
    vector, sparse and keyed by level-major (level, row), and each tag
    the depth k of the series term L_k it spans into.  The vectors are
    inserted deepest tag first (in the given order within a tag), each
    row keeping the tag it entered with, so the rows tagged >= k span
    L_k, in any coordinate order.  Scaling a vector does not change a
    rational span, so no Fraction is formed.  Nothing is bracketed
    here: lie_span brackets the layers, and permuted re-keys the rows.
    n is the matrices' size, or None for the zero algebra of no
    generators.

    Methods take nilpotent matrices or group elements, which stand for
    their logarithms, and refuse a matrix of another size.  Each is
    made a primitive integer vector (see _primitive); depth and
    contains reuse the vectors lie_span made of its generators.
    """

    def __init__(self, n, tagged):
        self.n = n
        self._rows = {}  # pivot -> (primitive integer row, tag)
        self._primitives = {}  # matrix -> _primitive(matrix)
        for vec, tag in sorted(tagged, key=lambda p: -p[1]):
            _insert(self._rows, vec, tag)

    def permuted(self, sigma):
        """The series of the generators conjugated by the permutation
        taking index i to sigma[i], with no bracket taken, for a sigma
        keeping them upper triangular: each row is re-keyed from
        (j - i, i) to (sigma[j] - sigma[i], sigma[i]), keeping its tag,
        so the rows tagged >= k span the conjugate of L_k."""
        return LieAlgebraSpan(self.n, [
            ({
                (sigma[l + i] - sigma[i], sigma[i]): e
                for (l, i), e in vec.items()
            }, tag)
            for vec, tag in self._rows.values()
        ])

    def _expand(self, mat):
        if self.n is not None and mat.n != self.n:
            raise ValueError("size mismatch")
        vec = (self._primitives.get(mat) or _primitive(mat))[1]
        return _reduce(self._rows, vec)

    def contains(self, mat):
        """True when mat lies in L_1."""
        return self._expand(mat)[0] is None

    def depth(self, mat):
        """The largest k with mat in L_k.  Raises ValueError for zero
        (unbounded) and outside L_1."""
        lead, _, k = self._expand(mat)
        if lead is not None:
            raise ValueError("matrix is not in the Lie algebra")
        if k is None:
            raise ValueError("zero has unbounded depth")
        return k

    @property
    def dimension(self):
        return len(self._rows)

    def strata(self):
        """(m, t) for each pivot level m, deepest first, where t is the
        smallest tag among the rows whose pivot level is >= m.  Those
        rows span the part of L_1 at level >= m (the pivots are
        level-major), and each row's depth is its tag, so t is the
        smallest depth there."""
        low = {}
        for (level, _), (_, tag) in self._rows.items():
            low[level] = min(tag, low.get(level, tag))
        levels = sorted(low, reverse=True)
        return tuple(zip(levels, accumulate((low[m] for m in levels), min)))

    @property
    def degree(self):
        """The distortion degree, the largest m/t over the strata, of a
        subgroup whose generators' logarithms generate L_1.  Raises
        ValueError for the zero algebra (a trivial subgroup)."""
        if not self._rows:
            raise ValueError("subgroup is trivial; distortion is undefined")
        return max(Fraction(m, t) for m, t in self.strata())


def lie_span(mats):
    """Lie algebra generated by the matrices, with its lower central
    series (see LieAlgebraSpan).

    Accepts group elements (standing for their logarithms) or nilpotent
    rational matrices, all of one size (ValueError "size mismatch"
    otherwise); no matrices give the zero algebra.  L_1 is spanned by
    the left-normed brackets of the generators and L_k by those of k or
    more of them.  W_1 is a basis of the generators' span, W_2 a basis
    of the brackets of its pairs, and W_{k+1} a basis of the brackets
    [b, g] with b in W_k and g in W_1, so L_k = span(W_k, W_{k+1}, ...);
    the brackets vanish past the matrix size.  Each vector of W_k is
    tagged k.  Each generator and each bracket is made a primitive
    integer matrix and vector once, and the span keeps the generators'.
    The series depends only on the Lie algebra the generators generate,
    so a subgroup's generators and its standardized slots give the same
    depths; every layer is bracketed with W_1, so fewer generators cost
    fewer brackets.
    """
    primitives = {g: _primitive(g) for g in mats}
    sizes = {g.n for g in primitives}
    if len(sizes) > 1:
        raise ValueError("size mismatch")
    base = _independent(primitives.values())
    tagged, layer, k = [], base, 1
    while layer:
        tagged += [(vec, k) for _, vec in layer]
        # [b, b] = 0 and [g, b] = -[b, g]: layer 1 brackets only the
        # pairs b before g
        pairs = combinations(base, 2) if k == 1 else product(layer, base)
        layer = _independent(
            _primitive(b.bracket(g)) for (b, _), (g, _) in pairs
        )
        k += 1
    span = LieAlgebraSpan(max(sizes, default=None), tagged)
    span._primitives = primitives
    return span


@lru_cache(maxsize=128)
def _series(sub):
    """The subgroup's Lie series: from the input generators of a
    SubgroupGens, and from the slots of a StandardizedSequence.  The
    generators never cost more brackets: their W_1 is an independent
    subset of at most min(G, h) of them, against all h slots, whose
    leads are distinct."""
    return lie_span(
        sub.generators if isinstance(sub, SubgroupGens) else sub.slots
    )


def subgroup_depth(h, sub):
    """Depth of h in the subgroup's isolated lower central series.

    The largest k such that some positive power of h lies in the k-th
    lower central subgroup; by the Malcev correspondence, the largest k
    with log(h) in L_k, the k-th lower central term of the Lie algebra
    generated by the logarithms of a SubgroupGens' input generators or
    of a StandardizedSequence's slots (see _series).  depth_by_powers
    checks this on the group side.  Raises ValueError for the identity
    (unbounded) and for nonmembers.
    """
    if h.is_identity:
        raise ValueError("identity has unbounded depth")
    if member_certificate(h, _as_sequence(sub)) is None:
        raise ValueError("element is not a member of the subgroup")
    return _series(sub).depth(h)


class Stratum(_Frozen):
    """One depth stratum of a standardized sequence: ambient depth m,
    subgroup depth t of the shallowest slot at that depth, and the
    slot witnessing t."""

    __slots__ = ("m", "t", "witness")

    def __init__(self, m, t, witness):
        self._freeze(m=m, t=t, witness=witness)

    def __repr__(self):
        return f"Stratum(m={self.m}, t={self.t})"


class DistortionReport(_Frozen):
    """Exact distortion degree with its witness and strata."""

    __slots__ = ("degree", "witness", "strata")

    def __init__(self, degree, witness, strata):
        self._freeze(degree=degree, witness=witness, strata=strata)

    def __repr__(self):
        return f"DistortionReport(degree={self.degree})"


def report_to_json(report):
    return {
        "d_H": str(report.degree),
        "witness": matrix_to_json(report.witness),
        "strata": [
            {
                "m": s.m,
                "t": s.t,
                "witness": matrix_to_json(s.witness),
            }
            for s in report.strata
        ],
    }


def distortion_degree(sub):
    """Exact distortion degree of the subgroup in its ambient group.

    The strata (m, t) and the degree, the largest m/t, are those of the
    subgroup's Lie series (LieAlgebraSpan.strata): by Osin's theorem
    the degree is the largest level(h)/depth(h), and by Malcev the
    slots at level >= m generate a lattice in the part of the Lie
    algebra at level >= m, whose smallest depth is t.  Standardizing
    adds the printed witnesses: each stratum's witness is the first
    slot at level >= m of depth t, and the report's witness that of the
    first stratum attaining the degree.  The slots' depths are read off
    the series, taking each slot's logarithm once; every slot is a
    member, so no membership check is made.  The series of a
    SubgroupGens is built from its input generators, never more
    brackets than its slots would cost, and that of a
    StandardizedSequence from its slots (see _series).  Raises
    RuntimeError when no slot witnesses a stratum, which would mean the
    two sides disagree.
    """
    seq = _nontrivial_sequence(sub)
    span = _series(sub)
    slots = [(l, span.depth(s), s) for l, s in zip(seq.levels, seq.slots)]
    strata = []
    for m, t in span.strata():
        wit = next((s for l, k, s in slots if l >= m and k == t), None)
        if wit is None:
            raise RuntimeError(f"no slot at level >= {m} has depth {t}")
        strata.append(Stratum(m, t, wit))
    best = max(strata, key=lambda s: Fraction(s.m, s.t))
    return DistortionReport(
        Fraction(best.m, best.t), best.witness, tuple(strata)
    )


def distorted_subgroup(p, q):
    """A subgroup of UT_{p+1}(Z) whose distortion degree is exactly p/q.

    Three generators: the first elementary step, a ladder element
    whose rungs climb from index 2 to the far corner in q - 1 hops of
    near-equal depth, and the far corner itself.  Bracketing the first
    step with the ladder q - 1 times lands exactly on the corner, and
    the rung spacing floor(i*p/q) keeps every intermediate bracket at
    ambient depth at most i times p/q.  When every rung is two or more
    levels deep the ladder is padded with a depth-one factor in the
    last superdiagonal slot so that no generator is deeper than the
    words it must be compared with.  For q == 2 this reduces to a
    single jump; for p == q == 2 the padding and the jump collide in
    the only available slot and the subgroup degenerates to finite
    index, with degree 1.  Raises GuardError, before building any
    matrix, for the subgroups standardize would refuse: those with
    (p+1)p/2 past MAX_POSITIONS.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if not p >= q >= 2:
        raise ValueError("need p >= q >= 2")
    n = p + 1
    _check_positions(n)
    if q == 2:
        bridge = elementary(n, n - 1, n) * elementary(n, 2, n)
        gens = [elementary(n, 1, 2), bridge, elementary(n, 1, n)]
        return SubgroupGens(n, gens)
    rungs = [2] + [1 + (i * p) // q for i in range(2, q + 1)]
    steps = list(zip(rungs, rungs[1:]))
    ladder = identity(n)
    if all(b - a >= 2 for a, b in steps):
        ladder = ladder * elementary(n, n - 1, n)
    for a, b in steps:
        ladder = ladder * elementary(n, a, b)
    gens = [elementary(n, 1, 2), ladder, elementary(n, 1, n)]
    return SubgroupGens(n, gens)


def brute_force_degree(sub, len_bound=3):
    """Largest depth ratio over short words in the standardized slots.

    Independent check of distortion_degree: enumerates every product
    of at most len_bound slot generators or inverses and takes the
    max of ambient depth over subgroup depth.  Exponential in
    len_bound, hence the guard.
    """
    if len_bound > 6:
        raise GuardError(f"brute-force length {len_bound} asked; capped at 6")
    seq = _nontrivial_sequence(sub)
    return max((
        Fraction(level_weight(h), subgroup_depth(h, seq))
        for h, d in ball(seq.n, len_bound, seq.slots).items() if d
    ), default=Fraction(0))


def depth_by_powers(h, sub, max_power=64):
    """Empirical lower bound for subgroup_depth via literal membership.

    Checks which lower central subgroups contain h, h^2, ..., up to
    max_power, and returns the deepest hit.  Agrees with
    subgroup_depth whenever some small power of h realizes its depth.
    """
    seq = _as_sequence(sub)
    if h.is_identity:
        raise ValueError("identity has unbounded depth")
    if member_certificate(h, seq) is None:
        raise ValueError("element is not a member of the subgroup")
    chains = []
    k = 1
    while True:
        gens = lower_central_gens(seq, k)
        if not gens.generators:
            break
        chains.append(standardize(gens))
        k += 1
    best = 1
    hp = identity(seq.n)
    for _ in range(max_power):
        hp = hp * h
        for depth in range(len(chains), best, -1):
            if member(hp, chains[depth - 1]):
                best = depth
                break
    return best


def ball(n, radius, generators=None):
    """Word-metric ball in UT_n(Z), as a dict from matrix to distance.

    Default generators are the superdiagonal elementaries and their
    inverses.  Growth is severe, hence the small hard caps.
    """
    if generators is None:
        if n > 4:
            raise GuardError(f"full-group ball n = {n} asked; capped at n = 4")
        gens = [elementary(n, i, i + 1) for i in range(1, n)]
    else:
        gens = list(generators)
    if radius > 10:
        raise GuardError(f"ball radius {radius} asked; capped at 10")
    return _bfs(n, gens, radius)


def _bfs(n, gens, radius, done=None):
    """Breadth-first search of the word metric from the identity out to
    the radius, as a dict from matrix to distance.  Stops early once
    the frontier is empty or done(dist) holds."""
    letters = []
    for g in gens:
        letters.append(g)
        gi = g.inverse()
        if gi != g:
            letters.append(gi)
    dist = {identity(n): 0}
    frontier = [identity(n)]
    for d in range(1, radius + 1):
        if not frontier or (done is not None and done(dist)):
            break
        nxt = []
        for w in frontier:
            for g in letters:
                v = w * g
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def empirical_distortion(sub, radius, h_cap=None):
    """Measured distortion function of the subgroup up to the radius.

    delta[r] is the largest subgroup word length among subgroup
    members inside the ambient ball of radius r, using standardized
    slots as the subgroup's generating set.  Members beyond h_cap
    subgroup-steps are reported at the cap and flagged, so the result
    is still a certified lower bound.  Raises ValueError for a radius
    below 1 or a negative h_cap.
    """
    if radius < 1:
        raise ValueError(f"radius {radius} is below 1")
    if h_cap is not None and h_cap < 0:
        raise ValueError(f"h_cap {h_cap} is negative")
    seq = _nontrivial_sequence(sub)
    if h_cap is None:
        h_cap = radius * radius
    ambient = ball(seq.n, radius)
    targets = {
        m: d for m, d in ambient.items() if member(m, seq)
    }
    hdist = _bfs(
        seq.n, seq.slots, h_cap, lambda dist: all(m in dist for m in targets)
    )
    delta = {}
    capped = {}
    for r in range(1, radius + 1):
        near = [m for m, dG in targets.items() if dG <= r]
        delta[r] = max((hdist.get(m, h_cap) for m in near), default=0)
        capped[r] = any(m not in hdist for m in near)
    return {"radius": radius, "h_cap": h_cap, "delta": delta, "capped": capped}
