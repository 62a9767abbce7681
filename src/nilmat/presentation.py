"""Graded polycyclic presentations of torsion-free nilpotent groups.

Elements are exponent tuples over an ordered generating set
x_1, ..., x_M: the tuple a stands for the normal word
x_1^a_1 ... x_M^a_M.  Commutator convention is
[x, y] = x^-1 y^-1 x y, and each stored relation
[x_j, x_i] = word (j > i) has its word supported strictly past j, so
the suffix subgroups <x_k, ..., x_M> form a central-style filtration
and collection always pushes material rightward.

Multiplication collects whole powers at once (with binary splitting of
conjugation exponents), so exponents around 10^6 cost log, not linear,
work.

The module also holds the Newton calculus that both embeddings share:
lower sets of exponent tuples (_lower_set, and _grid, which lists one
with its differencing walk), binomials C(a, e) of any integer a
(_binomials), and iterated forward differences over a lower set
(_differences).
"""

from functools import lru_cache
from itertools import repeat
from math import comb

from .matgroup import (
    GuardError,
    PositionBasis,
    _check_positions,
    _entry_from_json,
    _ints,
    _sequence,
    binary_power,
    elementary,
)

__all__ = [
    "NilpotentPresentation",
    "builtin",
    "evaluate_coords",
    "relation_failures",
    "presentation_to_json",
    "presentation_from_json",
]


class NilpotentPresentation:
    """Ordered generating set with graded commutator relations.

    relations maps (j, i) with 1 <= i < j <= M to a length-M exponent
    tuple; absent keys mean the pair commutes.  weights[k] is the
    lower-central depth of x_{k+1}; every relation word must sit at
    depth >= weights[i] + weights[j].

    positions/ambient_n optionally record a faithful realization by
    elementary integer matrices, used for cross-checking: M pairs
    (i, j) with 1 <= i < j <= ambient_n, given together with ambient_n.

    relations may also be an iterable of ((j, i), word) pairs.  M,
    weights, relation keys, word entries, positions and ambient_n must
    be integers (or decimal strings); a float or a boolean raises
    ValueError instead of being truncated, and a key (j, i) given
    twice, once its entries are read as integers, raises ValueError
    even when a word is zero.  weights, each key and word, positions
    and each pair must be lists or tuples: a string in their place
    raises ValueError instead of being read character by character, and
    so does any other iterable, such as a range or a generator.
    label, printed as the group's name, must be a str or None.
    An ambient_n whose N(N-1)/2 exceeds MAX_POSITIONS (so N <= 724)
    raises GuardError before any matrix is built: the realization's
    matrices (validate(deep=True)) have that size.
    """

    def __init__(self, M, weights, relations, label=None, positions=None,
                 ambient_n=None):
        if label is not None and type(label) is not str:
            raise ValueError(f"label must be a string or null, not {label!r}")
        M = _entry_from_json(M, "M")
        if M < 1:
            raise ValueError("need at least one generator")
        weights = _ints(weights, "weights")
        if len(weights) != M or any(w < 1 for w in weights):
            raise ValueError("weights must be M positive integers")
        rel, seen = {}, set()
        items = relations.items() if hasattr(relations, "items") else relations
        for key, word in items:
            j, i = _ints(key, "relation key")
            if not (1 <= i < j <= M):
                raise ValueError(f"bad relation key ({j}, {i})")
            if (j, i) in seen:
                raise ValueError(f"duplicate relation key ({j}, {i})")
            seen.add((j, i))
            word = _ints(word, "relation word")
            if len(word) != M:
                raise ValueError(f"relation ({j}, {i}) word has wrong length")
            if not any(word):
                continue
            for k, e in enumerate(word, start=1):
                if e and k <= j:
                    raise ValueError(
                        f"relation ({j}, {i}) touches x_{k}, not past x_{j}"
                    )
                if e and weights[k - 1] < weights[i - 1] + weights[j - 1]:
                    raise ValueError(
                        f"relation ({j}, {i}) word is too shallow at x_{k}"
                    )
            rel[(j, i)] = word
        if positions is not None or ambient_n is not None:
            ambient_n = _entry_from_json(ambient_n, "ambient_n")
            if len(_sequence(positions, "positions")) != M:
                raise ValueError(f"positions must be a list of M = {M} pairs")
            positions = tuple(map(_ints, positions, repeat("position")))
            for pair in positions:
                if len(pair) != 2 or not 1 <= pair[0] < pair[1] <= ambient_n:
                    raise ValueError(
                        f"position {pair} is not a pair (i, j) with "
                        f"1 <= i < j <= {ambient_n}"
                    )
            _check_positions(ambient_n, "ambient_n")
        self.M = M
        self.weights = weights
        self.relations = rel
        self.label = label
        self.positions = positions
        self.ambient_n = ambient_n
        self._zero = (0,) * M
        # 0-based lookup for the collector
        self._rel0 = {(j - 1, i - 1): w for (j, i), w in rel.items()}
        self._conj_memo = {}

    # -- group operations on exponent tuples --------------------------

    def identity(self):
        return self._zero

    def generator(self, k):
        """Exponent tuple of x_k (1-based)."""
        if not (1 <= k <= self.M):
            raise ValueError(f"no generator x_{k}")
        return tuple(1 if t == k - 1 else 0 for t in range(self.M))

    def multiply(self, a, b):
        M = self.M
        if len(a) != M or len(b) != M:
            raise ValueError("exponent tuple has wrong length")
        cur = list(a)
        out = [0] * M
        for f in range(M):
            out[f] = cur[f] + b[f]
            e = b[f]
            if e and any(cur[f + 1:]):
                cur = self._conj_tail(cur, f, e)
        return tuple(out)

    def inverse(self, a):
        f = -1
        for t, x in enumerate(a):
            if x:
                f = t
                break
        if f < 0:
            return self._zero
        tail = list(a)
        tail[f] = 0
        v = self._conj_tail(self.inverse(tuple(tail)), f, -a[f])
        v[f] = -a[f]
        return tuple(v)

    def power(self, a, e):
        return binary_power(
            tuple(a), e, self._zero, self.multiply, self.inverse
        )

    # -- collection internals ------------------------------------------

    def _conj_tail(self, vec, g, e):
        """Normal form of x_g^-e (product of vec past floor g) x_g^e,
        as a list supported past g."""
        res = self._zero
        for k in range(g + 1, self.M):
            c = vec[k]
            if c:
                res = self.multiply(res, self.power(self._conj_gen(k, g, e), c))
        return list(res)

    def _conj_gen(self, k, g, e):
        """Normal form of x_g^-e x_k x_g^e (0-based k > g)."""
        key = (k, g, e)
        hit = self._conj_memo.get(key)
        if hit is not None:
            return hit
        r = self._rel0.get((k, g))
        if e == 0 or r is None:
            out = tuple(1 if t == k else 0 for t in range(self.M))
        elif e == 1:
            out = tuple(
                (1 if t == k else 0) + r[t] for t in range(self.M)
            )
        elif e == -1:
            # x_g x_k x_g^-1 = x_k * conj of [x_k, x_g]^-1 by x_g^-1;
            # the relation word sits past k, so this recursion descends
            t = self._conj_tail(self.inverse(r), g, -1)
            t[k] += 1
            out = tuple(t)
        else:
            h = e // 2 if e > 0 else -((-e) // 2)
            out = tuple(self._conj_tail(self._conj_gen(k, g, h), g, e - h))
        self._conj_memo[key] = out
        return out

    # -- checks ---------------------------------------------------------

    def validate(self, deep=False):
        """Re-run the constructor's checks, the realization's included;
        with deep=True also test associativity over all
        generator/inverse triples and, when a matrix realization is
        attached, check every relation on its matrices with
        relation_failures."""
        NilpotentPresentation(self.M, self.weights, self.relations, None,
                              self.positions, self.ambient_n)
        if not deep:
            return
        atoms = []
        for k in range(1, self.M + 1):
            g = self.generator(k)
            atoms.append(g)
            atoms.append(self.inverse(g))
        for a in atoms:
            for b in atoms:
                ab = self.multiply(a, b)
                for c in atoms:
                    left = self.multiply(ab, c)
                    right = self.multiply(a, self.multiply(b, c))
                    if left != right:
                        raise ValueError(
                            "inconsistent presentation: associativity "
                            f"fails on {a} {b} {c}"
                        )
        mats = self.realized_generators()
        if mats is None:
            return
        failures = relation_failures(self, mats)
        if failures:
            raise ValueError(f"realization breaks relation {failures[0]}")

    def realized_generators(self):
        """Elementary matrices of the attached realization, or None."""
        if self.positions is None:
            return None
        return [
            elementary(self.ambient_n, i, j) for i, j in self.positions
        ]


def evaluate_coords(coords, images, one):
    """Image of the normal word under a homomorphism sending x_k to
    images[k-1]; works for anything with * and integer **.  No product
    with one is formed."""
    out = None
    for img, e in zip(images, coords):
        if e:
            power = img ** e
            out = power if out is None else out * power
    return one if out is None else out


def _lower_set(weights, top):
    """Exponent tuples m with sum(m_k * weights[k]) <= top, in lex
    order, listed lazily, so a caller can stop at a size cap before an
    enormous set is enumerated."""
    if not weights:
        yield ()
        return
    w, rest = weights[0], weights[1:]
    for e in range(top // w + 1):
        for tail in _lower_set(rest, top - e * w):
            yield (e,) + tail


@lru_cache(maxsize=1024)
def _binomials(a, top):
    """C(a, 0) .. C(a, top) for any integer a; for a >= 0 the tuple
    stops at C(a, a), past which they vanish."""
    out = [1]
    for e in range(1, top + 1 if a < 0 else min(a, top) + 1):
        out.append(out[-1] * (a - e + 1) // e)
    return tuple(out)


@lru_cache(maxsize=64)
def _grid(weights, top):
    """The lower set of exponent tuples of weighted degree <= top under
    weights (a tuple), and the walk _differences takes over it: for
    each axis k and each level 1, 2, ..., the (point, point below)
    pairs along k whose k-th exponent reaches the level, deepest first.
    Listed once per (weights, top); a caller that must stop at a size
    cap walks _lower_set first."""
    points = tuple(_lower_set(weights, top))
    walk = []
    for k in range(len(weights)):
        pairs = sorted(
            ((m, m[:k] + (m[k] - 1,) + m[k + 1:]) for m in points if m[k]),
            key=lambda pair: -pair[0][k],
        )
        walk.append(tuple(
            tuple(pair for pair in pairs if pair[0][k] >= level)
            for level in range(1, pairs[0][0][k] + 1 if pairs else 1)
        ))
    return points, tuple(walk)


def _differences(table, step, grid):
    """Iterated forward differences, in place, of the values table holds
    on a lower set of exponent tuples: table[m] becomes Delta^m f(0) for
    the function f that table held on entry, grid being the set's
    _grid.  step(a, b) is a - b, and may update a in place: along each
    axis the points are visited deepest first, so the point below still
    holds the previous level's value when it is read."""
    for levels in grid[1]:
        for pairs in levels:
            for m, below in pairs:
                table[m] = step(table[m], table[below])
    return table


def relation_failures(p, images):
    """Check that the generator images images[k-1] of x_k respect the
    presentation.

    Uses only matrix products on generator and generator-inverse
    images, each inverse taken once with inverse(): x_j x_i must equal
    x_i x_j [x_j, x_i], each power in the word taken by binary_power,
    and each inverse image must cancel its generator.  Returns the
    offending relation keys, with ("inv", k) marking a broken inverse;
    empty means clean.
    """
    one = images[0] ** 0
    inv = [g.inverse() for g in images]
    bad = [
        ("inv", k) for k in range(1, p.M + 1)
        if images[k - 1] * inv[k - 1] != one
    ]
    for j in range(2, p.M + 1):
        for i in range(1, j):
            word = p.relations.get((j, i), p.identity())
            lhs = images[j - 1] * images[i - 1]
            rhs = images[i - 1] * images[j - 1]
            for k, e in enumerate(word):
                if e:
                    b = images[k] if e > 0 else inv[k]
                    rhs = rhs * binary_power(b, abs(e), one)
            if lhs != rhs:
                bad.append((j, i))
    return bad


# builtin ut:m stores C(m, 3) relation words and heisenberg:n stores n,
# each with one entry per generator; the cap admits ut:15 and
# heisenberg:180, well past the largest group either embedding handles
MAX_RELATION_ENTRIES = 1 << 16


def _check_relation_entries(name, words, M):
    """GuardError when words relation words of M entries exceed
    MAX_RELATION_ENTRIES in all."""
    entries = words * M
    if entries > MAX_RELATION_ENTRIES:
        raise GuardError(
            f"builtin {name} would store {words} relation words of {M} "
            f"entries, {entries} in all; the cap is {MAX_RELATION_ENTRIES}"
        )


def _size(name, text):
    """The size in the builtin name, a decimal integer written as its
    str, so that the name round-trips to the label: "+3" and "03" raise
    ValueError as "0_3" and " 3" do."""
    m = _entry_from_json(text, f"builtin {name!r}: size")
    if str(m) != text:
        raise ValueError(
            f"builtin {name!r}: size {text!r} is not written as {m}"
        )
    return m


def builtin(name):
    """Stock presentations.

    * ``ut:m`` or ``ut:m:scheme``: all elementary positions of the m x m
      unitriangular group, ordered by the named PositionBasis flavor,
      with the relations of elementary matrices in closed form:
      [s_kl, s_lj] = s_kj and [s_kl, s_ik] = s_il^-1, every other pair
      commuting.
    * ``heisenberg:n``: 2n+1 generators, [x_{n+i}, x_i] = x_{2n+1}^-1,
      realized inside the (n+2) x (n+2) unitriangular group.
    * ``freenil23``: rank-2 class-3 free nilpotent group on the Hall
      basis y1, y2, y3 = [y1, y2], y4 = [y1, y3], y5 = [y2, y3].

    A size is written as its decimal str (see _size).  Raises
    GuardError, before building any matrix, when the relation words
    would hold more than MAX_RELATION_ENTRIES entries in all.
    """
    parts = name.split(":")
    kind = parts[0]
    if kind == "ut":
        if len(parts) not in (2, 3):
            raise ValueError(f"bad builtin name {name!r}")
        m = _size(name, parts[1])
        if m < 2:
            raise ValueError("ut:m needs m >= 2")
        _check_relation_entries(name, comb(m, 3), m * (m - 1) // 2)
        flavor = parts[2] if len(parts) == 3 else "lcs-standard"
        basis = PositionBasis(m, flavor)
        at = {pos: t for t, pos in enumerate(basis.positions)}
        rels = {}
        # [s_kl, s_lb] = s_kb and [s_kl, s_ak] = s_al^-1; the rest commute
        for j, (k, l) in enumerate(basis.positions, 1):
            for i, (a, b) in enumerate(basis.positions[:j - 1], 1):
                if l == a or b == k:
                    t, e = (at[(k, b)], 1) if l == a else (at[(a, l)], -1)
                    rels[(j, i)] = tuple(e * (s == t) for s in range(len(at)))
        label = f"ut:{m}" if flavor == "lcs-standard" else f"ut:{m}:{flavor}"
        return NilpotentPresentation(
            len(at), basis.weights, rels, label=label,
            positions=basis.positions, ambient_n=m,
        )
    if kind == "heisenberg":
        if len(parts) != 2:
            raise ValueError(f"bad builtin name {name!r}")
        n = _size(name, parts[1])
        if n < 1:
            raise ValueError("heisenberg:n needs n >= 1")
        M = 2 * n + 1
        _check_relation_entries(name, n, M)
        pos = [(1, i + 1) for i in range(1, n + 1)]
        pos += [(i + 1, n + 2) for i in range(1, n + 1)]
        pos.append((1, n + 2))
        top = tuple(-1 if t == M - 1 else 0 for t in range(M))
        rels = {(n + i, i): top for i in range(1, n + 1)}
        return NilpotentPresentation(
            M, (1,) * (2 * n) + (2,), rels, label=f"heisenberg:{n}",
            positions=pos, ambient_n=n + 2,
        )
    if kind == "freenil23":
        if len(parts) != 1:
            raise ValueError(f"bad builtin name {name!r}")
        rels = {
            (2, 1): (0, 0, -1, 0, 0),
            (3, 1): (0, 0, 0, -1, 0),
            (3, 2): (0, 0, 0, 0, -1),
        }
        return NilpotentPresentation(
            5, (1, 1, 2, 3, 3), rels, label="freenil23"
        )
    raise ValueError(f"unknown builtin {name!r}")


def presentation_to_json(p):
    """Wire form with deterministic key order; a realization adds
    positions ([[i, j], ...]) and ambient_n."""
    obj = {
        "M": p.M,
        "weights": list(p.weights),
        "relations": [
            {"j": j, "i": i, "word": list(word)}
            for (j, i), word in sorted(p.relations.items())
        ],
        "label": p.label,
    }
    if p.positions is not None:
        obj["positions"] = [[i, j] for i, j in p.positions]
        obj["ambient_n"] = p.ambient_n
    return obj


def presentation_from_json(obj):
    """Inverse of presentation_to_json.  ValueError on malformed input,
    and GuardError for an ambient_n past the cap, as
    NilpotentPresentation raises them; this only unpacks the fields."""
    try:
        M = obj["M"]
        weights = obj["weights"]
        raw = obj["relations"]
        label = obj.get("label")
        positions = obj.get("positions")
        ambient_n = obj.get("ambient_n")
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed presentation object: {exc}") from exc
    rels = []
    for item in _sequence(raw, "relations"):
        try:
            rels.append(((item["j"], item["i"]), item["word"]))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed relation entry: {exc}") from exc
    return NilpotentPresentation(
        M, weights, rels, label=label, positions=positions,
        ambient_n=ambient_n,
    )
