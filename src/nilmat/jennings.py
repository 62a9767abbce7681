"""Embeddings through the integral group ring.

For a presented torsion-free nilpotent group, the elements u_k = 1 - x_k
generate a filtration of the group ring graded by the weight
mu(u_1^r_1 ... u_M^r_M) = sum r_k w_k.  Ordered monomials below a
truncation weight form a free integer basis; right multiplication by a
group element acts on that basis by an integer matrix, and with a
suitable basis order the matrix is unitriangular.  The resulting
representation is faithful once the truncation exceeds the nilpotency
class.

The rows of an element g's matrix come from the tail of g: if x_k is
the first generator in g = x_k^a g', then
u^r g = u^q u_k^r_k (1 - u_k)^a T(s) for r = (q, r_k, s), where T(s),
the expansion of x_k^-a u^s x_k^a g' over the generators after x_k, is a
signed binomial sum of collector products x_k^-a x^s' g over the tail
monomials s' <= s.  So a matrix costs one collector product per tail
monomial, not one per basis monomial (JenningsBasis._rows).
"""

import math

from .distortion import lie_span
from .matgroup import (
    MAX_POSITIONS,
    GuardError,
    RationalSquareMatrix,
    UnitriangularMatrix,
    _add_into,
    _build,
    _Frozen,
    level_weight,
    matrix_to_json,
)
from .presentation import (
    _binomials,
    _differences,
    _grid,
    _lower_set,
    relation_failures,
)

__all__ = [
    "JenningsBasis",
    "EmbeddingResult",
    "jennings_embedding",
    "image_weights",
    "image_degree",
    "embedding_to_json",
]

ORDERS = ("weight-lex", "scheme-perturbed")

# the largest matrix size N with N(N-1)/2 <= MAX_POSITIONS (N = 724):
# image_degree reads the Lie series and needs no standardize, but an
# image passed on as a subgroup (nilmat distortion) still does, and
# embed prints N^2 entries per generator
MAX_MONOMIALS = (1 + math.isqrt(1 + 8 * MAX_POSITIONS)) // 2


class JenningsBasis:
    """Ordered monomial basis of the truncated group ring.

    Monomials are exponent tuples r with mu(r) <= truncation - 1.
    Orders:

    * ``weight-lex``: mu ascending, then exponent tuples in descending
      lexicographic order.  Never produces an entry below the diagonal,
      since multiplication only raises mu.
    * ``scheme-perturbed``: the empty monomial, then the single-factor
      monomials u_k sorted by the generator's matrix position (column
      descending, then row descending), then everything else in
      weight-lex order.  Requires a presentation with attached
      positions.
    * an explicit permutation: a sequence of integers reordering the
      weight-lex basis.

    perm records any order that way: the k-th basis monomial is the
    perm[k]-th in weight-lex order.

    The monomials are listed lazily, and a basis past MAX_MONOMIALS
    raises GuardError once the cap is passed, before the rest is
    enumerated.
    """

    def __init__(self, presentation, order="weight-lex", truncation=None):
        explicit = not isinstance(order, str)
        if explicit:
            order = tuple(order)
        elif order not in ORDERS:
            raise ValueError(f"unknown basis order {order!r}")
        if truncation is None:
            truncation = max(presentation.weights) + 1
        if truncation < 2:
            raise ValueError("truncation must be at least 2")
        self.presentation = presentation
        self.order = order
        self.truncation = truncation
        cutoff = truncation - 1
        self.cutoff = cutoff

        weights = presentation.weights
        mu_of = {}
        for m in _lower_set(weights, cutoff):
            if len(mu_of) == MAX_MONOMIALS:
                raise GuardError(
                    f"the Jennings basis at truncation {truncation} has "
                    f"more than {MAX_MONOMIALS} monomials; the cap is "
                    f"{MAX_MONOMIALS}"
                )
            mu_of[m] = sum(e * w for e, w in zip(m, weights))

        lex = tuple(
            sorted(mu_of, key=lambda m: (mu_of[m], tuple(-x for x in m)))
        )
        if order == "weight-lex":
            perm = range(len(lex))
        elif explicit:
            if sorted(order) != list(range(len(lex))):
                raise ValueError(
                    "explicit order must be a permutation of the "
                    "weight-lex basis indices"
                )
            perm = order
        else:
            positions = presentation.positions
            if positions is None:
                raise ValueError(
                    "scheme-perturbed order needs a presentation with "
                    "matrix positions"
                )

            def perturbed(k):
                # lex[0] is the empty monomial
                m = lex[k]
                if sum(m) == 1:
                    i, j = positions[m.index(1)]
                    return (1, -j, -i)
                return (2 if k else 0, k)

            perm = sorted(range(len(lex)), key=perturbed)

        self.perm = tuple(perm)
        self.monomials = tuple(lex[k] for k in self.perm)
        self.mu = tuple(mu_of[m] for m in self.monomials)
        self._lex = lex
        # a monomial's code is its exponent tuple read in mixed radix,
        # digit k running over 0 .. cutoff // w_k with place value
        # radix[k], and radix[M] the number of codes; codes key the
        # weight-lex columns
        radix = [1]
        for w in presentation.weights:
            radix.append(radix[-1] * (cutoff // w + 1))
        self._radix = tuple(radix)
        self._codes = tuple(
            sum(e * R for e, R in zip(m, radix)) for m in lex
        )
        self._column = {code: k for k, code in enumerate(self._codes)}

    def __len__(self):
        return len(self.monomials)

    def expand_group(self, coords):
        """Expansion of the group element with the given exponent tuple
        over the monomial basis, as a dict monomial -> int coefficient.
        """
        lex, column = self._lex, self._column
        terms = self._terms(coords)
        return {lex[column[code]]: c for code, c in terms.items()}

    def _terms(self, coords, sign=1):
        """expand_group keyed by monomial code, times sign.

        The normal word x_1^a_1 ... x_M^a_M is already in generator
        order, so the product of the power series (1 - u_k)^a_k needs
        no reordering and every term is a distinct monomial; the
        coefficient of u^e in (1 - u)^a is (-1)^e C(a, e), and terms above
        the cutoff weight are dropped.
        """
        terms = [(0, sign, self.cutoff)]  # (code, coefficient, weight room)
        for a, w, R in zip(coords, self.presentation.weights, self._radix):
            if a:
                series = _binomials(a, self.cutoff // w)
                terms = [
                    (code + e * R, -c * s if e & 1 else c * s, room - e * w)
                    for code, c, room in terms
                    for e, s in enumerate(series[:room // w + 1])
                ]
        return {code: c for code, c, _ in terms}

    def element_matrix(self, coords):
        """Matrix of right multiplication by the element g with the
        given exponent tuple, rows and columns indexed by the basis
        order: a UnitriangularMatrix when the basis order supports it,
        otherwise a RationalSquareMatrix (see _ordered)."""
        return _ordered([self._rows(coords)], self.perm)[0]

    def _rows(self, coords):
        """The rows of element_matrix in weight-lex order, as sparse
        dicts, column -> nonzero int, the diagonal included.

        Let x_k be the first generator with a nonzero exponent a in g,
        so g = x_k^a g' with g' a word in the generators after x_k, and
        split a basis monomial's exponents as r = (q, r_k, s): those
        before k, at k and after k.  Since u^s x_k^a = x_k^a x_k^-a u^s x_k^a,

            u^r g = u^q u_k^r_k (1 - u_k)^a T(s),
            T(s) = x_k^-a u^s x_k^a g'
                 = sum over s' <= s of (-1)^|s'| C(s, s') x_k^-a x^s' g,

        x^s' being the group element with exponent tuple (0, .., 0, s').
        The generators after x_k generate a normal subgroup holding every
        x_k^-a x^s' g, so T(s) expands over the tail monomials u^t alone,
        and u^q u_k^(r_k + e) u^t is an ordered monomial whose code is
        the sum of the codes of its parts.  So the collector makes one
        product per tail monomial s' (a lower set that embeds in the
        basis as s' -> (0, .., 0, s')), the binomial sums are taken in
        place by presentation._differences with the step a + b in place
        of a - b, and each row is assembled by adding codes; a code that
        is no basis column lies past the truncation and is dropped.  The
        identity has the identity rows and needs no collector product.
        """
        p = self.presentation
        coords = tuple(coords)
        lex, column, cutoff = self._lex, self._column, self.cutoff
        k = next((k for k, a in enumerate(coords) if a), None)
        if k is None:
            return [{r: 1} for r in range(len(lex))]
        a, w, R = coords[k], p.weights[k], self._radix[k]
        head = (0,) * k + (-a,)
        grid = _grid(p.weights[k + 1:], cutoff)
        table = {
            s: self._terms(
                p.multiply(head + s, coords), -1 if sum(s) & 1 else 1
            )
            for s in grid[0]
        }
        _differences(table, lambda x, y: _add_into(x, 1, y), grid)
        top = cutoff // w
        series = [-c if e & 1 else c for e, c in enumerate(_binomials(a, top))]
        split = self._radix[k + 1]  # a code % split is its digits to k
        rows = []
        for code, r in zip(self._codes, lex):
            tail = table[r[k + 1:]].items()
            code %= split
            row = {}
            for c in series[:top - r[k] + 1]:
                for t, v in tail:
                    col = column.get(code + t)
                    if col is not None:
                        row[col] = c * v
                code += R
            rows.append(row)
        return rows

    def action_matrix(self, k):
        """element_matrix of the k-th generator (1-based)."""
        return self.element_matrix(self.presentation.generator(k))

    def _generator_rows(self):
        """_rows of every generator, in weight-lex order."""
        p = self.presentation
        return [self._rows(p.generator(k)) for k in range(1, p.M + 1)]


def _support(base):
    """Ordering-free facts about generator images given as sparse rows
    base, column -> nonzero entry, the diagonal included: whether every
    entry is an int and every diagonal entry 1 (shaped), and the
    support digraph, an edge i -> j for each nonzero off-diagonal entry
    (i, j).  A basis order gives integral unitriangular images exactly
    when they are shaped and the order is a linear extension of the
    digraph."""
    types = {type(e) for mat in base for row in mat for e in row.values()}
    shaped = types == {int} and all(
        row.get(i) == 1 for mat in base for i, row in enumerate(mat)
    )
    edges = {
        (i, j) for mat in base for i, row in enumerate(mat) for j in row
        if i != j
    }
    return shaped, edges


def _extends(perm, edges):
    """Whether the order perm puts every edge's source first."""
    pos = {i: r for r, i in enumerate(perm)}
    return all(pos[i] < pos[j] for i, j in edges)


def _ordered(base, perm):
    """The generator images with sparse rows base (see _support) in the
    basis order perm, whose r-th element is base's perm[r]-th, so that a
    permutation matrix conjugates them to base: UnitriangularMatrix
    images when base is shaped and perm extends its support,
    RationalSquareMatrix images otherwise."""
    shaped, edges = _support(base)
    hit = shaped and _extends(perm, edges)
    pos = {i: r for r, i in enumerate(perm)}
    cls = UnitriangularMatrix if hit else RationalSquareMatrix
    images = []
    for mat in base:
        rows = [{pos[j]: e for j, e in mat[i].items()} for i in perm]
        if hit:
            for r, row in enumerate(rows):
                del row[r]
        images.append(_build(cls, len(rows), rows))
    return images


def _survey(base, orders):
    """Survey records of the generator images with sparse rows base
    (see _support), one per (ordering, perm) in orders: the ordering,
    whether its images are unitriangular, and for a hit the level of
    each image and the degree of the image subgroup, as image_weights
    and image_degree give them.  Only the first hit builds images; their
    Lie series, permuted, serves every hit."""
    shaped, edges = _support(base)
    records, first = [], None
    for ordering, perm in orders:
        hit = shaped and _extends(perm, edges)
        weights = degree = None
        if hit:
            if first is None:
                first = perm, lie_span(_ordered(base, perm))
            pos = {i: r for r, i in enumerate(perm)}
            weights = tuple(min(
                pos[j] - pos[i] for i, row in enumerate(mat) for j in row
                if j != i
            ) for mat in base)
            degree = first[1].permuted([pos[i] for i in first[0]]).degree
        records.append(dict(
            ordering=ordering, unitriangular=hit, weights=weights,
            degree=degree,
        ))
    return records


class EmbeddingResult(_Frozen):
    """A concrete matrix representation of a presented group.

    ordering describes the basis: monomial exponent tuples here, a
    permutation of coordinate functions for the dual construction.
    Compares by identity.
    """

    __slots__ = ("d", "ordering", "generators", "unitriangular", "basis",
                 "relators_ok")

    def __init__(self, d, ordering, generators, unitriangular, basis,
                 relators_ok):
        self._freeze(d=d, ordering=ordering, generators=generators,
                     unitriangular=unitriangular, basis=basis,
                     relators_ok=relators_ok)

    def __repr__(self):
        return (
            f"EmbeddingResult(d={self.d}, "
            f"unitriangular={self.unitriangular})"
        )


def jennings_embedding(presentation, order="weight-lex", truncation=None):
    """Embed the presented group by its action on the truncated group
    ring; returns generator matrices over the chosen monomial order,
    permuted from the weight-lex images.  Conjugation keeps every
    relation, so the relators of an order whose images are not
    unitriangular are checked on the weight-lex images, which are."""
    basis = JenningsBasis(presentation, order=order, truncation=truncation)
    base = basis._generator_rows()
    gens = checked = _ordered(base, basis.perm)
    if not isinstance(gens[0], UnitriangularMatrix):
        checked = _ordered(base, range(len(basis)))
    return _embedding_result(
        presentation, gens, basis.monomials, basis, checked
    )


def _embedding_result(presentation, gens, ordering, basis, checked):
    """The EmbeddingResult of both constructions, with images gens as
    _ordered gives them and relators_ok from relation_failures on the
    images checked, gens or a conjugate of them."""
    return EmbeddingResult(
        d=gens[0].n,
        ordering=ordering,
        generators=tuple(gens),
        unitriangular=isinstance(gens[0], UnitriangularMatrix),
        basis=basis,
        relators_ok=not relation_failures(presentation, checked),
    )


def image_weights(result):
    """Level of each generator image inside the ambient unitriangular
    group (distance of the first nonzero entry from the diagonal)."""
    return tuple(level_weight(g) for g in result.generators)


def image_degree(result):
    """Exact distortion degree of the image subgroup inside UT_d(Z),
    for a result with unitriangular images, read off the Lie series of
    the images (LieAlgebraSpan.degree) with no standardize."""
    return lie_span(result.generators).degree


def embedding_to_json(result):
    """Wire form with deterministic key order.

    Ordering entries may be monomial tuples or basis labels; generator
    entries may be integer unitriangular matrices or rational ones, and
    matrix_to_json encodes both through str().
    """
    ordering = [
        m if isinstance(m, (int, str)) else list(m) for m in result.ordering
    ]
    return {
        "d": result.d,
        "ordering": ordering,
        "generators": [matrix_to_json(g) for g in result.generators],
        "unitriangular": result.unitriangular,
    }
