"""Embeddings through the integral group ring.

For a presented torsion-free nilpotent group, the elements u_k = 1 - x_k
generate a filtration of the group ring graded by the weight
mu(u_1^r_1 ... u_M^r_M) = sum r_k w_k.  Ordered monomials below a
truncation weight form a free integer basis; right multiplication by a
group element acts on that basis by an integer matrix, and with a
suitable basis order the matrix is unitriangular.  The resulting
representation is faithful once the truncation exceeds the nilpotency
class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .distortion import MAX_POSITIONS, GuardError, lie_span
from .matgroup import (
    RationalSquareMatrix,
    UnitriangularMatrix,
    _add_into,
    _build,
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

        def weight_lex(m):
            return (mu_of[m], tuple(-x for x in m))

        if order == "weight-lex":
            ordered = sorted(mu_of, key=weight_lex)
        elif explicit:
            base = sorted(mu_of, key=weight_lex)
            if sorted(order) != list(range(len(base))):
                raise ValueError(
                    "explicit order must be a permutation of the "
                    "weight-lex basis indices"
                )
            ordered = [base[k] for k in order]
        else:
            positions = presentation.positions
            if positions is None:
                raise ValueError(
                    "scheme-perturbed order needs a presentation with "
                    "matrix positions"
                )

            def perturbed(m):
                live = [k for k, e in enumerate(m) if e]
                if not live:
                    return (0, ())
                if len(live) == 1 and m[live[0]] == 1:
                    i, j = positions[live[0]]
                    return (1, (-j, -i))
                return (2, weight_lex(m))

            ordered = sorted(mu_of, key=perturbed)

        self.monomials = tuple(ordered)
        self.mu = tuple(mu_of[m] for m in ordered)
        # a monomial's code is its exponent tuple read in mixed radix,
        # digit k running over 0 .. cutoff // w_k; codes key the columns
        radix, step = [], 1
        for w in presentation.weights:
            radix.append(step)
            step *= cutoff // w + 1
        self._radix = tuple(radix)
        self._column = {
            sum(e * R for e, R in zip(m, radix)): k
            for k, m in enumerate(ordered)
        }

    def __len__(self):
        return len(self.monomials)

    def expand_group(self, coords):
        """Expansion of the group element with the given exponent tuple
        over the monomial basis, as a dict monomial -> int coefficient.
        """
        monomials = self.monomials
        return {monomials[k]: c for k, c in self._expand(coords).items()}

    def _expand(self, coords):
        """expand_group keyed by basis column.

        The normal word x_1^a_1 ... x_M^a_M is already in generator
        order, so the product of the power series (1 - u_k)^a_k needs
        no reordering and every term is a distinct monomial; the
        coefficient of u^e in (1 - u)^a is (-1)^e C(a, e), and terms above
        the cutoff weight are dropped.
        """
        terms = [(0, 1, self.cutoff)]  # (code, coefficient, weight room)
        for a, w, R in zip(coords, self.presentation.weights, self._radix):
            if a:
                series = _binomials(a, self.cutoff // w)
                terms = [
                    (code + e * R, -c * s if e & 1 else c * s, room - e * w)
                    for code, c, room in terms
                    for e, s in enumerate(series[:room // w + 1])
                ]
        column = self._column
        return {column[code]: c for code, c, _ in terms}

    def element_matrix(self, coords):
        """Matrix of right multiplication by the element g with the
        given exponent tuple, rows and columns indexed by the basis
        order.

        The monomial u^r = (1 - x_1)^r_1 ... (1 - x_M)^r_M is the signed
        sum over j <= r of (-1)^|j| C(r, j) x^j, where x^j is the group
        element with exponent tuple j, so the row of u^r is
        (-1)^|r| Delta^r F(0), the iterated forward difference of the
        rows F(j) = expansion of x^j g.  Every j <= r is itself a basis
        monomial (the basis is a lower set), so F costs one collector
        product per basis monomial, and the differences are taken in
        place (presentation._differences).  Returns a
        UnitriangularMatrix, whose sparse entries are these rows less the
        diagonal, when the basis order supports it, otherwise a
        RationalSquareMatrix holding these rows.
        """
        p = self.presentation
        coords = tuple(coords)
        monomials = self.monomials
        # sparse rows, column -> nonzero int
        table = {r: self._expand(p.multiply(r, coords)) for r in monomials}
        _differences(
            table, lambda a, b: _add_into(a, -1, b),
            _grid(p.weights, self.cutoff),
        )
        # rebuilt rather than negated in place: the matrix keeps its
        # rows, and differencing in place leaves them over-allocated
        rows = []
        for r in monomials:
            sign = -1 if sum(r) & 1 else 1
            rows.append({col: sign * v for col, v in table[r].items()})
        d = len(monomials)
        if all(
            row.get(i) == 1 and min(row) == i for i, row in enumerate(rows)
        ):
            for i, row in enumerate(rows):
                del row[i]
            return _build(UnitriangularMatrix, d, rows)
        return _build(RationalSquareMatrix, d, rows)

    def action_matrix(self, k):
        """element_matrix of the k-th generator (1-based)."""
        return self.element_matrix(self.presentation.generator(k))


@dataclass(frozen=True)
class EmbeddingResult:
    """A concrete matrix representation of a presented group.

    ordering describes the basis: monomial exponent tuples here, a
    permutation of coordinate functions for the dual construction.
    """

    d: int
    ordering: tuple
    generators: tuple
    unitriangular: bool = True
    basis: object = field(default=None, compare=False, repr=False)
    relators_ok: bool = True


def jennings_embedding(presentation, order="weight-lex", truncation=None):
    """Embed the presented group by its action on the truncated group
    ring; returns generator matrices over the chosen monomial order."""
    basis = JenningsBasis(presentation, order=order, truncation=truncation)
    gens = [basis.action_matrix(k) for k in range(1, presentation.M + 1)]
    return _embedding_result(presentation, gens, basis.monomials, basis)


def _embedding_result(presentation, gens, ordering, basis):
    """The EmbeddingResult of both constructions.  It is unitriangular
    when every generator image is a UnitriangularMatrix; otherwise every
    image is carried as a RationalSquareMatrix, a unitriangular one
    with its unit diagonal added to its entries.  relators_ok comes
    from relation_failures on the images."""
    unitriangular = all(isinstance(g, UnitriangularMatrix) for g in gens)
    if not unitriangular:
        gens = [
            _build(RationalSquareMatrix, g.n, (
                {i: 1, **r} for i, r in enumerate(g.entries)
            )) if isinstance(g, UnitriangularMatrix) else g
            for g in gens
        ]
    return EmbeddingResult(
        d=gens[0].n,
        ordering=ordering,
        generators=tuple(gens),
        unitriangular=unitriangular,
        basis=basis,
        relators_ok=not relation_failures(presentation, gens),
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


def _survey_record(ordering, images=None, weights=None, span=None):
    """One record of an ordering survey: for unitriangular images the
    level of each image and the degree of the image subgroup, as
    image_weights and image_degree give them, or as given by weights and
    span, their Lie series; neither for non-unitriangular images."""
    if images is not None:
        weights, span = tuple(map(level_weight, images)), lie_span(images)
    hit = weights is not None
    return {
        "ordering": ordering,
        "unitriangular": hit,
        "weights": weights,
        "degree": span.degree if hit else None,
    }


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
