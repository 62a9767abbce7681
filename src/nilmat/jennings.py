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

import itertools
import math
from dataclasses import dataclass, field

from .matgroup import (
    RationalSquareMatrix,
    UnitriangularMatrix,
    level_weight,
    matrix_to_json,
)
from .presentation import evaluate_coords, relation_failures

__all__ = [
    "JenningsBasis",
    "EmbeddingResult",
    "jennings_embedding",
    "image_weights",
    "embedding_to_json",
]

ORDERS = ("weight-lex", "scheme-perturbed")


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

        items = [((), 0)]
        for w in presentation.weights:
            items = [
                (m + (e,), mu + e * w)
                for (m, mu) in items
                for e in range((cutoff - mu) // w + 1)
            ]
        mu_of = dict(items)

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
        self.index = {m: k for k, m in enumerate(ordered)}
        self._expand_cache = {}

    def __len__(self):
        return len(self.monomials)

    def expand_group(self, coords):
        """Expansion of the group element with the given exponent tuple
        over the monomial basis, as a dict monomial -> int coefficient.

        The normal word x_1^a_1 ... x_M^a_M is already in generator
        order, so the product of the power series (1 - u_k)^a_k needs
        no reordering; terms above the cutoff weight are dropped.
        """
        key = tuple(coords)
        cached = self._expand_cache.get(key)
        if cached is not None:
            return cached
        weights = self.presentation.weights
        cutoff = self.cutoff
        poly = {(0,) * self.presentation.M: (1, 0)}  # mono -> (coeff, mu)
        for k, a in enumerate(coords):
            if not a:
                continue
            w = weights[k]
            nxt = {}
            for mono, (c, mu) in poly.items():
                for e in range((cutoff - mu) // w + 1):
                    t = _series_coeff(a, e)
                    if not t:
                        continue
                    m2 = mono[:k] + (mono[k] + e,) + mono[k + 1:]
                    old = nxt.get(m2)
                    nxt[m2] = (
                        (c * t, mu + e * w) if old is None
                        else (old[0] + c * t, old[1])
                    )
            poly = {m: v for m, v in nxt.items() if v[0]}
        out = {m: c for m, (c, _) in poly.items()}
        self._expand_cache[key] = out
        return out

    def element_matrix(self, coords):
        """Matrix of right multiplication by the element with the given
        exponent tuple, rows and columns indexed by the basis order.

        Row for the monomial u^r: rewrite u^r exactly as a signed sum
        of group elements, multiply each by the acting element in the
        group, and expand back.  Returns an UnitriangularMatrix when
        the basis order supports it, otherwise a RationalSquareMatrix
        carrying the same integer entries.
        """
        p = self.presentation
        d = len(self.monomials)
        rows = []
        for r in self.monomials:
            poly = {}
            for j in itertools.product(*(range(e + 1) for e in r)):
                c = math.prod(
                    math.comb(re, je) for re, je in zip(r, j)
                )
                if sum(j) & 1:
                    c = -c
                word = p.multiply(j, coords)
                for mono, t in self.expand_group(word).items():
                    poly[mono] = poly.get(mono, 0) + c * t
            row = [0] * d
            for mono, c in poly.items():
                if c:
                    row[self.index[mono]] = c
            rows.append(tuple(row))
        try:
            return UnitriangularMatrix(tuple(rows))
        except ValueError:
            return RationalSquareMatrix(tuple(rows))

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
    gens = tuple(
        basis.action_matrix(k) for k in range(1, presentation.M + 1)
    )
    unitriangular = all(
        isinstance(g, UnitriangularMatrix) for g in gens
    )
    if not unitriangular:
        gens = tuple(
            g if isinstance(g, RationalSquareMatrix)
            else RationalSquareMatrix(g.rows)
            for g in gens
        )

    one = gens[0] ** 0
    failures = relation_failures(
        presentation, lambda vec: evaluate_coords(vec, gens, one)
    )
    return EmbeddingResult(
        d=len(basis),
        ordering=basis.monomials,
        generators=gens,
        unitriangular=unitriangular,
        basis=basis,
        relators_ok=not failures,
    )


def image_weights(result):
    """Level of each generator image inside the ambient unitriangular
    group (distance of the first nonzero entry from the diagonal)."""
    return tuple(level_weight(g) for g in result.generators)


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


def _series_coeff(a, e):
    """Coefficient of u^e in the expansion of (1 - u)^a, any integer a."""
    if e == 0:
        return 1
    if a >= 0:
        return -math.comb(a, e) if e & 1 else math.comb(a, e)
    return math.comb(-a + e - 1, e)
