"""Matrix representations from coordinate-function modules.

A presented group acts on functions of its normal-form coordinates by
right translation: (f * g)(h) = f(h g^-1).  The span of the coordinate
projections, the constant function, and whatever the action drags in
is finite dimensional.  The action matrices on a basis of that module
give a faithful rational representation; reordering the basis can make
every generator image integral and unitriangular, which is what the
embedding below looks for.

Translates are recovered exactly from their values at integer points,
with a degree bound known in advance.  Weight the generators so that
every x_k in the word of a relation [x_j, x_i] has w_k >= w_i + w_j,
give the coordinate t_k the weight w_k, and let wdeg(f) be the largest
sum(e_k * w_k) over the monomials of f.  The k-th coordinate of h g is
then a polynomial in h of weighted degree at most w_k (the Deep Thought
bound), so every translate of f has weighted degree at most wdeg(f).
The smallest such weights are read off the relations; they never
exceed the declared ones, and equal them on the stock groups.
Its Newton coefficients, over the basis C(h, m) = prod C(h_k, m_k),
therefore live on the lower set of exponents m with
sum(m_k * w_k) <= wdeg(f); forward differences of the values on that
set give them, and nothing needs to be sampled or checked outside it.
The module keeps its basis in these Newton coefficients, which are
integers for an integer-valued function, and evaluates it through
integer binomials; monomials are formed only for act's result and
FunctionModule.basis.  The bound, and so the result, assumes a
consistent presentation: an inconsistent one gives a wrong module
without an error, so check presentations from outside with validate().
"""

import itertools
import operator
from fractions import Fraction
from math import factorial, lcm, prod

from .jennings import _embedding_result, _ordered, _support, _survey
from .matgroup import GuardError, _add_into, _Frozen
from .presentation import _binomials, _differences, _grid

__all__ = [
    "CoordinatePolynomial",
    "FunctionModule",
    "act",
    "function_module",
    "declared_ordering",
    "nickel_embedding",
    "ordering_search",
]


def _mono_key(mono):
    """Graded-lex order on exponent tuples."""
    return (sum(mono), mono)


class CoordinatePolynomial(_Frozen):
    """Polynomial in the coordinates of a group element.

    Terms map exponent tuples of length nvars to rational coefficients,
    each divided by den; zero coefficients are never stored.  A
    monomial of another length raises ValueError, zero or not.  Equal
    when of equal nvars with equal terms.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms, den=1):
        clean = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} is not of length {nvars}")
            c = Fraction(c, den)
            if c:
                clean[mono] = c
        self._freeze(nvars=nvars, terms=clean)

    @classmethod
    def coordinate(cls, nvars, k):
        """The projection onto the k-th coordinate (1-based)."""
        mono = tuple(1 if t == k - 1 else 0 for t in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def constant(cls, nvars, c=1):
        return cls(nvars, {(0,) * nvars: c})

    def evaluate(self, point):
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for x, e in zip(point, mono):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def __eq__(self, other):
        return (
            isinstance(other, CoordinatePolynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "CoordinatePolynomial(0)"
        bits = []
        for mono in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[mono]
            factors = [
                f"t{k + 1}" + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(mono)
                if e
            ]
            bits.append(
                "*".join([str(c)] + factors) if factors else str(c)
            )
        return f"CoordinatePolynomial({' + '.join(bits)})"


def _stirling_rows(top):
    """Coefficients of top! C(a, k) as polynomials in a, k = 0 .. top:
    top!/k! times the Stirling numbers of the first kind s(k, e)."""
    rows = [[factorial(top)]]
    for k in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([
            ((prev[e - 1] if e else 0) - (k - 1) * prev[e]) // k
            for e in range(k + 1)
        ])
    return rows


def _relation_weights(p):
    """Smallest weights with w_k >= w_i + w_j whenever x_k occurs in the
    word of [x_j, x_i]; the word sits past x_j, so one pass suffices."""
    weights = []
    for k in range(p.M):
        weights.append(max(
            (
                weights[i - 1] + weights[j - 1]
                for (j, i), word in p.relations.items()
                if word[k]
            ),
            default=1,
        ))
    return tuple(weights)


def _wdeg(terms, weights):
    """Largest sum(m_k * w_k) over the exponent tuples of terms."""
    return max(
        (sum(e * w for e, w in zip(m, weights)) for m in terms), default=0
    )


def _translate(value, weights, top, ginv, p):
    """Nonzero Newton coefficients of h -> value(h * ginv) from its
    values on the lower set S of exponents of weighted degree <= top
    under the relation weights, top being the weighted degree of value;
    see the module docstring for why S suffices."""
    grid = _grid(weights, top)
    table = {j: value(p.multiply(j, ginv)) for j in grid[0]}
    _differences(table, operator.sub, grid)
    return {m: c for m, c in table.items() if c}


def _newton_value(coeffs, point, top):
    """sum c_m C(point, m) over the Newton coefficients coeffs, whose
    exponents are at most top."""
    # _binomials(a, top) stops at C(a, a) for a >= 0; pad with the zeros
    rows = [_binomials(a, top) + (0,) * top for a in point]
    return sum(
        c * prod(map(tuple.__getitem__, rows, m)) for m, c in coeffs.items()
    )


def _monomials(n, coeffs, den=1):
    """The CoordinatePolynomial sum c_m C(h, m) / den in n variables, from
    its Newton coefficients, expanded one axis at a time in rows scaled
    by K!, K the largest exponent, and divided by den * K!^n at the end."""
    top = max((max(m) for m in coeffs), default=0)
    rows = _stirling_rows(top)
    for k in range(n):
        terms = {}
        for m, c in coeffs.items():
            for e, s in enumerate(rows[m[k]]):
                if s:
                    mono = m[:k] + (e,) + m[k + 1:]
                    terms[mono] = terms.get(mono, 0) + c * s
        coeffs = terms
    return CoordinatePolynomial(n, coeffs, den * factorial(top) ** n)


class FunctionModule(_Frozen):
    """Action-closed module of coordinate functions of a presentation.

    basis holds the functions, labels their display names (coordinate
    projections, the constant, then any forced extras q1, q2, ...),
    and matrices the right-translation action of each generator in
    that basis, rows indexed by source basis element so that matrices
    compose in word order.
    """

    __slots__ = ("presentation", "basis", "labels", "matrices")

    def __init__(self, presentation, basis, labels, matrices):
        self._freeze(presentation=presentation, basis=tuple(basis),
                     labels=tuple(labels), matrices=dict(matrices))

    @property
    def dimension(self):
        return len(self.basis)

    def __repr__(self):
        return (
            f"FunctionModule(dim={self.dimension}, "
            f"labels={list(self.labels)})"
        )


def act(f, word, presentation):
    """Right translate of a coordinate function by a group element.

    ``word`` is the element's exponent tuple; the result g satisfies
    g(h) = f(h * word^-1) for every h, so acting first by one element
    and then another is the same as acting by their product.  It is
    found in ints, for den * f with den the lcm of f's denominators.
    """
    if f.nvars != presentation.M:
        raise ValueError("function and presentation sizes differ")
    if len(word) != presentation.M:
        raise ValueError("exponent tuple has wrong length")
    p = presentation
    weights = _relation_weights(p)
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = [(m, int(c * den)) for m, c in f.terms.items()]
    moved = _translate(
        lambda h: sum(c * prod(map(pow, h, m)) for m, c in ints),
        weights, _wdeg(f.terms, weights), p.inverse(word), p,
    )
    return _monomials(p.M, moved, den)


def function_module(presentation):
    """Close the span of coordinate projections under translation.

    Seeds the basis with t_1..t_M and the constant, then repeatedly
    applies every generator to every basis function.  The basis and the
    translates are held as Newton coefficient dicts (see _translate).
    One reduction against the basis by graded-lex leading exponents both
    expresses a translate in the basis and finds what it adds: at the
    first leading exponent with no basis row, the remainder joins the
    basis sign-normalized but not rescaled, so forced functions keep
    their natural denominators, and the reduction ends on it.  C(h, m)
    has leading monomial h^m / m! and only lower total degrees besides,
    so the lead of sum c_m C(h, m) is its largest m, and each step picks
    the same lead and ratio as a reduction over monomials would; the
    basis is expanded to monomials once, at the end.  Each generator
    acts injectively on the finite-dimensional span, so a span closed
    under the generators is closed under their inverses too.  Action
    rows are recorded as they are computed; entries over basis elements
    discovered later are zero by construction.
    """
    p = presentation
    m = p.M
    weights = _relation_weights(p)
    basis = []  # Newton coefficient dicts
    labels = []
    lead_rows = {}

    def express(poly, label):
        """Coefficients of poly over the basis, which first gains
        poly's nonzero remainder, if any, under label; poly is
        consumed."""
        coeffs = {}
        while poly:
            lead = max(poly, key=_mono_key)
            row = lead_rows.get(lead)
            if row is None:
                row = lead_rows[lead] = len(basis)
                sign = 1 if poly[lead] > 0 else -1
                basis.append({mono: sign * c for mono, c in poly.items()})
                labels.append(label)
            b = basis[row]
            c = Fraction(poly[lead]) / b[lead]
            coeffs[row] = c
            _add_into(poly, -c, b)
        return coeffs

    for k in range(1, m + 1):
        express({p.generator(k): 1}, _coordinate_label(p, k))
    express({p.identity(): 1}, "1")

    rows = {}  # (source index, generator) -> coefficient dict
    idx = 0
    while idx < len(basis):
        f = basis[idx]
        top = _wdeg(f, weights)
        for k in range(1, m + 1):
            moved = _translate(
                lambda h: _newton_value(f, h, top), weights, top,
                p.inverse(p.generator(k)), p,
            )
            rows[(idx, k)] = express(moved, f"q{len(basis) - m}")
        idx += 1

    dim = len(basis)
    matrices = {
        k: tuple(
            tuple(rows[(i, k)].get(j, Fraction(0)) for j in range(dim))
            for i in range(dim)
        )
        for k in range(1, m + 1)
    }
    return FunctionModule(p, [_monomials(m, f) for f in basis], labels, matrices)


def _coordinate_label(presentation, k):
    pos = presentation.positions
    if pos is not None:
        i, j = pos[k - 1]
        if i <= 9 and j <= 9:
            return f"t{i}{j}"
    return f"t{k}"


def declared_ordering(module):
    """Canonical basis order when one exists: coordinate projections
    sorted by their realization position, column before row, then the
    constant.  None when the module has forced extras or the
    presentation carries no positions."""
    p = module.presentation
    if p.positions is None:
        return None
    if module.dimension != p.M + 1:
        return None
    order = sorted(
        range(p.M), key=lambda k: (p.positions[k][1], p.positions[k][0])
    )
    return tuple(module.labels[k] for k in order) + ("1",)


def _module_rows(module):
    """The module's generator matrices as sparse rows, column -> nonzero
    entry, an int where the entry is integral, as the ordering engine
    of jennings (_ordered, _survey) takes them."""
    return [
        [
            {j: e.numerator if e.denominator == 1 else e
             for j, e in enumerate(row) if e}
            for row in module.matrices[k]
        ]
        for k in range(1, module.presentation.M + 1)
    ]


def nickel_embedding(presentation, ordering=None):
    """Representation of the presentation on its function module.

    ordering is a permutation of the module's basis labels; when
    omitted the declared ordering is used if the module has one.
    Generator images are integer unitriangular matrices whenever the
    chosen order achieves that, rational matrices otherwise, and the
    defining relations are re-checked on the images either way.
    """
    module = function_module(presentation)
    if ordering is None:
        ordering = declared_ordering(module)
        if ordering is None:
            raise ValueError(
                "module has no declared ordering; pass one explicitly"
            )
    ordering = tuple(ordering)
    if sorted(ordering) != sorted(module.labels):
        raise ValueError("ordering is not a permutation of basis labels")
    index = {lab: i for i, lab in enumerate(module.labels)}
    gens = _ordered(_module_rows(module), [index[lab] for lab in ordering])
    return _embedding_result(presentation, gens, ordering, module, gens)


def ordering_search(module, mode="exhaustive"):
    """Search basis orderings of the module for unitriangular images.

    Records carry an ordering's labels, whether all generator images
    come out integral unitriangular, and for such a hit the level of
    each image and the exact distortion degree of the image subgroup,
    read off the images' Lie series with no standardize, by the
    ordering engine the Jennings survey shares (jennings._survey).
    Hits are the linear extensions of the support digraph (_support);
    only the first builds matrices, whose series, permuted, serves
    every hit, and levels come off the support.  mode "exhaustive"
    returns a record per basis permutation in itertools.permutations
    order, hence the cap at dimension 8.  mode "report-first" returns
    the first hit of that scan, found by one topological sort with no
    size cap, or [] when there is none.
    """
    if mode not in ("exhaustive", "report-first"):
        raise ValueError(f"unknown search mode {mode!r}")
    dim = module.dimension
    if mode == "exhaustive" and dim > 8:
        raise GuardError(
            "exhaustive ordering search is capped at module dimension 8; "
            f"this module has dimension {dim}"
        )
    base = _module_rows(module)
    if mode == "report-first":
        shaped, edges = _support(base)
        if not shaped:
            return []
        # Taking, each time, the smallest index with no edge from the
        # indices left gives the lexicographically first extension.
        perm, left = [], set(range(dim))
        while left:
            i = min(
                (j for j in left if not any((k, j) in edges for k in left)),
                default=None,
            )
            if i is None:
                return []  # a cycle: no extension
            perm.append(i)
            left.remove(i)
        perms = [perm]
    else:
        perms = itertools.permutations(range(dim))
    labels = module.labels
    return _survey(
        base, ((tuple(labels[i] for i in perm), perm) for perm in perms)
    )
