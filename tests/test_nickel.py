"""Coordinate-function modules and the dual matrix construction."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from nilmat import jennings, nickel
from nilmat.distortion import (
    GuardError,
    SubgroupGens,
    distortion_degree,
    lie_span,
)
from nilmat.jennings import image_weights
from nilmat.matgroup import (
    RationalNilpotentMatrix,
    RationalSquareMatrix,
    UnitriangularMatrix,
)
from nilmat.nickel import (
    CoordinatePolynomial,
    FunctionModule,
    act,
    declared_ordering,
    function_module,
    nickel_embedding,
    ordering_search,
)
from nilmat.presentation import NilpotentPresentation, builtin


def coord(nvars, k):
    return CoordinatePolynomial.coordinate(nvars, k)


def test_act_translation_examples():
    ut3 = builtin("ut:3")
    # moving the frame by the first elementary generator shears the
    # corner coordinate by the middle one
    got = act(coord(3, 3), (1, 0, 0), ut3)
    assert got == CoordinatePolynomial(3, {(0, 0, 1): 1, (0, 1, 0): 1})
    assert act(coord(3, 2), (1, 0, 0), ut3) == coord(3, 2)
    assert act(coord(3, 1), (1, 0, 0), ut3) == \
        CoordinatePolynomial(3, {(1, 0, 0): 1, (0, 0, 0): -1})

    h2 = builtin("heisenberg:2")
    assert act(coord(5, 5), (1, 0, 0, 0, 0), h2) == \
        CoordinatePolynomial(5, {(0, 0, 0, 0, 1): 1, (0, 0, 1, 0, 0): 1})


def test_act_is_a_right_action():
    p = builtin("heisenberg:2")
    rng = random.Random(525)
    for _ in range(8):
        g1 = tuple(rng.randint(-2, 2) for _ in range(5))
        g2 = tuple(rng.randint(-2, 2) for _ in range(5))
        f = coord(5, rng.randint(1, 5))
        assert act(act(f, g1, p), g2, p) == act(f, p.multiply(g1, g2), p)
    f = coord(5, 5)
    assert act(f, (0, 0, 0, 0, 0), p) == f


def test_act_matches_pointwise_translation_off_grid():
    # the translate is built from values on the lower set of exponents
    # allowed by the weighted-degree bound; it must agree with the
    # translated function everywhere, not just on that set
    p = builtin("ut:4")
    module = function_module(p)
    quad = module.basis[7]
    rng = random.Random(9119)
    g = (1, -2, 1, 0, 2, -1)
    ginv = p.inverse(g)
    translated = act(quad, g, p)
    for _ in range(10):
        h = tuple(rng.randint(-9, 9) for _ in range(6))
        assert translated.evaluate(h) == quad.evaluate(p.multiply(h, ginv))


def mono(nvars, *ks):
    """Exponent tuple of the product of the listed coordinates."""
    out = [0] * nvars
    for k in ks:
        out[k - 1] += 1
    return tuple(out)


@pytest.mark.parametrize("name, monos", [
    # t4^2 has weighted degree 6
    ("freenil23", [(4, 4), (2, 5)]),
    ("ut:4:scheme", [(1, 6), (5,)]),
    ("heisenberg:3", [(1, 7), (2, 4)]),
    ("ut:5:scheme", [(10,), (1, 4), (3, 5)]),
])
def test_act_degree_bound_off_grid(name, monos):
    p = builtin(name)
    rng = random.Random(name)
    f = CoordinatePolynomial(p.M, {
        mono(p.M, *ks): Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        for ks in monos
    })
    for _ in range(3):
        word = tuple(rng.randint(-3, 3) for _ in range(p.M))
        translated = act(f, word, p)
        winv = p.inverse(word)
        for _ in range(5):
            h = tuple(rng.randint(-40, 40) for _ in range(p.M))
            assert translated.evaluate(h) == f.evaluate(p.multiply(h, winv))


def test_loose_declared_weights_give_the_same_module():
    # the degree bound uses the smallest weights the relations allow, so
    # declaring larger ones changes neither the module nor the size of
    # the point sets it is computed from
    rels = {(2, 1): (0, 0, 0, 0, -1), (4, 3): (0, 0, 0, 0, -1)}
    tight = function_module(NilpotentPresentation(5, (1, 1, 1, 1, 2), rels))
    loose = function_module(NilpotentPresentation(5, (1, 1, 1, 1, 40), rels))
    assert loose.basis == tight.basis
    assert loose.matrices == tight.matrices


def test_act_rejects_size_mismatch():
    p = builtin("ut:3")
    with pytest.raises(ValueError):
        act(coord(4, 1), (1, 0, 0), p)
    with pytest.raises(ValueError):
        act(coord(3, 1), (1, 0), p)


def test_module_dimensions_and_labels():
    cases = {
        "ut:3": (4, ("t12", "t23", "t13", "1")),
        "ut:4": (8, ("t12", "t23", "t34", "t13", "t24", "t14", "1", "q1")),
        "ut:4:scheme": (7, ("t12", "t23", "t13", "t34", "t24", "t14", "1")),
        "heisenberg:1": (4, ("t12", "t23", "t13", "1")),
        "heisenberg:2": (6, ("t12", "t13", "t24", "t34", "t14", "1")),
        "freenil23": (7, ("t1", "t2", "t3", "t4", "t5", "1", "q1")),
        "heisenberg:3": (8, (
            "t12", "t13", "t14", "t25", "t35", "t45", "t15", "1"
        )),
    }
    for name, (dim, labels) in cases.items():
        module = function_module(builtin(name))
        assert module.dimension == dim, name
        assert module.labels == labels, name


def test_forced_quadratic_extras():
    # closing the ut:4 coordinates in standard generator order drags in
    # one genuinely quadratic function
    module = function_module(builtin("ut:4"))
    assert module.basis[7] == CoordinatePolynomial(6, {
        (0, 1, 1, 0, 0, 0): 1,
        (0, 0, 0, 0, 1, 0): 1,
        (0, 0, 0, 0, 0, 1): 1,
    })
    module = function_module(builtin("freenil23"))
    assert module.basis[6] == CoordinatePolynomial(5, {
        (0, 2, 0, 0, 0): Fraction(1, 2),
        (0, 1, 0, 0, 0): Fraction(-1, 2),
        (0, 0, 0, 0, 1): -1,
    })


def offdiag(rows):
    """Entries of a square matrix that differ from the identity, 0-based."""
    return {
        (i, j): e
        for i, row in enumerate(rows)
        for j, e in enumerate(row)
        if e != (1 if i == j else 0)
    }


def test_module_goldens():
    # full bases and action matrices, so that any way of computing the
    # translates has to reproduce them exactly
    module = function_module(builtin("ut:4"))
    assert module.basis == tuple(coord(6, k) for k in range(1, 7)) + (
        CoordinatePolynomial.constant(6),
        CoordinatePolynomial(6, {
            (0, 1, 1, 0, 0, 0): 1,
            (0, 0, 0, 0, 1, 0): 1,
            (0, 0, 0, 0, 0, 1): 1,
        }),
    )
    assert {k: offdiag(m) for k, m in module.matrices.items()} == {
        1: {(0, 6): -1, (3, 1): 1, (5, 5): 0, (5, 7): 1, (7, 5): -1,
            (7, 7): 2},
        2: {(1, 6): -1, (4, 2): 1},
        3: {(2, 6): -1, (5, 3): -1, (7, 1): -1, (7, 3): -1},
        4: {(3, 6): -1},
        5: {(4, 6): -1, (7, 6): -1},
        6: {(5, 6): -1, (7, 6): -1},
    }

    module = function_module(builtin("freenil23"))
    assert module.basis == tuple(coord(5, k) for k in range(1, 6)) + (
        CoordinatePolynomial.constant(5),
        CoordinatePolynomial(5, {
            (0, 2, 0, 0, 0): Fraction(1, 2),
            (0, 1, 0, 0, 0): Fraction(-1, 2),
            (0, 0, 0, 0, 1): -1,
        }),
    )
    assert {k: offdiag(m) for k, m in module.matrices.items()} == {
        1: {(0, 5): -1, (2, 1): 1, (3, 1): 1, (3, 2): 1, (4, 4): 0,
            (4, 6): -1, (6, 4): 1, (6, 6): 2},
        2: {(1, 5): -1, (4, 2): 1, (6, 1): -1, (6, 2): -1, (6, 5): 1},
        3: {(2, 5): -1},
        4: {(3, 5): -1},
        5: {(4, 5): -1, (6, 5): 1},
    }


def test_declared_orderings():
    assert declared_ordering(function_module(builtin("ut:3"))) == \
        ("t12", "t13", "t23", "1")
    assert declared_ordering(function_module(builtin("ut:4:scheme"))) == \
        ("t12", "t13", "t23", "t14", "t24", "t34", "1")
    assert declared_ordering(function_module(builtin("heisenberg:2"))) == \
        ("t12", "t13", "t14", "t24", "t34", "1")
    # forced extras or missing positions leave no declared ordering
    assert declared_ordering(function_module(builtin("ut:4"))) is None
    assert declared_ordering(function_module(builtin("freenil23"))) is None


def sparse(n, entries):
    rows = tuple(
        tuple(
            1 if i == j else entries.get((i, j), 0)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return UnitriangularMatrix(rows)


def test_ut3_declared_embedding_matrices():
    res = nickel_embedding(builtin("ut:3"))
    assert res.d == 4
    assert res.ordering == ("t12", "t13", "t23", "1")
    assert res.unitriangular and res.relators_ok
    assert res.generators == (
        sparse(4, {(1, 4): -1, (2, 3): 1}),
        sparse(4, {(3, 4): -1}),
        sparse(4, {(2, 4): -1}),
    )
    assert image_weights(res) == (1, 1, 2)


def test_ut4_scheme_declared_embedding():
    res = nickel_embedding(builtin("ut:4:scheme"))
    assert res.d == 7
    assert res.unitriangular and res.relators_ok
    assert image_weights(res) == (1, 1, 2, 1, 2, 3)
    assert res.generators == (
        sparse(7, {(1, 7): -1, (2, 3): 1, (4, 5): 1}),
        sparse(7, {(3, 7): -1, (5, 6): 1}),
        sparse(7, {(2, 7): -1, (4, 6): 1}),
        sparse(7, {(6, 7): -1}),
        sparse(7, {(5, 7): -1}),
        sparse(7, {(4, 7): -1}),
    )


def test_heisenberg2_declared_embedding_matrices():
    res = nickel_embedding(builtin("heisenberg:2"))
    assert res.ordering == ("t12", "t13", "t14", "t24", "t34", "1")
    assert res.unitriangular and res.relators_ok
    assert res.generators == (
        sparse(6, {(1, 6): -1, (3, 4): 1}),
        sparse(6, {(2, 6): -1, (3, 5): 1}),
        sparse(6, {(4, 6): -1}),
        sparse(6, {(5, 6): -1}),
        sparse(6, {(3, 6): -1}),
    )


def test_ut5_scheme_declared_embedding():
    res = nickel_embedding(builtin("ut:5:scheme"))
    assert res.d == 11
    assert res.unitriangular and res.relators_ok


def test_embedding_requires_an_ordering_when_none_declared():
    with pytest.raises(ValueError, match="declared ordering"):
        nickel_embedding(builtin("ut:4"))
    with pytest.raises(ValueError, match="permutation"):
        nickel_embedding(builtin("ut:3"), ordering=("t12", "t13", "t23"))
    with pytest.raises(ValueError, match="permutation"):
        nickel_embedding(
            builtin("ut:3"), ordering=("t12", "t13", "t23", "t23")
        )


def test_constant_first_ordering_is_not_triangular():
    res = nickel_embedding(
        builtin("ut:3"), ordering=("1", "t12", "t13", "t23")
    )
    assert not res.unitriangular
    assert res.relators_ok
    assert all(
        isinstance(g, RationalSquareMatrix) for g in res.generators
    )


def test_heisenberg2_search_statistics():
    module = function_module(builtin("heisenberg:2"))
    records = ordering_search(module)
    assert len(records) == 720
    unis = [r for r in records if r["unitriangular"]]
    assert len(unis) == 40
    assert {r["weights"][4] for r in unis} == {3, 4, 5}
    assert {r["degree"] for r in unis} == {
        Fraction(2), Fraction(3), Fraction(4)
    }
    by_ordering = {r["ordering"]: r for r in unis}
    sample = by_ordering[("t12", "t13", "t14", "t24", "t34", "1")]
    assert sample["weights"] == (1, 2, 2, 1, 3)
    assert sample["degree"] == Fraction(2)
    for r in records:
        if not r["unitriangular"]:
            assert r["weights"] is None and r["degree"] is None


def _hit_images(module, ordering):
    """The generator images of the module in the basis order of a hit's
    labels, and that order as basis indices."""
    index = {lab: i for i, lab in enumerate(module.labels)}
    perm = [index[lab] for lab in ordering]
    images = jennings._ordered(nickel._module_rows(module), perm)
    assert all(isinstance(g, UnitriangularMatrix) for g in images)
    return images, perm


@pytest.mark.parametrize("name, sample", [
    ("heisenberg:2", None), ("heisenberg:3", 24),
])
def test_permuted_span_matches_a_fresh_span(name, sample):
    # every hit's images are the first hit's conjugated by a permutation
    # matrix, so the first hit's series, re-keyed, has the strata of a
    # series built from the hit's own images
    module = function_module(builtin(name))
    hits = [r["ordering"] for r in ordering_search(module)
            if r["unitriangular"]]
    images, first = _hit_images(module, hits[0])
    span = lie_span(images)
    if sample is not None:
        hits = random.Random(1260).sample(hits, sample)
    for ordering in hits:
        images, perm = _hit_images(module, ordering)
        pos = {i: r for r, i in enumerate(perm)}
        moved = span.permuted([pos[i] for i in first])
        fresh = lie_span(images)
        assert moved.strata() == fresh.strata()
        assert moved.degree == fresh.degree
        assert moved.dimension == fresh.dimension
        assert all(moved.contains(g) for g in images)


def test_survey_builds_one_lie_series(monkeypatch):
    # the 40 hits of heisenberg:2 cost the brackets of a single series
    module = function_module(builtin("heisenberg:2"))
    first = next(
        r["ordering"] for r in ordering_search(module) if r["unitriangular"]
    )
    images, _ = _hit_images(module, first)
    orig = RationalNilpotentMatrix.bracket
    calls, spans = [0], [0]

    def counted(self, other):
        calls[0] += 1
        return orig(self, other)

    def counted_span(mats):
        spans[0] += 1
        return lie_span(mats)

    monkeypatch.setattr(RationalNilpotentMatrix, "bracket", counted)
    lie_span(images)
    one = calls[0]
    monkeypatch.setattr(jennings, "lie_span", counted_span)
    calls[0] = 0
    records = ordering_search(module)
    assert sum(r["unitriangular"] for r in records) == 40
    assert spans[0] == 1
    assert calls[0] == one > 0


# sha256 of function_module's basis terms, in insertion order, its labels
# and its action matrices: ut:5 has forced extras reduced with Fraction
# Newton coefficients, freenil23 extras with denominator 2
MODULE_DIGESTS = {
    "ut:5": "b7f71bc9895bb9fcf1cd3335de8beb1f2f5628603cd3040daacad682362988ab",
    "ut:4:scheme":
        "664ac000c9feaf4aa89ec47383d6408fe01a3015e0a2f071e3f42dfff8ec3b12",
    "freenil23":
        "492830116ef75ce9df3d557792f1c571a4485e278618a05a6d737f9da0dbf2d4",
}


@pytest.mark.parametrize("name", list(MODULE_DIGESTS))
def test_function_module_is_pinned(name):
    module = function_module(builtin(name))
    text = repr((
        [list(f.terms.items()) for f in module.basis],
        module.labels,
        sorted(module.matrices.items()),
    ))
    assert hashlib.sha256(text.encode()).hexdigest() == MODULE_DIGESTS[name]


def test_freenil_search_finds_nothing_triangular():
    module = function_module(builtin("freenil23"))
    records = ordering_search(module)
    assert len(records) == 5040
    assert not any(r["unitriangular"] for r in records)
    assert ordering_search(module, mode="report-first") == []


def test_report_first_stops_at_a_hit():
    module = function_module(builtin("ut:3"))
    records = ordering_search(module, mode="report-first")
    assert len(records) == 1
    assert records[0]["unitriangular"]


def test_search_mode_and_dimension_guard():
    module = function_module(builtin("ut:3"))
    with pytest.raises(ValueError):
        ordering_search(module, mode="fastest")
    big = FunctionModule(
        builtin("ut:3"), [None] * 9,
        [f"b{k}" for k in range(9)], {},
    )
    with pytest.raises(GuardError, match="dimension 8") as info:
        ordering_search(big)
    assert "this module has dimension 9" in str(info.value)


SMALL_MODULE_GROUPS = (
    "ut:3", "ut:3:scheme", "heisenberg:1", "heisenberg:2",
    "heisenberg:3", "freenil23", "ut:4", "ut:4:scheme",
)


def _first_unitriangular_permutation(module):
    """Brute force, entry by entry: the first basis permutation in
    itertools order under which every generator matrix is integral
    unitriangular, or None."""
    mats = [
        module.matrices[k] for k in range(1, module.presentation.M + 1)
    ]
    n = module.dimension
    for perm in itertools.permutations(range(n)):
        if all(
            m[perm[r]][perm[c]] == (r == c) if r >= c
            else m[perm[r]][perm[c]].denominator == 1
            for m in mats
            for r in range(n)
            for c in range(n)
        ):
            return perm
    return None


@pytest.mark.parametrize("name", SMALL_MODULE_GROUPS)
def test_report_first_is_first_unitriangular_ordering(name):
    p = builtin(name)
    module = function_module(p)
    assert module.dimension <= 8
    perm = _first_unitriangular_permutation(module)
    expected = []
    if perm is not None:
        ordering = tuple(module.labels[i] for i in perm)
        emb = nickel_embedding(p, ordering=ordering)
        assert emb.unitriangular
        expected = [{
            "ordering": ordering,
            "unitriangular": True,
            "weights": image_weights(emb),
            "degree": distortion_degree(
                SubgroupGens(emb.d, emb.generators)
            ).degree,
        }]
    assert ordering_search(module, mode="report-first") == expected
    hits = [r for r in ordering_search(module) if r["unitriangular"]]
    assert hits[:1] == expected


def test_report_first_has_no_dimension_cap():
    module = function_module(builtin("ut:5:scheme"))
    assert module.dimension == 11
    records = ordering_search(module, mode="report-first")
    assert records == [{
        "ordering": declared_ordering(module),
        "unitriangular": True,
        "weights": (1, 1, 2, 1, 2, 3, 1, 2, 3, 4),
        "degree": Fraction(1),
    }]
