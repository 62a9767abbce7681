"""Property tests on drawn inputs, each against an oracle that does not
share the code path it checks: the level-major lead scan against a
brute-force minimum, collection against matrix products, presentation
JSON against itself, membership certificates against the product
they certify, subgroup depth against the series of the slots, the Lie
side's strata and degree against strata read off the standardized
slots with the group-side depth oracle, the CLI's exit code 1 on
malformed subgroup JSON and 1 or 3 on subgroup and presentation JSON
with one field swapped for a value of the wrong kind, the Newton calculus both embeddings share
(binomials, lower-set differences, Newton-to-monomial expansion)
against falling factorials and signed binomial sums, Nickel's integer
act against the translate evaluated in Fractions, Jennings images in
any basis order against the weight-lex images conjugated by the
order, and the sparse square matrices' product, power and inverse
against dense Fraction products and the adjugate."""

import contextlib
import functools
import io
import json
import operator
import os
import re
import sys
import tempfile
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nilmat.cli import main  # noqa: E402
from nilmat.distortion import (  # noqa: E402
    SubgroupGens,
    depth_by_powers,
    distorted_subgroup,
    distortion_degree,
    lie_span,
    member_certificate,
    standardize,
    subgroup_depth,
    subgroup_to_json,
)
from nilmat.jennings import jennings_embedding  # noqa: E402
from nilmat.matgroup import (  # noqa: E402
    RationalSquareMatrix,
    UnitriangularMatrix,
    _lead,
    elementary,
    identity,
    level_weight,
    matrix_to_json,
)
from nilmat.nickel import (  # noqa: E402
    CoordinatePolynomial,
    _monomials,
    act,
)
from nilmat.presentation import (  # noqa: E402
    NilpotentPresentation,
    _binomials,
    _differences,
    _grid,
    _lower_set,
    builtin,
    evaluate_coords,
    presentation_from_json,
    presentation_to_json,
)
from test_distortion import conjugate, conjugated, disguised  # noqa: E402

# derandomized and without an example database, so a run reads and
# writes no state and every run draws the same examples
fast = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)


@st.composite
def unitriangular(draw, max_n=10, min_n=1):
    n = draw(st.integers(min_n, max_n))
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if cells:
        picked = draw(st.dictionaries(
            st.sampled_from(cells), st.integers(-3, 3), max_size=6
        ))
        for (i, j), e in picked.items():
            rows[i][j] = e
    return UnitriangularMatrix(rows)


def brute_lead(m):
    """Least (j - i, i) over nonzero strictly-upper entries."""
    keys = [
        (j - i, i) for i in range(m.n) for j in range(i + 1, m.n)
        if m.rows[i][j]
    ]
    return min(keys, default=None)


@fast
@given(unitriangular())
def test_lead_is_the_level_major_minimum(m):
    assert _lead(m) == brute_lead(m)
    lead = brute_lead(m)
    if lead is None:
        assert m.is_identity
        with pytest.raises(ValueError):
            level_weight(m)
    else:
        assert level_weight(m) == lead[0]


@fast
@given(st.sampled_from(["ut:3", "ut:4:scheme", "heisenberg:2"]),
       st.data())
def test_multiply_matches_realized_matrices(name, data):
    p = builtin(name)
    mats = p.realized_generators()
    one = identity(p.ambient_n)
    coords = st.tuples(*[st.integers(-4, 4)] * p.M)
    a, b = data.draw(coords), data.draw(coords)
    left = evaluate_coords(a, mats, one) * evaluate_coords(b, mats, one)
    assert evaluate_coords(p.multiply(a, b), mats, one) == left


@st.composite
def presentations(draw):
    M = draw(st.integers(1, 4))
    weights = sorted(draw(st.lists(st.integers(1, 3), min_size=M,
                                   max_size=M)))
    relations = {}
    for j, i in product(range(1, M + 1), repeat=2):
        if i >= j or not draw(st.booleans()):
            continue
        # a word may touch only x_k past x_j at depth >= w_i + w_j
        word = tuple(
            draw(st.integers(-9, 9))
            if k > j and weights[k - 1] >= weights[i - 1] + weights[j - 1]
            else 0
            for k in range(1, M + 1)
        )
        relations[(j, i)] = word
    positions = ambient_n = None
    if draw(st.booleans()):
        ambient_n = draw(st.integers(2, 6))
        cells = [(i, j) for i in range(1, ambient_n + 1)
                 for j in range(i + 1, ambient_n + 1)]
        positions = draw(st.lists(st.sampled_from(cells), min_size=M,
                                  max_size=M))
    label = draw(st.one_of(st.none(), st.text("ut:h0123456789", max_size=8)))
    return NilpotentPresentation(M, weights, relations, label=label,
                                 positions=positions, ambient_n=ambient_n)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_presentation_json_round_trips(p):
    obj = presentation_to_json(p)
    q = presentation_from_json(json.loads(json.dumps(obj)))
    assert (q.M, q.weights, q.relations, q.label) == (
        p.M, p.weights, p.relations, p.label
    )
    assert (q.positions, q.ambient_n) == (p.positions, p.ambient_n)
    assert presentation_to_json(q) == obj


@st.composite
def subgroups(draw, n):
    """A subgroup of UT_n(Z) on two or three drawn generators."""
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        g = identity(n)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(1, n - 1))
            j = draw(st.integers(i + 1, n))
            g = g * elementary(n, i, j, draw(st.sampled_from((-2, -1, 1, 2))))
        gens.append(g)
    return SubgroupGens(n, gens)


def word(draw, gens, max_size=5):
    """The product of a drawn word in the generators."""
    h = identity(gens[0].n)
    for k, e in draw(st.lists(
        st.tuples(st.integers(0, len(gens) - 1), st.integers(-3, 3)),
        max_size=max_size,
    )):
        h = h * gens[k] ** e
    return h


@st.composite
def subgroup_words(draw, n=4):
    """A subgroup of UT_n(Z) and a word in its generators."""
    sub = draw(subgroups(n))
    return sub, word(draw, sub.generators)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(subgroup_words())
def test_member_certificate_reproduces_the_element(case):
    sub, h = case
    exps = member_certificate(h, sub)
    assert exps is not None
    seq = standardize(sub)
    assert len(exps) == len(seq)
    out = identity(sub.n)
    for slot, e in zip(seq.slots, exps):
        out = out * slot ** e
    assert out == h


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 6).flatmap(subgroups), st.data())
def test_subgroup_depth_matches_the_slot_series(sub, data):
    # subgroup_depth reads the series of whichever of the generators and
    # the slots is the shorter list; a member's depth is the same in both
    seq = standardize(sub)
    assume(seq.slots)
    h = word(data.draw, seq.slots, max_size=4)
    assume(not h.is_identity)
    assert subgroup_depth(h, sub) == lie_span(seq.slots).depth(h)


def group_strata(sub):
    """The strata (m, t) on the group side: the distinct levels m of the
    standardized slots, deepest first, and the smallest depth_by_powers
    among the slots at level >= m."""
    seq = standardize(sub)
    slots = [(level_weight(s), depth_by_powers(s, seq)) for s in seq.slots]
    return tuple(
        (m, min(t for l, t in slots if l >= m))
        for m in sorted({l for l, _ in slots}, reverse=True)
    )


def assert_lie_strata_match(sub):
    span = lie_span(sub.generators)
    assert span.strata() == group_strata(sub)
    assert span.degree == distortion_degree(sub).degree


def test_lie_strata_match_the_group_side_on_the_report_goldens():
    # the subgroups of test_distortion.test_report_goldens
    for p in range(2, 13):
        for q in range(2, p + 1):
            assert_lie_strata_match(distorted_subgroup(p, q))
    for p, q in ((4, 3), (5, 2), (7, 3), (8, 5), (9, 4), (11, 6)):
        assert_lie_strata_match(conjugated(p, q, 100 * p + q))
    for p in range(13, 17):
        for q in (*range(2, 7), p):
            assert_lie_strata_match(disguised(p, q, 100 * p + q))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 6).flatmap(subgroups))
def test_lie_strata_match_the_group_side(sub):
    assume(standardize(sub).slots)
    assert_lie_strata_match(sub)


@fast
@given(st.data())
def test_permuted_span_matches_the_conjugates_span(data):
    # any order that keeps the generators upper unitriangular (a linear
    # extension of their support) keeps their Lie algebra so too
    n = data.draw(st.integers(3, 6))
    gens = data.draw(st.lists(unitriangular(n, n), min_size=1, max_size=3))
    edges = {
        (i, j) for g in gens for i in range(n)
        for j in range(i + 1, n) if g.rows[i][j]
    }
    left, order = set(range(n)), []
    while left:
        ready = [j for j in sorted(left)
                 if all((k, j) not in edges for k in left)]
        order.append(data.draw(st.sampled_from(ready)))
        left.remove(order[-1])
    sigma = [order.index(i) for i in range(n)]
    span = lie_span(gens)
    assume(span.dimension)
    moved = span.permuted(sigma)
    fresh = lie_span([conjugate(g, sigma) for g in gens])
    assert moved.strata() == fresh.strata()
    assert (moved.degree, moved.dimension) == (fresh.degree, fresh.dimension)


@functools.lru_cache(maxsize=None)
def _weight_lex(name):
    """The weight-lex Jennings embedding of a stock group, with the
    support digraph of its images: an edge i -> j for each nonzero
    off-diagonal entry (i, j) of some generator."""
    emb = jennings_embedding(builtin(name))
    edges = {
        (i, j) for g in emb.generators for i, row in enumerate(g.rows)
        for j, e in enumerate(row) if e and i != j
    }
    return emb, edges


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["ut:3", "ut:4", "heisenberg:2", "freenil23"]),
       st.sampled_from(["any", "extension", "scheme-perturbed"]),
       st.data())
def test_jennings_orders_conjugate_the_weight_lex_images(name, kind, data):
    # every basis order lists the weight-lex monomials, so its images
    # are the weight-lex ones conjugated by the order's permutation, and
    # they are unitriangular exactly when the order puts the source of
    # every support edge first
    lex, edges = _weight_lex(name)
    d = lex.d
    if kind == "scheme-perturbed":
        assume(builtin(name).positions is not None)
        order = kind
    elif kind == "any":
        order = tuple(data.draw(st.permutations(range(d))))
    else:
        left, order = set(range(d)), []
        while left:
            ready = [j for j in sorted(left)
                     if all((k, j) not in edges for k in left)]
            order.append(data.draw(st.sampled_from(ready)))
            left.remove(order[-1])
        order = tuple(order)
    res = jennings_embedding(builtin(name), order=order)
    perm = [lex.ordering.index(m) for m in res.ordering]
    pos = {i: r for r, i in enumerate(perm)}
    extends = all(pos[i] < pos[j] for i, j in edges)
    assert res.relators_ok
    assert res.unitriangular == extends
    for g, ref in zip(res.generators, lex.generators):
        assert isinstance(g, UnitriangularMatrix) == extends
        rows, ref = g.rows, ref.rows
        assert all(
            rows[r][c] == ref[perm[r]][perm[c]]
            for r in range(d) for c in range(d)
        )


DEFECTS = ("rows text", "row text", "ragged", "n", "diagonal", "below",
           "float", "bool")


@st.composite
def malformed_subgroups(draw):
    """Subgroup JSON for N <= 6 whose generator has one drawn defect."""
    g = matrix_to_json(draw(unitriangular(max_n=6)))
    n, rows = g["n"], g["rows"]
    defect = draw(st.sampled_from(DEFECTS))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1))
    # a string where a list belongs, spelling digits that read as a
    # valid row (or matrix, for n = 1) if taken character by character
    if defect == "rows text":
        g["rows"] = draw(st.text("01", min_size=n, max_size=n))
    elif defect == "row text":
        rows[i] = "0" * i + "1" + draw(
            st.text("0123456789", min_size=n - i - 1, max_size=n - i - 1)
        )
    elif defect == "ragged":
        if draw(st.booleans()):
            rows[i].append("0")
        else:
            rows[i].pop()
    elif defect == "n":
        g["n"] = n + draw(st.sampled_from((-1, 1)))
    elif defect == "diagonal":
        rows[i][i] = str(draw(st.integers(-3, 3).filter(lambda e: e != 1)))
    elif defect == "below":
        i, j = max(i, j), min(i, j)
        assume(i > j)
        rows[i][j] = str(draw(st.integers(-3, 3).filter(bool)))
    elif defect == "float":
        rows[i][j] = draw(st.floats())
    else:
        rows[i][j] = draw(st.booleans())
    return json.dumps({"N": n, "generators": [g]})


@fast
@given(malformed_subgroups())
def test_malformed_subgroup_json_exits_1(payload):
    rc, out, err = _run_cli(("distortion", "file:@"), payload)
    assert rc == 1 and out == ""
    assert err.startswith("nilmat: error:")
    assert "Traceback" not in err


# the command each payload feeds, with the placeholder @ for a file;
# heisenberg:1 keeps its realization (positions, ambient_n) but not its
# label, which any value may take
SWAP_PAYLOADS = {
    ("distortion", "-"): subgroup_to_json(
        SubgroupGens(3, [elementary(3, 1, 2), elementary(3, 2, 3)])
    ),
    ("embed", "jennings", "file:@"): {
        k: v for k, v in presentation_to_json(builtin("heisenberg:1")).items()
        if k != "label"
    },
}

# values that no field accepts, except that an integer of any sign or
# size is a valid matrix entry above the diagonal and a valid relation
# word entry past x_j
SWAPS = {
    "float": st.floats(),
    "bool": st.booleans(),
    "string": st.text(min_size=1, max_size=3).filter(
        lambda t: not re.fullmatch(r"[+-]?[0-9]+", t)
    ),
    "nested list": st.lists(
        st.lists(st.integers(-2, 2), max_size=2), min_size=1, max_size=2
    ),
    "negative int": st.integers(-(2**70), -1),
    "oversized int": st.integers(2**20, 2**70),
}


def _paths(obj, path=()):
    """Every path into the JSON value obj, its root excluded."""
    for key, value in (
        obj.items() if isinstance(obj, dict) else enumerate(obj)
    ):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _takes_any_int(payload, path):
    if path[-3:-2] == ("rows",):
        return path[-1] > path[-2]
    if path[-2:-1] == ("word",):
        return path[-1] >= payload["relations"][path[1]]["j"]
    return False


def _run_cli(argv, text):
    """(rc, stdout, stderr) of main on argv, with text on stdin and as
    the file @ stands for."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload.json")
        with open(path, "w") as fh:
            fh.write(text)
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main([a.replace("@", path) for a in argv])
        finally:
            sys.stdin = stdin
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", sorted(SWAP_PAYLOADS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_swapped_field_exits_1_or_3(argv, data):
    # one drawn field, swapped in turn for a value of each kind
    payload = SWAP_PAYLOADS[argv]
    path = data.draw(st.sampled_from(list(_paths(payload))), label="path")
    for kind, values in SWAPS.items():
        if kind.endswith(" int") and _takes_any_int(payload, path):
            continue
        swapped = json.loads(json.dumps(payload))
        parent = functools.reduce(operator.getitem, path[:-1], swapped)
        parent[path[-1]] = data.draw(values, label=kind)
        rc, out, err = _run_cli(argv, json.dumps(swapped))
        assert rc in (1, 3) and out == "", (kind, rc, out)
        assert err.startswith("nilmat: ") and "Traceback" not in err


def falling_binomial(a, e):
    """C(a, e) as the falling factorial a (a - 1) ... (a - e + 1) / e!."""
    return Fraction(prod(range(a - e + 1, a + 1)), factorial(e))


@fast
@given(st.integers(-20, 20), st.integers(0, 12))
def test_binomials_are_falling_factorials(a, top):
    got = _binomials(a, top)
    want = [falling_binomial(a, e) for e in range(top + 1)]
    # for a >= 0 the tuple stops at C(a, a), past which they vanish
    assert len(got) == (top + 1 if a < 0 else min(a, top) + 1)
    assert list(got) == want[:len(got)] and not any(want[len(got):])


@st.composite
def lower_set_tables(draw):
    """Random values on a lower set, with the set's _grid."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    top = draw(st.integers(0, 6))
    grid = _grid(weights, top)
    points = grid[0]
    assert points == tuple(_lower_set(weights, top))
    values = draw(st.lists(
        st.integers(-50, 50), min_size=len(points), max_size=len(points)
    ))
    return dict(zip(points, values)), grid


@fast
@given(lower_set_tables())
def test_differences_are_signed_binomial_sums(table_grid):
    table, grid = table_grid
    f = dict(table)
    got = _differences(table, operator.sub, grid)
    for m in f:
        want = sum(
            (-1) ** (sum(m) - sum(j)) * prod(map(comb, m, j)) * f[j]
            for j in product(*(range(e + 1) for e in m))
        )
        assert got[m] == want, m


@fast
@given(st.data())
def test_monomials_evaluate_to_the_newton_sum(data):
    n = data.draw(st.integers(1, 3))
    coeffs = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n),
        st.fractions(-5, 5, max_denominator=4).filter(bool),
        max_size=5,
    ))
    den = data.draw(st.integers(1, 6))
    poly = _monomials(n, coeffs, den)
    for _ in range(3):
        h = data.draw(st.tuples(*[st.integers(-6, 6)] * n))
        want = sum(
            c * prod(map(falling_binomial, h, m)) for m, c in coeffs.items()
        )
        assert poly.evaluate(h) == want / den


ACT_GROUPS = ("ut:3", "heisenberg:2", "freenil23")


@st.composite
def coordinate_functions(draw, M):
    """Polynomials of degree <= 2 with mixed denominators and signs; the
    zero function and constants are drawn on purpose too."""
    monos = st.tuples(*[st.integers(0, 2)] * M).filter(lambda m: sum(m) <= 2)
    coeffs = st.fractions(-6, 6, max_denominator=6)
    kind = draw(st.sampled_from(("zero", "constant", "general")))
    if kind == "zero":
        return CoordinatePolynomial(M, {})
    if kind == "constant":
        return CoordinatePolynomial.constant(M, draw(coeffs.filter(bool)))
    return CoordinatePolynomial(
        M, draw(st.dictionaries(monos, coeffs, min_size=1, max_size=5))
    )


@fast
@given(st.data())
def test_act_is_the_pointwise_translate(data):
    # act interpolates den * f in integers; evaluate is the Fraction
    # reference, taken at points off the interpolation grid too
    p = builtin(data.draw(st.sampled_from(ACT_GROUPS)))
    f = data.draw(coordinate_functions(p.M))
    word = data.draw(st.tuples(*[st.integers(-3, 3)] * p.M))
    g = act(f, word, p)
    assert g.nvars == p.M
    if len(f.terms) <= 1 and all(not any(m) for m in f.terms):
        assert g == f  # a constant is its own translate
    winv = p.inverse(word)
    for _ in range(3):
        h = data.draw(st.tuples(*[st.integers(-4, 4)] * p.M))
        assert g.evaluate(h) == f.evaluate(p.multiply(h, winv))


def dense_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def det(a):
    """Laplace expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * e * det([r[:j] + r[j + 1:] for r in a[1:]])
        for j, e in enumerate(a[0]) if e
    )


def adjugate_inverse(a):
    """adj(a) / det(a), or None when a is singular."""
    d = det(a)
    if not d:
        return None
    n = len(a)
    return [
        [
            Fraction((-1) ** (i + j) * det(
                [r[:i] + r[i + 1:] for k, r in enumerate(a) if k != j]
            )) / d
            for j in range(n)
        ]
        for i in range(n)
    ]


@st.composite
def square_pairs(draw):
    """(kind, a, b): two n x n matrices, n <= 6, of one kind.
    "permuted": integer unitriangular matrices conjugated by one
    permutation, as a basis order that is no linear extension makes
    them; "rational": general rational matrices; "singular": rational
    ones whose first has one row a multiple of another (a zero row
    when n = 1)."""
    kind = draw(st.sampled_from(["permuted", "rational", "singular"]))
    n = draw(st.integers(1, 6))
    if kind == "permuted":
        perm = draw(st.permutations(range(n)))

        def one():
            u = draw(unitriangular(n, n))
            return [[u.rows[r][c] for c in perm] for r in perm]
    else:
        entry = st.one_of(
            st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)
        )
        square = st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        )

        def one():
            return draw(square)
    a, b = one(), one()
    if kind == "singular":
        if n == 1:
            a = [[0]]
        else:
            k, l = draw(st.permutations(range(n)))[:2]
            c = draw(entry)
            a[k] = [c * e for e in a[l]]
    return kind, a, b


@fast
@given(square_pairs(), st.integers(-3, 3))
def test_square_matrices_match_dense_fractions(case, e):
    kind, a, b = case
    x, y = RationalSquareMatrix(a), RationalSquareMatrix(b)
    n = len(a)

    def dense(m):
        return [list(r) for r in m.rows]

    assert dense(x * y) == dense_mul(a, b)
    inv = adjugate_inverse(a)
    if inv is None:
        assert kind != "permuted"
        with pytest.raises(ValueError, match="singular"):
            x.inverse()
        with pytest.raises(ValueError, match="singular"):
            x ** min(e, -1)
    else:
        assert kind != "singular"
        assert dense(x.inverse()) == inv
        want = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(abs(e)):
            want = dense_mul(want, a if e >= 0 else inv)
        assert dense(x ** e) == want
    if kind == "permuted":
        for m in (x * y, x ** e, x.inverse()):
            assert all(type(v) is int for row in m.rows for v in row)
