"""Group-ring action embeddings: golden matrices and filtration laws."""

import json
import random
from itertools import product

import pytest

from nilmat import jennings, matgroup
from nilmat.cli import main
from nilmat.distortion import GuardError, lie_span
from nilmat.jennings import (
    JenningsBasis,
    embedding_to_json,
    image_weights,
    jennings_embedding,
)
from nilmat.matgroup import (
    RationalSquareMatrix,
    UnitriangularMatrix,
    _add_into,
)
from nilmat.presentation import (
    _differences,
    _grid,
    builtin,
    evaluate_coords,
)


def sparse(n, entries):
    rows = tuple(
        tuple(
            1 if i == j else entries.get((i, j), 0)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )
    return UnitriangularMatrix(rows)


# expansion of x, y, z = [x, y] over the 7 monomials of the truncated
# group ring of ut:3, in both shipped basis orders
WEIGHT_LEX_7 = (
    {(1, 2): -1, (2, 4): -1, (3, 5): -1, (3, 7): -1},
    {(1, 3): -1, (2, 5): -1, (3, 6): -1},
    {(1, 7): -1},
)
SCHEME_PERTURBED_7 = (
    {(1, 4): -1, (2, 3): -1, (2, 6): -1, (4, 5): -1},
    {(1, 2): -1, (2, 7): -1, (4, 6): -1},
    {(1, 3): -1},
)

FREENIL_BASIS_15 = (
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (2, 0, 0, 0, 0),
    (1, 1, 0, 0, 0),
    (0, 2, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (3, 0, 0, 0, 0),
    (2, 1, 0, 0, 0),
    (1, 2, 0, 0, 0),
    (1, 0, 1, 0, 0),
    (0, 3, 0, 0, 0),
    (0, 1, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
)


def test_golden_weight_lex_matrices():
    res = jennings_embedding(builtin("ut:3"))
    assert res.d == 7
    assert res.unitriangular and res.relators_ok
    assert res.generators == tuple(sparse(7, e) for e in WEIGHT_LEX_7)
    assert image_weights(res) == (1, 2, 6)


def test_golden_scheme_perturbed_matrices():
    res = jennings_embedding(builtin("ut:3"), order="scheme-perturbed")
    assert res.d == 7
    assert res.unitriangular and res.relators_ok
    assert res.generators == tuple(sparse(7, e) for e in SCHEME_PERTURBED_7)
    assert image_weights(res) == (1, 1, 2)


def test_graded_dimensions_ut3():
    basis = JenningsBasis(builtin("ut:3"))
    counts = {}
    for w in basis.mu:
        counts[w] = counts.get(w, 0) + 1
    assert counts == {0: 1, 1: 2, 2: 4}
    assert basis.monomials[0] == (0, 0, 0)


@pytest.mark.parametrize("name,order,uni", [
    ("ut:3", "weight-lex", True),
    ("ut:3", "scheme-perturbed", True),
    ("ut:4", "weight-lex", True),
    ("ut:4", "scheme-perturbed", False),
    ("ut:4:scheme", "scheme-perturbed", True),
    ("heisenberg:1", "weight-lex", True),
    ("heisenberg:2", "weight-lex", True),
    ("freenil23", "weight-lex", True),
])
def test_action_raises_filtration_weight(name, order, uni):
    # translating a monomial only adds monomials of strictly larger
    # weight, whatever order the basis is listed in; whether that is
    # triangular for the listing depends on the generator indexing
    res = jennings_embedding(builtin(name), order=order)
    mu = res.basis.mu
    assert res.unitriangular is uni
    assert res.relators_ok
    for g in res.generators:
        for i, row in enumerate(g.rows):
            for j, entry in enumerate(row):
                if i != j and entry:
                    assert mu[j] > mu[i]


def test_ut4_scheme_perturbed_summary():
    p = builtin("ut:4:scheme")
    res = jennings_embedding(p, order="scheme-perturbed")
    assert res.d == 29
    assert res.unitriangular and res.relators_ok
    assert image_weights(res) == tuple(j - i for i, j in p.positions)


def test_freenil_basis_and_size():
    res = jennings_embedding(builtin("freenil23"))
    assert res.d == 15
    assert res.ordering == FREENIL_BASIS_15
    assert res.unitriangular and res.relators_ok


def test_heisenberg2_summary():
    res = jennings_embedding(builtin("heisenberg:2"))
    assert res.d == 16
    assert res.unitriangular and res.relators_ok
    assert image_weights(res) == (1, 2, 3, 4, 15)


def test_truncation_gives_quotient_representation():
    res = jennings_embedding(builtin("ut:3"), truncation=2)
    assert res.d == 3
    assert res.unitriangular and res.relators_ok
    # the center acts trivially below its weight
    assert res.generators[2] == res.generators[2] ** 0


def test_homomorphism_and_distinct_images():
    p = builtin("ut:3")
    res = jennings_embedding(p)
    one = res.generators[0] ** 0
    rng = random.Random(711)
    seen = {}
    for _ in range(100):
        a = tuple(rng.randint(-6, 6) for _ in range(3))
        b = tuple(rng.randint(-6, 6) for _ in range(3))
        left = evaluate_coords(a, res.generators, one) * \
            evaluate_coords(b, res.generators, one)
        c = p.multiply(a, b)
        assert left == evaluate_coords(c, res.generators, one)
        seen[left] = seen.get(left, c)
        assert seen[left] == c, "two group elements share a matrix"


def test_explicit_identity_permutation_matches_weight_lex():
    base = jennings_embedding(builtin("ut:3"))
    perm = jennings_embedding(builtin("ut:3"), order=tuple(range(7)))
    assert perm.ordering == base.ordering
    assert perm.generators == base.generators


def test_rotated_permutation_loses_triangularity():
    order = tuple(range(1, 7)) + (0,)
    res = jennings_embedding(builtin("ut:3"), order=order)
    assert not res.unitriangular
    assert res.relators_ok
    assert all(
        isinstance(g, RationalSquareMatrix) for g in res.generators
    )


def test_bad_arguments():
    with pytest.raises(ValueError):
        JenningsBasis(builtin("ut:3"), order="alphabetical")
    with pytest.raises(ValueError):
        JenningsBasis(builtin("ut:3"), truncation=1)
    with pytest.raises(ValueError):
        JenningsBasis(builtin("freenil23"), order="scheme-perturbed")
    with pytest.raises(ValueError):
        JenningsBasis(builtin("ut:3"), order=(0, 1, 2))


def test_basis_size_cap(monkeypatch):
    # the cap is the largest matrix size standardize admits
    cap = jennings.MAX_MONOMIALS
    assert cap == 724
    matgroup._check_positions(cap)
    with pytest.raises(GuardError):
        matgroup._check_positions(cap + 1)
    listed = [0]
    lower_set = jennings._lower_set

    def counted(weights, top):
        for m in lower_set(weights, top):
            listed[0] += 1
            yield m

    monkeypatch.setattr(jennings, "_lower_set", counted)
    # ut:7 has 3029 monomials; truncation 10^9 would list 10^9 tuples
    # of weight 0 to 1 alone
    for name, truncation in (("ut:7", None), ("ut:3", 10**9)):
        listed[0] = 0
        with pytest.raises(GuardError) as info:
            JenningsBasis(builtin(name), truncation=truncation)
        assert f"more than {cap} monomials; the cap is {cap}" in str(
            info.value
        )
        assert listed[0] == cap + 1


def test_embedding_json_shape():
    res = jennings_embedding(builtin("ut:3"))
    obj = embedding_to_json(res)
    assert list(obj) == ["d", "ordering", "generators", "unitriangular"]
    assert obj["d"] == 7
    assert obj["ordering"][0] == [0, 0, 0]
    assert obj["generators"][0]["n"] == 7
    assert obj["generators"][0]["rows"][0][1] == "-1"
    assert obj["unitriangular"] is True


def test_expand_group_series_convention():
    basis = JenningsBasis(builtin("ut:3"))
    assert basis.expand_group((0, 0, 0)) == {(0, 0, 0): 1}
    one_x = basis.expand_group((1, 0, 0))
    assert one_x[(0, 0, 0)] == 1
    assert one_x[(1, 0, 0)] == -1


STOCK_GROUPS = (
    "ut:2", "ut:3", "ut:3:scheme", "ut:4", "ut:4:scheme", "ut:5",
    "heisenberg:1", "heisenberg:2", "heisenberg:3", "freenil23",
)


def _bases(name):
    p = builtin(name)
    yield JenningsBasis(p)
    if p.positions is not None:
        yield JenningsBasis(p, order="scheme-perturbed")
    d = len(JenningsBasis(p))
    perm = list(range(d))
    random.Random(d).shuffle(perm)
    yield JenningsBasis(p, order=perm)
    if max(p.weights) > 1:
        yield JenningsBasis(p, truncation=max(p.weights))


@pytest.mark.parametrize("name", STOCK_GROUPS)
def test_element_matrix_is_product_of_generator_powers(name):
    # the engine builds a word's matrix from one collector product per
    # basis monomial; the homomorphism property says it must equal the
    # product of the generator images' powers
    rng = random.Random(name)
    for basis in _bases(name):
        M = basis.presentation.M
        gens = [basis.action_matrix(k) for k in range(1, M + 1)]
        dense = not all(isinstance(g, UnitriangularMatrix) for g in gens)
        if dense:
            gens = [RationalSquareMatrix(g.rows) for g in gens]
        one = gens[0] ** 0
        words = [tuple(rng.randint(-2, 2) for _ in range(M))]
        if len(basis) <= 30:
            words.append(tuple(rng.randint(-3, 3) for _ in range(M)))
        for w in words:
            got = basis.element_matrix(w)
            if dense:
                got = RationalSquareMatrix(got.rows)
            assert got == evaluate_coords(w, gens, one), (basis.order, w)


@pytest.mark.parametrize("name", ["ut:3", "ut:4", "freenil23"])
def test_element_matrix_calls_collector_once_per_monomial(
    name, monkeypatch
):
    # one outer collector product per tail monomial: the monomials in
    # the generators after the word's first, listed here by brute force
    p = builtin(name)
    basis = JenningsBasis(p)
    orig = type(p).multiply
    depth = [0]
    calls = [0]

    def counted(self, a, b):
        # the collector recurses into multiply; count outer calls only
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return orig(self, a, b)
        finally:
            depth[0] -= 1

    def outer_calls(word):
        calls[0] = 0
        basis.element_matrix(word)
        return calls[0]

    monkeypatch.setattr(type(p), "multiply", counted)
    tail = p.weights[1:]
    top = basis.cutoff
    tails = sum(
        sum(e * w for e, w in zip(s, tail)) <= top
        for s in product(*(range(top // w + 1) for w in tail))
    )
    assert outer_calls((1,) + (-2,) * (p.M - 1)) == tails < len(basis)
    assert outer_calls(p.identity()) == 0
    assert outer_calls(p.generator(p.M)) == 1


def _rows_by_full_table(basis, coords):
    """The weight-lex rows of basis.element_matrix(coords) by the whole
    lower set: u^r = sum over j <= r of (-1)^|j| C(r, j) x^j, so the row
    of u^r is the binomial sum of the signed expansions of x^j g, one
    collector product per basis monomial j, summed in place."""
    p = basis.presentation
    lex = basis._lex
    column = {m: k for k, m in enumerate(lex)}
    table = {
        r: {
            column[m]: -c if sum(r) & 1 else c
            for m, c in basis.expand_group(p.multiply(r, coords)).items()
        }
        for r in lex
    }
    _differences(
        table, lambda a, b: _add_into(a, 1, b), _grid(p.weights, basis.cutoff)
    )
    return [table[r] for r in lex]


@pytest.mark.parametrize(
    "name",
    ["ut:3", "ut:4", "ut:4:scheme", "heisenberg:2", "heisenberg:3",
     "freenil23"],
)
def test_rows_from_the_tail_match_the_full_table(name):
    # the tail factorisation against the whole-lower-set construction,
    # on words with any first support (the identity included) and
    # negative exponents, at truncations c+1 to c+3
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    p = builtin(name)
    c = max(p.weights)
    bases = [JenningsBasis(p, truncation=c + e) for e in (1, 2, 3)]

    @hyp.settings(max_examples=30, deadline=None, derandomize=True,
                  database=None)
    @hyp.given(st.sampled_from(bases), st.integers(0, p.M), st.data())
    def check(basis, first, data):
        word = [0] * first
        if first < p.M:
            word.append(data.draw(st.integers(-3, 3).filter(bool)))
            word += data.draw(
                st.lists(st.integers(-3, 3), min_size=p.M - first - 1,
                         max_size=p.M - first - 1)
            )
        assert basis._rows(word) == _rows_by_full_table(basis, tuple(word))

    check()


def test_ut6_embedding():
    res = jennings_embedding(builtin("ut:6"))
    assert res.d == 624
    assert res.unitriangular and res.relators_ok


def test_orderings_survey_builds_one_lie_series(monkeypatch, capsys):
    # both named orders of heisenberg:2 give unitriangular images; the
    # survey builds each generator's rows once, in weight-lex order, and
    # one Lie series, which it permutes for the second order
    p = builtin("heisenberg:2")
    rows, spans = [0], [0]
    orig = JenningsBasis._rows

    def counted_rows(self, coords):
        rows[0] += 1
        return orig(self, coords)

    def counted_span(mats):
        spans[0] += 1
        return lie_span(mats)

    monkeypatch.setattr(JenningsBasis, "_rows", counted_rows)
    monkeypatch.setattr(jennings, "lie_span", counted_span)
    assert main(["orderings", "jennings", "heisenberg:2"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert [r["unitriangular"] for r in records] == [True, True]
    assert spans[0] == 1
    assert rows[0] == p.M
