"""Collection layer: normal forms against independent oracles.

The main oracle maps weight-1 generators k to 1 + X_k in the free
associative algebra over the rationals truncated past the group's
nilpotency class, and higher generators to the matching commutator
series.  For a free nilpotent group of class c that map is an
injective homomorphism on the degree <= c truncation, so equality of
series is equivalent to equality of group elements and normal-form
multiplication can be checked without using the collector itself.
The map is only valid for the free groups in the stable (ut:3 and
heisenberg:1 are free of class 2 on two generators, freenil23 is free
of class 3); heisenberg:2 gets a closed-form oracle instead.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from nilmat import presentation
from nilmat.distortion import GuardError
from nilmat.jennings import jennings_embedding
from nilmat.matgroup import (
    UnitriangularMatrix,
    commutator,
    elementary,
    identity,
)
from nilmat.presentation import (
    NilpotentPresentation,
    builtin,
    evaluate_coords,
    malcev_coordinates,
    presentation_from_json,
    presentation_to_json,
    relation_failures,
)


class Trunc:
    """Noncommutative polynomial with words of length <= deg."""

    def __init__(self, terms, deg):
        self.terms = {w: c for w, c in terms.items() if c}
        self.deg = deg

    @classmethod
    def one(cls, deg):
        return cls({(): Fraction(1)}, deg)

    @classmethod
    def unit_plus(cls, letter, deg):
        return cls({(): Fraction(1), (letter,): Fraction(1)}, deg)

    def __eq__(self, other):
        return self.terms == other.terms

    def __mul__(self, other):
        assert self.deg == other.deg
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) <= self.deg:
                    w = w1 + w2
                    out[w] = out.get(w, Fraction(0)) + c1 * c2
        return Trunc(out, self.deg)

    def inverse(self):
        # (1 + N)^-1 = 1 - N + N^2 - ... for N without constant term
        n = Trunc({w: c for w, c in self.terms.items() if w}, self.deg)
        assert self.terms.get((), None) == 1
        out = Trunc.one(self.deg)
        power = Trunc.one(self.deg)
        sign = 1
        for _ in range(self.deg):
            power = power * n
            sign = -sign
            for w, c in power.terms.items():
                out.terms[w] = out.terms.get(w, Fraction(0)) + sign * c
        return Trunc(out.terms, self.deg)

    def __pow__(self, e):
        base = self if e >= 0 else self.inverse()
        out = Trunc.one(self.deg)
        for _ in range(abs(e)):
            out = out * base
        return out


def comm(a, b):
    return a.inverse() * b.inverse() * a * b


def oracle_generators(name):
    """Series image of each generator of the named built-in."""
    p = builtin(name)
    deg = max(p.weights)
    series = []
    for k in range(p.M):
        if p.weights[k] == 1:
            series.append(Trunc.unit_plus(k + 1, deg))
        else:
            series.append(None)
    if name in ("ut:3", "heisenberg:1"):
        series[2] = comm(series[0], series[1])
    elif name == "freenil23":
        series[2] = comm(series[0], series[1])
        series[3] = comm(series[0], series[2])
        series[4] = comm(series[1], series[2])
    else:
        raise AssertionError(f"no series oracle for {name}")
    return p, series, deg


def oracle_value(series, coords):
    deg = series[0].deg
    out = Trunc.one(deg)
    for s, e in zip(series, coords):
        if e:
            out = out * s ** e
    return out


def h2_mult(a, b):
    """Closed-form product for heisenberg:2, derived by hand.

    Normal form x1^a1 x2^a2 x3^a3 x4^a4 x5^a5 with x5 central and the
    stored relations x3 x1 = x1 x3 x5^-1, x4 x2 = x2 x4 x5^-1 (all
    other generator pairs commute).  Pushing the b-block left past the
    a-block, x1^b1 crosses x3^a3 picking up x5^(-a3 b1) and x2^b2
    crosses x4^a4 picking up x5^(-a4 b2); nothing else interacts.
    """
    return (
        a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
        a[4] + b[4] - a[2] * b[0] - a[3] * b[1],
    )


SERIES_NAMES = ("ut:3", "heisenberg:1", "freenil23")
ORACLE_NAMES = SERIES_NAMES + ("heisenberg:2",)


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_oracle_accepts_stored_relations(name):
    p, series, _ = oracle_generators(name)
    for (j, i), word in p.relations.items():
        lhs = series[j - 1] * series[i - 1]
        rhs = series[i - 1] * series[j - 1] * oracle_value(series, word)
        assert lhs == rhs, f"relation ({j},{i}) fails in the series ring"


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_multiplication_matches_series_oracle(name):
    p, series, _ = oracle_generators(name)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(40):
        a = tuple(rng.randint(-3, 3) for _ in range(p.M))
        b = tuple(rng.randint(-3, 3) for _ in range(p.M))
        c = p.multiply(a, b)
        assert oracle_value(series, a) * oracle_value(series, b) == \
            oracle_value(series, c)


def test_heisenberg2_closed_form_oracle():
    p = builtin("heisenberg:2")
    for (j, i), word in p.relations.items():
        xj, xi = p.generator(j), p.generator(i)
        assert h2_mult(xj, xi) == h2_mult(h2_mult(xi, xj), word)
    rng = random.Random(5205)
    for _ in range(200):
        a = tuple(rng.randint(-4, 4) for _ in range(5))
        b = tuple(rng.randint(-4, 4) for _ in range(5))
        assert p.multiply(a, b) == h2_mult(a, b)


def test_heisenberg_translation_examples():
    p1 = builtin("heisenberg:1")
    assert p1.multiply((4, 7, -2), (1, 0, 0)) == (5, 7, -9)
    p2 = builtin("heisenberg:2")
    a = (1, 2, 3, 4, 5)
    for k in (1, 3):
        assert p2.multiply(a, (-k, 0, 0, 0, 0)) == \
            (1 - k, 2, 3, 4, 5 + 3 * k)


def test_freenil_translation_keeps_quadratic_terms():
    # the y1 shift corrects depth-3 slots beyond the linear terms
    p = builtin("freenil23")
    _, series, _ = oracle_generators("freenil23")
    a = (1, 2, 3, 4, 5)
    for shift in ((-1, 0, 0, 0, 0), (-2, 0, 0, 0, 0), (0, -1, 0, 0, 0)):
        got = p.multiply(a, shift)
        assert oracle_value(series, a) * oracle_value(series, shift) == \
            oracle_value(series, got)
    assert p.multiply(a, (-1, 0, 0, 0, 0)) == (0, 2, 5, 9, 4)
    assert p.multiply(a, (-2, 0, 0, 0, 0)) == (-1, 2, 7, 16, 3)
    assert p.multiply(a, (0, -1, 0, 0, 0)) == (1, 1, 3, 4, 8)


def test_inverse_and_power_words():
    for name in ORACLE_NAMES:
        p = builtin(name)
        rng = random.Random(77)
        for _ in range(30):
            a = tuple(rng.randint(-4, 4) for _ in range(p.M))
            assert p.multiply(a, p.inverse(a)) == p.identity()
            e = rng.randint(-5, 5)
            step = a if e >= 0 else p.inverse(a)
            want = p.identity()
            for _ in range(abs(e)):
                want = p.multiply(want, step)
            assert p.power(a, e) == want
        assert p.power(p.generator(1), 5) == tuple(
            5 if k == 0 else 0 for k in range(p.M)
        )
    p = builtin("heisenberg:1")
    assert p.inverse((1, 0, 0)) == (-1, 0, 0)
    assert p.power((0, 0, 1), 9) == (0, 0, 9)


def test_associativity_random_triples():
    for name in ORACLE_NAMES:
        p = builtin(name)
        rng = random.Random(88)
        for _ in range(50):
            a, b, c = (
                tuple(rng.randint(-4, 4) for _ in range(p.M))
                for _ in range(3)
            )
            assert p.multiply(p.multiply(a, b), c) == \
                p.multiply(a, p.multiply(b, c))


def test_relations_collect_equally():
    for name in ORACLE_NAMES:
        p = builtin(name)
        for (j, i), word in p.relations.items():
            lhs = p.multiply(p.generator(j), p.generator(i))
            rhs = p.multiply(
                p.multiply(p.generator(i), p.generator(j)), word
            )
            assert lhs == rhs


@pytest.mark.parametrize("name", ("ut:3", "ut:4", "ut:4:scheme",
                                  "heisenberg:1", "heisenberg:2"))
def test_collection_matches_matrices(name):
    p = builtin(name)
    mats = p.realized_generators()
    one = identity(p.ambient_n)
    rng = random.Random(hash(name) & 0xFFF)
    for _ in range(500):
        a = tuple(rng.randint(-5, 5) for _ in range(p.M))
        b = tuple(rng.randint(-5, 5) for _ in range(p.M))
        left = evaluate_coords(a, mats, one) * evaluate_coords(b, mats, one)
        right = evaluate_coords(p.multiply(a, b), mats, one)
        assert left == right


def test_builtin_weights_and_labels():
    p = builtin("ut:3")
    assert p.M == 3 and p.weights == (1, 1, 2)
    assert p.relations[(2, 1)] == (0, 0, -1)
    p = builtin("heisenberg:2")
    assert p.M == 5 and p.weights == (1, 1, 1, 1, 2)
    assert set(p.relations) == {(3, 1), (4, 2)}
    p = builtin("freenil23")
    assert p.M == 5 and p.weights == (1, 1, 2, 3, 3)
    assert p.positions is None
    p = builtin("ut:4:scheme")
    assert p.positions == ((1, 2), (2, 3), (1, 3), (3, 4), (2, 4), (1, 4))


def test_builtin_rejects_bad_selectors():
    # a size is a decimal integer: int() would also read "0_3" as 3,
    # " 3" as 3 and a fullwidth digit as its value
    for bad in ("ut:1", "ut:0", "heisenberg:0", "freenil24", "nosuch",
                "ut:4:diagonal", "ut:x", "ut:0_3", "ut: 3", "ut:\uff13",
                "heisenberg:1_0"):
        with pytest.raises(ValueError):
            builtin(bad)
    # written as its str, so that the name round-trips to the label
    for bad in ("ut:+3", "ut:03", "heisenberg:02", "ut:-0"):
        with pytest.raises(ValueError, match="is not written as"):
            builtin(bad)
    # the degenerate 2 x 2 case is allowed and is just the integers
    assert builtin("ut:2").M == 1
    assert builtin("ut:3:lcs-standard").label == "ut:3"


@pytest.mark.parametrize("flavor", list(presentation._FLAVORS))
@pytest.mark.parametrize("m", range(2, 9))
def test_builtin_ut_relations_match_matrix_commutators(m, flavor):
    # oracle: each pair's matrix commutator, peeled into Malcev
    # coordinates over the group's own positions
    name = f"ut:{m}" if flavor == "lcs-standard" else f"ut:{m}:{flavor}"
    p = builtin(name)
    every = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    key = presentation._FLAVORS[flavor]
    assert p.positions == tuple(sorted(every, key=key))
    assert p.weights == tuple(j - i for i, j in p.positions)
    gens = p.realized_generators()
    want = {}
    for j in range(2, len(gens) + 1):
        for i in range(1, j):
            c = commutator(gens[j - 1], gens[i - 1])
            if not c.is_identity:
                want[(j, i)] = malcev_coordinates(c, p)
    assert p.relations == want


@pytest.mark.parametrize("relations", [
    {(2, 1): (0, 0, 1), ("2", 1): (0, 0, -5)},
    {(2, 1): (0, 0, 1), ("2", 1): (0, 0, 0)},
    {(2, 1): (0, 0, 0), (2, "1"): (0, 0, 1)},
    [((2, 1), (0, 0, 1)), ((2, 1), (0, 0, -5))],
])
def test_constructor_rejects_duplicate_relation_keys(relations):
    # a key repeated once its entries are read as integers is refused,
    # also when one of its words is zero, instead of one word winning
    with pytest.raises(ValueError, match=r"^duplicate relation key \(2, 1\)$"):
        NilpotentPresentation(3, (1, 1, 2), relations)


@pytest.mark.parametrize("weights,relations,what", [
    ("112", {(2, 1): (0, 0, 1)}, "weights"),
    ((1, 1, 2), {"21": (0, 0, 1)}, "relation key"),
    ((1, 1, 2), {(2, 1): "001"}, "relation word"),
    (range(1, 4), {(2, 1): (0, 0, 1)}, "weights"),
    ((1, 1, 2), {(2, 1): iter((0, 0, 1))}, "relation word"),
])
def test_constructor_refuses_non_sequences(weights, relations, what):
    # a string read character by character would pass as its digits;
    # other iterables are refused with it, as only a list or a tuple is
    # a sequence here
    with pytest.raises(ValueError, match=f"^{what} must be a JSON list"):
        NilpotentPresentation(3, weights, relations)


def test_ambient_n_cap_at_construction(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(presentation, "elementary", no_matrix)
    for n in (725, 10**9):
        with pytest.raises(GuardError, match=f"^ambient_n = {n} has "):
            NilpotentPresentation(
                3, (1, 1, 2), {(2, 1): (0, 0, -1)},
                positions=((1, 2), (2, 3), (1, 3)), ambient_n=n,
            )


def test_builtin_size_cap(monkeypatch):
    cap = presentation.MAX_RELATION_ENTRIES
    # the largest admitted sizes are checked, not built
    presentation._check_relation_entries("ut:15", 455, 105)
    presentation._check_relation_entries("heisenberg:180", 180, 361)

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(presentation, "elementary", no_matrix)
    # ut:m stores C(m, 3) words of m(m-1)/2 entries, heisenberg:n n of
    # 2n+1; the refusal comes before any position is listed, which for
    # ut:100 would take over 300 KiB
    for name, words, M in (
        ("ut:16", 560, 120),
        ("ut:100", 161700, 4950),
        ("ut:100:scheme", 161700, 4950),
        ("heisenberg:181", 181, 363),
        ("heisenberg:2000", 2000, 4001),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(GuardError) as info:
                builtin(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (
            f"{words} relation words of {M} entries, {words * M} in all; "
            f"the cap is {cap}"
        ) in str(info.value), name
        assert peak < 64 * 1024, name


def test_deep_validation_flags_inconsistent_relations():
    relations = {
        (2, 1): (0, 0, 0, 1, 0),
        (4, 3): (0, 0, 0, 0, 1),
    }
    p = NilpotentPresentation(5, (1, 1, 1, 2, 3), relations, label="bad")
    with pytest.raises(ValueError, match="associativity"):
        p.validate()
    for name in ORACLE_NAMES:
        builtin(name).validate()
    # the same edit made after a check has filled the collector's memo:
    # validate collects afresh from the dict as it is now
    q = NilpotentPresentation(5, (1, 1, 1, 2, 3), {(2, 1): (0, 0, 0, 1, 0)})
    q.validate()
    q.relations[(4, 3)] = (0, 0, 0, 0, 1)
    with pytest.raises(ValueError, match="associativity"):
        q.validate()


def test_relation_failures_reports_bad_images():
    p = builtin("ut:3")
    good = p.realized_generators()
    assert relation_failures(p, good) == []
    bad = [good[0], good[0], good[2]]
    assert relation_failures(p, bad) != []


def test_deep_validate_names_the_broken_relation():
    # [x_2, x_1] of the realization is x_3^-1, not x_3
    p = NilpotentPresentation(
        3, (1, 1, 2), {(2, 1): (0, 0, 1)},
        positions=((1, 2), (2, 3), (1, 3)), ambient_n=3,
    )
    with pytest.raises(
        ValueError, match=r"realization breaks relation \(2, 1\)"
    ):
        p.validate()


def test_edited_relations_reach_the_collector():
    # the collector reads the one relations dict that relation_failures,
    # validate and the wire form read; there is no second copy
    q = builtin("ut:3")
    q.relations[(2, 1)] = (0, 0, 1)
    assert q.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    assert relation_failures(q, q.realized_generators()) == [(2, 1)]
    assert presentation_to_json(q)["relations"][0]["word"] == [0, 0, 1]
    with pytest.raises(ValueError, match=r"breaks relation \(2, 1\)"):
        q.validate()
    # the constructor's checks are re-run on the edited dict
    q.relations[(2, 1)] = (0, 1, 0)
    with pytest.raises(ValueError, match="not past x_2"):
        q.validate()


STOCK_NAMES = ORACLE_NAMES + (
    "ut:2", "ut:4", "ut:5", "ut:3:scheme", "ut:4:scheme", "heisenberg:3",
)


def test_json_roundtrip():
    for name in STOCK_NAMES:
        p = builtin(name)
        obj = presentation_to_json(p)
        q = presentation_from_json(obj)
        assert q.M == p.M
        assert q.weights == p.weights
        assert q.relations == p.relations
        assert q.label == p.label
        assert q.positions == p.positions
        assert q.ambient_n == p.ambient_n
        assert ("positions" in obj) == (p.positions is not None)
    assert obj["relations"][0].keys() == {"j", "i", "word"}
    # heisenberg:3 sits in UT_5 with x_1, x_2 at (1, 2), (1, 3)
    assert obj["positions"][:2] == [[1, 2], [1, 3]]
    assert obj["ambient_n"] == 5
    # once a TypeError from iterating the int
    with pytest.raises(ValueError, match="^relations must be a JSON list"):
        presentation_from_json({"M": 1, "weights": [1], "relations": 5})


@pytest.mark.parametrize("positions,ambient_n", [
    ([[1, 2], [2, 3]], 3),
    ([[1, 2], [2, 3], [1, 3], [1, 3]], 3),
    ([[1, 2], [2, 3], [1, 4]], 3),
    ([[1, 2], [3, 2], [1, 3]], 3),
    ([[0, 2], [2, 3], [1, 3]], 3),
    ([[1, 2], [2, 3], [1, 3, 4]], 3),
    ([[1, 2], [2, 3], "13"], 3),
    ([[1, 2], [2, 3], [1, 3.0]], 3),
    ([[1, 2], [2, 3], [1, 3]], None),
    ([[1, 2], [2, 3], [1, 3]], 2.5),
    (None, 3),
    ({"1": 2}, 3),
    ("121323", 3),
    ([[1, 2], [2, 3], [5, 2]], 3),
    ([[1, 2], [2, 3], [1, "3"]], "2"),
])
def test_json_rejects_malformed_positions(positions, ambient_n):
    p = builtin("ut:3")
    obj = presentation_to_json(p)
    obj["positions"], obj["ambient_n"] = positions, ambient_n
    with pytest.raises(ValueError):
        presentation_from_json(obj)
    # the constructor makes the decision, so the library refuses it too
    with pytest.raises(ValueError):
        NilpotentPresentation(
            p.M, p.weights, p.relations, positions=positions,
            ambient_n=ambient_n,
        )


def test_relation_failures_takes_binary_powers(monkeypatch):
    # a word entry of 10**9 costs about 30 squarings, not 10**9 products
    mul = UnitriangularMatrix.__mul__
    calls = 0

    def bounded(a, b):
        nonlocal calls
        calls += 1
        if calls > 200:
            raise AssertionError("relator check is linear in the exponent")
        return mul(a, b)

    monkeypatch.setattr(UnitriangularMatrix, "__mul__", bounded)
    for e in (10**9, -(10**9)):
        calls = 0
        p = NilpotentPresentation(3, (1, 1, 2), {(2, 1): (0, 0, e)})
        assert jennings_embedding(p).relators_ok
