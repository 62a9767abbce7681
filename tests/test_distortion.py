"""Membership, depth, and exact distortion degrees."""

import copy
import hashlib
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from nilmat import distortion, matgroup
from nilmat.distortion import (
    GuardError,
    LieAlgebraSpan,
    SubgroupGens,
    ball,
    brute_force_degree,
    depth_by_powers,
    distorted_subgroup,
    distortion_degree,
    empirical_distortion,
    lie_span,
    lower_central_gens,
    member,
    member_certificate,
    report_to_json,
    standardize,
    subgroup_depth,
    subgroup_from_json,
    subgroup_to_json,
)
from nilmat.jennings import jennings_embedding
from nilmat.matgroup import (
    RationalNilpotentMatrix,
    RationalSquareMatrix,
    UnitriangularMatrix,
    _log_numerator,
    elementary,
    identity,
    level_weight,
    log_unipotent,
)
from nilmat.presentation import builtin


def full_ut3():
    return SubgroupGens(3, [elementary(3, 1, 2), elementary(3, 2, 3)])


def random_subgroup(rng, n=4):
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = identity(n)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            g = g * elementary(n, i, j, rng.choice((-2, -1, 1, 2)))
        gens.append(g)
    return SubgroupGens(n, gens)


def test_standardize_closes_the_generating_pair():
    seq = standardize(full_ut3())
    assert len(seq) == 3
    assert seq.lead_pairs == ((1, 0), (1, 1), (2, 0))
    assert [
        s.entries[i][i + l] for (l, i), s in zip(seq.lead_pairs, seq.slots)
    ] == [1, 1, 1]
    assert seq.levels == (1, 1, 2)


def test_standardize_keeps_index():
    sub = SubgroupGens(3, [elementary(3, 1, 2) ** 2])
    seq = standardize(sub)
    assert member(elementary(3, 1, 2) ** 2, seq)
    assert member_certificate(elementary(3, 1, 2) ** 2, seq) == (1,)
    assert not member(elementary(3, 1, 2), seq)


def test_member_certificate_refuses_where_the_peel_stops():
    # slots e12**2 and e34 of UT_4: e23's lead is no slot's, e12's lead
    # coefficient is not a multiple of 2, and e14 is left past the last
    # slot once e12**2 and e34 are peeled
    e12, e23, e34, e14 = (
        elementary(4, i, j) for i, j in ((1, 2), (2, 3), (3, 4), (1, 4))
    )
    seq = standardize(SubgroupGens(4, [e12 ** 2, e34]))
    assert seq.lead_pairs == ((1, 0), (1, 2))
    for outsider in (e23, e12, e12 ** 2 * e34 * e14):
        assert member_certificate(outsider, seq) is None
    assert member_certificate(e12 ** -4 * e34 ** 3, seq) == (-2, 3)


def test_restored_sequence_peels_its_own_table():
    # the (slot, inverse) table is a private field, which copy and
    # pickle must carry for member_certificate to peel it
    e12, e23, e34, e14 = (
        elementary(4, i, j) for i, j in ((1, 2), (2, 3), (3, 4), (1, 4))
    )
    seq = standardize(SubgroupGens(4, [e12 ** 2, e34]))
    words = [e23, e12, e12 ** 2 * e34 * e14, e12 ** -4 * e34 ** 3, e14]
    want = [member_certificate(h, seq) for h in words]
    assert want == [None, None, None, (-2, 3), None]
    for restored in (
        pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)
    ):
        assert restored == seq
        assert [member_certificate(h, restored) for h in words] == want


def test_member_certificate_forms_no_inverse(monkeypatch):
    seq = standardize(disguised(9, 4, 94))
    words = [s ** e for s in seq.slots for e in (-2, 3)]
    words.append(seq.slots[0] ** -1 * seq.slots[-1] ** 5 * seq.slots[1])
    inverses = counting(monkeypatch, UnitriangularMatrix, "inverse")
    certs = [member_certificate(h, seq) for h in words]
    assert inverses[0] == 0
    monkeypatch.undo()
    for h, cert in zip(words, certs):
        out = identity(seq.n)
        for s, e in zip(seq.slots, cert):
            out = out * s ** e
        assert out == h


def test_membership_accepts_words_and_certifies_them():
    rng = random.Random(717)
    checked = 0
    while checked < 5:
        sub = random_subgroup(rng)
        seq = standardize(sub)
        if not seq.slots:
            continue
        checked += 1
        span = lie_span([log_unipotent(s) for s in seq.slots])
        for _ in range(40):
            h = identity(4)
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(sub.generators)
                h = h * (g if rng.random() < 0.5 else g.inverse())
            cert = member_certificate(h, seq)
            assert cert is not None
            rebuilt = identity(4)
            for s, e in zip(seq.slots, cert):
                if e:
                    rebuilt = rebuilt * s ** e
            assert rebuilt == h
            if not h.is_identity:
                assert span.contains(log_unipotent(h))


def test_membership_rejects_outside_the_span():
    sub = SubgroupGens(3, [elementary(3, 1, 2), elementary(3, 1, 3)])
    seq = standardize(sub)
    span = lie_span([log_unipotent(s) for s in seq.slots])
    for outsider in (
        elementary(3, 2, 3),
        elementary(3, 1, 2) * elementary(3, 2, 3),
    ):
        assert not span.contains(log_unipotent(outsider))
        assert not member(outsider, seq)
    assert member(elementary(3, 1, 2) * elementary(3, 1, 3) ** 2, seq)


def test_lower_central_gens():
    seq = standardize(full_ut3())
    assert len(standardize(lower_central_gens(seq, 1))) == 3
    second = standardize(lower_central_gens(seq, 2))
    assert [level_weight(g) for g in second.slots] == [2]
    assert lower_central_gens(seq, 3).generators == ()


def test_subgroup_size_is_read_as_an_integer():
    # the constructor reads N, so the library refuses what the wire does
    for n in (3.0, True, "3.0"):
        with pytest.raises(ValueError, match="^subgroup size N "):
            SubgroupGens(n, [])
    assert SubgroupGens("3", [elementary(3, 1, 2)]).n == 3


def test_subgroup_depth_basics():
    seq = standardize(full_ut3())
    assert subgroup_depth(elementary(3, 1, 3), seq) == 2
    assert subgroup_depth(elementary(3, 1, 2), seq) == 1
    assert subgroup_depth(elementary(3, 1, 2) * elementary(3, 1, 3), seq) == 1
    with pytest.raises(ValueError):
        subgroup_depth(identity(3), seq)
    z = standardize(SubgroupGens(3, [elementary(3, 1, 3)]))
    with pytest.raises(ValueError):
        subgroup_depth(elementary(3, 1, 2), z)


def test_depth_is_power_invariant():
    rng = random.Random(718)
    checked = 0
    while checked < 4:
        seq = standardize(random_subgroup(rng))
        if not seq.slots:
            continue
        checked += 1
        for h in seq.slots:
            t = subgroup_depth(h, seq)
            for m in (2, 3):
                assert subgroup_depth(h ** m, seq) == t


def test_depth_by_powers_agrees():
    rng = random.Random(719)
    checked = 0
    while checked < 4:
        seq = standardize(random_subgroup(rng))
        if not seq.slots:
            continue
        checked += 1
        for h in seq.slots:
            assert depth_by_powers(h, seq) == subgroup_depth(h, seq)


def test_central_cyclic_is_quadratically_distorted():
    z = elementary(3, 1, 3)
    rep = distortion_degree(SubgroupGens(3, [z]))
    assert rep.degree == 2
    assert rep.witness == z
    assert [(s.m, s.t) for s in rep.strata] == [(2, 1)]


@pytest.mark.parametrize("p,q,expect", [
    (2, 2, Fraction(1)),
    (3, 2, Fraction(3, 2)),
    (4, 3, Fraction(4, 3)),
    (5, 2, Fraction(5, 2)),
])
def test_constructed_subgroups_hit_their_degree(p, q, expect):
    sub = distorted_subgroup(p, q)
    rep = distortion_degree(sub)
    assert rep.degree == expect
    assert brute_force_degree(sub, 3) == expect
    assert member(rep.witness, sub)
    if expect > 1:
        seq = standardize(sub)
        ratio = Fraction(
            level_weight(rep.witness), subgroup_depth(rep.witness, seq)
        )
        assert ratio == expect


@pytest.mark.parametrize("p,q", [(5, 3), (7, 3), (8, 5), (9, 4)])
def test_ladder_pins(p, q):
    sub = distorted_subgroup(p, q)
    rep = distortion_degree(sub)
    assert rep.degree == Fraction(p, q)
    seq = standardize(sub)
    assert member(rep.witness, seq)
    assert Fraction(
        level_weight(rep.witness), subgroup_depth(rep.witness, seq)
    ) == Fraction(p, q)


def test_32_generator_set():
    got = distorted_subgroup(3, 2)
    assert list(got.generators) == [
        elementary(4, 1, 2),
        elementary(4, 3, 4) * elementary(4, 2, 4),
        elementary(4, 1, 4),
    ]


def test_flat_ladder_overshoots():
    # splitting the (4,3) ladder into bare elementaries leaves a
    # depth-2 bracket reachable in one step, driving the degree to 3/2
    bad = SubgroupGens(5, [
        elementary(5, 1, 2),
        elementary(5, 2, 3),
        elementary(5, 4, 5) * elementary(5, 3, 5),
        elementary(5, 1, 5),
    ])
    assert distortion_degree(bad).degree == Fraction(3, 2)
    assert brute_force_degree(bad, 3) == Fraction(3, 2)


def test_group_ring_image_degrees():
    cases = [
        ("ut:3", "weight-lex", Fraction(3), [(6, 2), (2, 1), (1, 1)]),
        ("ut:3", "scheme-perturbed", Fraction(1), None),
        ("ut:4", "weight-lex", Fraction(28, 3), None),
        ("heisenberg:2", "weight-lex", Fraction(15, 2), None),
        ("freenil23", "weight-lex", Fraction(14, 3),
         [(14, 3), (13, 3), (6, 2), (2, 1), (1, 1)]),
        ("ut:5", "weight-lex", Fraction(131, 4),
         [(131, 4), (51, 3), (50, 3), (17, 2), (16, 2), (15, 2), (4, 1),
          (3, 1), (2, 1), (1, 1)]),
        ("heisenberg:3", "weight-lex", Fraction(14),
         [(28, 2), (6, 1), (5, 1), (4, 1), (3, 1), (2, 1), (1, 1)]),
    ]
    for name, order, degree, strata in cases:
        res = jennings_embedding(builtin(name), order=order)
        sub = SubgroupGens(res.d, res.generators)
        rep = distortion_degree(sub)
        assert rep.degree == degree, name
        if strata is not None:
            assert [(s.m, s.t) for s in rep.strata] == strata, name


def test_engine_dominates_short_words():
    rng = random.Random(720)
    checked = 0
    while checked < 5:
        sub = random_subgroup(rng)
        if not standardize(sub).slots:
            continue
        checked += 1
        assert distortion_degree(sub).degree >= brute_force_degree(sub, 2)


def test_parameter_validation_and_guards():
    for p, q in ((2, 3), (3, 1), (1, 1)):
        with pytest.raises(ValueError):
            distorted_subgroup(p, q)
    with pytest.raises(ValueError):
        distorted_subgroup("3", 2)
    with pytest.raises(GuardError, match="length 7 asked; capped at 6"):
        brute_force_degree(full_ut3(), 7)
    with pytest.raises(GuardError, match="n = 5 asked; capped at n = 4"):
        ball(5, 1)
    with pytest.raises(GuardError, match="radius 11 asked; capped at 10"):
        ball(3, 11)
    assert len(ball(5, 1, generators=[elementary(5, 1, 2)])) == 3
    trivial = SubgroupGens(3, [])
    with pytest.raises(ValueError):
        brute_force_degree(trivial)
    with pytest.raises(ValueError):
        empirical_distortion(trivial, 2)


def test_equal_subgroups_share_one_standardize():
    a = SubgroupGens(5, [elementary(5, 1, 3, 7), elementary(5, 2, 5, -3)])
    b = SubgroupGens(5, [elementary(5, 1, 3, 7), elementary(5, 2, 5, -3)])
    assert a.generators[0] is not b.generators[0]
    assert a == b and hash(a) == hash(b)
    assert a != SubgroupGens(5, b.generators[::-1])
    seq = standardize(a)
    hits = standardize.cache_info().hits
    assert standardize(b) is seq
    assert standardize.cache_info().hits == hits + 1


def test_ball_counts():
    b1 = ball(3, 1)
    assert len(b1) == 5 and set(b1.values()) == {0, 1}
    assert len(ball(3, 2)) == 17
    zball = ball(3, 2, generators=[elementary(3, 1, 3)])
    assert sorted(zball.values()) == [0, 1, 1, 2, 2]


def test_empirical_center_growth():
    z = SubgroupGens(3, [elementary(3, 1, 3)])
    out = empirical_distortion(z, 8)
    assert out["radius"] == 8 and out["h_cap"] == 64
    assert out["delta"] == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 4}
    assert not any(out["capped"].values())

    for radius, h_cap in ((0, None), (-2, None), (8, -1)):
        with pytest.raises(ValueError, match="below 1|negative"):
            empirical_distortion(z, radius, h_cap)

    capped = empirical_distortion(z, 8, h_cap=1)
    assert capped["delta"] == {
        1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1
    }
    assert capped["capped"] == {
        1: False, 2: False, 3: False, 4: False, 5: False,
        6: True, 7: True, 8: True,
    }


def test_json_roundtrips():
    sub = distorted_subgroup(3, 2)
    assert subgroup_from_json(subgroup_to_json(sub)) == sub
    obj = report_to_json(distortion_degree(sub))
    assert list(obj) == ["d_H", "witness", "strata"]
    assert obj["d_H"] == "3/2"
    assert all(entry.keys() == {"m", "t", "witness"}
               for entry in obj["strata"])
    # once a TypeError from iterating the int
    with pytest.raises(ValueError, match="^generators must be a JSON list"):
        subgroup_from_json({"N": 3, "generators": 5})


def conjugated(p, q, seed):
    """distorted_subgroup(p, q) conjugated by a seeded product of
    elementaries; the degree is unchanged, the witnesses are not."""
    rng = random.Random(seed)
    sub = distorted_subgroup(p, q)
    n = sub.n
    c = identity(n)
    for _ in range(n):
        i = rng.randint(1, n - 1)
        c = c * elementary(n, i, rng.randint(i + 1, n), rng.choice((-2, 1, 2)))
    ci = c.inverse()
    return SubgroupGens(n, [ci * g * c for g in sub.generators])


def disguised(p, q, seed):
    """conjugated(p, q, seed) after three seeded Nielsen moves
    g_a <- g_a * g_b**(+-1), which keep the subgroup."""
    rng = random.Random(seed)
    sub = conjugated(p, q, seed)
    gens = list(sub.generators)
    for _ in range(3):
        a, b = rng.sample(range(len(gens)), 2)
        gens[a] = gens[a] * gens[b] ** rng.choice((1, -1))
    return SubgroupGens(sub.n, gens)


def report_digest(subs):
    blob = json.dumps([report_to_json(distortion_degree(s)) for s in subs])
    return hashlib.sha256(blob.encode()).hexdigest()


def test_report_goldens():
    # sha256 of the JSON reports, pinned while depth was still computed
    # from group commutators
    constructed = [
        distorted_subgroup(p, q)
        for p in range(2, 13) for q in range(2, p + 1)
    ]
    assert report_digest(constructed) == (
        "efb0b62e6261c99accf58fb6f03d006c0076e7adda47259483a6276c0fe859ae"
    )
    conjugates = [
        conjugated(p, q, 100 * p + q)
        for p, q in ((4, 3), (5, 2), (7, 3), (8, 5), (9, 4), (11, 6))
    ]
    assert report_digest(conjugates) == (
        "f00dfb405b861afe32ef662fb70d87a3a5c8931233757c52d6db3e0acd84d958"
    )
    # the benchmark's size range (q = 2..6, n up to 17), Nielsen-moved
    # and conjugated; pinned while the Lie series was built from the slots
    deep = [
        disguised(p, q, 100 * p + q)
        for p in range(13, 17) for q in (*range(2, 7), p)
    ]
    assert report_digest(deep) == (
        "5210a39acb4002ff3de533bde012c28af38c52e83f3c5c48cc3305a2edc37a73"
    )


def test_degree_never_forms_group_commutators(monkeypatch):
    def refuse(*args):
        raise AssertionError("group-side series reached from the engine")

    for name in ("lower_central_gens", "_bracket_layers", "commutator"):
        monkeypatch.setattr(distortion, name, refuse)
    # a copy that no other test standardizes, so that no cache answers
    sub = conjugated(7, 3, 73)
    assert distortion_degree(sub).degree == Fraction(7, 3)


def test_depth_by_powers_agrees_on_constructed_subgroups():
    for p in range(2, 10):
        for q in range(2, p + 1):
            seq = standardize(distorted_subgroup(p, q))
            for h in seq.slots:
                assert depth_by_powers(h, seq) == subgroup_depth(h, seq), (p, q)


def integral_multiple(x, c):
    """c times x cleared of denominators, as a matrix of ints."""
    d = lcm(*(Fraction(e).denominator for row in x.rows for e in row))
    return RationalNilpotentMatrix(
        [[int(c * d * e) for e in row] for row in x.rows]
    )


def test_lie_degree_of_the_trivial_subgroup_is_undefined():
    # no generators give the zero algebra too, with no size to infer
    for span in (lie_span([identity(3)]), lie_span([])):
        assert span.strata() == () and span.dimension == 0
        with pytest.raises(ValueError, match="trivial"):
            span.degree


def test_lie_span_ignores_scaling():
    rng = random.Random(721)
    fractional = False
    depths = set()
    for _ in range(5):
        gens = random_subgroup(rng, n=5).generators
        logs = [log_unipotent(g) for g in gens]
        fractional |= any(
            Fraction(e).denominator > 1 for x in logs for row in x.rows
            for e in row
        )
        exact = lie_span(logs)
        scaled = lie_span(
            [integral_multiple(x, rng.choice((1, -2, 3))) for x in logs]
        )
        assert scaled.dimension == exact.dimension
        assert scaled.strata() == exact.strata()
        outside = [log_unipotent(g) for g in random_subgroup(rng, 5).generators]
        probes = logs + [a.bracket(b) for a in logs for b in logs] + outside
        for x in probes:
            y = integral_multiple(x, 5)
            assert all(type(e) is int for row in y.rows for e in row)
            inside = exact.contains(x)
            assert scaled.contains(x) == scaled.contains(y) == inside
            if inside and not x.is_zero:
                t = exact.depth(x)
                assert scaled.depth(x) == scaled.depth(y) == t
                depths.add(t)
            else:
                with pytest.raises(ValueError):
                    exact.depth(x)
        for g, x in zip(gens, logs):
            assert exact.depth(g) == exact.depth(x)
    assert fractional and depths >= {1, 2}


def test_lie_echelon_does_not_depend_on_feed_order():
    # every left-normed bracket of the logarithms, tagged with its
    # weight, spans the series lie_span builds from its bases, and the
    # echelon reads the same fed in either order
    rng = random.Random(2701)
    for _ in range(5):
        gens = random_subgroup(rng, n=5).generators
        logs = [log_unipotent(g) for g in gens]
        mats, tagged, layer = [], [], logs
        for k in range(1, 5):
            layer = [x for x in layer if not x.is_zero]
            mats += layer
            tagged += [(distortion._primitive(x)[1], k) for x in layer]
            layer = [x.bracket(g) for x in layer for g in logs]
        span = lie_span(gens)
        depths = [span.depth(x) for x in mats]
        for fed in (
            LieAlgebraSpan(5, tagged), LieAlgebraSpan(5, tagged[::-1])
        ):
            assert fed.strata() == span.strata()
            assert fed.dimension == span.dimension
            assert [fed.depth(x) for x in mats] == depths


E3, E4 = elementary(3, 1, 2), elementary(4, 1, 2)
L3, L4 = log_unipotent(E3), log_unipotent(E4)


@pytest.mark.parametrize("call", [
    lambda: L3.bracket(L4),
    lambda: L3 * L4,
    lambda: L3 + L4,
    lambda: RationalSquareMatrix(E3.rows) * RationalSquareMatrix(E4.rows),
    # the second generator is dependent, so no bracket would run
    lambda: lie_span([E3, E4]),
    lambda: lie_span([E3]).depth(E4),
    lambda: lie_span([E3]).contains(E4),
], ids=[
    "bracket", "product", "sum", "square_product", "lie_span", "depth",
    "contains",
])
def test_mixed_sizes_are_refused(call):
    # each once returned a value of the first operand's size
    with pytest.raises(ValueError, match="size mismatch"):
        call()


def test_standardize_inverts_once_per_slot_assignment(monkeypatch):
    inverses = assignments = 0
    invert = UnitriangularMatrix.inverse

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return invert(self)

    class CountingSlots(dict):
        def __setitem__(self, k, v):
            nonlocal assignments
            assignments += 1
            super().__setitem__(k, v)

    class Sifter(distortion._Sifter):
        def __init__(self):
            super().__init__()
            self.table = CountingSlots()

    sub = disguised(9, 4, 94)
    monkeypatch.setattr(UnitriangularMatrix, "inverse", counting_inverse)
    monkeypatch.setattr(distortion, "_Sifter", Sifter)
    seq = standardize.__wrapped__(sub)
    assert assignments >= len(seq)
    assert inverses <= assignments
    monkeypatch.undo()
    assert distortion_degree(seq).degree == Fraction(9, 4)


def test_degree_takes_each_slot_logarithm_once(monkeypatch):
    calls = 0

    def counting_log(m):
        nonlocal calls
        calls += 1
        return _log_numerator(m)

    # a sequence that no other test builds, so that no cache answers
    seq = standardize(disguised(8, 3, 83))
    monkeypatch.setattr(distortion, "_log_numerator", counting_log)
    report = distortion_degree(seq)
    assert calls == len(seq)
    assert report.degree == Fraction(8, 3)
    span = lie_span(seq.slots)
    assert [subgroup_depth(s, seq) for s in seq.slots] == [
        span.depth(s) for s in seq.slots
    ]


def reference_xgcd(a, b):
    """(g, u, v) with u*a + v*b == g == gcd(a, b) > 0, by the extended
    Euclidean algorithm standardize's merges use."""
    old_r, r, old_u, u, old_v, v = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        return -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def reference_standardize(sub):
    """standardize's closure with none of its shortcuts, and none of its
    code: sift the generators, then sift both conjugates of every pair
    of slots in every round until a round changes no slot.  Returns
    (lead_pairs, slots, table, sifts): table maps each lead to its slot
    and the slot's inverse, and sifts is the number of sift calls
    made."""
    slots, inverses, queue, sifts = {}, {}, [], 0

    def power(k, e):
        return slots[k] ** e if e >= 0 else inverses[k] ** -e

    def lead(m):
        return min(
            ((j - i, i) for i, row in enumerate(m.entries) for j in row),
            default=None,
        )

    def sift(m):
        nonlocal sifts
        sifts += 1
        while (k := lead(m)) is not None:
            level, i = k
            a = m.entries[i][i + level]
            if k not in slots:
                mi = m.inverse()
                slots[k], inverses[k] = (m, mi) if a > 0 else (mi, m)
                return
            c = slots[k].entries[i][i + level]
            if a % c:
                d, u, v = reference_xgcd(c, a)
                h = power(k, u) * m ** v
                queue.append(slots[k])
                slots[k], inverses[k], c = h, h.inverse(), d
            m = power(k, -(a // c)) * m

    def drain():
        while queue:
            sift(queue.pop())

    for g in sub.generators:
        sift(g)
    drain()
    while True:
        snapshot = dict(slots)
        for ka in sorted(snapshot):
            a, ai = slots[ka], inverses[ka]
            for kb in sorted(snapshot):
                if kb == ka:
                    continue
                sift(ai * slots[kb] * a)
                drain()
                sift(a * slots[kb] * ai)
                drain()
        if slots == snapshot:
            break
    leads = sorted(slots)
    return (
        tuple(leads), tuple(slots[k] for k in leads),
        {k: (slots[k], inverses[k]) for k in leads}, sifts,
    )


def equivalence_inputs():
    """distorted_subgroup(p, q) for p <= 16, then 200 seeded random
    subgroups with n = 3..7, some with a duplicate or an identity
    generator."""
    subs = [
        distorted_subgroup(p, q)
        for p in range(2, 17) for q in range(2, p + 1)
    ]
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = identity(n)
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(1, n - 1)
                j = rng.randint(i + 1, n)
                g = g * elementary(n, i, j, rng.choice((-2, -1, 1, 2, 3)))
            gens.append(g)
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        if rng.random() < 0.3:
            gens.insert(rng.randint(0, len(gens)), identity(n))
        subs.append(SubgroupGens(n, gens))
    return subs


def test_engine_shortcuts_keep_slots_depths_and_reports():
    # the closure's dry check keeps every slot and its inverse, and the
    # series of the generators gives every slot the depth the slot
    # series gives
    routes = [0, 0]
    for sub in equivalence_inputs():
        seq = standardize(sub)
        assert (seq.lead_pairs, seq.slots, seq._table) == (
            reference_standardize(sub)[:3]
        ), sub
        if not seq.slots:
            continue
        # subgroup_depth on a sequence reads the slot series, as the
        # sequence's report does
        span = lie_span(sub.generators)
        assert [span.depth(s) for s in seq.slots] == [
            subgroup_depth(s, seq) for s in seq.slots
        ], sub
        # a sequence is always read through the slot series
        assert report_to_json(distortion_degree(sub)) == report_to_json(
            distortion_degree(seq)
        ), sub
        routes[len(sub.generators) < len(seq)] += 1
    assert min(routes) >= 50


def counting(monkeypatch, owner, name):
    calls = [0]
    orig = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_degree_brackets_the_generators(monkeypatch):
    # 3 generators against 6 slots; a copy no other test builds
    sub = disguised(16, 5, 165)
    seq = standardize(sub)
    brackets = counting(monkeypatch, RationalNilpotentMatrix, "bracket")
    report = distortion_degree(sub)
    from_gens = brackets[0]
    slot_span = lie_span(seq.slots)
    slot_depths = [slot_span.depth(s) for s in seq.slots]
    assert from_gens < brackets[0] - from_gens
    assert report.degree == Fraction(16, 5)
    assert [s.t for s in report.strata] == [
        min(t for t, l in zip(slot_depths, seq.levels) if l >= s.m)
        for s in report.strata
    ]


def test_subgroup_depth_brackets_the_generators(monkeypatch):
    # 3 generators against 17 slots; a copy no other test builds, so a
    # cold subgroup_depth builds the series, and it builds it from the
    # generators, as distortion_degree does
    sub = disguised(16, 16, 1616)
    seq = standardize(sub)
    assert len(sub.generators) < len(seq)
    brackets = counting(monkeypatch, RationalNilpotentMatrix, "bracket")
    depth = subgroup_depth(seq.slots[0], sub)
    by_depth = brackets[0]
    # a fresh copy: no series is cached
    distortion._series.cache_clear()
    report = distortion_degree(sub)
    assert 0 < by_depth <= brackets[0] - by_depth
    assert depth == report.strata[-1].t == 1
    assert report.degree == Fraction(16, 16)


def test_closure_stops_on_a_dry_check(monkeypatch):
    # the dry check stops the closure where a round would change
    # nothing, so it sifts no confirming round
    sub = disguised(16, 5, 165)
    sifts = counting(monkeypatch, distortion._Sifter, "sift")
    seq = standardize.__wrapped__(sub)
    *slots, reference_sifts = reference_standardize(sub)
    assert (seq.lead_pairs, seq.slots, seq._table) == tuple(slots)
    assert 2 * sifts[0] < reference_sifts


def test_lie_span_brackets_each_base_pair_once(monkeypatch):
    # [b, b] = 0 and [g, b] = -[b, g], so layer 1 needs only the pairs
    # b before g: for e12, e23, e34 in UT_4 that is 3 brackets giving
    # W_2 = {e13, e24}, then 2 * 3 giving W_3 = {e14}, then 1 * 3 zeros
    orig = RationalNilpotentMatrix.bracket
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return orig(self, other)

    monkeypatch.setattr(RationalNilpotentMatrix, "bracket", counted)
    gens = [elementary(4, i, i + 1) for i in (1, 2, 3)]
    span = lie_span(gens)
    assert calls[0] == 3 + 6 + 3
    assert [span.depth(g) for g in gens] == [1, 1, 1]
    assert span.dimension == 6
    assert span.depth(elementary(4, 1, 4)) == 3


def conjugate(g, sigma):
    """g conjugated by the permutation matrix taking index i to
    sigma[i]."""
    back = sorted(range(g.n), key=sigma.__getitem__)
    return UnitriangularMatrix([[g.rows[r][c] for c in back] for r in back])


def test_permuted_span_is_the_span_of_the_conjugates():
    # the order 3, 1, 0, 2, 4 keeps the images upper unitriangular; the
    # re-keyed rows collide on their leads, and re-inserting them
    # shallowest first would leave level 4 with depth 2, not 1
    n = 5
    gens = [
        elementary(n, 2, 5) * elementary(n, 4, 5, -1),
        elementary(n, 1, 3, -2) * elementary(n, 3, 5, -1),
        elementary(n, 2, 3, -1),
    ]
    sigma = (2, 1, 3, 0, 4)
    span = lie_span(gens)
    moved = span.permuted(sigma)
    fresh = lie_span([conjugate(g, sigma) for g in gens])
    assert fresh.strata() == ((4, 1), (3, 1), (2, 1), (1, 1))
    assert moved.strata() == fresh.strata()
    assert (moved.degree, moved.dimension) == (fresh.degree, fresh.dimension)
    assert span.permuted(range(n)).strata() == span.strata()
    assert span.permuted(range(n))._rows == span._rows


def test_trivial_subgroup_is_refused_before_any_basis():
    for sub in (
        subgroup_from_json({"N": 600, "generators": []}),
        SubgroupGens(5, [identity(5)]),
    ):
        for measure in (
            distortion_degree,
            brute_force_degree,
            lambda s: empirical_distortion(s, 2),
        ):
            with pytest.raises(ValueError, match="trivial"):
                measure(sub)


def test_subgroup_size_cap():
    cap = matgroup.MAX_POSITIONS
    n = 2
    while n * (n - 1) // 2 <= cap:
        n += 1
    # n is the smallest refused size; the Jennings image of ut:6 passes
    assert 624 < n
    sub = SubgroupGens(n, [elementary(n, 1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(GuardError) as info:
            distortion_degree(sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"N(N-1)/2 = {n * (n - 1) // 2}" in str(info.value)
    assert f"the cap is {cap}" in str(info.value)
    assert peak < 64 * 1024


def test_degree_builds_no_position_list():
    # the engine keys its slots by lead and lists no positions of UT_N;
    # a copy that no other test standardizes, so that no cache answers
    assert distortion_degree(disguised(9, 4, 904)).degree == Fraction(9, 4)


def test_distorted_subgroup_size_cap(monkeypatch):
    # p = 724 is the smallest p with (p+1)p/2 past the cap of 2^18
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(distortion, "elementary", no_matrix)
    monkeypatch.setattr(distortion, "identity", no_matrix)
    with pytest.raises(GuardError) as info:
        distorted_subgroup(724, 2)
    assert "N(N-1)/2 = 262450 positions; the cap is 262144" in str(
        info.value
    )
