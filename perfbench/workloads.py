"""Seeded inputs, jobs and exact oracles for the three workloads.

Every workload is a sequence of rounds.  A round has a fixed mix of job
kinds, so runs with different seeds do the same kind of work in the
same proportions; the seed picks the order of the jobs inside a round
and every parameter the kind leaves open.  Round r of a run draws from
``random.Random(f"{workload}:{seed}:{r}")``, so the same seed gives the
same inputs.

A job calls the package only through attribute lookups on the ``nilmat``
module (``nm.name``), so the tracer's wrappers are seen.  A job returns
what its oracle needs; the oracle runs outside the timed region and
raises ``OracleError`` on a wrong answer.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from fractions import Fraction

import nilmat as nm


class OracleError(AssertionError):
    """A job returned an answer that its oracle rejects."""


EXPONENTS = (-3, -2, -1, 1, 2, 3)
COEFFS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)


def check(cond, what):
    if not cond:
        raise OracleError(what)


# -- integer unitriangular arithmetic, independent of nilmat.matgroup ------


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Product of two upper unitriangular integer matrices (row lists)."""
    n = len(a)
    out = []
    for i in range(n):
        row = list(b[i])
        ai = a[i]
        for k in range(i + 1, n):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(k, n):
                    if bk[j]:
                        row[j] += c * bk[j]
        out.append(row)
    return out


def mat_inv(a):
    """Inverse of an upper unitriangular integer matrix."""
    n = len(a)
    x = mat_identity(n)
    for i in range(n - 2, -1, -1):
        for j in range(i + 1, n):
            x[i][j] = -sum(a[i][k] * x[k][j] for k in range(i + 1, j + 1))
    return x


def mat_pow(a, e):
    base = a if e >= 0 else mat_inv(a)
    out = mat_identity(len(a))
    for _ in range(abs(e)):
        out = mat_mul(out, base)
    return out


def mat_elementary(n, i, j, alpha):
    m = mat_identity(n)
    m[i][j] = alpha
    return m


# -- distortion -------------------------------------------------------------

DISTORTION_PAIRS = tuple(
    (p, q) for q in range(2, 7) for p in range(q, 17)
)


def expected_degree(p, q):
    return Fraction(1) if p == q == 2 else Fraction(p, q)


def disguise(p, q, rng):
    """Generators of distorted_subgroup(p, q) after 2-4 Nielsen moves,
    conjugation by one seeded element c of UT_n(Z) (g -> c^-1 g c) and
    a shuffle.  Returns (n, generator row lists, c)."""
    sub = nm.distorted_subgroup(p, q)
    n = sub.n
    gens = [[list(row) for row in g.rows] for g in sub.generators]
    for _ in range(rng.randint(2, 4)):
        a, b = rng.sample(range(len(gens)), 2)
        gens[a] = mat_mul(gens[a], mat_pow(gens[b], rng.choice((1, -1))))
    c = mat_identity(n)
    for _ in range(n):
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        c = mat_mul(c, mat_elementary(n, i, j, rng.choice((-2, -1, 1, 2))))
    ci = mat_inv(c)
    gens = [mat_mul(mat_mul(ci, g), c) for g in gens]
    rng.shuffle(gens)
    return n, gens, c


def subgroup_text(n, gens):
    """Subgroup wire form, as ``nilmat construct`` prints it."""
    payload = {
        "N": n,
        "generators": [
            {"n": n, "rows": [[str(e) for e in row] for row in g]}
            for g in gens
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def distortion_round(rng):
    pairs = list(DISTORTION_PAIRS)
    rng.shuffle(pairs)
    jobs = []
    for p, q in pairs:
        n, gens, _ = disguise(p, q, rng)
        jobs.append(("distortion", (p, q, subgroup_text(n, gens))))
    return jobs


def run_distortion(arg, counters):
    """What ``nilmat distortion`` runs on a piped subgroup."""
    _, _, text = arg
    sub = nm.subgroup_from_json(json.loads(text))
    report = nm.distortion_degree(sub)
    out = json.dumps(nm.report_to_json(report), indent=2) + "\n"
    counters["cli.bytes"] += len(text) + len(out)
    return sub, out


def check_distortion(arg, result):
    p, q, _ = arg
    sub, out = result
    payload = json.loads(out)
    want = expected_degree(p, q)
    check(
        Fraction(payload["d_H"]) == want,
        f"degree {payload['d_H']} != {want} for p={p} q={q}",
    )
    rows = [[int(e) for e in row] for row in payload["witness"]["rows"]]
    check(
        nm.member(nm.UnitriangularMatrix(rows), sub),
        f"witness is not a member for p={p} q={q}",
    )


# -- jennings ---------------------------------------------------------------

# (group, basis order, jobs per round); every pair gives unitriangular
# images.  ut:5 (d = 132) runs once a round so that it does not dominate.
JENNINGS_MIX = (
    ("ut:3", "weight-lex", 16),
    ("ut:4", "weight-lex", 16),
    ("ut:4:scheme", "scheme-perturbed", 16),
    ("heisenberg:2", "weight-lex", 16),
    ("heisenberg:3", "weight-lex", 16),
    ("freenil23", "weight-lex", 16),
    ("ut:5", "weight-lex", 1),
)
JENNINGS_WORDS = 3


def random_word(rng, M):
    """Exponent tuple with 1-3 nonzero exponents, |e| <= 3."""
    word = [0] * M
    for k in rng.sample(range(M), rng.randint(1, 3)):
        word[k] = rng.choice(EXPONENTS)
    return tuple(word)


def jennings_round(rng):
    jobs = []
    for name, order, count in JENNINGS_MIX:
        M = nm.builtin(name).M
        for _ in range(count):
            words = [random_word(rng, M) for _ in range(JENNINGS_WORDS)]
            jobs.append((f"{name}/{order}", (name, order, words)))
    rng.shuffle(jobs)
    return jobs


def run_jennings(arg, counters):
    name, order, words = arg
    emb = nm.jennings_embedding(nm.builtin(name), order=order)
    images = [emb.basis.element_matrix(w) for w in words]
    return emb, images


def check_jennings(arg, result):
    name, order, words = arg
    emb, images = result
    check(emb.relators_ok, f"{name}/{order}: relator check failed")
    check(emb.unitriangular, f"{name}/{order}: images not unitriangular")
    check(emb.d == len(emb.basis), f"{name}/{order}: d != basis size")
    gens = [[list(r) for r in g.rows] for g in emb.generators]
    for w, img in zip(words, images):
        want = mat_identity(emb.d)
        for g, e in zip(gens, w):
            if e:
                want = mat_mul(want, mat_pow(g, e))
        check(
            [list(r) for r in img.rows] == want,
            f"{name}/{order}: element_matrix{w} != product of images",
        )


# -- nickel -----------------------------------------------------------------

NICKEL_ACT_GROUPS = ("ut:3", "heisenberg:2", "freenil23", "ut:4:scheme")
NICKEL_ACTS_PER_GROUP = 19
# closure job -> expected module dimension; "orderings" expects
# 720 inspected orderings of which 40 are unitriangular.
NICKEL_CLOSURES = {
    "ut:3:scheme": 4,
    "heisenberg:2": 6,
    "ut:4:scheme": 7,
    "orderings": None,
}


def act_catalogue(name, M):
    """Shapes of a round's act jobs on one group: (monomials of f, word
    support) pairs.  Word supports run through every set of one or two
    generators in a shuffled order, and the monomials of f (degree <= 2)
    are drawn at random, both once from a fixed seed.  The cost of an act
    is set by its shape, and the interpolation cost is heavy-tailed
    (one freenil23 shape needs a degree-8 grid and takes about 1 s), so
    fixing the shapes keeps every run's mix the same; the run's seed
    draws the coefficients, the exponents and the oracle's point."""
    rng = random.Random(f"nickel-shapes:{name}")
    supports = [(k,) for k in range(M)] + list(combinations(range(M), 2))
    rng.shuffle(supports)
    shapes = []
    for i in range(NICKEL_ACTS_PER_GROUP):
        monos = set()
        for _ in range(rng.randint(1, 4)):
            mono = [0] * M
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(M)] += 1
            monos.add(tuple(mono))
        shapes.append((sorted(monos), supports[i % len(supports)]))
    return shapes


def nickel_round(rng):
    jobs = [(f"closure/{name}", name) for name in NICKEL_CLOSURES]
    for name in NICKEL_ACT_GROUPS:
        M = nm.builtin(name).M
        for monos, support in act_catalogue(name, M):
            f = nm.CoordinatePolynomial(M, {
                mono: Fraction(rng.choice(COEFFS), rng.randint(1, 4))
                for mono in monos
            })
            word = [0] * M
            for k in support:
                word[k] = rng.choice(EXPONENTS)
            point = tuple(rng.randint(-3, 3) for _ in range(M))
            jobs.append((f"act/{name}", (name, f, tuple(word), point)))
    rng.shuffle(jobs)
    return jobs


def run_nickel(arg, counters):
    if isinstance(arg, str):
        if arg == "orderings":
            module = nm.function_module(nm.builtin("heisenberg:2"))
            return nm.ordering_search(module, mode="exhaustive")
        return nm.nickel_embedding(nm.builtin(arg))
    name, f, word, _ = arg
    return nm.act(f, word, nm.builtin(name))


def check_nickel(arg, result):
    if arg == "orderings":
        hits = sum(1 for r in result if r["unitriangular"])
        check(
            (len(result), hits) == (720, 40),
            f"orderings: {hits} of {len(result)} unitriangular, "
            "want 40 of 720",
        )
        return
    if isinstance(arg, str):
        want = NICKEL_CLOSURES[arg]
        check(result.d == want, f"{arg}: module dim {result.d} != {want}")
        check(result.unitriangular, f"{arg}: images not unitriangular")
        check(result.relators_ok, f"{arg}: relator check failed")
        return
    name, f, word, point = arg
    p = nm.builtin(name)
    shifted = p.multiply(point, p.inverse(word))
    check(
        result.evaluate(point) == f.evaluate(shifted),
        f"act/{name}: translate of f by {word} wrong at {point}",
    )


WORKLOADS = {
    "distortion": (distortion_round, run_distortion, check_distortion),
    "jennings": (jennings_round, run_jennings, check_jennings),
    "nickel": (nickel_round, run_nickel, check_nickel),
}


def round_inputs(workload, seed, r):
    make = WORKLOADS[workload][0]
    return make(random.Random(f"{workload}:{seed}:{r}"))
