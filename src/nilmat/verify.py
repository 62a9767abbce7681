"""Built-in verification suite.

Each check reproduces a reference result of the package on a small
instance: golden matrices, weight and distortion values, exhaustive
ordering surveys, the target-ratio construction, and agreement between
the production engines and independent brute-force oracles.  Every
check carries a wall-clock budget; a check passes only if it returns
cleanly within budget.
"""

import math
import random
import time
from fractions import Fraction

from .distortion import (
    SubgroupGens,
    brute_force_degree,
    depth_by_powers,
    distorted_subgroup,
    distortion_degree,
    empirical_distortion,
    member,
    standardize,
    subgroup_depth,
)
from .jennings import image_degree, image_weights, jennings_embedding
from .matgroup import UnitriangularMatrix, elementary, identity, level_weight
from .nickel import function_module, nickel_embedding, ordering_search
from .presentation import builtin, evaluate_coords

__all__ = ["CHECKS", "run_all"]


GOLDEN_7X7 = {
    "weight-lex": (
        {(1, 2): -1, (2, 4): -1, (3, 5): -1, (3, 7): -1},
        {(1, 3): -1, (2, 5): -1, (3, 6): -1},
        {(1, 7): -1},
    ),
    "scheme-perturbed": (
        {(1, 4): -1, (2, 3): -1, (2, 6): -1, (4, 5): -1},
        {(1, 2): -1, (2, 7): -1, (4, 6): -1},
        {(1, 3): -1},
    ),
}

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


def _sparse_matrix(n, entries):
    rows = [
        [1 if i == j else entries.get((i, j), 0) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return UnitriangularMatrix(tuple(tuple(row) for row in rows))


def check_golden_matrices():
    p = builtin("ut:3")
    for order, goldens in GOLDEN_7X7.items():
        emb = jennings_embedding(p, order=order)
        if emb.d != 7:
            raise AssertionError(f"{order}: expected 7x7, got {emb.d}")
        for k, entries in enumerate(goldens):
            want = _sparse_matrix(7, entries)
            got = emb.generators[k]
            if got.rows != want.rows:
                raise AssertionError(
                    f"{order}: generator {k + 1} differs: {got.rows}"
                )
    return "both 7x7 generator triples match the stored matrices"


def check_weight_lex_image():
    emb = jennings_embedding(builtin("ut:3"), order="weight-lex")
    weights = image_weights(emb)
    if weights[1] != 2:
        raise AssertionError(f"second generator image weight {weights[1]}")
    degree = image_degree(emb)
    if degree != 3:
        raise AssertionError(f"image degree {degree}")
    return "image weight 2 for the second generator, image degree 3"


def check_scheme_perturbed():
    details = []
    for m in (3, 4, 5):
        p = builtin(f"ut:{m}:scheme")
        emb = jennings_embedding(p, order="scheme-perturbed")
        if not (emb.unitriangular and emb.relators_ok):
            raise AssertionError(f"ut:{m}: flags {emb.unitriangular}")
        weights = image_weights(emb)
        wanted = tuple(j - i for (i, j) in p.positions)
        if weights != wanted:
            raise AssertionError(f"ut:{m}: weights {weights} != {wanted}")
        degree = image_degree(emb)
        if degree != 1:
            raise AssertionError(f"ut:{m}: degree {degree}")
        details.append(f"ut:{m} d={emb.d}")
    return "undistorted with preserved weights: " + ", ".join(details)


def check_freenil_image():
    emb = jennings_embedding(builtin("freenil23"), order="weight-lex")
    if emb.d != 15:
        raise AssertionError(f"basis size {emb.d}")
    if emb.basis.monomials != FREENIL_BASIS_15:
        raise AssertionError("basis monomials differ from the stored list")
    degree = image_degree(emb)
    if not degree > 1:
        raise AssertionError(f"image degree {degree} not > 1")
    return f"15 basis monomials as stored, image degree {degree} > 1"


def check_function_module_ut():
    details = []
    for m in (3, 4, 5):
        p = builtin(f"ut:{m}:scheme")
        module = function_module(p)
        wanted_dim = m * (m - 1) // 2 + 1
        if module.dimension != wanted_dim:
            raise AssertionError(
                f"ut:{m}: module dimension {module.dimension}"
            )
        emb = nickel_embedding(p)
        if not (emb.unitriangular and emb.relators_ok):
            raise AssertionError(f"ut:{m}: flags {emb.unitriangular}")
        weights = image_weights(emb)
        wanted = tuple(j - i for (i, j) in p.positions)
        if weights != wanted:
            raise AssertionError(f"ut:{m}: weights {weights} != {wanted}")
        degree = image_degree(emb)
        if degree != 1:
            raise AssertionError(f"ut:{m}: degree {degree}")
        details.append(f"ut:{m} dim={module.dimension}")
    return "declared orderings undistorted: " + ", ".join(details)


def check_heisenberg_search():
    module = function_module(builtin("heisenberg:2"))
    records = ordering_search(module, mode="exhaustive")
    if len(records) != 720:
        raise AssertionError(f"{len(records)} permutations evaluated")
    unis = [r for r in records if r["unitriangular"]]
    if not unis:
        raise AssertionError("no unitriangular ordering found")
    for r in unis:
        if r["weights"][4] < 3:
            raise AssertionError(
                f"ordering {r['ordering']}: central weight {r['weights'][4]}"
            )
        if r["degree"] < Fraction(3, 2):
            raise AssertionError(
                f"ordering {r['ordering']}: degree {r['degree']}"
            )
    return (
        f"720 permutations, {len(unis)} unitriangular, central image "
        "weight >= 3 and degree >= 3/2 on all of them"
    )


def check_construction():
    for p, q in ((2, 2), (3, 2), (4, 3), (5, 2)):
        sub = distorted_subgroup(p, q)
        report = distortion_degree(sub)
        if report.degree != Fraction(p, q):
            raise AssertionError(f"({p},{q}): degree {report.degree}")
        w = report.witness
        if not member(w, sub):
            raise AssertionError(f"({p},{q}): witness not a member")
        ratio = Fraction(level_weight(w), subgroup_depth(w, sub))
        if ratio != Fraction(p, q):
            raise AssertionError(f"({p},{q}): witness ratio {ratio}")
        brute = brute_force_degree(sub, len_bound=3)
        if brute != Fraction(p, q):
            raise AssertionError(f"({p},{q}): brute force {brute}")
    return "degrees 1, 3/2, 4/3, 5/2 exact, witnesses valid, oracle agrees"


def _random_subgroups(count, seed):
    rng = random.Random(seed)
    subs = []
    while len(subs) < count:
        gens = []
        for _ in range(rng.randint(2, 3)):
            g = identity(4)
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(1, 3)
                j = rng.randint(i + 1, 4)
                g = g * elementary(4, i, j, rng.choice((-2, -1, 1, 2)))
            gens.append(g)
        sub = SubgroupGens(4, tuple(gens))
        if len(standardize(sub)) == 0:
            continue
        subs.append(sub)
    return subs


def check_depth_oracle():
    checked = 0
    for sub in _random_subgroups(20, seed=8140):
        seq = standardize(sub)
        for h in seq.slots:
            fast = subgroup_depth(h, sub)
            slow = depth_by_powers(h, sub, max_power=64)
            if fast != slow:
                raise AssertionError(
                    f"depth mismatch {fast} != {slow} on {h!r}"
                )
            checked += 1
    return f"engine depth equals power-membership oracle on {checked} slots"


def check_relators_and_injectivity():
    built = [
        ("ring ut:3 weight-lex", jennings_embedding(builtin("ut:3"))),
        (
            "ring ut:3 perturbed",
            jennings_embedding(builtin("ut:3"), order="scheme-perturbed"),
        ),
        ("ring freenil23", jennings_embedding(builtin("freenil23"))),
        ("module ut:3", nickel_embedding(builtin("ut:3:scheme"))),
        ("module ut:4", nickel_embedding(builtin("ut:4:scheme"))),
    ]
    for label, emb in built:
        if not emb.relators_ok:
            raise AssertionError(f"{label}: relator check failed")

    emb = dict(built)["ring freenil23"]
    rng = random.Random(9140)
    words = set()
    while len(words) < 1000:
        words.add(tuple(rng.randint(-3, 3) for _ in range(5)))
    one = emb.generators[0] ** 0
    images = {
        evaluate_coords(word, emb.generators, one).rows for word in words
    }
    if len(images) != len(words):
        raise AssertionError(f"{len(images)} images for {len(words)} words")
    return "relators pass on 5 embeddings; 1000 words gave 1000 matrices"


def check_empirical_table():
    sub = SubgroupGens(3, (elementary(3, 1, 3),))
    table = empirical_distortion(sub, radius=8)
    delta = table["delta"]
    if delta[4] < 1:
        raise AssertionError(f"delta(4) = {delta[4]}")
    if delta[8] < 4:
        raise AssertionError(f"delta(8) = {delta[8]}")
    values = [delta[r] for r in range(1, 9)]
    if any(b < a for a, b in zip(values, values[1:])):
        raise AssertionError(f"table not monotone: {values}")
    growth = math.log2(delta[8] / delta[4])
    if not 1 <= growth <= 3:
        raise AssertionError(f"log2 growth {growth}")
    return (
        f"delta(4)={delta[4]}, delta(8)={delta[8]}, monotone, "
        f"log2 ratio {growth:g}"
    )


CHECKS = (
    ("golden 7x7 matrices", 1.0, check_golden_matrices),
    ("weight-lex image weight and degree", 10.0, check_weight_lex_image),
    ("perturbed order preserves weights", 60.0, check_scheme_perturbed),
    ("freenil23 ring image distorted", 30.0, check_freenil_image),
    ("coordinate module declared orderings", 30.0, check_function_module_ut),
    ("heisenberg:2 exhaustive ordering survey", 120.0, check_heisenberg_search),
    ("target-ratio construction", 120.0, check_construction),
    ("depth against power oracle", 300.0, check_depth_oracle),
    ("relators and injectivity", 60.0, check_relators_and_injectivity),
    ("empirical distortion table", 120.0, check_empirical_table),
)


def run_all(report=None):
    """Run every check; returns (exit_code, records).

    exit_code is 0 when all checks pass within budget, 2 otherwise.
    report, when given, receives one formatted line per check.
    """
    records = []
    for index, (label, limit, fn) in enumerate(CHECKS, start=1):
        start = time.monotonic()
        try:
            detail = fn()
            ok = True
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
            ok = False
        seconds = time.monotonic() - start
        passed = ok and seconds < limit
        if ok and not passed:
            detail += f" (over budget {limit:g}s)"
        records.append(
            {
                "index": index,
                "label": label,
                "limit": limit,
                "seconds": seconds,
                "passed": passed,
                "detail": detail,
            }
        )
        if report is not None:
            state = "PASS" if passed else "FAIL"
            report(
                f"{state} {index:2d} {label} ({seconds:.2f}s): {detail}"
            )
    rc = 0 if all(r["passed"] for r in records) else 2
    return rc, records
