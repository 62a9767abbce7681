"""Closed forms the engine computes on whole families of stock groups.

PAPER.md holds only the abstract, so these are observed facts on named
inputs, pinned so that a change to any layer that moves one shows up:
the Jennings (weight-lex, default truncation) and Nickel (declared
order) images of heisenberg:n, the Jennings image of ut:6, whose
624 x 624 generators make it the largest image the engine measures,
the weight-lex Jennings degree past the default truncation, the
undistorted scheme-perturbed images of ut:5:scheme and ut:6:scheme,
and the reversed Jennings order of ut:5, whose non-unitriangular
images still satisfy the relations."""

import time
from fractions import Fraction

import pytest

from nilmat import (
    builtin,
    image_degree,
    image_weights,
    jennings_embedding,
    nickel_embedding,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_heisenberg_jennings_family(n):
    res = jennings_embedding(builtin(f"heisenberg:{n}"))
    assert res.d == 2 * n * n + 3 * n + 2
    assert image_degree(res) == Fraction((2 * n + 1) * (n + 1), 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_heisenberg_nickel_family(n):
    res = nickel_embedding(builtin(f"heisenberg:{n}"))
    assert res.d == 2 * n + 2
    up = tuple(range(1, n + 1))
    assert image_weights(res) == up + up[::-1] + (n + 1,)
    assert image_degree(res) == n


def test_ut6_jennings_image_degree():
    res = jennings_embedding(builtin("ut:6"))
    assert res.d == 624
    assert image_degree(res) == Fraction(623, 5)


@pytest.mark.parametrize("name,degree", [
    ("ut:3", 3),
    ("heisenberg:1", 3),
    ("ut:4", Fraction(28, 3)),
    ("heisenberg:2", Fraction(15, 2)),
    ("freenil23", Fraction(14, 3)),
])
def test_jennings_degree_does_not_depend_on_the_truncation(name, degree):
    # truncations c + 1 (the default) to c + 3, c the largest weight;
    # so (d - 1)/c is the degree only at the default truncation
    p = builtin(name)
    c = max(p.weights)
    for truncation in (c + 1, c + 2, c + 3):
        res = jennings_embedding(p, truncation=truncation)
        assert res.unitriangular
        assert image_degree(res) == degree, truncation


@pytest.mark.parametrize("m,d", [(5, 132), (6, 624)])
def test_scheme_perturbed_ut_is_undistorted(m, d):
    p = builtin(f"ut:{m}:scheme")
    res = jennings_embedding(p, order="scheme-perturbed")
    assert res.d == d
    assert res.unitriangular and res.relators_ok
    assert image_weights(res) == tuple(j - i for i, j in p.positions)
    assert image_degree(res) == 1


def test_reversed_ut5_jennings_images_keep_the_relations():
    # no linear extension: the images are square matrices on sparse
    # rows, whose relator check is quick
    start = time.perf_counter()
    res = jennings_embedding(builtin("ut:5"), order=tuple(range(132))[::-1])
    elapsed = time.perf_counter() - start
    assert res.d == 132
    assert not res.unitriangular and res.relators_ok
    assert elapsed < 0.5
