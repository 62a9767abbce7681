"""Closed forms the engine computes on whole families of stock groups.

PAPER.md holds only the abstract, so these are observed facts on named
inputs, pinned so that a change to any layer that moves one shows up:
the Jennings (weight-lex, default truncation) and Nickel (declared
order) images of heisenberg:n, and the Jennings image of ut:6, whose
624 x 624 generators make it the largest image the engine measures."""

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
