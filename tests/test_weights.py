"""Weight classes: decomposition of conservative permutations and its
inverse."""

from __future__ import annotations

import random

import pytest

from revsynth.errors import NotConservativeError
from revsynth.permutation import Permutation, sample_permutation
from revsynth.weights import (
    bits,
    hamming_distance,
    recompose,
    strings_of_weight,
    weight_decompose,
)


def test_bits_msb_first():
    assert bits(0, 3) == "000"
    assert bits(5, 3) == "101"
    assert bits(1, 4) == "0001"


def test_hamming_distance():
    assert hamming_distance(0b101, 0b101) == 0
    assert hamming_distance(0b1100, 0b0011) == 4


def test_strings_of_weight_ascending():
    assert strings_of_weight(4, 0) == [0]
    assert strings_of_weight(4, 1) == [1, 2, 4, 8]
    assert strings_of_weight(4, 2) == [3, 5, 6, 9, 10, 12]
    assert strings_of_weight(4, 4) == [15]
    total = sum(len(strings_of_weight(4, k)) for k in range(5))
    assert total == 16


def test_decompose_identity():
    d = weight_decompose(Permutation.identity(4))
    assert d.width == 4
    assert all(cls == tuple(range(len(cls))) for cls in d.classes)


def test_decompose_fredkin_swaps_one_class_pair():
    fredkin = Permutation(3, [0, 1, 2, 3, 4, 6, 5, 7])
    d = weight_decompose(fredkin)
    assert d.classes[0] == (0,) and d.classes[1] == (0, 1, 2) and d.classes[3] == (0,)
    states = strings_of_weight(3, 2)  # [3, 5, 6]
    i5, i6 = states.index(5), states.index(6)
    assert d.classes[2][i5] == i6 and d.classes[2][i6] == i5
    assert d.classes[2][states.index(3)] == states.index(3)


def test_decompose_rejects_non_conservative():
    with pytest.raises(NotConservativeError):
        weight_decompose(Permutation.from_cycle(3, (0, 1)))


def test_recompose_round_trip():
    rng = random.Random(53)
    for width in (3, 4, 5):
        for _ in range(10):
            p = sample_permutation(width, "conservative", seed=rng.getrandbits(32))
            assert recompose(weight_decompose(p)) == p
