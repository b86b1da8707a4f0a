"""Weight classes: the one pass that checks a conservative permutation and
groups its states by Hamming weight."""

from __future__ import annotations

import random

import pytest

from revsynth.errors import NotConservativeError
from revsynth.permutation import Permutation, sample_permutation
from revsynth.weights import bits, weight_decompose


def test_bits_msb_first():
    assert bits(0, 3) == "000"
    assert bits(5, 3) == "101"
    assert bits(1, 4) == "0001"


def test_strings_of_weight_ascending():
    classes = weight_decompose(Permutation.identity(4))
    assert classes == (
        (0,),
        (1, 2, 4, 8),
        (3, 5, 6, 9, 10, 12),
        (7, 11, 13, 14),
        (15,),
    )


def test_decompose_identity():
    classes = weight_decompose(Permutation.identity(3))
    assert classes == ((0,), (1, 2, 4), (3, 5, 6), (7,))


def test_decompose_fredkin_swaps_one_class_pair():
    # The classes list states, not images: a Fredkin gate has the same
    # classes as the identity.
    fredkin = Permutation(3, [0, 1, 2, 3, 4, 6, 5, 7])
    assert weight_decompose(fredkin) == weight_decompose(Permutation.identity(3))


def test_decompose_rejects_non_conservative():
    with pytest.raises(NotConservativeError):
        weight_decompose(Permutation.from_cycle(3, (0, 1)))


def test_decompose_names_the_lowest_offending_input():
    # 001 -> 011 and 100 -> 000 both change weight; 001 is named first.
    p = Permutation(3, [4, 3, 2, 1, 0, 5, 6, 7])
    with pytest.raises(NotConservativeError) as err:
        weight_decompose(p)
    assert str(err.value) == "input 000 (weight 0) maps to 100 (weight 1)"
    p = Permutation.from_cycle(3, (1, 3))
    with pytest.raises(NotConservativeError) as err:
        weight_decompose(p)
    assert str(err.value) == "input 001 (weight 1) maps to 011 (weight 2)"


def test_classes_partition_the_states():
    rng = random.Random(59)
    for width in range(3, 9):
        for _ in range(3):
            p = sample_permutation(width, "conservative", seed=rng.getrandbits(32))
            classes = weight_decompose(p)
            assert len(classes) == width + 1
            assert sorted(s for cls in classes for s in cls) == list(range(1 << width))
            for k, cls in enumerate(classes):
                assert list(cls) == sorted(cls)
                assert all(s.bit_count() == k for s in cls)
