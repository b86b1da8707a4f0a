"""Parity vectors, the controlled-swap closed form, independence, and
embedding parity."""

from __future__ import annotations

import math
import random

import pytest

from revsynth.analysis import (
    ParityVector,
    binom_mod2,
    ckswap_parity_formula,
    embedded_gate_permutation,
    embedded_parity,
    independence_check,
    parity_vector,
)
from revsynth.errors import (
    NotConservativeError,
    RangeError,
    WidthOutOfRangeError,
)
from revsynth.permutation import Permutation, sample_permutation


def test_parity_vector_of_identity_is_zero():
    v = parity_vector(Permutation.identity(4))
    assert v.entries == (0,) * 5
    assert str(v) == "0 0 0 0 0"


def test_parity_vector_frozen_examples():
    # The 3-bit controlled swap exchanges two weight-2 strings: a single
    # odd class.
    cswap3 = Permutation(3, (0, 1, 2, 3, 4, 6, 5, 7))
    assert parity_vector(cswap3).entries == (0, 0, 1, 0)
    # The plain swap of the top two bits at width 3 is odd on both middle
    # classes.
    swap_perm = embedded_gate_permutation(0, 3)
    assert parity_vector(swap_perm).entries == (0, 1, 1, 0)


def class_inversion_parities(p: Permutation) -> tuple[int, ...]:
    # Independent oracle: the parity of p restricted to each weight class
    # is its inversion count mod 2.
    out = []
    for k in range(p.width + 1):
        states = [x for x in range(1 << p.width) if x.bit_count() == k]
        images = [p(x) for x in states]
        inversions = sum(
            1 for i, a in enumerate(images) for b in images[i + 1:] if a > b
        )
        out.append(inversions % 2)
    return tuple(out)


def test_parity_vector_matches_inversion_oracle():
    rng = random.Random(71)
    for width in range(3, 8):
        for _ in range(4):
            p = sample_permutation(width, "conservative", seed=rng.getrandbits(32))
            assert parity_vector(p).entries == class_inversion_parities(p)


def test_parity_vector_rejects_non_conservative():
    with pytest.raises(NotConservativeError):
        parity_vector(Permutation.from_cycle(3, (0, 1)))


def test_parity_vector_validation():
    with pytest.raises(ValueError):
        ParityVector(3, (0, 1))
    with pytest.raises(ValueError):
        ParityVector(2, (0, 2, 0))
    with pytest.raises(ValueError):
        ParityVector(2, (0, 0, 0)) ^ ParityVector(3, (0, 0, 0, 0))


def test_binom_mod2_matches_math_comb():
    for n in range(0, 12):
        for r in range(-1, n + 2):
            want = (math.comb(n, r) % 2) if 0 <= r <= n else 0
            assert binom_mod2(n, r) == want


def test_formula_matches_brute_force_parities():
    for m in range(3, 9):
        for k in range(0, m - 1):
            brute = parity_vector(embedded_gate_permutation(k, m))
            assert ckswap_parity_formula(k, m).entries == brute.entries


def test_formula_frozen_width_four():
    assert ckswap_parity_formula(0, 4).entries == (0, 1, 0, 1, 0)
    assert ckswap_parity_formula(1, 4).entries == (0, 0, 1, 1, 0)
    assert ckswap_parity_formula(2, 4).entries == (0, 0, 0, 1, 0)


def test_formula_range_errors():
    with pytest.raises(RangeError):
        ckswap_parity_formula(3, 4)
    with pytest.raises(RangeError):
        ckswap_parity_formula(-1, 4)
    with pytest.raises(RangeError):
        embedded_gate_permutation(4, 5)
    with pytest.raises(WidthOutOfRangeError):
        ckswap_parity_formula(3, 17)
    with pytest.raises(WidthOutOfRangeError, match="capped at 16"):
        embedded_gate_permutation(30, 32)


def test_parity_vectors_add_under_composition():
    rng = random.Random(71)
    for _ in range(10):
        m = rng.randint(3, 5)
        p = sample_permutation(m, "conservative", seed=rng.getrandbits(32))
        q = sample_permutation(m, "conservative", seed=rng.getrandbits(32))
        assert parity_vector(p.then(q)) == parity_vector(p) ^ parity_vector(q)


def test_parity_vector_ignores_line_placement():
    # Which lines a gate occupies never shows in the vector: conjugating
    # by any wire relabeling preserves every class parity.
    rng = random.Random(73)
    for _ in range(8):
        m = rng.randint(3, 5)
        k = rng.randint(0, m - 2)
        base = embedded_gate_permutation(k, m)
        perm = list(range(m))
        rng.shuffle(perm)
        relabel = Permutation(
            m,
            [
                sum(
                    ((x >> (m - 1 - i)) & 1) << (m - 1 - perm[i])
                    for i in range(m)
                )
                for x in range(1 << m)
            ],
        )
        conjugated = relabel.inverse().then(base).then(relabel)
        assert parity_vector(conjugated) == parity_vector(base)


def test_independence_holds_across_the_family():
    for m in range(5, 13):
        for k in range(1, m - 1):
            result = independence_check(k, m)
            assert result.verdict == "independent"
            assert result.witness_coordinate is not None
            assert result.coefficients is None


def test_independence_witness_frozen_examples():
    assert independence_check(2, 6).witness_coordinate == 3
    assert independence_check(1, 5).witness_coordinate == 2
    assert independence_check(3, 10).witness_coordinate == 4


def test_independence_range_errors():
    with pytest.raises(RangeError):
        independence_check(0, 4)
    with pytest.raises(RangeError):
        independence_check(3, 4)
    with pytest.raises(WidthOutOfRangeError):
        independence_check(3, 17)


def test_embedded_parity_examples():
    odd3 = Permutation.from_cycle(3, (0, 1))
    assert embedded_parity(odd3, 3) == "odd"
    assert embedded_parity(odd3, 4) == "even"
    assert embedded_parity(odd3, 5) == "even"
    assert embedded_parity(Permutation.identity(3), 3) == "even"


def test_embedded_parity_random_gates_are_even():
    rng = random.Random(79)
    for _ in range(20):
        g = sample_permutation(3, "any", seed=rng.getrandbits(32))
        assert embedded_parity(g, 4) == "even"
        assert embedded_parity(g, 5) == "even"


def test_embedded_parity_range_errors():
    with pytest.raises(RangeError):
        embedded_parity(Permutation.identity(3), 2)
    with pytest.raises(WidthOutOfRangeError):
        embedded_parity(Permutation.identity(3), 17)
