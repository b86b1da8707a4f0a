"""Generator-token decomposition: run semantics, adjacent swaps, parity
bookkeeping."""

from __future__ import annotations

import random

import pytest

from revsynth.generators import (
    TransformToken,
    adjacent_swap_tokens,
    decompose_generators,
    generator_runs,
    transposition_tokens,
)
from revsynth.permutation import Permutation, sample_permutation

from conftest import compose_runs

T1P, T2P = TransformToken.T1P, TransformToken.T2P


def _count(runs, tok) -> int:
    """How many ``tok`` tokens the runs stand for."""
    return sum(count for t, count in runs if t is tok)


def test_token_values():
    assert [tok.value for tok in TransformToken] == ["T1'", "T2'"]


def test_token_permutations():
    # T1' swaps the two largest states; T2' is the +1 rotation.
    for width in (2, 3):
        size = 1 << width
        t1p = compose_runs([(T1P, 1)], width)
        assert t1p(size - 2) == size - 1 and t1p(size - 1) == size - 2
        assert all(t1p(x) == x for x in range(size - 2))
        t2p = compose_runs([(T2P, 1)], width)
        assert all(t2p(x) == (x + 1) % size for x in range(size))


def test_compose_tokens_order():
    # First run applies first: T1' then T2' sends 2 -> 3 -> 0, while
    # T2' then T1' sends 2 -> 3 -> 2.
    assert compose_runs([(T1P, 1), (T2P, 1)], 2)(2) == 0
    assert compose_runs([(T2P, 1), (T1P, 1)], 2)(2) == 2
    assert compose_runs([], 3).is_identity()
    # A swap run of even count and a full-cycle shift run are identities.
    assert compose_runs([(T1P, 2), (T2P, 8)], 3).is_identity()


def test_adjacent_swap_frozen_example():
    # Swapping states 0 and 1 at width 2: two shifts bring (0, 1) onto
    # (2, 3), one swap, two shifts restore. States 2 and 3 are already the
    # top pair, so their run of 0 shifts is left out, and the full-cycle run
    # back stays whole.
    assert adjacent_swap_tokens(0, 2) == [(T2P, 2), (T1P, 1), (T2P, 2)]
    assert adjacent_swap_tokens(1, 2) == [(T2P, 1), (T1P, 1), (T2P, 3)]
    assert adjacent_swap_tokens(2, 2) == [(T1P, 1), (T2P, 4)]


def test_adjacent_swap_token_budget():
    # Every adjacent swap costs exactly one swap token and 2**width shifts.
    for width in (2, 3):
        size = 1 << width
        for a in range(size - 1):
            runs = adjacent_swap_tokens(a, width)
            assert all(count > 0 for _, count in runs)
            assert _count(runs, T1P) == 1
            assert _count(runs, T2P) == size
            assert len(runs) <= 3
            got = compose_runs(runs, width)
            want = Permutation.from_cycle(width, (a, a + 1))
            assert got.mapping == want.mapping


def test_adjacent_swap_rejects_bad_start():
    with pytest.raises(ValueError):
        adjacent_swap_tokens(3, 2)
    with pytest.raises(ValueError):
        adjacent_swap_tokens(-1, 2)


def test_transposition_tokens_realize_transpositions():
    rng = random.Random(5)
    for _ in range(15):
        width = rng.randint(2, 3)
        size = 1 << width
        i = rng.randrange(size - 1)
        j = rng.randrange(i + 1, size)
        runs = transposition_tokens(i, j, width)
        got = compose_runs(runs, width)
        want = Permutation.from_cycle(width, (i, j))
        assert got.mapping == want.mapping


def test_transposition_uses_odd_many_adjacent_swaps():
    # Bubble up j - i steps, bubble back j - i - 1: an odd total, so the
    # swap-token count is odd and the shift-token count stays even.
    for width in (2, 3):
        size = 1 << width
        for i in range(size - 1):
            for j in range(i + 1, size):
                runs = transposition_tokens(i, j, width)
                swaps = _count(runs, T1P)
                assert swaps == 2 * (j - i) - 1
                assert _count(runs, T2P) == size * swaps
                assert _count(runs, T2P) % 2 == 0


def test_decompose_generators_reproduces_permutation():
    rng = random.Random(23)
    for _ in range(12):
        width = rng.randint(2, 3)
        p = sample_permutation(width, "any", seed=rng.getrandbits(32))
        toks = decompose_generators(p)
        assert compose_runs([(t, 1) for t in toks], width).mapping == p.mapping


@pytest.mark.parametrize("width", [2, 3, 4, 5], ids=lambda w: f"primed-{w}")
def test_decompose_generators_expands_the_runs(width):
    p = sample_permutation(width, "any", seed=77 + width)
    runs = list(generator_runs(p))
    assert decompose_generators(p) == [
        tok for tok, count in runs for _ in range(count)
    ]


def test_decompose_identity_is_empty():
    assert decompose_generators(Permutation.identity(3)) == []


def test_even_permutations_give_even_token_counts():
    # Each transposition contributes an odd number of swap tokens and an
    # even number of shifts, so an even permutation ends up with even
    # counts of both tokens.
    rng = random.Random(41)
    for _ in range(20):
        width = rng.randint(2, 4)
        p = sample_permutation(width, "even", seed=rng.getrandbits(32))
        toks = decompose_generators(p)
        assert toks.count(T1P) % 2 == 0
        assert toks.count(T2P) % 2 == 0
