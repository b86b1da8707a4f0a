"""Even-permutation synthesis: pairing over token runs, pair fragments,
fused gate, and the no-extra-lines pipeline."""

from __future__ import annotations

import random

import pytest

from revsynth.circuit import GateKind, LineRole, circuit_to_permutation
from revsynth.errors import (
    OddPermutationError,
    OddTokenCountError,
    WidthOutOfRangeError,
)
from revsynth.even import TokenPair, pair_runs, synth_even, synth_fused, synth_pair
from revsynth.generators import TransformToken
from revsynth.permutation import Permutation, sample_permutation
from revsynth.verify import verify_realizes

from conftest import compose_runs

T1P, T2P = TransformToken.T1P, TransformToken.T2P
M1, M2, M3, M4 = TokenPair.M1, TokenPair.M2, TokenPair.M3, TokenPair.M4

_PAIR_RUNS = {
    M1: [(T1P, 2)],
    M2: [(T2P, 2)],
    M3: [(T1P, 1), (T2P, 1)],
    M4: [(T2P, 1), (T1P, 1)],
}


def test_pair_tokens_frozen_examples():
    assert pair_runs([]) == []
    assert pair_runs([(T1P, 2)]) == [(M1, 1)]
    assert pair_runs([(T2P, 2), (T1P, 2)]) == [(M2, 1), (M1, 1)]
    assert pair_runs([(T1P, 1), (T2P, 2), (T1P, 1)]) == [(M3, 1), (M4, 1)]
    assert pair_runs([(T2P, 1), (T1P, 2), (T2P, 1)]) == [(M4, 1), (M3, 1)]
    # An odd run lends its last token to the next pair; runs of one pair
    # kind merge, including doubled shifts split over several runs.
    assert pair_runs([(T2P, 7), (T1P, 2), (T2P, 5)]) == [
        (M2, 3), (M4, 1), (M3, 1), (M2, 2)
    ]
    assert pair_runs([(T2P, 4), (T2P, 2)]) == [(M2, 3)]
    assert pair_runs([(T1P, 1), (T2P, 1)] * 2) == [(M3, 2)]


def test_pair_tokens_rejects_odd_counts():
    with pytest.raises(OddTokenCountError):
        pair_runs([(T1P, 1)])
    with pytest.raises(OddTokenCountError):
        pair_runs([(T1P, 1), (T2P, 2)])
    with pytest.raises(OddTokenCountError):
        pair_runs([(T2P, 3)])


@pytest.mark.parametrize("pair", list(TokenPair))
@pytest.mark.parametrize("n", [3, 4])
def test_pair_fragments_match_token_composition(pair: TokenPair, n: int):
    got = circuit_to_permutation(synth_pair(pair, n))
    want = compose_runs(_PAIR_RUNS[pair], n)
    assert got.mapping == want.mapping


def test_doubled_swap_pair_is_empty():
    assert synth_pair(TokenPair.M1, 4).gates == ()


def test_doubled_shift_pair_adds_two():
    # Two +1 shifts compose to +2: the low state bit never changes, so the
    # fragment is an increment on the high lines alone.
    p = circuit_to_permutation(synth_pair(TokenPair.M2, 4))
    assert p.mapping == tuple((x + 2) % 16 for x in range(16))


def test_swap_then_shift_pair_frozen_width_three():
    # Swap states 6 and 7, then add 1: 6 -> 7 -> 0 and 7 -> 6 -> 7.
    p = circuit_to_permutation(synth_pair(TokenPair.M3, 3))
    assert p.mapping == (1, 2, 3, 4, 5, 6, 0, 7)


def test_fused_fragment_semantics():
    # The fused gate swaps the two largest states and then flips the top
    # line when every other line is 1.
    for n in range(3, 7):
        size = 1 << n
        half = size >> 1
        want = []
        for x in range(size):
            y = {size - 2: size - 1, size - 1: size - 2}.get(x, x)
            if y & (half - 1) == half - 1:
                y ^= half
            want.append(y)
        got = circuit_to_permutation(synth_fused(n))
        assert got.mapping == tuple(want)


def test_fused_fragment_frozen_values():
    p = circuit_to_permutation(synth_fused(4))
    assert p(0b1111) == 0b1110  # swap of the top pair
    assert p(0b0111) == 0b1111  # all-but-top ones: top line flips
    assert p(0b0101) == 0b0101  # a middle zero blocks everything


def test_fused_fragment_expands_without_extra_lines():
    # Each fused CKNOT either leaves a line free to borrow or is small
    # enough to need none, so lowering to VTOF never widens the circuit.
    from revsynth.expand import expand_macros

    for n in range(3, 8):
        out = expand_macros(synth_fused(n), "VTOF")
        assert out.width == n
        assert all(g.kind is GateKind.VTOF for g in out.gates)


def test_pair_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        synth_pair(TokenPair.M2, 2)
    with pytest.raises(WidthOutOfRangeError):
        synth_fused(2)


def test_even_synthesis_uses_no_extra_lines():
    p = sample_permutation(3, "even", seed=7)
    c = synth_even(p)
    assert c.width == 3
    assert c.roles == (LineRole.DATA,) * 3
    assert all(g.kind is GateKind.VTOF for g in c.gates)


@pytest.mark.parametrize("width", [3, 4, 5])
def test_even_synthesis_verifies(width: int):
    rng = random.Random(29)
    for _ in range(6):
        p = sample_permutation(width, "even", seed=rng.getrandbits(32))
        report = verify_realizes(synth_even(p), p)
        assert report.lines == width
        assert report.passed, report.counterexample


def test_even_synthesis_identity_is_empty():
    c = synth_even(Permutation.identity(3))
    assert c.gates == ()


def test_even_synthesis_rejects_odd_permutations():
    odd = Permutation.from_cycle(3, (0, 1))
    with pytest.raises(OddPermutationError, match="permutation is odd"):
        synth_even(odd)


def test_even_synthesis_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        synth_even(Permutation.identity(2))
