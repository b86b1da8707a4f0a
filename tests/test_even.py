"""Even-permutation synthesis: disjoint-pair decomposition, the conjugating
gate list of each pair, token-pair fragments, fused gate, and the
no-extra-lines pipeline."""

from __future__ import annotations

import itertools
import random
import statistics

import pytest

from revsynth.circuit import (
    Circuit,
    GateKind,
    LineRole,
    apply_gates_bitsliced,
    circuit_to_permutation,
    initial_line_masks,
)
from revsynth.errors import OddPermutationError, WidthOutOfRangeError
from revsynth.even import TokenPair, synth_even, synth_fused, synth_pair
from revsynth.generators import TransformToken
from revsynth.permutation import Permutation, disjoint_pairs, sample_permutation
from revsynth.toffoli import conjugation_gates, synth_general
from revsynth.verify import verify_realizes

from conftest import compose_runs, conjugation_block

T1P, T2P = TransformToken.T1P, TransformToken.T2P
M1, M2, M3, M4 = TokenPair.M1, TokenPair.M2, TokenPair.M3, TokenPair.M4

_PAIR_RUNS = {
    M1: [(T1P, 2)],
    M2: [(T2P, 2)],
    M3: [(T1P, 1), (T2P, 1)],
    M4: [(T2P, 1), (T1P, 1)],
}


def compose_pairs(pairs, size: int) -> tuple[int, ...]:
    """Oracle: apply each pair's two transpositions, first pair first."""
    mapping = list(range(size))
    for (a, b), (c, d) in pairs:
        swap = {a: b, b: a, c: d, d: c}
        mapping = [swap.get(y, y) for y in mapping]
    return tuple(mapping)


def assert_disjoint_pairs(p: Permutation) -> list:
    pairs = disjoint_pairs(p.mapping)
    for pair in pairs:
        assert len({*pair[0], *pair[1]}) == 4, pair
    assert compose_pairs(pairs, len(p.mapping)) == p.mapping
    return pairs


def test_disjoint_pairs_frozen_meetings():
    # (0 1)(2 3): R1 is empty and R2 is one pair.
    p = Permutation(3, (1, 0, 3, 2, 4, 5, 6, 7))
    assert assert_disjoint_pairs(p) == [((1, 0), (3, 2))]
    # (0 1)(2 3 4)(5 6): R1 = (3 4), R2 = (1 0)(3 2)(6 5); the odd ones
    # out, (3 4) and (1 0), are disjoint and form one more pair.
    p = Permutation(3, (1, 0, 3, 4, 2, 6, 5, 7))
    assert assert_disjoint_pairs(p) == [((3, 4), (1, 0)), ((3, 2), (6, 5))]
    # (0 1 2): R1 = (1 2) and R2 = (1 0) share state 1, so (3 4) is
    # inserted twice.
    p = Permutation.from_cycle(3, (0, 1, 2))
    assert assert_disjoint_pairs(p) == [((1, 2), (3, 4)), ((3, 4), (1, 0))]
    assert disjoint_pairs(Permutation.identity(3).mapping) == []
    # On fewer points that meeting has no two spare states: a 3-cycle on 3
    # or 4 points has no disjoint-pair form. (0 1)(2 3) needs none.
    for mapping in ([1, 2, 0, 3], [1, 2, 0]):
        with pytest.raises(ValueError, match="at least 5 points"):
            disjoint_pairs(mapping)
    assert disjoint_pairs([1, 0, 3, 2]) == [((1, 0), (3, 2))]


def test_disjoint_pairs_compose_back_to_random_targets():
    meetings = {"none": 0, "disjoint": 0, "shared": 0}
    rng = random.Random(83)
    for width in (3, 4, 5, 6):
        for _ in range(40):
            p = sample_permutation(width, "even", seed=rng.getrandbits(32))
            pairs = assert_disjoint_pairs(p)
            cycles = p.cycles()
            count = sum(len(c) - 1 for c in cycles)  # in R1 and R2
            r1 = sum((len(c) - 1) // 2 for c in cycles)
            if r1 % 2 == 0:
                meetings["none"] += 1
                assert len(pairs) == count // 2
            elif len(pairs) == count // 2:
                meetings["disjoint"] += 1
            else:
                meetings["shared"] += 1
                assert len(pairs) == count // 2 + 1
    assert all(meetings.values()), meetings


def test_disjoint_pairs_reject_odd_permutations():
    with pytest.raises(ValueError, match="odd"):
        disjoint_pairs(Permutation.from_cycle(3, (0, 1)).mapping)


def pair_block(a: int, b: int, c: int, d: int, n: int) -> list:
    """The pair (a b)(c d) as one ``conjugation_block`` with no frame, on
    the pivots and centre controls of ``synth_even``."""
    return conjugation_block((a, b, c, d), (n, n - 1, n - 2), range(1, n - 1), n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_pair_sigma_places_both_transpositions(n: int):
    # sigma is CNOTs. A twisted quadruple (a^b^c^d != 0) adds a VTOF form
    # on lines n-2..n and its inverse; the others are affine and land in
    # order. sigma, the form and the NOT layer ``flips`` place {a, b} and
    # {c, d} onto {T-1, T} and {T-3, T-2}, one pair each, and the block
    # around the centre, with ``flips`` negating its controls, swaps both
    # pairs.
    top = (1 << n) - 1
    rng = random.Random(n)
    twisted = 0
    for i in range(40):
        a, b, c = rng.sample(range(1 << n), 3)
        if i % 2:
            d = a ^ b ^ c
        else:
            d = rng.choice([s for s in range(1 << n) if s not in (a, b, c)])
        twisted += bool(a ^ b ^ c ^ d)
        sigma, tail, flips = conjugation_gates((a, b, c, d), (n, n - 1, n - 2), n)
        assert all(g.kind is GateKind.CKNOT and g.k == 1 for g in sigma)
        assert flips >> n == 0  # state bits of lines 1..n
        forward, inverse = tail
        if a ^ b ^ c ^ d:
            assert 8 <= len(forward) + len(inverse) <= 10
            assert all(g.kind is GateKind.VTOF for g in forward + inverse)
            assert {l for g in forward + inverse for l in g.lines} == {
                n - 2, n - 1, n
            }
            assert flips & 0b011 == 0  # only x of lines n-2..n is a control
        else:
            assert tail == ((), ())
        placing = circuit_to_permutation(Circuit(n, (*sigma, *forward)))
        placed = [placing(s) ^ flips for s in (a, b, c, d)]
        if a ^ b ^ c ^ d:
            pairs = {frozenset(placed[:2]), frozenset(placed[2:])}
            assert pairs == {
                frozenset({top - 1, top}), frozenset({top - 3, top - 2})
            }, (a, b, c, d)
        else:
            assert placed == [top - 1, top, top - 3, top - 2], (a, b, c, d)
        block = Circuit(n, tuple(pair_block(a, b, c, d, n)))
        want = compose_pairs([((a, b), (c, d))], 1 << n)
        assert circuit_to_permutation(block).mapping == want
    assert 0 < twisted < 40


@pytest.mark.parametrize("n, count", [(3, 1344), (4, 40320)])
def test_every_twisted_quadruple_is_swapped(n: int, count: int):
    # Every ordered quadruple of distinct states whose XOR is nonzero, on
    # the bitsliced simulator: the block must swap a with b and c with d
    # and leave every other state alone.
    start = initial_line_masks(n)
    seen = 0
    for a, b, c, d in itertools.permutations(range(1 << n), 4):
        if not a ^ b ^ c ^ d:
            continue
        seen += 1
        masks = apply_gates_bitsliced(pair_block(a, b, c, d, n), start.copy(), n)
        ab = 1 << a | 1 << b
        cd = 1 << c | 1 << d
        for line in range(1, n + 1):
            bit = n - line
            want = start[line] ^ ((a ^ b) >> bit & 1) * ab ^ ((c ^ d) >> bit & 1) * cd
            assert masks[line] == want, (a, b, c, d)
    assert seen == count


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


@pytest.mark.parametrize("width", [3, 4, 5, 6, 8])
def test_even_synthesis_verifies(width: int):
    rng = random.Random(29)
    for _ in range(6):
        p = sample_permutation(width, "even", seed=rng.getrandbits(32))
        report = verify_realizes(synth_even(p), p)
        assert report.lines == width
        assert report.passed, report.counterexample


@pytest.mark.parametrize(
    "width, median, token_route",
    # Medians over seeds 0-4. Frozen: a change in emitted size updates
    # these and the README's gate-count table together. The third column
    # is the median of the generator-token route this one replaced.
    [(3, 60, 420), (4, 168, 3225), (5, 618, 33297), (6, 2310, 269912)],
)
def test_even_synthesis_frozen_medians(width: int, median: int, token_route: int):
    counts = [
        len(synth_even(sample_permutation(width, "even", seed)).gates)
        for seed in range(5)
    ]
    assert statistics.median(counts) == median < token_route


def test_even_synthesis_identity_is_empty():
    # No blocks on either VTOF route: the empty macro list is lowered and
    # played into an empty netlist of the route's width and roles.
    for n in range(3, 9):
        identity = Permutation.identity(n)
        for synth, width in ((synth_even, n), (synth_general, n + 1)):
            c = synth(identity)
            assert c.gates == () and c.width == width, (synth, n)
            assert c.distinct_gates == () and c.order == ()
            assert verify_realizes(c, identity).passed


def test_even_synthesis_rejects_odd_permutations():
    odd = Permutation.from_cycle(3, (0, 1))
    with pytest.raises(OddPermutationError, match="permutation is odd"):
        synth_even(odd)


def test_even_synthesis_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        synth_even(Permutation.identity(2))
