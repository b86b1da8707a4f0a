"""Toffoli-alphabet constructions: NOT/CNOT ladders, multi-controlled NOT
recursion, add-constant blocks, the conjugation blocks both VTOF routes
share, and full general synthesis."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest

from revsynth import toffoli
from revsynth.circuit import (
    CKNOT,
    Circuit,
    GateKind,
    LineRole,
    circuit_to_permutation,
    cknot,
    vtof,
)
from revsynth.errors import InsufficientLinesError, WidthOutOfRangeError
from revsynth.even import synth_even
from revsynth.expand import expand_macros
from revsynth.generators import TransformToken
from revsynth.permutation import Permutation, sample_permutation
from revsynth.toffoli import (
    NO_TAIL,
    TWISTED_TAILS,
    append_conjugation,
    conjugation_gates,
    increment,
    negated_centre,
    synth_add_constant,
    synth_ccnot,
    synth_cknot,
    synth_cnot,
    synth_general,
    synth_not,
)
from revsynth.verify import verify_realizes

from conftest import cknot_permutation, compose_runs


def realized(width: int, gates) -> Permutation:
    return circuit_to_permutation(Circuit(width, tuple(gates)))


def test_synth_not_is_exact_and_restores_helpers():
    gates = synth_not(3, (1, 2))
    assert len(gates) == 4
    assert all(g.kind is GateKind.VTOF for g in gates)
    # Comparing full mappings asserts the helpers come back to their
    # starting values for every combination, not just zeros.
    assert realized(3, gates).mapping == cknot_permutation(3, (), 3).mapping


def test_synth_cnot_is_one_gate_twice():
    gates = synth_cnot(1, 3, 2)
    assert len(gates) == 2
    assert gates[0] == gates[1]
    assert realized(3, gates).mapping == cknot_permutation(3, (1,), 3).mapping


def test_synth_ccnot_is_self_contained():
    gates = synth_ccnot(1, 2, 3)
    assert len(gates) == 5
    assert realized(3, gates).mapping == cknot_permutation(3, (1, 2), 3).mapping


def vtof_distances() -> dict[bytes, int]:
    """The fewest VTOF gates that realize each permutation of the 8 states
    of 3 lines, by breadth-first search from the identity over the six
    gates on those lines. A permutation is its image table as bytes; a
    gate is applied after it with ``bytes.translate``."""
    steps = []
    for lines in itertools.permutations((1, 2, 3)):
        image = realized(3, (vtof(*lines),)).mapping
        steps.append(bytes(image) + bytes(range(8, 256)))
    start = bytes(range(8))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        p = queue.popleft()
        for step in steps:
            q = p.translate(step)
            if q not in dist:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist


def placed_pairs(image, states, x_flip: int) -> bool:
    """Whether the 3-line ``image`` sends the first two of ``states`` onto
    one pair of states that differ on line 3 alone, and the last two onto
    the other such pair, both in the plane where line 1 is ``1 ^ x_flip``:
    the two pairs a centre controlled by line 1 with target 3 swaps."""
    a, b, c, d = (image[s] for s in states)
    return a ^ b == 1 and c ^ d == 1 and (a ^ c) & 6 == 2 and a >> 2 == 1 ^ x_flip


def test_three_line_forms_are_exact_and_shortest():
    dist = vtof_distances()
    assert len(dist) == 40320  # VTOF generates every permutation of 3 bits
    forms = {
        (c1, c2, 3): synth_ccnot(c1, c2, 3) for c1 in (1, -1) for c2 in (2, -2)
    }
    forms[(1, 3)] = synth_cnot(1, 3, 2)
    forms[(-1, 3)] = synth_cnot(-1, 3, 2)
    sizes = {}
    for (*controls, target), gates in forms.items():
        want = cknot_permutation(3, tuple(controls), target).mapping
        assert realized(3, gates).mapping == want, controls
        assert len(gates) == dist[bytes(want)], controls
        sizes[tuple(controls)] = len(gates)
    assert sizes == {
        (1, 2): 5, (1, -2): 5, (-1, 2): 5, (-1, -2): 5, (1,): 2, (-1,): 6,
    }
    # Each entry of the table, keyed by the NOT layer on x, y, z (lines 1,
    # 2, 3 here), places the states v, v^e_z, v^e_y, v^e_x that the CNOTs
    # leave, where the NOT layer sends v to 0b110. The inverse form undoes
    # the forward one, and their total length is the least over every
    # permutation of 3 lines that places those states.
    inverse_of = {}
    for image in dist:
        back = bytearray(8)
        for s, y in enumerate(image):
            back[y] = s
        inverse_of[image] = bytes(back)
    assert len(TWISTED_TAILS) == 8
    totals = []
    for key, (forward, inverse, x_flip) in enumerate(TWISTED_TAILS):
        v = key ^ 0b110
        states = (v, v ^ 1, v ^ 2, v ^ 4)
        forward, inverse = forward.split(), inverse.split()
        f = realized(3, [vtof(*map(int, w)) for w in forward])
        g = realized(3, [vtof(*map(int, w)) for w in inverse])
        assert placed_pairs(f.mapping, states, x_flip), key
        assert f.then(g).is_identity(), key
        assert all(h != k for form in (forward, inverse)
                   for h, k in zip(form, form[1:])), key
        best = min(
            dist[image] + dist[inverse_of[image]]
            for image in dist
            for flip in (0, 1)
            if placed_pairs(image, states, flip)
        )
        assert len(forward) + len(inverse) == best, key
        totals.append(best)
    assert sorted(set(totals)) == [8, 10]


def test_fragments_reject_clashing_lines():
    with pytest.raises(InsufficientLinesError):
        synth_not(1, (1, 2))
    with pytest.raises(InsufficientLinesError):
        synth_cnot(1, 2, 1)


@pytest.mark.parametrize(
    "k, count",
    [(0, 4), (1, 2), (2, 5), (3, 20), (4, 50), (5, 110), (6, 230)],
)
def test_synth_cknot_exact_with_frozen_counts(k: int, count: int):
    free_needed = {0: 2, 1: 1, 2: 0}.get(k, 1)
    width = k + 1 + free_needed
    lines = tuple(range(1, width + 1))
    gates = synth_cknot(k, lines)
    assert len(gates) == count
    want = cknot_permutation(width, lines[:k], lines[k])
    assert realized(width, gates).mapping == want.mapping


@pytest.mark.parametrize("k", range(1, 9))
def test_synth_cknot_any_polarity_is_exact_at_frozen_size(k: int):
    # T(k) for every polarity: the leaf and join Toffolis cost 5 whatever
    # their controls fire on; only a lone negated CNOT costs 6, not 2.
    sizes = {1: 2, 2: 5}
    for j in range(3, 9):
        sizes[j] = 2 * sizes[j - 1] + 10
    rng = random.Random(k)
    width = k + 1 + (k != 2)
    for signs in ((1,) * k, (-1,) * k, *(
        [rng.choice((1, -1)) for _ in range(k)] for _ in range(3)
    )):
        lines = rng.sample(range(1, width + 1), width)
        controls = tuple(s * l for s, l in zip(signs, lines))
        gates = synth_cknot(k, (*controls, *lines[k:]))
        want_size = 6 if k == 1 and signs[0] < 0 else sizes[k]
        assert len(gates) == want_size, signs
        # The full mapping covers both values of the free line.
        want = cknot_permutation(width, controls, lines[k])
        assert realized(width, gates).mapping == want.mapping, signs


def test_synth_cknot_with_extra_free_lines():
    # Surplus helpers must stay untouched for every input combination.
    width = 7
    gates = synth_cknot(3, (2, 4, 6, 1, 3, 5, 7))
    want = cknot_permutation(width, (2, 4, 6), 1)
    assert realized(width, gates).mapping == want.mapping


def test_synth_cknot_line_requirements():
    with pytest.raises(ValueError):
        synth_cknot(-1, (1,))
    with pytest.raises(InsufficientLinesError):
        synth_cknot(2, (1, 2))
    with pytest.raises(InsufficientLinesError):
        synth_cknot(0, (1, 2))
    with pytest.raises(InsufficientLinesError):
        synth_cknot(1, (1, 2))
    with pytest.raises(InsufficientLinesError):
        synth_cknot(3, (1, 2, 3, 4))


def test_t2_block_increments():
    for n in (1, 2, 3, 4):
        c = Circuit(n, increment(range(1, n + 1)))
        assert len(c.gates) == n
        want = compose_runs([(TransformToken.T2P, 1)], n)
        assert circuit_to_permutation(c).mapping == want.mapping


def add_constant_permutation(width: int, lines, r: int) -> Permutation:
    """Oracle: add ``r`` to the register read MSB-first from ``lines``,
    every other line unchanged."""
    m = len(lines)
    mapping = []
    for x in range(1 << width):
        value = 0
        for l in lines:
            value = (value << 1) | ((x >> (width - l)) & 1)
        value = (value + r) % (1 << m)
        for i, l in enumerate(lines):
            bit = (value >> (m - 1 - i)) & 1
            x = (x & ~(1 << (width - l))) | (bit << (width - l))
        mapping.append(x)
    return Permutation(width, mapping)


def test_increment_is_the_t2_ladder_on_any_lines():
    assert increment(range(1, 5)) == (
        cknot((2, 3, 4), 1), cknot((3, 4), 2), cknot((4,), 3), cknot((), 4)
    )
    assert increment(()) == ()
    width, lines = 5, (4, 1, 5)
    assert realized(width, increment(lines)).mapping == (
        add_constant_permutation(width, lines, 1).mapping
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_add_constant_adds_every_constant(m: int):
    # The register sits on scattered lines in a wider circuit, so lines
    # outside it are checked to stay untouched.
    width = m + 2
    lines = tuple(random.Random(m).sample(range(1, width + 1), m))
    for r in range(1 << m):
        gates = synth_add_constant(r, lines)
        assert all(set(g.lines) <= set(lines) for g in gates)
        want = add_constant_permutation(width, lines, r)
        assert realized(width, gates).mapping == want.mapping, r
    assert synth_add_constant(-1, lines) == synth_add_constant((1 << m) - 1, lines)


@pytest.mark.parametrize(
    "r, count",
    # Non-adjacent form: 7 = 8 - 1 and 11 = 16 - 4 - 1 (modulo 16) cost
    # one partial ladder each per nonzero digit; 5 = 4 + 1.
    [(0, 0), (1, 4), (7, 5), (5, 6), (11, 6), (15, 4)],
)
def test_add_constant_frozen_counts(r: int, count: int):
    assert len(synth_add_constant(r, (1, 2, 3, 4))) == count


def assert_general_transposition(width: int, a: int, b: int) -> None:
    p = Permutation.from_cycle(width, (a, b))
    c = synth_general(p)
    assert c.roles == (LineRole.DATA,) * width + (LineRole.BORROWED,)
    assert all(g.kind is GateKind.VTOF for g in c.gates)
    # Quantifies the borrowed line over both start values.
    report = verify_realizes(c, p)
    assert report.passed, (a, b, report.counterexample)


def test_general_transposition_every_pair_at_width_three():
    for a in range(8):
        for b in range(a + 1, 8):
            assert_general_transposition(3, a, b)


def test_general_transposition_sampled_pairs_at_width_four():
    rng = random.Random(4)
    for _ in range(24):
        a, b = rng.sample(range(16), 2)
        assert_general_transposition(4, a, b)


def full_width_centre(width: int, t: int):
    return cknot([l for l in range(1, width + 1) if l != t], t)


def general_blocks(width: int, pairs) -> tuple[list, list]:
    """The general route's macro list for ``pairs``, built as
    ``synth_general`` builds it, and the same blocks uncancelled."""
    gates: list = []
    blocks: list = []
    for a, b in pairs:
        t = width + 1 - (a ^ b).bit_length()
        sigma, tail, flips = conjugation_gates((min(a, b), max(a, b)), (t,), width)
        assert tail == NO_TAIL
        controls = full_width_centre(width, t).controls
        centre = negated_centre(controls, t, flips, width)
        blocks += [*sigma, centre, *reversed(sigma)]
        append_conjugation(gates, sigma, centre)
    return gates, blocks


def test_transposition_gates_cover_both_orders_and_every_pair():
    # Macro level on the data lines alone: with either state first, sigma
    # and then its NOT layer ``flips`` send the first to T - e_t and the
    # second to T. sigma has no NOT; the block swaps exactly those two
    # states with the centre's controls negated where ``flips`` is set.
    for width in (2, 3, 4):
        top = (1 << width) - 1
        for a in range(1 << width):
            for b in range(1 << width):
                if a != b:
                    t = width + 1 - (a ^ b).bit_length()
                    sigma, tail, flips = conjugation_gates((a, b), (t,), width)
                    assert tail == NO_TAIL
                    assert all(g.k == 1 for g in sigma), (width, a, b)
                    images = realized(width, sigma)
                    assert images(b) ^ flips == top, (width, a, b)
                    assert images(a) ^ flips == top ^ 1 << (width - t), (width, a, b)
                    controls = full_width_centre(width, t).controls
                    centre = negated_centre(controls, t, flips, width)
                    assert {abs(c) for c in centre.controls} == set(controls)
                    gates: list = []
                    append_conjugation(gates, sigma, centre)
                    want = Permutation.from_cycle(width, (a, b))
                    assert realized(width, gates).mapping == want.mapping


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_general_macro_is_one_wide_cknot_per_transposition(width: int, monkeypatch):
    # The macro list is the one synth_general hands lower_cknots, as
    # distinct macros plus an order.
    handed = []
    real = toffoli.lower_cknots

    def spy(distinct, order, helpers):
        handed.append(tuple(distinct[i] for i in order))
        return real(distinct, order, helpers)

    monkeypatch.setattr(toffoli, "lower_cknots", spy)
    p = sample_permutation(width, "any", seed=width)
    pairs = p.to_transpositions()
    gates = tuple(general_blocks(width, pairs)[0])
    netlist = synth_general(p)
    assert handed == [gates]
    assert all(g.kind is GateKind.CKNOT for g in gates)
    wide = [g for g in gates if g.k == width - 1]
    assert len(wide) == len(pairs)
    # The wide gate spans every data line, leaving the borrowed line free;
    # sigma's NOTs survive only as its negated controls.
    assert all({abs(l) for l in g.lines} == set(range(1, width + 1)) for g in wide)
    assert any(c < 0 for g in wide for c in g.controls)
    assert all(g.k == 1 for g in gates if g.k != width - 1)
    roles = (LineRole.DATA,) * width + (LineRole.BORROWED,)
    macro = Circuit(width + 1, gates, roles=roles)
    assert expand_macros(macro, "VTOF") == netlist


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_vtof_macro_lists_cancel_where_blocks_meet(width: int, monkeypatch):
    # Both routes hand their macro list to lower_cknots, as its distinct
    # macros in first-seen order plus an order; catch it there, at the
    # one binding the shared pipeline calls, and play it back.
    macros = []
    real = toffoli.lower_cknots

    def spy(distinct, order, helpers):
        assert len(set(distinct)) == len(distinct)
        assert list(dict.fromkeys(order)) == list(range(len(distinct)))
        macros.append(tuple(distinct[i] for i in order))
        return real(distinct, order, helpers)

    monkeypatch.setattr(toffoli, "lower_cknots", spy)
    roles = (LineRole.DATA,) * width + (LineRole.BORROWED,)
    for seed in range(6):
        macros.clear()
        synth_even(sample_permutation(width, "even", seed))
        p = sample_permutation(width, "any", seed)
        netlist = synth_general(p)
        # One list per route, so the checks below never pass vacuously.
        assert len(macros) == 2 and all(macros), seed
        for gates in macros:
            # Equal VTOFs do not cancel, so only CKNOTs are checked.
            assert all(g != h or g.kind is not CKNOT
                       for g, h in zip(gates, gates[1:])), seed
        # The general netlist is no longer than its blocks uncancelled.
        uncancelled = general_blocks(width, p.to_transpositions())[1]
        whole = expand_macros(
            Circuit(width + 1, tuple(uncancelled), roles=roles), "VTOF"
        )
        assert len(netlist.gates) <= len(whole.gates), seed


def test_append_conjugation_keeps_equal_vtofs_at_the_seam():
    # VTOF(1, 2, 3) commutes with the CNOT 1 -> 3, and three of it undo
    # one, so the block is the CNOT. Twice in a row it is a CNOT, not the
    # identity: the gate that ends the list and the equal one that starts
    # the block must both stay.
    g = vtof(1, 2, 3)
    centre = cknot((1,), 3)
    gates = [g]
    append_conjugation(gates, [], centre, ((g,), (g, g, g)))
    assert gates == [g, g, centre, g, g, g]
    want = realized(3, [g, centre])
    assert realized(3, gates) == want
    assert realized(3, gates[2:]) != want


def test_append_conjugation_keeps_a_trailing_vtof():
    # With x, y, z = 2, 3, 4, VTOF(x, y, z) commutes with the centre on
    # controls 1, x and target z: both only XOR into z, from lines neither
    # writes. Its mirror is its inverse, three of it, so leaving out the
    # form and the inverse as a commuting pair would be wrong.
    x, y, z = 2, 3, 4
    g = vtof(x, y, z)
    centre = cknot((1, x), z)
    assert realized(4, [g, centre]) == realized(4, [centre, g])
    gates: list = []
    append_conjugation(gates, [], centre, ((g,), (g, g, g)))
    assert gates == [g, centre, g, g, g]
    assert realized(4, gates) == realized(4, [centre])
    assert realized(4, [centre, g, g]) != realized(4, [centre])


@pytest.mark.parametrize(
    "width, count",
    # Seed 0 at each width. Frozen: a change in emitted size updates these
    # and the README's gate-count table together.
    [(3, 28), (4, 336), (5, 1688), (6, 7080)],
)
def test_general_synthesis_frozen_counts(width: int, count: int):
    p = sample_permutation(width, "any", seed=0)
    c = synth_general(p)
    assert len(c.gates) == count
    assert verify_realizes(c, p).passed


def test_general_synthesis_shape():
    p = sample_permutation(3, "any", seed=4)
    c = synth_general(p)
    assert c.width == 4
    assert c.roles == (LineRole.DATA,) * 3 + (LineRole.BORROWED,)
    assert c.is_primitive()
    assert all(g.kind is GateKind.VTOF for g in c.gates)


def test_general_synthesis_verifies():
    rng = random.Random(19)
    for _ in range(6):
        p = sample_permutation(3, "any", seed=rng.getrandbits(32))
        report = verify_realizes(synth_general(p), p)
        assert report.passed, report.counterexample


def test_general_synthesis_handles_odd_permutations_at_width_four():
    odd = Permutation.from_cycle(4, (0, 1))
    assert not odd.is_even()
    report = verify_realizes(synth_general(odd), odd)
    assert report.passed, report.counterexample


def test_general_synthesis_verifies_at_widths_five_and_six():
    for width in (5, 6):
        p = sample_permutation(width, "any", seed=width)
        c = synth_general(p)
        assert c.width == width + 1
        assert verify_realizes(c, p).passed


def test_general_synthesis_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        synth_general(Permutation.identity(2))
    with pytest.raises(WidthOutOfRangeError):
        synth_general(Permutation.identity(16))
