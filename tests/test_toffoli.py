"""Toffoli-alphabet constructions: NOT/CNOT ladders, multi-controlled NOT
recursion, add-constant blocks, the conjugation blocks both VTOF routes
share, and full general synthesis."""

from __future__ import annotations

import itertools
import random
import sys
from collections import deque
from pathlib import Path

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
from revsynth.netlist import write_netlist
from revsynth.permutation import Permutation, disjoint_pairs, sample_permutation
from revsynth.toffoli import (
    NO_TAIL,
    TWISTED_TAILS,
    conjugation_gates,
    frame_inverse,
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

from conftest import cknot_permutation, compose_runs, conjugation_block


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


def general_blocks(width: int, pairs) -> list:
    """The general route's macro list for ``pairs`` with no frame: one
    ``conjugation_block`` per transposition, each undoing its own sigma."""
    gates: list = []
    for a, b in pairs:
        t = width + 1 - (a ^ b).bit_length()
        controls = full_width_centre(width, t).controls
        gates += conjugation_block((a, b), (t,), controls, width)
    return gates


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
                    gates = conjugation_block((a, b), (t,), controls, width)
                    assert gates == [*sigma, centre, *reversed(sigma)]
                    want = Permutation.from_cycle(width, (a, b))
                    assert realized(width, gates).mapping == want.mapping


def handed_macros(monkeypatch) -> list:
    """Every macro list the VTOF routes hand ``toffoli.lower_cknots``, as
    its distinct macros in first-seen order plus an order, caught at the
    one binding the shared pipeline calls and played back."""
    macros = []
    real = toffoli.lower_cknots

    def spy(distinct, order, helpers):
        assert len(set(distinct)) == len(distinct)
        assert list(dict.fromkeys(order)) == list(range(len(distinct)))
        macros.append(tuple(distinct[i] for i in order))
        return real(distinct, order, helpers)

    monkeypatch.setattr(toffoli, "lower_cknots", spy)
    return macros


def centreless(gates, k: int) -> list:
    """``gates`` without its k-control CKNOT centres."""
    return [g for g in gates if g.kind is not CKNOT or g.k != k]


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_general_macro_is_one_wide_cknot_per_transposition(width: int, monkeypatch):
    handed = handed_macros(monkeypatch)
    p = sample_permutation(width, "any", seed=width)
    pairs = p.to_transpositions()
    netlist = synth_general(p)
    ((*gates,),) = handed
    assert all(g.kind is GateKind.CKNOT for g in gates)
    wide = [g for g in gates if g.k == width - 1]
    assert len(wide) == len(pairs)
    # The wide gate spans every data line, leaving the borrowed line free;
    # sigma's NOTs survive only as its negated controls.
    assert all({abs(l) for l in g.lines} == set(range(1, width + 1)) for g in wide)
    assert any(c < 0 for g in wide for c in g.controls)
    assert all(g.k == 1 for g in gates if g.k != width - 1)
    # The macros realize p on the data lines, and the CNOTs alone (every
    # sigma, then the final network) compose to the identity: the final
    # network undoes the frame that the sigmas built.
    assert realized(width, gates) == p
    assert realized(width, centreless(gates, width - 1)).is_identity()
    roles = (LineRole.DATA,) * width + (LineRole.BORROWED,)
    macro = Circuit(width + 1, tuple(gates), roles=roles)
    assert expand_macros(macro, "VTOF") == netlist


@pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
def test_frame_netlists_are_no_longer_than_per_block_netlists(
    width: int, monkeypatch
):
    macros = handed_macros(monkeypatch)
    pivots, controls = (width, width - 1, width - 2), range(1, width - 1)
    for seed in range(5):
        macros.clear()
        q = sample_permutation(width, "even", seed)
        p = sample_permutation(width, "any", seed)
        netlists = (synth_even(q), synth_general(p))
        per_block = (
            [g for ab, cd in disjoint_pairs(q.mapping)
             for g in conjugation_block(ab + cd, pivots, controls, width)],
            general_blocks(width, p.to_transpositions()),
        )
        # One list per route, so the checks below never pass vacuously.
        assert len(macros) == 2 and all(macros), seed
        for target, gates, netlist, blocks, k in zip(
            (q, p), macros, netlists, per_block, (width - 2, width - 1)
        ):
            assert realized(width, gates) == target, seed
            assert realized(width, blocks) == target, seed
            # Without the centres, each twisted tail meets its inverse and
            # the CNOTs compose to the identity.
            assert realized(width, centreless(gates, k)).is_identity(), seed
            # No two equal CKNOTs meet anywhere, so nothing is left for a
            # cancellation pass; equal VTOFs do not cancel.
            assert all(g != h or g.kind is not CKNOT
                       for g, h in zip(gates, gates[1:])), seed
            if width == 3 and target is q:
                continue  # even n=3 may grow: its final network is not free
            whole = expand_macros(
                Circuit(netlist.width, tuple(blocks), roles=netlist.roles), "VTOF"
            )
            assert len(netlist.gates) <= len(whole.gates), seed


def one_twisted_pair(n: int, seed: int):
    """An even target on n lines that is one disjoint pair (a b)(c d) with
    a^b^c^d nonzero, and its states in ``disjoint_pairs`` order."""
    rng = random.Random(seed)
    while True:
        a, b, c, d = rng.sample(range(1 << n), 4)
        if a ^ b ^ c ^ d:
            break
    mapping = list(range(1 << n))
    mapping[a], mapping[b], mapping[c], mapping[d] = b, a, d, c
    p = Permutation(n, mapping)
    ((ab, cd),) = disjoint_pairs(p.mapping)
    return p, ab + cd


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_twisted_block_is_emitted_whole_then_the_final_network(n: int, monkeypatch):
    # One block: sigma, the tail's form, the centre and the inverse form,
    # none of them dropped or merged, then the CNOTs that undo sigma. The
    # form is a VTOF list, which is not its own inverse, so it must be
    # played whole on both sides of the centre.
    macros = handed_macros(monkeypatch)
    pivots, controls = (n, n - 1, n - 2), range(1, n - 1)
    for seed in range(4):
        macros.clear()
        p, states = one_twisted_pair(n, seed)
        c = synth_even(p)
        assert verify_realizes(c, p).passed, seed
        sigma, (forward, inverse), flips = conjugation_gates(states, pivots, n)
        assert forward and inverse, seed
        centre = negated_centre(controls, n, flips, n)
        frame = [1 << i for i in range(n)]
        for g in sigma:
            ctl, tgt = g.lines
            frame[n - tgt] ^= frame[n - ctl]
        undo = frame_inverse(frame, n)
        assert macros == [(*sigma, *forward, centre, *inverse, *undo)], seed
        assert realized(n, (*sigma, *undo)).is_identity(), seed


def test_twisted_tails_are_emitted_whole_around_every_centre(monkeypatch):
    # On random even targets each centre sits between one TWISTED_TAILS
    # form and its own inverse, or between two CNOTs, and no VTOF is
    # emitted anywhere else: tails are never split, dropped or merged
    # with a neighbouring block's. From n = 4 a centre has more controls
    # than a CNOT, so it can be told apart from sigma.
    macros = handed_macros(monkeypatch)
    total = 0
    for n in (4, 5, 6, 7):
        tails = {tail for tail, _ in toffoli._twisted_tails(n - 2, n - 1, n)}
        for seed in range(4):
            macros.clear()
            p = sample_permutation(n, "even", seed)
            twisted = sum(
                bool(a ^ b ^ c ^ d) for (a, b), (c, d) in disjoint_pairs(p.mapping)
            )
            synth_even(p)
            ((*gates,),) = macros
            centres = [i for i, g in enumerate(gates) if g.kind is CKNOT and g.k == n - 2]
            found = vtofs = 0
            for i in centres:
                before = next(
                    (j for j in range(i - 1, -1, -1) if gates[j].kind is CKNOT), -1
                )
                after = next(
                    (j for j in range(i + 1, len(gates)) if gates[j].kind is CKNOT),
                    len(gates),
                )
                tail = (tuple(gates[before + 1:i]), tuple(gates[i + 1:after]))
                if tail != ((), ()):
                    assert tail in tails, (n, seed, i)
                    found += 1
                vtofs += len(tail[0]) + len(tail[1])
            assert found == twisted, (n, seed)
            assert vtofs == sum(g.kind is GateKind.VTOF for g in gates), (n, seed)
            total += found
    assert total > 0


def random_invertible(n: int, rng: random.Random) -> list[int]:
    """Row masks of a random invertible n x n matrix over GF(2): a random
    matrix kept only when its rows reduce to full rank."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        basis: dict[int, int] = {}
        for v in rows:
            while v and v.bit_length() - 1 in basis:
                v ^= basis[v.bit_length() - 1]
            if not v:
                break
            basis[v.bit_length() - 1] = v
        else:
            return rows


@pytest.mark.parametrize("n", range(3, 11))
def test_final_network_undoes_any_invertible_frame(n: int):
    # The emitted CNOTs, played after the linear map whose row masks are
    # ``frame``, leave the identity: replayed as row additions on the
    # masks, and at n <= 6 on every state of the map's permutation.
    assert frame_inverse([1 << i for i in range(n)], n) == []
    rng = random.Random(n)
    for _ in range(20):
        frame = random_invertible(n, rng)
        gates = frame_inverse(frame, n)
        assert all(g.kind is CKNOT and g.k == 1 and g.controls[0] > 0 for g in gates)
        assert len(gates) <= n * n
        rows = list(frame)
        for g in gates:
            c, t = g.lines
            rows[n - t] ^= rows[n - c]
        assert rows == [1 << i for i in range(n)], frame
        if n <= 6:
            linear = Permutation(n, [
                sum(((row & s).bit_count() & 1) << i for i, row in enumerate(frame))
                for s in range(1 << n)
            ])
            assert linear.then(realized(n, gates)).is_identity(), frame


def test_cknot_lowering_is_kept_per_line_tuple():
    lines = [-1, 2, -3, 4, 5, 6]
    gates = synth_cknot(4, lines)
    assert synth_cknot(4, tuple(lines)) == gates
    assert synth_cknot(3, range(1, 6)) == synth_cknot(3, [1, 2, 3, 4, 5])
    assert synth_cknot(3, range(1, 6)) == synth_cknot(3, (1, 2, 3, 4, 5))
    assert toffoli._cknot_gates.cache_info().maxsize == 4096
    # A warm cache and a cold one emit the same bytes on both VTOF routes.
    targets = (
        (synth_general, sample_permutation(6, "any", seed=2)),
        (synth_even, sample_permutation(6, "even", seed=2)),
    )
    warm = [write_netlist(synth(p)) for synth, p in targets]
    toffoli._cknot_gates.cache_clear()
    assert toffoli._cknot_gates.cache_info().currsize == 0
    assert [write_netlist(synth(p)) for synth, p in targets] == warm


def test_traced_cknot_calls_count_distinct_macros_cold_or_warm(monkeypatch):
    # The benchmark tracer counts the calls to ``toffoli.synth_cknot`` that
    # no other traced call is inside of: one per distinct CKNOT that
    # ``lower_cknots`` lowers, per target. A cold lowering recurses through
    # the same binding and a warm one does not recurse; neither may
    # change the count.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    import revsynth

    macros = handed_macros(monkeypatch)
    targets = (
        (synth_general, sample_permutation(5, "any", seed=4)),
        (synth_even, sample_permutation(5, "even", seed=4)),
    )
    for cold in (True, False):
        if cold:
            toffoli._cknot_gates.cache_clear()
        macros.clear()
        tracer = Tracer()
        tracer.install(revsynth)
        try:
            for synth, p in targets:
                synth(p)
        finally:
            tracer.restore()
        distinct = sum(len({g for g in gates if g.kind is CKNOT}) for gates in macros)
        assert len(macros) == 2 and distinct > 0
        assert tracer.counts["toffoli.cknot_calls"] == distinct, cold


@pytest.mark.parametrize(
    "width, count",
    # Seed 0 at each width. Frozen: a change in emitted size updates these
    # and the README's gate-count table together.
    [(3, 28), (4, 292), (5, 1604), (6, 6866)],
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
