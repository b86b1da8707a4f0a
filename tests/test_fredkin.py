"""Fredkin-alphabet constructions: class transpositions,
controlled-swap lowerings, and conservative synthesis."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from revsynth.circuit import (
    Circuit,
    GateKind,
    LineRole,
    bit_of,
    circuit_to_permutation,
    fred,
    simulate,
)
from revsynth.errors import (
    DepthLimitError,
    NotConservativeError,
    RangeError,
    WidthOutOfRangeError,
)
from revsynth.expand import expand_macros
from revsynth.fredkin import (
    _line_table,
    _merged_ckswap,
    _transposition_gates,
    ckswap_fred_with_ancilla,
    conservative_stage_plan,
    synth_ckswap,
    synth_conservative,
)
from revsynth.permutation import Permutation, sample_permutation
from revsynth.verify import verify_realizes
from revsynth.weights import weight_decompose

from conftest import ckswap_permutation


def random_weight_state(rng: random.Random, width: int, weight: int) -> int:
    return sum(1 << i for i in rng.sample(range(width), weight))


def test_synth_transposition_exact_on_its_class():
    # Every pair of every weight class at m=3..6: the fragment is one
    # C^(k-1)SWAP between a FRED walk and that walk reversed, acts as
    # exactly (a b) on the class, and fixes every lighter class (heavier
    # ones may scramble).
    for m in range(3, 7):
        classes = weight_decompose(Permutation.identity(m))
        for weight in range(1, m):
            states = classes[weight]
            lighter = [s for s in range(1 << m) if s.bit_count() < weight]
            for i, a in enumerate(states):
                for b in states[i + 1:]:
                    gates = _transposition_gates(a, b, m)
                    centre = len(gates) // 2
                    assert gates == gates[::-1]
                    assert gates[centre].kind is GateKind.CKSWAP
                    assert gates[centre].k == weight - 1
                    others = gates[:centre] + gates[centre + 1:]
                    assert all(g.kind is GateKind.FRED for g in others)
                    p = circuit_to_permutation(Circuit(m, gates))
                    for s in states:
                        assert p(s) == {a: b, b: a}.get(s, s)
                    assert all(p(s) == s for s in lighter)


def test_synth_transposition_gate_count():
    rng = random.Random(31)
    for _ in range(15):
        m = rng.randint(3, 7)
        weight = rng.randint(1, m - 1)
        a = random_weight_state(rng, m, weight)
        b = random_weight_state(rng, m, weight)
        if a == b:
            continue
        gates = _transposition_gates(a, b, m)
        d = (a ^ b).bit_count() // 2
        assert len(gates) == 2 * d - 1


def test_synth_transposition_adjacent_pair_is_single_gate():
    gates = _transposition_gates(0b11100, 0b11010, 5)
    assert len(gates) == 1
    g = gates[0]
    assert g.kind is GateKind.CKSWAP
    assert g.controls == (1, 2) and set(g.targets) == {3, 4}


@pytest.mark.parametrize("n", range(3, 13))
def test_line_table_lists_set_lines_ascending(n: int):
    # Line l carries bit n - l, so the lines of x ascend as its bits fall.
    table = _line_table(n)
    assert len(table) == 1 << n
    for x in range(1 << n):
        assert table[x] == tuple(
            l for l in range(1, n + 1) if x >> (n - l) & 1
        )


def test_line_table_is_not_built_at_import():
    code = (
        "import revsynth.fredkin as f; "
        "print(f._line_table.cache_info().currsize)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout == "0\n"


MERGED_SIZES = {1: 1, 2: 10, 3: 40, 4: 100, 5: 160, 6: 280, 7: 400}


def merged_size(k: int) -> int:
    """S(k) of the split lowering: a bare FRED at k=1, ten gates at k=2,
    then toggle, use, toggle, use on ceil(k/2) and floor(k/2)+1 controls."""
    if k <= 2:
        return {1: 1, 2: 10}[k]
    return 2 * merged_size((k + 1) // 2) + 2 * merged_size(k // 2 + 1)


@pytest.mark.parametrize("k", range(1, 8))
def test_synth_ckswap_borrowed_pair_both_regimes(k: int):
    width = k + 4
    lines = tuple(range(1, k + 3))
    want = ckswap_permutation(width, lines[:k], lines[k], lines[k + 1])
    # Both orientations of the pair argument; states cover both values.
    for pair in ((k + 3, k + 4), (k + 4, k + 3)):
        gates = _merged_ckswap(lines[:k], lines[k:], pair)
        assert len(gates) == merged_size(k) == MERGED_SIZES[k]
        assert all(g.kind is GateKind.FRED for g in gates)
        got = circuit_to_permutation(Circuit(width, tuple(gates)))
        for s in range(1 << width):
            px, py = bit_of(s, pair[0], width), bit_of(s, pair[1], width)
            if px == py and k > 1:
                # Equal pair: the lowering is the identity on every line.
                assert got(s) == s
            else:
                # Opposite pair (or a bare FRED): exact swap, pair and
                # controls restored.
                assert got(s) == want(s)


@pytest.mark.parametrize(
    "k, lines, gate_count",
    [
        (1, 3, 1), (2, 5, 3), (3, 6, 10), (4, 7, 12), (5, 8, 42),
        (6, 9, 102), (7, 10, 162), (8, 11, 282),
    ],
)
def test_synth_ckswap_exact_with_frozen_counts(k: int, lines: int, gate_count: int):
    c = synth_ckswap(k)
    assert c.width == lines
    assert c.is_primitive()
    assert c.primitive_gate_count() == gate_count
    if k >= 2:
        assert c.roles[-1] is LineRole.ANCILLA0
    want = ckswap_permutation(k + 2, tuple(range(1, k + 1)), k + 1, k + 2)
    report = verify_realizes(c, want)
    assert report.passed, report.counterexample


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("k", range(9))
def test_ckswap_lowering_is_the_canonical_one_relabelled(k: int, value: int):
    # Two scattered, non-ascending line choices per (k, value): each must
    # equal the lowering on canonical lines 1..k+3 (controls, targets,
    # ancilla) with every line renamed, gate for gate. The lowering is a
    # block: its distinct gates in order of first use, each played, and the
    # order in which they play.
    canonical = (tuple(range(1, k + 1)), (k + 1, k + 2), k + 3, value)
    rng = random.Random(100 * k + value)
    for _ in range(2):
        lines = rng.sample(range(1, 17), k + 3)
        controls, targets, ancilla = tuple(lines[:k]), tuple(lines[k:k + 2]), lines[-1]
        if k == 0 and value == 0:
            with pytest.raises(RangeError):
                ckswap_fred_with_ancilla(*canonical)
            with pytest.raises(RangeError):
                ckswap_fred_with_ancilla(controls, targets, ancilla, value)
            continue
        distinct, order = ckswap_fred_with_ancilla(*canonical)
        assert len(set(distinct)) == len(distinct)
        assert list(dict.fromkeys(order)) == list(range(len(distinct)))
        renamed = tuple(fred(*(lines[l - 1] for l in g.lines)) for g in distinct)
        assert ckswap_fred_with_ancilla(controls, targets, ancilla, value) == (
            renamed, order
        )
    if k == 1:
        # A bare FRED reads no ancilla line.
        assert ckswap_fred_with_ancilla((9,), (4, 2), None, value) == (
            (fred(9, 4, 2),), (0,)
        )


def test_ckswap_block_is_kept_per_line_choice():
    # A repeated line choice gets the very block of its first call, whether
    # its lines come as tuples or lists; another choice gets its own block.
    first = ckswap_fred_with_ancilla((5, 1, 7), (2, 6), 4, 1)
    assert ckswap_fred_with_ancilla((5, 1, 7), (2, 6), 4, 1) is first
    assert ckswap_fred_with_ancilla([5, 1, 7], [2, 6], 4, 1) is first
    other = ckswap_fred_with_ancilla((5, 1, 7), (2, 6), 4, 0)
    assert other is not first and other != first
    assert all(type(part) is tuple for part in first + other)
    # A call that raises raises again: no block stands in for it.
    for _ in range(2):
        with pytest.raises(RangeError):
            ckswap_fred_with_ancilla((), (2, 6), 4, 0)


ONE_ANCILLA_SIZES = {0: 1, 1: 1, 2: 5, 3: 15, 4: 17, 5: 57, 6: 119, 7: 219, 8: 401}


@pytest.mark.parametrize("k", range(9))
def test_ckswap_against_a_one_ancilla_is_exact(k: int):
    # Scattered, non-ascending lines with two idle lines beside them; every
    # state with the ancilla at 1 must see exactly the C^kSWAP, ancilla
    # and idle lines restored.
    width = k + 5
    lines = random.Random(300 + k).sample(range(1, width + 1), k + 3)
    controls, targets, ancilla = tuple(lines[:k]), tuple(lines[k:k + 2]), lines[-1]
    distinct, order = ckswap_fred_with_ancilla(controls, targets, ancilla, 1)
    gates = [distinct[i] for i in order]
    assert len(gates) == ONE_ANCILLA_SIZES[k]
    if k >= 4:
        assert len(gates) == ONE_ANCILLA_SIZES[k - 2] + merged_size(k - 2) + 2
    assert all(g.kind is GateKind.FRED for g in gates)
    got = circuit_to_permutation(Circuit(width, gates))
    want = ckswap_permutation(width, controls, *targets)
    for s in range(1 << width):
        if bit_of(s, ancilla, width):
            assert got(s) == want(s)


def test_synth_ckswap_bounds():
    with pytest.raises(RangeError):
        synth_ckswap(0)
    with pytest.raises(DepthLimitError):
        synth_ckswap(9)


def test_stage_plan_locks_classes_in_ascending_order():
    rng = random.Random(47)
    for _ in range(6):
        n = rng.randint(3, 6)
        p = sample_permutation(n, "conservative", seed=rng.getrandbits(32))
        plan = conservative_stage_plan(p)
        classes = weight_decompose(p)
        assert [k for k, _ in plan] == list(range(1, n))
        done: list = []
        for k, stage in plan:
            done.extend(stage)
            c = Circuit(n, tuple(done))
            # Classes up to k now match the target for good.
            for j in range(k + 1):
                for s in classes[j]:
                    assert simulate(c, s) == p(s)
        full = Circuit(n, tuple(done))
        for s in range(1 << n):
            assert simulate(full, s) == p(s)


def test_conservative_synthesis_verifies():
    rng = random.Random(53)
    for _ in range(6):
        p = sample_permutation(4, "conservative", seed=rng.getrandbits(32))
        c = synth_conservative(p)
        assert c.width == 5
        assert c.is_primitive()
        assert all(g.kind is GateKind.FRED for g in c.gates)
        report = verify_realizes(c, p)
        assert report.passed, report.counterexample


@pytest.mark.parametrize(
    "n, counts",
    [
        (4, [16, 18, 18, 18, 20]),
        (5, [84, 90, 92, 93, 95]),
        (6, [340, 347, 363, 363, 370]),
        (7, [1248, 1259, 1339, 1342, 1421]),
    ],
)
def test_conservative_synthesis_frozen_counts(n: int, counts: list[int]):
    got = []
    for seed in range(5):
        p = sample_permutation(n, "conservative", seed=seed)
        c = synth_conservative(p)
        assert verify_realizes(c, p).passed
        got.append(c.primitive_gate_count())
    assert sorted(got) == counts


def _one_hot_fixed(p: Permutation) -> Permutation:
    """``p`` with every weight-1 state fixed; p maps that class onto
    itself, so the rest stays a conservative bijection."""
    return Permutation(p.width, tuple(
        s if s.bit_count() == 1 else t for s, t in enumerate(p.mapping)
    ))


@pytest.mark.parametrize("n", range(3, 10))
def test_conservative_netlist_is_the_expanded_stage_plan(n: int):
    # The route lowers each centre as it assembles; expand_macros over the
    # plan's macro circuit is the oracle, gate for gate, on both ancilla
    # values.
    roles = set()
    for seed in range(5):
        sampled = sample_permutation(n, "conservative", seed=seed)
        for p in (sampled, _one_hot_fixed(sampled)):
            fixed = all(p(1 << i) == 1 << i for i in range(n))
            role = LineRole.ANCILLA0 if fixed else LineRole.ANCILLA1
            plan = tuple(
                g for _, stage in conservative_stage_plan(p) for g in stage
            )
            macro = Circuit(n + 1, plan, (LineRole.DATA,) * n + (role,))
            got = synth_conservative(p)
            assert got.roles == macro.roles
            assert got.gates == expand_macros(macro, "FRED").gates
            roles.add(role)
    assert roles == {LineRole.ANCILLA0, LineRole.ANCILLA1}


def test_conservative_identity_is_empty():
    c = synth_conservative(Permutation.identity(3))
    assert c.gates == ()


def test_conservative_fredkin_table_gets_zero_ancilla():
    # The 3-bit controlled swap fixes every one-hot state, so the extra
    # line can be pinned at 0.
    p = Permutation(3, (0, 1, 2, 3, 4, 6, 5, 7))
    c = synth_conservative(p)
    assert c.width == 4
    assert c.roles == (LineRole.DATA,) * 3 + (LineRole.ANCILLA0,)
    report = verify_realizes(c, p)
    assert report.passed, report.counterexample


def test_conservative_one_hot_movers_get_one_ancilla():
    # Swapping the one-hot states 001 and 010 is impossible next to a
    # 0-valued extra line: a global state with a single 1 is fixed by
    # every FRED gate (a 1-control has only 0 targets to swap, and a
    # 0-control never fires). The compiler pins the line at 1 instead.
    p = Permutation.from_cycle(3, (1, 2))
    c = synth_conservative(p)
    assert c.roles[-1] is LineRole.ANCILLA1
    report = verify_realizes(c, p)
    assert report.passed, report.counterexample


def test_fred_circuits_fix_weight_one_states():
    rng = random.Random(61)
    for _ in range(10):
        width = rng.randint(3, 5)
        gates = []
        for _ in range(rng.randint(1, 8)):
            a, b, c = rng.sample(range(1, width + 1), 3)
            gates.append(fred(a, b, c))
        circ = Circuit(width, tuple(gates))
        for s in [0] + [1 << i for i in range(width)]:
            assert simulate(circ, s) == s


def test_conservative_circuits_preserve_weight_everywhere():
    rng = random.Random(67)
    for _ in range(4):
        p = sample_permutation(4, "conservative", seed=rng.getrandbits(32))
        assert circuit_to_permutation(synth_conservative(p)).is_conservative()


def test_conservative_rejects_non_conservative_targets():
    with pytest.raises(NotConservativeError):
        synth_conservative(Permutation.from_cycle(3, (0, 1)))


def test_conservative_width_bounds():
    with pytest.raises(WidthOutOfRangeError):
        synth_conservative(Permutation.identity(2))
    with pytest.raises(WidthOutOfRangeError):
        synth_conservative(Permutation.identity(13))
