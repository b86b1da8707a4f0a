"""Gate semantics, circuit containers, and the two simulation routes."""

from __future__ import annotations

import random
import re

import pytest

from revsynth.circuit import (
    Circuit,
    GateInstance,
    GateKind,
    LineRole,
    apply_gate,
    bit_of,
    circuit_to_permutation,
    cknot,
    ckswap,
    cnot,
    final_line_masks,
    fred,
    initial_line_masks,
    masks_to_mapping,
    not_gate,
    simulate,
    swap,
    vtof,
)
from revsynth.errors import WidthOutOfRangeError
from revsynth.netlist import read_netlist, write_netlist

from conftest import cknot_permutation, random_primitive_circuit


def triple(state: int) -> tuple[int, int, int]:
    return (bit_of(state, 1, 3), bit_of(state, 2, 3), bit_of(state, 3, 3))


def pack(a: int, b: int, c: int) -> int:
    return (a << 2) | (b << 1) | c


# The target picks up the AND of the control with the invert line's value
# *before* the flip; all-zero input comes out (0, 1, 0).
VTOF_TABLE = {
    (0, 0, 0): (0, 1, 0),
    (0, 0, 1): (0, 1, 1),
    (0, 1, 0): (0, 0, 0),
    (0, 1, 1): (0, 0, 1),
    (1, 0, 0): (1, 1, 0),
    (1, 0, 1): (1, 1, 1),
    (1, 1, 0): (1, 0, 1),
    (1, 1, 1): (1, 0, 0),
}

FRED_TABLE = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (0, 0, 1),
    (0, 1, 0): (0, 1, 0),
    (0, 1, 1): (0, 1, 1),
    (1, 0, 0): (1, 0, 0),
    (1, 0, 1): (1, 1, 0),
    (1, 1, 0): (1, 0, 1),
    (1, 1, 1): (1, 1, 1),
}


def test_vtof_truth_table():
    g = vtof(1, 2, 3)
    for ins, outs in VTOF_TABLE.items():
        assert triple(apply_gate(g, pack(*ins), 3)) == outs


def test_fred_truth_table():
    g = fred(1, 2, 3)
    for ins, outs in FRED_TABLE.items():
        assert triple(apply_gate(g, pack(*ins), 3)) == outs


def test_vtof_twice_is_cnot():
    # The invert-line flips cancel and the two picked-up products XOR to
    # the control value alone.
    g = vtof(1, 2, 3)
    oracle = cnot(1, 3)
    for s in range(8):
        twice = apply_gate(g, apply_gate(g, s, 3), 3)
        assert twice == apply_gate(oracle, s, 3)


def test_macro_gates_are_involutions():
    rng = random.Random(3)
    width = 5
    gates = [
        fred(2, 4, 5),
        cknot((1, 3, 4), 2),
        ckswap((1, 2), 3, 5),
        not_gate(4),
        swap(1, 5),
    ]
    for g in gates:
        for _ in range(20):
            s = rng.randrange(1 << width)
            assert apply_gate(g, apply_gate(g, s, width), width) == s


def test_cknot_semantics():
    g = cknot((1, 2), 3)
    for s in range(8):
        out = apply_gate(g, s, 3)
        want_t = bit_of(s, 3, 3) ^ (bit_of(s, 1, 3) & bit_of(s, 2, 3))
        assert bit_of(out, 1, 3) == bit_of(s, 1, 3)
        assert bit_of(out, 2, 3) == bit_of(s, 2, 3)
        assert bit_of(out, 3, 3) == want_t


def test_ckswap_semantics():
    g = ckswap((2,), 1, 3)
    for s in range(8):
        out = apply_gate(g, s, 3)
        if bit_of(s, 2, 3):
            assert bit_of(out, 1, 3) == bit_of(s, 3, 3)
            assert bit_of(out, 3, 3) == bit_of(s, 1, 3)
        else:
            assert out == s


def test_gate_accessors():
    g = cknot((2, 4), 1)
    assert g.k == 2 and g.controls == (2, 4) and g.targets == (1,)
    h = ckswap((3,), 1, 2)
    assert h.k == 1 and h.controls == (3,) and h.targets == (1, 2)
    v = vtof(1, 2, 3)
    assert v.k == 1 and v.controls == (1,)
    assert not_gate(2).k == 0
    assert swap(1, 2).k == 0
    # A negated control keeps its sign: it is part of the gate.
    n = cknot((-2, 4), 1)
    assert n.k == 2 and n.controls == (-2, 4) and n.targets == (1,)
    assert n != g and len({n, g}) == 2


def test_gate_validation_errors():
    # The factories only construct; the Circuit a gate enters checks it.
    with pytest.raises(ValueError, match="distinct"):
        Circuit(3, (vtof(1, 1, 2),))
    with pytest.raises(ValueError, match="1-based"):
        Circuit(3, (fred(0, 1, 2),))
    with pytest.raises(ValueError):
        GateInstance(GateKind.VTOF, (1, 2)).validate()
    with pytest.raises(ValueError):
        GateInstance(GateKind.CKSWAP, (1,)).validate()
    with pytest.raises(ValueError, match="distinct"):
        Circuit(3, (cknot((1, 2), 2),))
    # A plain string is not a gate kind, even when it names one.
    with pytest.raises(ValueError, match="unknown gate kind 'VTOF'"):
        GateInstance("VTOF", (1, 2, 3)).validate()
    with pytest.raises(ValueError, match="unknown gate kind"):
        Circuit(3, (GateInstance("VTOF", (1, 2, 3)),))


def test_gate_lines_must_be_integers():
    # The circuit is the trust boundary: a float or bool line would report
    # is_primitive() and write "FRED 1.0 2 3", failing only in simulation.
    for bad in (
        GateInstance(GateKind.FRED, (1.0, 2, 3)),
        GateInstance(GateKind.VTOF, (2, True, 3)),
        GateInstance(GateKind.CKSWAP, (1, 2, 3.0)),
    ):
        with pytest.raises(TypeError, match="lines must be integers"):
            Circuit(3, (vtof(1, 2, 3), bad))
    # Text with such a line is refused on read, and the gates read_netlist
    # builds carry int lines, so they pass the circuit check.
    head = "lines 3\nrole 1 data\nrole 2 data\nrole 3 ancilla0\n"
    with pytest.raises(ValueError, match="netlist line 5"):
        read_netlist(head + "FRED 1.0 2 3\n")
    c = read_netlist(head + "FRED 1 2 3\nCKSWAP 1 3 1 2\nFRED 1 2 3\n")
    assert all(type(l) is int for g in c.gates for l in g.lines)
    assert c.gates == (fred(1, 2, 3), ckswap((3,), 1, 2), fred(1, 2, 3))
    assert read_netlist(write_netlist(c)) == c


# VTOF and FRED gates take a straight-line validation pass; every line
# position must still be checked by it.
_PRIMITIVE_KINDS = pytest.mark.parametrize("kind", [GateKind.VTOF, GateKind.FRED])


@_PRIMITIVE_KINDS
@pytest.mark.parametrize(
    "lines, message",
    [
        ((0, 2, 3), "lines are 1-based"),
        ((1, 0, 3), "lines are 1-based"),
        ((1, 2, 0), "lines are 1-based"),
        ((1, 1, 3), "gate lines must be distinct"),
        ((1, 2, 2), "gate lines must be distinct"),
        ((1, 2, 1), "gate lines must be distinct"),
    ],
)
def test_gate_validation_errors_at_each_position(kind, lines, message):
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {lines}")):
        Circuit(3, (vtof(1, 2, 3), GateInstance(kind, lines)))


@_PRIMITIVE_KINDS
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("bad_type", [float, bool])
def test_gate_lines_must_be_integers_at_each_position(kind, position, bad_type):
    lines = [1, 2, 3]
    lines[position] = bad_type(lines[position])
    with pytest.raises(TypeError, match="lines must be integers"):
        Circuit(3, (cnot(1, 2), GateInstance(kind, tuple(lines))))


def test_circuit_roles_default_to_data():
    c = Circuit(3, (vtof(1, 2, 3),))
    assert c.roles == (LineRole.DATA,) * 3
    assert c.lines_with_role(LineRole.DATA) == (1, 2, 3)
    assert c.role_counts() == {
        "data": 3, "ancilla0": 0, "ancilla1": 0, "borrowed": 0,
    }


def test_circuit_role_queries():
    roles = (LineRole.DATA, LineRole.BORROWED, LineRole.ANCILLA0)
    c = Circuit(3, (), roles)
    assert c.lines_with_role(LineRole.DATA) == (1,)
    assert c.lines_with_role(LineRole.BORROWED) == (2,)
    assert c.lines_with_role(LineRole.ANCILLA0) == (3,)
    assert c.role_counts()["borrowed"] == 1


def test_circuit_role_names_become_members():
    c = Circuit(3, (), ("data", "data", "borrowed"))
    assert c.roles == (LineRole.DATA, LineRole.DATA, LineRole.BORROWED)
    assert all(type(r) is LineRole for r in c.roles)
    assert c.lines_with_role(LineRole.DATA) == (1, 2)
    assert c.role_counts() == {
        "data": 2, "ancilla0": 0, "ancilla1": 0, "borrowed": 1,
    }
    with pytest.raises(ValueError):
        Circuit(3, (), ("data", "data", "dirty"))


def test_circuit_validation_errors():
    with pytest.raises(WidthOutOfRangeError):
        Circuit(0, ())
    with pytest.raises(WidthOutOfRangeError):
        Circuit(17, ())
    with pytest.raises(ValueError):
        Circuit(3, (), (LineRole.DATA,))
    with pytest.raises(ValueError):
        Circuit(2, (vtof(1, 2, 3),))
    # Each distinct gate is validated once; repeats must not change which
    # bad gate the error names. Many distinct bad gates make sure that a
    # hash-ordered pass would name another one.
    ok = vtof(1, 2, 3)
    with pytest.raises(ValueError, match=r"VTOF \(1, 2, 4\) exceeds width 3"):
        Circuit(3, (ok, ok, ok, vtof(1, 2, 4), vtof(1, 2, 5), vtof(1, 2, 4)))
    bad = tuple(vtof(1, 2, t) for t in range(4, 16))
    with pytest.raises(ValueError, match=r"VTOF \(1, 2, 4\) exceeds width 3"):
        Circuit(3, (ok, ok) + bad + bad)
    with pytest.raises(ValueError, match=r"distinct, got \(2, 2, 3\)"):
        Circuit(3, (ok, ok, GateInstance(GateKind.FRED, (2, 2, 3)),
                    GateInstance(GateKind.VTOF, (1, 2))))


def test_only_cknot_controls_may_be_negative():
    ok = vtof(1, 2, 3)
    for bad in (
        GateInstance(GateKind.VTOF, (-1, 2, 3)),
        GateInstance(GateKind.VTOF, (1, 2, -3)),
        GateInstance(GateKind.FRED, (1, -2, 3)),
        GateInstance(GateKind.CKSWAP, (-1, 2, 3)),
        GateInstance(GateKind.CKSWAP, (1, 2, -3)),
        cknot((1, 2), -3),
        cknot((), -1),
    ):
        with pytest.raises(ValueError, match="only a CKNOT control may be negative"):
            Circuit(3, (ok, bad))
    # -0 is 0, which is no line; a control and its negation are one line.
    with pytest.raises(ValueError, match=r"1-based, got \(0, 2, 3\)"):
        Circuit(3, (cknot((-0, 2), 3),))
    with pytest.raises(ValueError, match=r"distinct, got \(-1, 1, 3\)"):
        Circuit(3, (cknot((-1, 1), 3),))
    # The width bound reads a negated control's line.
    with pytest.raises(ValueError, match=r"CKNOT \(-4, 2, 3\) exceeds width 3"):
        Circuit(3, (ok, cknot((-4, 2), 3)))
    c = Circuit(4, (cknot((-4, 2), 3), cknot((-1, -2, -4), 3)))
    assert c.distinct_gates == c.gates and not c.is_primitive()


def random_signed_circuit(width: int, n_gates: int, rng: random.Random) -> Circuit:
    """CKNOT macros of any k, each control negated at random, mixed with
    VTOF gates and repeats."""
    gates = []
    for _ in range(n_gates):
        if rng.random() < 0.25:
            gates.append(vtof(*rng.sample(range(1, width + 1), 3)))
            continue
        *controls, target = rng.sample(range(1, width + 1), rng.randint(1, width))
        gates.append(cknot([rng.choice((1, -1)) * c for c in controls], target))
        if rng.random() < 0.2:
            gates.append(rng.choice(gates))
    return Circuit(width, tuple(gates))


def test_negated_controls_in_both_simulators():
    rng = random.Random(44)
    negated = 0
    for width in range(3, 9):
        for _ in range(4):
            c = random_signed_circuit(width, rng.randint(4, 16), rng)
            negated += sum(l < 0 for g in c.gates for l in g.lines)
            # The oracle composes one independently built mapping per gate.
            want = list(range(1 << width))
            for g in c.gates:
                if g.kind is GateKind.CKNOT:
                    step = cknot_permutation(width, g.controls, g.targets[0])
                else:
                    step = circuit_to_permutation(Circuit(width, (g,)))
                want = [step(y) for y in want]
            assert masks_to_mapping(final_line_masks(c), width) == want
            assert [simulate(c, s) for s in range(1 << width)] == want
            # The netlist carries the signs and reads back byte for byte.
            text = write_netlist(c)
            assert read_netlist(text) == c
            assert write_netlist(read_netlist(text)) == text
    assert negated > 50


def test_primitive_gate_count():
    c = Circuit(3, (vtof(1, 2, 3), cknot((1,), 2), fred(1, 2, 3)))
    assert c.primitive_gate_count() == 2
    assert not c.is_primitive()
    assert Circuit(3, (vtof(1, 2, 3),)).is_primitive()


def test_primitive_gate_count_with_repeats():
    # Repeats of both kinds: the count is exact for a mixed circuit and the
    # length for a primitive one.
    v, f, m, s = vtof(1, 2, 3), fred(3, 1, 4), cknot((1, 2), 4), ckswap((2,), 1, 3)
    mixed = Circuit(4, (v, m, v, f, m, s, f, v, s))
    assert mixed.primitive_gate_count() == 5
    assert not mixed.is_primitive()
    primitive = Circuit(4, (v, f, v, v, f))
    assert primitive.primitive_gate_count() == 5
    assert primitive.is_primitive()
    assert Circuit(4, (m, m)).primitive_gate_count() == 0
    empty = Circuit(4, ())
    assert empty.primitive_gate_count() == 0 and empty.is_primitive()
    # The recorded flag takes no part in equality.
    assert primitive == Circuit(4, primitive.gates)
    assert mixed != primitive


def test_distinct_gates_in_first_seen_order():
    v, f, m, s = vtof(1, 2, 3), fred(3, 1, 4), cknot((1, 2), 4), ckswap((2,), 1, 3)
    c = Circuit(4, (v, m, v, f, m, s, f, v, s), roles=("data",) * 3 + ("ancilla1",))
    assert c.distinct_gates == (v, m, f, s)
    assert Circuit(4, ()).distinct_gates == ()
    # Derived from the gates, so no part of equality, hashing or repr.
    same = Circuit(4, c.gates, roles=c.roles)
    object.__setattr__(same, "distinct_gates", ())
    assert same == c and hash(same) == hash(c) and repr(same) == repr(c)
    assert "distinct_gates" not in repr(c)
    back = read_netlist(write_netlist(c))
    assert back == c
    assert back.distinct_gates == c.distinct_gates


def test_initial_line_masks_frozen_width_two():
    # Bit s of masks[l] is line l's value in state s: line 1 is the high
    # bit (states 2 and 3), line 2 the low bit (states 1 and 3).
    masks = initial_line_masks(2)
    assert masks[1] == 0b1100
    assert masks[2] == 0b1010
    for line in (1, 2):
        for s in range(4):
            assert (masks[line] >> s) & 1 == bit_of(s, line, 2)


def test_masks_round_trip_identity():
    for width in (1, 2, 3, 4):
        masks = initial_line_masks(width)
        assert masks_to_mapping(masks, width) == list(range(1 << width))


def test_bitsliced_matches_per_state_simulation():
    rng = random.Random(77)
    for _ in range(25):
        width = rng.randint(3, 5)
        c = random_primitive_circuit(width, rng.randint(1, 12), rng)
        p = circuit_to_permutation(c)
        for s in range(1 << width):
            assert p(s) == simulate(c, s)


MIN_LINES = {GateKind.VTOF: 3, GateKind.FRED: 3, GateKind.CKNOT: 1, GateKind.CKSWAP: 2}


def random_mixed_circuit(width: int, n_gates: int, rng: random.Random) -> Circuit:
    """Primitive gates mixed with CKNOT and CKSWAP macros of any k that
    fits, with repeats, on scattered lines."""
    kinds = [k for k, n in MIN_LINES.items() if n <= width]
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind in (GateKind.VTOF, GateKind.FRED):
            n = 3
        else:
            n = rng.randint(MIN_LINES[kind], width)
        gates.append(GateInstance(kind, tuple(rng.sample(range(1, width + 1), n))))
        if rng.random() < 0.2:
            gates.append(rng.choice(gates))
    return Circuit(width, tuple(gates))


def test_bitsliced_matches_per_state_simulation_with_macros():
    rng = random.Random(2024)
    for width in range(3, 11):
        for _ in range(3):
            c = random_mixed_circuit(width, rng.randint(5, 20), rng)
            assert {g.kind for g in c.gates} - {GateKind.VTOF, GateKind.FRED}
            mapping = masks_to_mapping(final_line_masks(c), width)
            assert mapping == [simulate(c, s) for s in range(1 << width)]


def reference_masks_to_mapping(masks: list[int], width: int) -> list[int]:
    """Oracle: gather each state's output bit by bit."""
    mapping = [0] * (1 << width)
    for line in range(1, width + 1):
        for s in range(1 << width):
            mapping[s] |= ((masks[line] >> s) & 1) << (width - line)
    return mapping


def test_masks_to_mapping_round_trip_random_masks():
    rng = random.Random(5)
    for width in range(1, 13):
        c = random_mixed_circuit(width, 2 * width, rng)
        masks = final_line_masks(c)
        mapping = masks_to_mapping(masks, width)
        assert mapping == reference_masks_to_mapping(masks, width)
        # Slicing the mapping again gives back the masks.
        again = [0] * (width + 1)
        for s, out in enumerate(mapping):
            for line in range(1, width + 1):
                again[line] |= bit_of(out, line, width) << s
        assert again == masks


def test_final_masks_match_mapping():
    rng = random.Random(9)
    c = random_primitive_circuit(4, 8, rng)
    mapping = masks_to_mapping(final_line_masks(c), 4)
    assert mapping == [simulate(c, s) for s in range(16)]


def test_gates_apply_in_list_order():
    c = Circuit(2, (not_gate(1), swap(1, 2)))
    # 00 -> 10 (flip line 1) -> 01 (swap).
    assert simulate(c, 0b00) == 0b01
    reversed_c = Circuit(2, (swap(1, 2), not_gate(1)))
    # 00 -> 00 -> 10.
    assert simulate(reversed_c, 0b00) == 0b10
