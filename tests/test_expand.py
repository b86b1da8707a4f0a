"""Macro expansion into primitive alphabets: helper picking, alphabet
mismatches, and semantic preservation."""

from __future__ import annotations

import random

import pytest

from revsynth import fredkin, toffoli
from revsynth.circuit import (
    Circuit,
    GateInstance,
    GateKind,
    LineRole,
    circuit_to_permutation,
    cknot,
    ckswap,
    cnot,
    fred,
    simulate,
    swap,
    vtof,
)
from revsynth.errors import InsufficientLinesError, UnexpandableMacroError
from revsynth.even import synth_even
from revsynth.expand import expand_macros, free_lines
from revsynth.fredkin import ckswap_fred_with_ancilla, synth_conservative
from revsynth.permutation import sample_permutation
from revsynth.toffoli import synth_cknot, synth_general


def all_data(width: int, *gates):
    return Circuit(width, tuple(gates))


def test_free_lines_prefer_data_then_borrowed_then_ancilla():
    roles = (
        LineRole.DATA,
        LineRole.DATA,
        LineRole.BORROWED,
        LineRole.ANCILLA0,
        LineRole.DATA,
    )
    c = Circuit(5, (cnot(1, 2),), roles)
    # Untouched lines: 3 (borrowed), 4 (ancilla), 5 (data).
    assert free_lines(c, c.gates[0]) == [5, 3, 4]


def test_free_lines_highest_index_first_within_role():
    c = all_data(5, cnot(2, 4))
    assert free_lines(c, c.gates[0]) == [5, 3, 1]


def test_expand_vtof_gate_counts():
    counts = {
        all_data(3, cnot(1, 2)): 2,
        all_data(3, cknot((), 1)): 4,
        all_data(3, cknot((1, 2), 3)): 5,
        all_data(5, cknot((1, 2, 3), 4)): 20,
    }
    for c, want in counts.items():
        out = expand_macros(c, "VTOF")
        assert len(out.gates) == want
        assert all(g.kind is GateKind.VTOF for g in out.gates)
        assert out.width == c.width and out.roles == c.roles


def test_expand_vtof_preserves_permutation():
    rng = random.Random(13)
    kinds = ["cnot", "not", "cknot2", "cknot3"]
    for _ in range(15):
        # A 3-control macro occupies 4 lines and borrows one more.
        width = rng.randint(5, 6)
        gates = []
        for _ in range(rng.randint(1, 5)):
            lines = rng.sample(range(1, width + 1), 4)
            kind = rng.choice(kinds)
            if kind == "cnot":
                gates.append(cnot(lines[0], lines[1]))
            elif kind == "not":
                gates.append(cknot((), lines[0]))
            elif kind == "cknot2":
                gates.append(cknot(tuple(lines[:2]), lines[2]))
            else:
                gates.append(cknot(tuple(lines[:3]), lines[3]))
        macro = all_data(width, *gates)
        out = expand_macros(macro, "VTOF")
        assert circuit_to_permutation(out).mapping == (
            circuit_to_permutation(macro).mapping
        )


def test_expand_vtof_negated_controls():
    # Each lowering is exact, and a negated control's line is never a helper.
    c = all_data(5, cknot((-1, 2, -3), 4), cknot((-5,), 1), cknot((-2, -4), 5))
    assert free_lines(c, c.gates[0]) == [5]
    out = expand_macros(c, "VTOF")
    assert len(out.gates) == 20 + 6 + 5
    assert circuit_to_permutation(out) == circuit_to_permutation(c)


def test_expand_vtof_keeps_existing_primitives():
    c = all_data(3, vtof(1, 2, 3))
    assert expand_macros(c, "VTOF").gates == c.gates


def test_expand_vtof_rejects_swap_family():
    with pytest.raises(UnexpandableMacroError):
        expand_macros(all_data(3, fred(1, 2, 3)), "VTOF")
    with pytest.raises(UnexpandableMacroError):
        expand_macros(all_data(3, ckswap((1,), 2, 3)), "VTOF")


def test_expand_vtof_insufficient_width():
    # A full-width CKNOT leaves no helper line at all.
    with pytest.raises(InsufficientLinesError):
        expand_macros(all_data(4, cknot((1, 2, 3), 4)), "VTOF")


def test_expand_fred_single_control_is_one_gate():
    out = expand_macros(all_data(3, ckswap((1,), 2, 3)), "FRED")
    assert out.gates == (fred(1, 2, 3),)


def test_expand_fred_keeps_existing_primitives():
    c = all_data(3, fred(1, 2, 3))
    assert expand_macros(c, "FRED").gates == c.gates


def test_expand_fred_rejects_not_family():
    with pytest.raises(UnexpandableMacroError):
        expand_macros(all_data(3, vtof(1, 2, 3)), "FRED")
    with pytest.raises(UnexpandableMacroError):
        expand_macros(all_data(3, cknot((1,), 2)), "FRED")


def test_expand_fred_unconditional_swap_needs_one_line():
    roles1 = (LineRole.DATA, LineRole.DATA, LineRole.ANCILLA1)
    out = expand_macros(Circuit(3, (swap(1, 2),), roles1), "FRED")
    assert out.gates == (fred(3, 1, 2),)
    roles0 = (LineRole.DATA, LineRole.DATA, LineRole.ANCILLA0)
    with pytest.raises(InsufficientLinesError, match="free ancilla line holding 1"):
        expand_macros(Circuit(3, (swap(1, 2),), roles0), "FRED")
    # A 0 ancilla is no use to a SWAP, even where it would be preferred.
    roles01 = (LineRole.DATA, LineRole.ANCILLA1, LineRole.DATA, LineRole.ANCILLA0)
    out = expand_macros(Circuit(4, (swap(3, 1),), roles01), "FRED")
    assert out.gates == (fred(2, 3, 1),)


@pytest.mark.parametrize("value", [0, 1])
def test_expand_fred_multi_control_against_either_ancilla(value: int):
    role = LineRole.ANCILLA0 if value == 0 else LineRole.ANCILLA1
    sizes = {0: (3, 10, 12, 42), 1: (5, 15, 17, 57)}[value]
    for k, size in zip(range(2, 6), sizes):
        width = k + 3
        roles = (LineRole.DATA,) * (k + 2) + (role,)
        c = Circuit(width, (ckswap(tuple(range(1, k + 1)), k + 1, k + 2),), roles)
        out = expand_macros(c, "FRED")
        assert all(g.kind is GateKind.FRED for g in out.gates)
        assert len(out.gates) == size
        # Exact agreement on every state whose ancilla holds its declared
        # value, ancilla restored included.
        for s in range(1 << width):
            if (s & 1) != value:
                continue
            assert simulate(out, s) == simulate(c, s)


def test_expand_fred_multi_control_needs_an_ancilla():
    with pytest.raises(InsufficientLinesError, match="2 controls needs a free ancilla"):
        expand_macros(all_data(5, ckswap((1, 2), 3, 4)), "FRED")


def test_expand_unknown_alphabet():
    with pytest.raises(ValueError):
        expand_macros(all_data(2, cnot(1, 2)), "TOFF")


def _reference_lowering(circuit: Circuit, gate, alphabet: str):
    """One gate lowered straight from ``free_lines``, with no caching and
    no per-call precomputation."""
    if gate.kind in (GateKind.VTOF, GateKind.FRED):
        return (gate,)
    pool = free_lines(circuit, gate)
    if alphabet == "VTOF":
        return synth_cknot(gate.k, gate.lines + tuple(pool))
    roles = circuit.roles
    anc0 = [l for l in pool if roles[l - 1] is LineRole.ANCILLA0]
    anc1 = [l for l in pool if roles[l - 1] is LineRole.ANCILLA1]
    if anc0 and gate.k != 0:
        ancilla, value = anc0[0], 0
    elif anc1:
        ancilla, value = anc1[0], 1
    elif gate.k == 1:
        ancilla, value = None, 0
    else:
        raise InsufficientLinesError("no ancilla for this CKSWAP")
    distinct, order = ckswap_fred_with_ancilla(
        gate.controls, gate.targets, ancilla, value
    )
    return tuple(distinct[i] for i in order)


@pytest.mark.parametrize("alphabet", ["VTOF", "FRED"])
def test_expand_matches_per_gate_helper_choice(alphabet: str):
    """``expand_macros`` picks helpers once per call; every gate must still
    get the lowering that ``free_lines`` defines for it, on circuits that
    mix every role and whose gates touch ancilla lines too, and whose
    CKNOTs negate some controls."""
    rng = random.Random(29 if alphabet == "VTOF" else 31)
    primitive = fred if alphabet == "FRED" else vtof
    roles_pool = list(LineRole)
    for _ in range(40):
        width = rng.randint(4, 8)
        roles = tuple(rng.choice(roles_pool) for _ in range(width))
        gates = []
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.2:
                gates.append(primitive(*rng.sample(range(1, width + 1), 3)))
                continue
            targets = 1 if alphabet == "VTOF" else 2
            k = rng.randint(0, width - targets)
            lines = rng.sample(range(1, width + 1), k + targets)
            if alphabet == "VTOF":
                # Negated controls take their lines out of the helper pool.
                signs = [rng.choice((1, -1)) for _ in range(k)]
                gate = cknot([s * l for s, l in zip(signs, lines)], lines[k])
            else:
                gate = ckswap(lines[:k], lines[k], lines[k + 1])
            single = Circuit(width, (gate,), roles)
            try:
                _reference_lowering(single, gate, alphabet)
            except InsufficientLinesError:
                with pytest.raises(InsufficientLinesError):
                    expand_macros(single, alphabet)
                continue
            gates.append(gate)
        # Repeats exercise the per-call cache of lowered blocks.
        gates += rng.sample(gates, min(3, len(gates)))
        macro = Circuit(width, tuple(gates), roles)
        want = [g for gate in macro.gates
                for g in _reference_lowering(macro, gate, alphabet)]
        assert list(expand_macros(macro, alphabet).gates) == want


@pytest.mark.parametrize(
    "synth, kind, width",
    [(synth_general, "any", 4), (synth_even, "even", 4),
     (synth_conservative, "conservative", 6)],
)
def test_each_distinct_gate_is_validated_once_per_circuit(
    synth, kind: str, width: int, monkeypatch
):
    # The gate factories check nothing, and no route builds a macro
    # circuit: one synthesis run constructs one Circuit, its netlist, from
    # a table of distinct gates plus an order, and validates each table
    # entry once, in first-seen order.
    p = sample_permutation(width, kind, seed=3)
    built = []
    real_init = Circuit.__post_init__

    def counted_init(circuit):
        built.append(circuit)
        real_init(circuit)

    calls = []
    real_validate = GateInstance.validate

    def counted(gate):
        calls.append(gate)
        real_validate(gate)

    monkeypatch.setattr(Circuit, "__post_init__", counted_init)
    monkeypatch.setattr(GateInstance, "validate", counted)
    netlist = synth(p)
    assert len(built) == 1 and built[0] is netlist
    assert len(calls) == len(set(netlist.gates))
    assert calls == list(netlist.distinct_gates)
    # The order was handed over, not looked up from the gates.
    assert "order" in vars(netlist)


@pytest.mark.parametrize(
    "synth, kind, width, alphabet, owner, name, macro_kind, gate_lines",
    [
        (synth_general, "any", 4, "VTOF", toffoli, "synth_cknot",
         GateKind.CKNOT, lambda k, lines: lines[:k + 1]),
        (synth_even, "even", 4, "VTOF", toffoli, "synth_cknot",
         GateKind.CKNOT, lambda k, lines: lines[:k + 1]),
        (synth_conservative, "conservative", 6, "FRED", fredkin,
         "ckswap_fred_with_ancilla", GateKind.CKSWAP,
         lambda controls, targets, *_: (*controls, *targets)),
    ],
    ids=["VTOF", "VTOF-even", "FRED"],
)
def test_each_distinct_macro_gate_is_lowered_once(
    synth, kind, width, alphabet, owner, name, macro_kind, gate_lines,
    monkeypatch,
):
    # The lowering is looked up through its module at call time; calls
    # that a lowering makes to itself are not counted. The VTOF routes
    # pass their macro list to toffoli.lower_cknots as distinct macros in
    # first-seen order plus an order, and it lowers each distinct CKNOT
    # once, in first-seen order; its table and order are the netlist's.
    # The conservative route lowers each C^kSWAP centre of its stage plan
    # once, in plan order, as it assembles the netlist. On every route,
    # expand_macros over the macro circuit gives the same netlist, with
    # the same distinct gates and order.
    p = sample_permutation(width, kind, seed=3)
    macros = []
    real_lower_cknots = toffoli.lower_cknots

    def keep(distinct, order, helpers):
        result = real_lower_cknots(distinct, order, helpers)
        macros.append((tuple(distinct), tuple(order), result))
        return result

    lowered = []
    active = []
    real_lower = getattr(owner, name)

    def spy(*args):
        if not active:
            lowered.append(gate_lines(*args))
        active.append(args)
        try:
            return real_lower(*args)
        finally:
            active.pop()

    monkeypatch.setattr(toffoli, "lower_cknots", keep)
    monkeypatch.setattr(owner, name, spy)
    got = synth(p)
    if alphabet == "FRED":
        assert macros == []
        plan = tuple(
            g for _, stage in fredkin.conservative_stage_plan(p) for g in stage
        )
        macro = Circuit(width + 1, plan, got.roles)
        want = [g.lines for g in macro.gates if g.kind is macro_kind]
    else:
        ((distinct, order, (table, played)),) = macros
        gates = tuple(distinct[i] for i in order)
        macro = Circuit(got.width, gates, got.roles)
        assert distinct == macro.distinct_gates and order == macro.order
        assert len(macro.gates) > len(macro.distinct_gates)
        want = [g.lines for g in macro.distinct_gates if g.kind is macro_kind]
        assert table == got.distinct_gates and played == got.order
    assert want and lowered == want
    expanded = expand_macros(macro, alphabet)
    assert expanded == got
    assert expanded.distinct_gates == got.distinct_gates
    assert expanded.order == got.order
