"""``Circuit.from_table``: a circuit handed its distinct gates plus an
order is the circuit the gate-list constructor builds from the gates it
plays, on every route and for every expansion."""

from __future__ import annotations

import re

import pytest

from revsynth import (
    sample_permutation,
    synth_conservative,
    synth_even,
    synth_general,
    write_netlist,
)
from revsynth.circuit import (
    Circuit,
    GateInstance,
    GateKind,
    LineRole,
    cknot,
    fred,
    gate_table,
    lower_table,
    vtof,
)
from revsynth.errors import WidthOutOfRangeError
from revsynth.expand import expand_macros
from revsynth.fredkin import conservative_stage_plan, synth_ckswap

V, F, M = vtof(1, 2, 3), fred(3, 1, 4), cknot((-1, 2), 4)
ROLES = (LineRole.DATA,) * 3 + (LineRole.ANCILLA0,)


def assert_same_as_gate_list(c: Circuit) -> None:
    """``c`` against ``Circuit(width, gates, roles)``: equal, with the same
    distinct gates, order, primitive count and netlist bytes, and each
    gate the very table entry its index names."""
    ref = Circuit(c.width, c.gates, c.roles)
    assert c == ref
    assert c.distinct_gates == ref.distinct_gates
    assert c.order == ref.order
    assert len(c.order) == len(c.gates)
    assert set(c.order) == set(range(len(c.distinct_gates)))
    assert all(g is c.distinct_gates[i] for g, i in zip(c.gates, c.order))
    assert c.is_primitive() == ref.is_primitive()
    assert c.primitive_gate_count() == ref.primitive_gate_count()
    assert write_netlist(c) == write_netlist(ref)


@pytest.mark.parametrize(
    "table, order",
    [((), ()), ((V,), (0,)), ((V, F, M), (0, 1, 0, 2, 2, 1, 0))],
    ids=["empty", "one", "many"],
)
def test_from_table_plays_its_order(table, order):
    c = Circuit.from_table(4, table, order, ROLES)
    assert type(c.gates) is tuple
    assert c.gates == tuple(table[i] for i in order)
    assert c.roles == ROLES and c.width == 4
    assert c.distinct_gates == table and c.order == order
    assert_same_as_gate_list(c)
    # Set in the gate-list constructor's order, so both share one layout.
    assert list(vars(c)) == [*vars(Circuit(4, c.gates, ROLES)), "order"]
    # Lists are taken too, and stored as tuples; roles may be names.
    again = Circuit.from_table(4, list(table), list(order), [r.value for r in ROLES])
    assert again == c and again.order == order and type(again.order) is tuple


def test_gate_list_circuit_finds_its_order_on_first_use():
    c = Circuit(4, (V, M, V, F, M))
    assert "order" not in vars(c)
    assert c.order == (0, 1, 0, 2, 1)
    assert "order" in vars(c)
    # Derived, so outside equality, hashing and repr.
    table = Circuit.from_table(4, c.distinct_gates, c.order)
    assert table == c and hash(table) == hash(c) and repr(table) == repr(c)
    assert "order" not in repr(c)
    assert gate_table(c.gates) == (c.distinct_gates, c.order)
    assert gate_table(()) == ((), ())


def test_lower_table_lowers_each_macro_once_and_plays_the_order():
    lowered = []

    def lower(macro):
        lowered.append(macro)
        return {M: (V, F, V), V: (V,)}[macro]

    table, order = lower_table((M, V), (0, 1, 0), lower)
    assert lowered == [M, V]
    assert table == (V, F) and order == (0, 1, 0, 0, 0, 1, 0)
    assert lower_table((), (), lower) == ((), ())


@pytest.mark.parametrize(
    "bad",
    [
        vtof(1, 1, 2),
        fred(0, 1, 2),
        fred(1, 2, 5),
        cknot((-1, 2), -3),
        cknot((-5, 2), 3),
        GateInstance(GateKind.FRED, (1, 2)),
        GateInstance(GateKind.VTOF, (1, 2, 4.0)),
        GateInstance(GateKind.CKSWAP, (1,)),
        GateInstance("NOPE", (1, 2, 3)),
    ],
    ids=repr,
)
def test_bad_table_entry_is_refused_as_the_gate_list_refuses_it(bad):
    with pytest.raises(Exception) as want:
        Circuit(4, (V, bad, V, bad))
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        Circuit.from_table(4, (V, bad), (0, 1, 0, 1))
    # With two bad entries, the earliest is named, as for a gate list.
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        Circuit.from_table(4, (bad, vtof(1, 1, 1)), (0, 1))


def test_from_table_checks_width_and_roles_like_the_gate_list():
    with pytest.raises(WidthOutOfRangeError, match=r"\[1, 16\], got 17"):
        Circuit.from_table(17, (V,), (0,))
    with pytest.raises(ValueError, match="4 lines need 4 roles, got 2"):
        Circuit.from_table(4, (V,), (0,), ("data", "data"))
    with pytest.raises(ValueError, match="'spare'"):
        Circuit.from_table(3, (V,), (0,), ("data", "data", "spare"))
    # An index outside the table has no gate to play; a negative one
    # would wrap round to a real entry, so it is refused too.
    for order in ((2,), (0, 2), (0, -1), (-2, 1, 0), (1, -3)):
        with pytest.raises(ValueError, match=r"^gate order indices must lie in \[0, 1\]"):
            Circuit.from_table(4, (V, F), order)
    with pytest.raises(ValueError, match=r"lie in \[0, -1\], got 0\.\.0$"):
        Circuit.from_table(4, (), (0,))


ROUTES = [
    (synth_general, "any"),
    (synth_even, "even"),
    (synth_conservative, "conservative"),
]


@pytest.mark.parametrize("synth, kind", ROUTES, ids=["general", "even", "conservative"])
def test_route_netlists_match_the_gate_list_constructor(synth, kind: str):
    # n = 3..9: the VTOF routes lower C^1NOT to C^8NOT centres here and the
    # conservative route C^0SWAP to C^7SWAP ones.
    for n in range(3, 10):
        for seed in range(3):
            c = synth(sample_permutation(n, kind, seed=seed))
            # The route handed its order over; it was not looked up.
            assert "order" in vars(c)
            assert_same_as_gate_list(c)


def test_expansions_match_the_gate_list_constructor():
    for n in range(3, 8):
        p = sample_permutation(n, "conservative", seed=n)
        roles = synth_conservative(p).roles
        plan = tuple(g for _, stage in conservative_stage_plan(p) for g in stage)
        fred_macro = Circuit(n + 1, plan, roles)
        assert_same_as_gate_list(expand_macros(fred_macro, "FRED"))
        cknots = tuple(cknot(g.controls, g.targets[0]) for g in plan[:12])
        vtof_macro = Circuit(n + 1, cknots + cknots[::-1], (LineRole.DATA,) * (n + 1))
        assert_same_as_gate_list(expand_macros(vtof_macro, "VTOF"))
    for k in range(1, 9):
        assert_same_as_gate_list(synth_ckswap(k))
