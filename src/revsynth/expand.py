"""Macro expansion: lower CKNOT/CKSWAP macro gates to a primitive alphabet.

``expand_macros`` is the public lowering of macro netlists, such as the
CKNOT and CKSWAP rows that ``read_netlist`` accepts. No synthesis route
calls it. The VTOF alphabet is ``toffoli.lower_cknots``, and the FRED
alphabet lowers each CKSWAP with ``fredkin.ckswap_fred_with_ancilla``, so
each route's netlist is this expansion of its macro list.

The VTOF alphabet lowers CKNOT macros, negated controls included, through
the recursive helper-line construction; the FRED alphabet lowers CKSWAP
macros through one borrowed-pair lowering whose controls split in half
(``fredkin.ckswap_fred_with_ancilla``): 3, 10, 12, 42, 102, 162, 282 gates
at k=2..8 against a 0 ancilla, 2 + S(k-2) from k=4 with
S(k) = 2 S(ceil(k/2)) + 2 S(floor(k/2) + 1), and 5, 15, 17, 57, 119, 219,
401 against a 1, T1(k) = T1(k-2) + S(k-2) + 2 from k=4, which folds the
last two controls into a pair with the ancilla and adds a C^(k-2)SWAP tail.
Every CKSWAP, k=0 and k=1 included, goes through that one lowering, which
is built once per (k, ancilla value) on canonical lines and relabelled
onto each gate's lines.
Helper lines are chosen deterministically: among lines a gate does not
touch (``circuit.unused_lines``), prefer data, then borrowed, then
ancilla, and within a role class take the highest index first
(``circuit.helper_order``, computed once per call). ``free_lines`` applies
that rule to one gate. Each entry of the circuit's ``distinct_gates`` is
lowered once, with ``toffoli.synth_cknot`` or
``fredkin.ckswap_fred_with_ancilla`` looked up in their modules at call
time, so a wrapper installed there runs; ``circuit.lower_table`` numbers
the gates of each block once into a table of distinct primitive gates and
plays the blocks in the circuit's ``order``, and ``Circuit.from_table``
takes both.
"""

from __future__ import annotations

from . import fredkin
from .circuit import (
    CKSWAP, FRED, Circuit, GateInstance, LineRole, helper_order, lower_table,
    play, unused_lines,
)
from .errors import InsufficientLinesError, UnexpandableMacroError
from .toffoli import lower_cknots


def free_lines(circuit: Circuit, gate: GateInstance) -> list[int]:
    """Lines not touched by ``gate``, in helper-preference order (data
    before borrowed before ancilla; highest index first within a role).
    A negated CKNOT control touches its line."""
    return list(unused_lines(helper_order(circuit.roles), gate.lines))


def _fred_expander(circuit: Circuit):
    roles = circuit.roles
    order = helper_order(roles)
    anc0 = [l for l in order if roles[l - 1] is LineRole.ANCILLA0]
    anc1 = [l for l in order if roles[l - 1] is LineRole.ANCILLA1]
    lower_ckswap = fredkin.ckswap_fred_with_ancilla

    def expand(gate: GateInstance) -> tuple[GateInstance, ...]:
        kind, lines = gate
        if kind is FRED:
            return (gate,)
        if kind is not CKSWAP:
            raise UnexpandableMacroError(
                f"cannot expand {kind.value} over the FRED alphabet"
            )
        k = gate.k
        free0 = unused_lines(anc0, lines)
        free1 = unused_lines(anc1, lines)
        # An unconditional swap only moves unbalanced states, which no FRED
        # netlist can do on its own; it needs a known-1 line as control.
        if free0 and k != 0:
            ancilla, value = free0[0], 0
        elif free1:
            ancilla, value = free1[0], 1
        elif k == 1:
            ancilla, value = None, 0  # a bare FRED, no ancilla read
        elif k == 0:
            raise InsufficientLinesError(
                "unconditional SWAP needs a free ancilla line holding 1"
            )
        else:
            raise InsufficientLinesError(
                f"CKSWAP with {k} controls needs a free ancilla line to expand"
            )
        return play(*lower_ckswap(gate.controls, gate.targets, ancilla, value))

    return expand


def expand_macros(circuit: Circuit, alphabet: str) -> Circuit:
    """Rewrite ``circuit`` gate by gate into the named primitive alphabet
    (``"VTOF"`` or ``"FRED"``), preserving width and line roles.

    The expanded circuit agrees with the macro circuit on every state
    whose ancilla lines hold their declared values (helper constructions
    consume those known values); borrowed-line independence is preserved.

    Each entry of ``circuit.distinct_gates`` is lowered once per call and
    its block reused for every repeat: the lowering depends only on the
    gate and on the circuit's width and roles, which are fixed within the
    call, so the helper order is computed once per call too. The result is
    built from the blocks' distinct gates and the circuit's ``order``.
    """
    macros, order = circuit.distinct_gates, circuit.order
    if alphabet == "VTOF":
        table, order = lower_cknots(macros, order, helper_order(circuit.roles))
    elif alphabet == "FRED":
        table, order = lower_table(macros, order, _fred_expander(circuit))
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    return Circuit.from_table(circuit.width, table, order, circuit.roles)
