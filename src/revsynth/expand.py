"""Macro expansion: lower CKNOT/CKSWAP macro gates to a primitive alphabet.

The VTOF alphabet lowers CKNOT macros through the recursive helper-line
construction; the FRED alphabet lowers CKSWAP macros through one
borrowed-pair cascade paired on the last control and an ancilla line:
3, 10, 46, 190 gates at k=2..5 against a 0 ancilla, T(k) = 4 T(k-1) + 6
from k=4, and 5, 15, 61, 251 against a 1, which adds a C^(k-1)SWAP tail.
Helper lines are chosen deterministically: among lines a gate does not
touch, prefer data, then borrowed, then ancilla, and within a role class
take the highest index first. That rule keeps full-width gates on the
designated extra line while narrower gates borrow nearby data lines.
"""

from __future__ import annotations

from .circuit import Circuit, GateInstance, GateKind, LineRole, fred
from .errors import InsufficientLinesError, UnexpandableMacroError

_ROLE_PREFERENCE = {
    LineRole.DATA: 0,
    LineRole.BORROWED: 1,
    LineRole.ANCILLA0: 2,
    LineRole.ANCILLA1: 2,
}


def free_lines(circuit: Circuit, gate: GateInstance) -> list[int]:
    """Lines not touched by ``gate``, in helper-preference order (data
    before borrowed before ancilla; highest index first within a role)."""
    used = set(gate.lines)
    candidates = [l for l in range(1, circuit.width + 1) if l not in used]
    candidates.sort(key=lambda l: (_ROLE_PREFERENCE[circuit.roles[l - 1]], -l))
    return candidates


def _expand_vtof(circuit: Circuit, gate: GateInstance) -> tuple[GateInstance, ...]:
    if gate.kind is GateKind.VTOF:
        return (gate,)
    if gate.kind is not GateKind.CKNOT:
        raise UnexpandableMacroError(
            f"cannot expand {gate.kind.value} over the VTOF alphabet"
        )
    from .toffoli import synth_cknot

    pool = free_lines(circuit, gate)
    return synth_cknot(gate.k, gate.lines + tuple(pool))


def _expand_fred(circuit: Circuit, gate: GateInstance) -> tuple[GateInstance, ...]:
    if gate.kind is GateKind.FRED:
        return (gate,)
    if gate.kind is not GateKind.CKSWAP:
        raise UnexpandableMacroError(
            f"cannot expand {gate.kind.value} over the FRED alphabet"
        )
    from .fredkin import ckswap_fred_with_ancilla

    k = gate.k
    controls = gate.controls
    targets = gate.targets
    if k == 1:
        return (fred(controls[0], targets[0], targets[1]),)
    pool = free_lines(circuit, gate)
    anc0 = [l for l in pool if circuit.roles[l - 1] is LineRole.ANCILLA0]
    anc1 = [l for l in pool if circuit.roles[l - 1] is LineRole.ANCILLA1]
    if k == 0:
        # An unconditional swap only moves unbalanced states, which no FRED
        # netlist can do on its own; it needs a known-1 line as control.
        if not anc1:
            raise InsufficientLinesError(
                "unconditional SWAP needs a free ancilla line holding 1"
            )
        return (fred(anc1[0], targets[0], targets[1]),)
    if anc0:
        return ckswap_fred_with_ancilla(controls, targets, anc0[0], 0)
    if anc1:
        return ckswap_fred_with_ancilla(controls, targets, anc1[0], 1)
    raise InsufficientLinesError(
        f"CKSWAP with {k} controls needs a free ancilla line to expand"
    )


def expand_macros(circuit: Circuit, alphabet: str) -> Circuit:
    """Rewrite ``circuit`` gate by gate into the named primitive alphabet
    (``"VTOF"`` or ``"FRED"``), preserving width and line roles.

    The expanded circuit agrees with the macro circuit on every state
    whose ancilla lines hold their declared values (helper constructions
    consume those known values); borrowed-line independence is preserved.

    Each distinct macro gate is lowered once per call and its block reused
    for every repeat: the lowering depends only on the gate and on the
    circuit's width and roles, which are fixed within the call.
    """
    if alphabet == "VTOF":
        expander = _expand_vtof
    elif alphabet == "FRED":
        expander = _expand_fred
    else:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    lowered: dict[GateInstance, tuple[GateInstance, ...]] = {}
    gates: list[GateInstance] = []
    for gate in circuit.gates:
        block = lowered.get(gate)
        if block is None:
            block = lowered[gate] = expander(circuit, gate)
        gates.extend(block)
    return Circuit(circuit.width, tuple(gates), roles=circuit.roles)
