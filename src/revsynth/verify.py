"""Exhaustive simulation-based verification of emitted circuits.

Every check enumerates the full state space (verification is never
sampled). A circuit realizes a target permutation when, for every
assignment of the data lines — with each ancilla line held at its declared
constant and the borrowed lines quantified over both values — the data
lines map through the target and every non-data line returns to its
starting value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import (
    Circuit,
    LineRole,
    final_line_masks,
    masks_to_mapping,
)
from .errors import WidthMismatchError
from .permutation import Permutation
from .weights import bits


@dataclass(frozen=True)
class Counterexample:
    """First failing input of a verification run (full-width bit strings,
    line 1 leftmost)."""

    input: str
    expected: str
    actual: str


@dataclass(frozen=True)
class SynthesisReport:
    """Verification outcome plus the netlist's headline numbers.

    ``width`` is the data width (the target permutation's width);
    ``lines`` is the total line count of the circuit.
    """

    backend: str | None
    width: int
    lines: int
    roles_summary: dict[str, int]
    primitive_gate_count: int
    verdict: str
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def verify_realizes(
    c: Circuit, target: Permutation, backend: str | None = None
) -> SynthesisReport:
    """Check exhaustively that ``c`` realizes ``target`` on its data lines.

    Valid start states hold each ancilla line at its declared constant;
    borrowed lines range over both values. On such states the data lines
    must map through ``target`` and every ancilla and borrowed line must
    be restored. The verdict is computed by simulation of all states; on
    failure the report carries the first (lowest-input) counterexample.
    """
    data = c.lines_with_role(LineRole.DATA)
    if len(data) != target.width:
        raise WidthMismatchError(
            f"circuit has {len(data)} data lines, target has width {target.width}"
        )
    w = c.width
    size = 1 << w
    mapping = masks_to_mapping(final_line_masks(c), w)
    nd = len(data)
    data_shifts = [w - l for l in data]
    data_bits = 0
    for sh in data_shifts:
        data_bits |= 1 << sh
    aux_keep = (size - 1) ^ data_bits
    anc0 = 0
    for l in c.lines_with_role(LineRole.ANCILLA0):
        anc0 |= 1 << (w - l)
    anc1 = 0
    for l in c.lines_with_role(LineRole.ANCILLA1):
        anc1 |= 1 << (w - l)
    counterexample = None
    for s in range(size):
        if s & anc0 or (s & anc1) != anc1:
            continue
        d = 0
        for sh in data_shifts:
            d = (d << 1) | ((s >> sh) & 1)
        out = target(d)
        e = s & aux_keep
        for i, sh in enumerate(data_shifts):
            e |= ((out >> (nd - 1 - i)) & 1) << sh
        if mapping[s] != e:
            counterexample = Counterexample(
                input=bits(s, w), expected=bits(e, w), actual=bits(mapping[s], w)
            )
            break
    return SynthesisReport(
        backend=backend,
        width=target.width,
        lines=w,
        roles_summary=c.role_counts(),
        primitive_gate_count=c.primitive_gate_count(),
        verdict="pass" if counterexample is None else "fail",
        counterexample=counterexample,
    )

