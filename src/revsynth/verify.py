"""Exhaustive simulation-based verification of emitted circuits.

Every check enumerates all valid states (verification is never sampled).
A circuit realizes a target permutation when, for every assignment of the
data lines — with each ancilla line held at its declared constant and the
borrowed lines quantified over both values — the data lines map through
the target and every non-data line returns to its starting value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, LineRole, apply_gates_bitsliced, initial_line_masks
from .errors import WidthMismatchError
from .permutation import Permutation


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
    be restored. All valid states are simulated at once, numbered by the
    data lines and then the borrowed lines, and each line's final mask is
    compared with its expected mask. On failure the report carries the
    first (lowest-input) counterexample.
    """
    data = c.lines_with_role(LineRole.DATA)
    n = len(data)
    if n != target.width:
        raise WidthMismatchError(
            f"circuit has {n} data lines, target has width {target.width}"
        )
    borrowed = c.lines_with_role(LineRole.BORROWED)
    b = len(borrowed)
    start = [0] * (c.width + 1)
    for line, mask in zip(data + borrowed, initial_line_masks(n + b)[1:]):
        start[line] = mask
    for line in c.lines_with_role(LineRole.ANCILLA1):
        start[line] = (1 << (1 << (n + b))) - 1
    # Column i of the images, highest input first, is data line i's output;
    # each of its bits stands for 2**b valid states, one per borrowed value.
    images = "".join(format(y, f"0{n}b") for y in reversed(target.mapping))
    repeat = str.maketrans({"0": "0" * (1 << b), "1": "1" * (1 << b)})
    expected = start.copy()
    for i, line in enumerate(data):
        expected[line] = int(images[i::n].translate(repeat), 2)
    final = apply_gates_bitsliced(c.gates, start.copy(), n + b)
    failing = 0
    for f, e in zip(final, expected):
        failing |= f ^ e
    counterexample = None
    if failing:
        # The lowest input in line order: keep the failing states with a 0
        # on each line in turn, wherever some remain.
        for mask in start:
            failing = failing & ~mask or failing
        s = failing.bit_length() - 1

        def row(masks: list[int]) -> str:
            return "".join(str(m >> s & 1) for m in masks[1:])

        counterexample = Counterexample(row(start), row(expected), row(final))
    return SynthesisReport(
        backend=backend,
        width=target.width,
        lines=c.width,
        roles_summary=c.role_counts(),
        primitive_gate_count=c.primitive_gate_count(),
        verdict="pass" if counterexample is None else "fail",
        counterexample=counterexample,
    )
