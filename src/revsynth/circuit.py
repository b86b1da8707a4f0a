"""Circuit model: gates, line roles, and exhaustive simulation.

Lines are numbered ``1 .. width`` and read MSB-first: line 1 carries the most
significant bit of a state integer, line ``width`` the least significant.
Gate lists apply in list order (first gate first).

Two primitive gates exist, each on three distinct lines:

* ``VTOF (control, invert, target)`` — flips ``invert`` unconditionally and
  XORs ``control AND invert`` (the pre-flip value) into ``target``.
* ``FRED (control, t1, t2)`` — swaps ``t1, t2`` when ``control`` is 1.

Two macro gates name the multi-controlled versions: ``CKNOT`` (k controls,
one target; ``k=0`` is NOT, ``k=1`` is CNOT) and ``CKSWAP`` (k controls, two
targets; ``k=0`` is SWAP, ``k=1`` has FRED semantics). A CKNOT control may
be negated, written as its negative line number: ``cknot((-1, 2), 3)``
flips line 3 when line 1 is 0 and line 2 is 1. The sign is part of the
gate's lines, so it takes part in equality, hashing and the netlist row.
No other line of any gate may be negative.

Simulation is always exhaustive over all valid states: all ``2**width``
states for ``circuit_to_permutation``, and for verification every state
with each ancilla line at its declared constant. The fast path is
bitsliced: one Python bignum per line holds that line's value across every
simulated state (bit ``s`` of the mask for line ``l`` is line ``l``'s value
in state ``s``; a constant line is 0 or all ones), so each gate costs a
handful of bignum operations regardless of width. The kernel unpacks each
gate as ``(kind, lines)``, compares the kind against module-level aliases
of the enum members (VTOF first), and reads each mask that the gate
rewrites into a local once, so no per-gate attribute or enum-class lookup
and no second read of a mask runs in the loop. Masks are read back with
one binary-string row per line, transposed into per-state integers.

A macro lowering takes its helpers from the lines, in ``helper_order``
(one rule over line roles), that ``unused_lines`` finds its gate leaves
free.

The gate factories only construct. A ``Circuit`` keeps its distinct gates
in first-seen order (``distinct_gates``) and the index of each gate among
them (``order``), validates each distinct gate once and records whether
all are primitive, so ``primitive_gate_count`` and ``is_primitive`` are
O(1) for the primitive netlists synthesis emits. A producer that holds
its gates as distinct gates plus an order builds its circuit with
``Circuit.from_table``, which hashes no gate: the gate list is
``play(table, order)``, one C-level pass. Producers number gates into the
table with a ``GateNumbering``, only the few distinct gates of each
lowered block, not every gate they emit; ``lower_table`` does that for a
lowering of each distinct macro. A circuit built from a gate list hashes
each gate once to find its distinct gates, and once more for ``order``
the first time that is read.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import WidthOutOfRangeError
from .permutation import MAX_WIDTH, Permutation


class GateKind(str, enum.Enum):
    VTOF = "VTOF"
    FRED = "FRED"
    CKNOT = "CKNOT"
    CKSWAP = "CKSWAP"


# Plain module globals: a class-level enum member lookup is several times
# slower than a global read, and the kernel compares one kind per gate.
VTOF, FRED, CKNOT, CKSWAP = (
    GateKind.VTOF, GateKind.FRED, GateKind.CKNOT, GateKind.CKSWAP
)
PRIMITIVE_KINDS = frozenset({VTOF, FRED})


class LineRole(str, enum.Enum):
    DATA = "data"
    ANCILLA0 = "ancilla0"
    ANCILLA1 = "ancilla1"
    BORROWED = "borrowed"


_HELPER_RANK = {
    LineRole.DATA: 0,
    LineRole.BORROWED: 1,
    LineRole.ANCILLA0: 2,
    LineRole.ANCILLA1: 2,
}


def helper_order(roles: Sequence[LineRole]) -> list[int]:
    """Lines ``1..len(roles)`` in the order a macro lowering takes its
    helpers from them: data before borrowed before ancilla, highest index
    first within a role. Full-width gates thus borrow the designated
    extra line while narrower gates borrow nearby data lines."""
    return sorted(
        range(1, len(roles) + 1), key=lambda l: (_HELPER_RANK[roles[l - 1]], -l)
    )


def unused_lines(order: Iterable[int], lines: Sequence[int]) -> tuple[int, ...]:
    """The lines of ``order`` that a gate on ``lines`` leaves free, in
    order; a negated control -l takes line l."""
    return tuple(l for l in order if l not in lines and -l not in lines)


class GateInstance(NamedTuple):
    """One gate: a kind plus its line tuple.

    Line tuple layout by kind: ``VTOF (control, invert, target)``;
    ``FRED (control, t1, t2)``; ``CKNOT (c1, ..., ck, target)``;
    ``CKSWAP (c1, ..., ck, t1, t2)``. A negative CKNOT control ``-l``
    fires when line ``l`` is 0.
    """

    kind: GateKind
    lines: tuple[int, ...]

    @property
    def k(self) -> int:
        """Control count of a macro gate (VTOF and FRED report 1)."""
        kind, lines = self
        if kind is CKNOT:
            return len(lines) - 1
        if kind is CKSWAP:
            return len(lines) - 2
        return 1

    @property
    def controls(self) -> tuple[int, ...]:
        """The control lines, a negated CKNOT control as its negative."""
        kind, lines = self
        if kind is CKNOT:
            return lines[:-1]
        if kind is CKSWAP:
            return lines[:-2]
        return lines[:1]

    @property
    def targets(self) -> tuple[int, ...]:
        kind, lines = self
        if kind is CKNOT:
            return lines[-1:]
        return lines[-2:]

    def validate(self) -> None:
        """Check a known kind, its line count and distinct 1-based integer
        lines, where only a CKNOT control may be negative (its absolute
        value is the line); the width bound is checked by the ``Circuit``."""
        kind, lines = self
        n = len(lines)
        if (kind is VTOF or kind is FRED) and n == 3:
            # Straight-line pass for the primitive gates synthesis emits; a
            # bad one falls through to the checks below for its message.
            a, b, c = lines
            if (
                type(a) is int and type(b) is int and type(c) is int
                and a != b and b != c and a != c
                and a >= 1 and b >= 1 and c >= 1
            ):
                return
        if kind is VTOF or kind is FRED:
            if n != 3:
                raise ValueError(f"{kind.value} needs 3 lines, got {n}")
        elif kind is CKNOT:
            if n < 1:
                raise ValueError("CKNOT needs at least a target line")
        elif kind is CKSWAP:
            if n < 2:
                raise ValueError("CKSWAP needs at least two target lines")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        # A bool or float line would print as a token that read_netlist
        # rejects and fail later in simulation.
        if not all(type(l) is int for l in lines):
            raise TypeError(f"gate lines must be integers, got {lines}")
        plain = (*map(abs, lines[:-1]), lines[-1]) if kind is CKNOT else lines
        if len(set(plain)) != n:
            raise ValueError(f"gate lines must be distinct, got {lines}")
        if min(plain) < 1:
            if min(plain) < 0:
                raise ValueError(
                    f"only a CKNOT control may be negative, got {kind.value} {lines}"
                )
            raise ValueError(f"lines are 1-based, got {lines}")


def vtof(control: int, invert: int, target: int) -> GateInstance:
    return GateInstance(VTOF, (control, invert, target))


def fred(control: int, t1: int, t2: int) -> GateInstance:
    return GateInstance(FRED, (control, t1, t2))


def cknot(controls: Iterable[int], target: int) -> GateInstance:
    return GateInstance(CKNOT, (*controls, target))


def ckswap(controls: Iterable[int], t1: int, t2: int) -> GateInstance:
    return GateInstance(CKSWAP, (*controls, t1, t2))


def not_gate(target: int) -> GateInstance:
    return cknot((), target)


def cnot(control: int, target: int) -> GateInstance:
    return cknot((control,), target)


def swap(t1: int, t2: int) -> GateInstance:
    return ckswap((), t1, t2)


def play(
    table: Sequence[GateInstance], order: Sequence[int]
) -> tuple[GateInstance, ...]:
    """The gate list of a table and its order: ``table[i]`` for each ``i``
    of ``order``, in one C-level pass (``itemgetter`` returns a bare item
    for one index and needs at least one)."""
    if len(order) > 1:
        return itemgetter(*order)(table)
    return tuple(table[i] for i in order)


class GateNumbering(dict):
    """Gate to its index in order of first lookup: a gate not seen before
    gets the next index. A hit is one C-level lookup, so a producer
    numbers a block with ``list(map(numbering.__getitem__, block))``; the
    keys, in order, are its table of distinct gates."""

    def __missing__(self, gate: GateInstance) -> int:
        self[gate] = index = len(self)
        return index


def gate_table(
    gates: Iterable[GateInstance],
) -> tuple[tuple[GateInstance, ...], tuple[int, ...]]:
    """The distinct gates of ``gates`` in first-seen order, and the index
    among them of each gate: the form ``Circuit.from_table`` takes."""
    index = GateNumbering()
    order = tuple(map(index.__getitem__, gates))
    return tuple(index), order


def lower_table(
    macros: Sequence[GateInstance],
    order: Sequence[int],
    lower: Callable[[GateInstance], Iterable[GateInstance]],
) -> tuple[tuple[GateInstance, ...], tuple[int, ...]]:
    """The table and order of the circuit that plays ``macros[i]`` for
    each ``i`` of ``order``, with each macro replaced by the gates
    ``lower(macro)`` gives.

    ``macros`` are distinct, in order of first use, as a circuit's
    ``distinct_gates`` are. Each is lowered once, in order, and the gates
    of its block are numbered once into the table, so the table is in
    first-seen order and the order plays each macro's block of numbers.
    """
    index = GateNumbering()
    blocks = [list(map(index.__getitem__, lower(m))) for m in macros]
    return tuple(index), tuple(chain.from_iterable(map(blocks.__getitem__, order)))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``width`` lines with per-line roles.

    Roles state the synthesis contract per line: ``data`` lines carry the
    permutation being realized; ``ancilla0``/``ancilla1`` lines are supplied
    at the stated constant and are restored to it; ``borrowed`` lines may
    start at either value and are restored to it.

    Construction keeps the distinct gates in first-seen order as
    ``distinct_gates`` (derived, so outside ``==``, ``hash`` and ``repr``)
    and validates each once (``GateInstance.validate`` and lines, negated
    controls by their absolute value, within ``width``); when several
    gates are bad, the error names the earliest.
    The same pass records whether every gate is primitive, which makes
    the primitive count of a primitive netlist its length.
    ``order`` holds the index of each gate in ``distinct_gates``.
    """

    width: int
    gates: tuple[GateInstance, ...]
    roles: tuple[LineRole, ...] = field(default=())
    distinct_gates: tuple[GateInstance, ...] = field(
        init=False, repr=False, compare=False
    )
    _all_primitive: bool = field(init=False, repr=False, compare=False)

    @classmethod
    def from_table(
        cls,
        width: int,
        table: Sequence[GateInstance],
        order: Sequence[int],
        roles: Sequence[LineRole] = (),
    ) -> Circuit:
        """The circuit that plays ``table[i]`` for each ``i`` of ``order``,
        for a producer that already holds its gates in that form.

        ``table`` must list distinct gates in order of first use, each
        used at least once, and ``order`` must hold indices
        ``0 .. len(table) - 1``: then ``table`` is the ``distinct_gates``
        that the gate-list constructor would find, and no gate is hashed.
        Each entry is validated once, as there, and
        ``gates[i] is distinct_gates[order[i]]``. An index outside that
        range raises ``ValueError``; an entry the order never plays is not
        looked for.
        """
        # Attributes are set in the order the gate-list constructor sets
        # them, so both kinds of circuit share one instance layout.
        circuit = cls.__new__(cls)
        setattr_ = object.__setattr__
        table = tuple(table)
        order = tuple(order)
        try:
            gates = play(table, order)
            # ``play`` refuses an index past either end of the table but
            # wraps a negative one round; an unsigned array refuses it in
            # one C-level pass, at a quarter of the cost of min and max.
            array("Q", order)
        except (IndexError, OverflowError):
            raise ValueError(
                f"gate order indices must lie in [0, {len(table) - 1}], "
                f"got {min(order)}..{max(order)}"
            ) from None
        setattr_(circuit, "width", width)
        setattr_(circuit, "gates", gates)
        setattr_(circuit, "roles", roles)
        setattr_(circuit, "distinct_gates", table)
        circuit.__post_init__()
        setattr_(circuit, "order", order)
        return circuit

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise WidthOutOfRangeError(
                f"circuit width must be in [1, {MAX_WIDTH}], got {self.width}"
            )
        # Role names become members; an unknown name raises ValueError.
        roles = tuple(map(LineRole, self.roles)) or (LineRole.DATA,) * self.width
        object.__setattr__(self, "roles", roles)
        if len(self.roles) != self.width:
            raise ValueError(
                f"{self.width} lines need {self.width} roles, got {len(self.roles)}"
            )
        # ``from_table`` sets the gates and their table before this runs.
        distinct = getattr(self, "distinct_gates", None)
        if distinct is None:
            object.__setattr__(self, "gates", tuple(self.gates))
            # Long gate lists repeat a few distinct gates; dict.fromkeys
            # keeps first-seen order, so the earliest bad gate is the one
            # reported.
            distinct = tuple(dict.fromkeys(self.gates))
        all_primitive = True
        for g in distinct:
            g.validate()
            kind, lines = g
            top = max(map(abs, lines)) if kind is CKNOT else max(lines)
            if top > self.width:
                raise ValueError(
                    f"gate {kind.value} {lines} exceeds width {self.width}"
                )
            if kind is not VTOF and kind is not FRED:
                all_primitive = False
        object.__setattr__(self, "distinct_gates", distinct)
        object.__setattr__(self, "_all_primitive", all_primitive)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The index in ``distinct_gates`` of each gate, so that
        ``gates[i] == distinct_gates[order[i]]``. ``from_table`` stores
        it; a circuit built from a gate list looks each gate up on first
        use."""
        return gate_table(self.gates)[1]

    def lines_with_role(self, role: LineRole) -> tuple[int, ...]:
        return tuple(
            l for l in range(1, self.width + 1) if self.roles[l - 1] is role
        )

    def role_counts(self) -> dict[str, int]:
        counts = {r.value: 0 for r in LineRole}
        for r in self.roles:
            counts[r.value] += 1
        return counts

    def primitive_gate_count(self) -> int:
        if self._all_primitive:
            return len(self.gates)
        return sum(1 for g in self.gates if g.kind in PRIMITIVE_KINDS)

    def is_primitive(self) -> bool:
        return self._all_primitive


def bit_of(state: int, line: int, width: int) -> int:
    """Value of ``line`` in ``state`` (MSB-first)."""
    return (state >> (width - line)) & 1


def apply_gate(gate: GateInstance, state: int, width: int) -> int:
    """Reference single-state semantics of one gate."""
    kind, lines = gate
    if kind is VTOF:
        c, i, t = lines
        if bit_of(state, c, width) and bit_of(state, i, width):
            state ^= 1 << (width - t)
        return state ^ (1 << (width - i))
    if kind is FRED:
        c, a, b = lines
        if bit_of(state, c, width) and bit_of(state, a, width) != bit_of(state, b, width):
            state ^= (1 << (width - a)) | (1 << (width - b))
        return state
    if kind is CKNOT:
        *cs, t = lines
        # A negative control -c fires when line c is 0.
        if all(bit_of(state, abs(c), width) == (c > 0) for c in cs):
            state ^= 1 << (width - t)
        return state
    *cs, a, b = lines
    if all(bit_of(state, c, width) for c in cs):
        if bit_of(state, a, width) != bit_of(state, b, width):
            state ^= (1 << (width - a)) | (1 << (width - b))
    return state


def simulate(circuit: Circuit, state: int) -> int:
    """Apply the whole gate list to one input state (reference path)."""
    for g in circuit.gates:
        state = apply_gate(g, state, circuit.width)
    return state


def initial_line_masks(width: int) -> list[int]:
    """Bitsliced initial values: ``masks[l]`` holds line ``l``'s value in
    every state (bit ``s`` = value in state ``s``); index 0 is unused."""
    size = 1 << width
    all_ones = (1 << size) - 1
    masks = [0] * (width + 1)
    for line in range(1, width + 1):
        period = 1 << (width - line)
        masks[line] = (all_ones // ((1 << period) + 1)) << period
    return masks


def apply_gates_bitsliced(
    gates: Iterable[GateInstance], masks: list[int], state_bits: int
) -> list[int]:
    """Apply a gate list to bitsliced line masks in place (and return them).

    The masks hold ``2**state_bits`` states, which need not be all states
    of the lines: a line held constant over them is a mask of 0 or all ones.
    """
    all_ones = (1 << (1 << state_bits)) - 1
    for kind, lines in gates:
        if kind is VTOF:
            c, i, t = lines
            mi = masks[i]
            masks[t] ^= masks[c] & mi
            masks[i] = mi ^ all_ones
        elif kind is FRED:
            c, a, b = lines
            ma = masks[a]
            mb = masks[b]
            d = masks[c] & (ma ^ mb)
            masks[a] = ma ^ d
            masks[b] = mb ^ d
        elif kind is CKNOT:
            *cs, t = lines
            prod = all_ones
            for c in cs:
                # A negative control -c fires where line c is 0.
                prod &= masks[c] if c > 0 else masks[-c] ^ all_ones
            masks[t] ^= prod
        else:
            *cs, a, b = lines
            prod = all_ones
            for c in cs:
                prod &= masks[c]
            d = prod & (masks[a] ^ masks[b])
            masks[a] ^= d
            masks[b] ^= d
    return masks


def final_line_masks(circuit: Circuit) -> list[int]:
    """Bitsliced output of the whole circuit on every state at once."""
    return apply_gates_bitsliced(
        circuit.gates, initial_line_masks(circuit.width), circuit.width
    )


def masks_to_mapping(masks: list[int], width: int) -> list[int]:
    """Read per-state output integers back out of bitsliced line masks.

    Each line's mask becomes one binary string with state 0 first; reading
    those rows column by column gives each state's bits, line 1 first.
    """
    size = 1 << width
    rows = [format(masks[l], f"0{size}b")[::-1] for l in range(1, width + 1)]
    return [int("".join(col), 2) for col in zip(*rows)]


def circuit_to_permutation(circuit: Circuit) -> Permutation:
    """The permutation the circuit induces on all ``2**width`` states.

    Roles are ignored here: this is the raw action on the full state space.
    """
    return Permutation(
        circuit.width, masks_to_mapping(final_line_masks(circuit), circuit.width)
    )
