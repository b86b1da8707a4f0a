"""Plain-text netlist serialization.

Format, one statement per line, ``#`` starting a comment anywhere::

    lines <width>
    role <line-index> data|ancilla0|ancilla1|borrowed   (one per line, 1..width)
    VTOF <control> <invert> <target>
    FRED <control> <t1> <t2>
    CKNOT <k> <c1> ... <ck> <target>
    CKSWAP <k> <c1> ... <ck> <t1> <t2>

Every number is ASCII decimal, and the width lies in ``1..MAX_WIDTH``. A
CKNOT control that fires on 0 is written with a leading ``-``, as in
``CKNOT 2 -1 2 3``; no other field takes a sign. Gates apply in file
order. ``write_netlist`` followed by ``read_netlist`` reproduces the
circuit exactly.

A netlist repeats a few distinct gates many times, so ``write_netlist``
formats each entry of the circuit's ``distinct_gates`` once and
``read_netlist`` reads each distinct row once, in order of first
appearance. That order is file order for every row that sets the width or
a role, because a repeated ``lines`` or ``role`` row is always an error;
what repeats are gate, blank and comment rows, which change nothing. The
rows then become gates in one pass through the table of rows read. A line
field is looked up in a table of the line numbers up to ``MAX_WIDTH``, and
only a field the table lacks is parsed. On any error the rows are read
again one by one in file order, so the error names the earliest bad row.
"""

from __future__ import annotations

from typing import NoReturn

from .circuit import CKNOT, FRED, VTOF, Circuit, GateInstance, GateKind, LineRole
from .permutation import MAX_WIDTH, parse_decimal

_ROLE_NAMES = {r.value: r for r in LineRole}
_GATE_KINDS = {k.value: k for k in GateKind}
# The row keyword of each kind, as a plain str: a str-mixin enum member
# formats differently across Python versions.
_KIND_NAMES = {k: k.value for k in GateKind}
# What a ``lines`` or ``role`` row reads as. Like the None of a blank row it
# is falsy, so one filter keeps only the gates, and unlike None it can be
# counted apart from them.
_HEADER = ()
# Every line number a gate row can hold, by its text; a negated CKNOT
# control also by its negative. Any other field takes the slow path, which
# gives it the same value, or the same error, as parsing it would.
_LINES = {str(l): l for l in range(1, MAX_WIDTH + 1)}
_SIGNED_LINES = {**_LINES, **{f"-{l}": -l for l in _LINES.values()}}


def write_netlist(circuit: Circuit) -> str:
    """The netlist text of ``circuit``: its width, one role row per line,
    then one row per gate in order. Each distinct gate is formatted once."""
    out = [f"lines {circuit.width}"]
    for idx, role in enumerate(circuit.roles, start=1):
        out.append(f"role {idx} {role.value}")
    texts = {g: _gate_text(g) for g in circuit.distinct_gates}
    out.extend(map(texts.__getitem__, circuit.gates))
    return "\n".join(out) + "\n"


def _gate_text(g: GateInstance) -> str:
    kind, lines = g
    name = _KIND_NAMES[kind]
    if kind is VTOF or kind is FRED:
        a, b, c = lines
        return f"{name} {a} {b} {c}"
    body = " ".join(map(str, lines))
    return f"{name} {g.k} {body}"


class _Header:
    """What the rows read so far declare: the width once ``lines`` is read,
    the role of each line, and how many ``lines`` and ``role`` rows there
    were."""

    def __init__(self) -> None:
        self.width: int | None = None
        self.roles: dict[int, LineRole] = {}
        self.rows = 0

    def read(self, raw: str) -> GateInstance | tuple[()] | None:
        """Read one row: its gate, ``_HEADER`` for a ``lines`` or ``role``
        row, or None for a blank or comment row. A bad row raises
        ``ValueError`` without its line number."""
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            return None
        keyword = tokens[0]
        kind = _GATE_KINDS.get(keyword)
        if kind is not None:
            return self._gate(kind, tokens)
        if keyword == "lines":
            if self.width is not None:
                raise ValueError("duplicate 'lines' statement")
            if len(tokens) != 2:
                raise ValueError(f"malformed statement {' '.join(tokens)!r}")
            width = parse_decimal(tokens[1])
            if not 1 <= width <= MAX_WIDTH:
                raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {width}")
            self.width = width
        elif keyword == "role":
            if len(tokens) != 3:
                raise ValueError("role statement needs index and role name")
            idx = parse_decimal(tokens[1])
            if self.width is not None and not 1 <= idx <= self.width:
                raise ValueError(f"role index {idx} outside 1..{self.width}")
            if tokens[2] not in _ROLE_NAMES:
                raise ValueError(f"unknown role {tokens[2]!r}")
            if idx in self.roles:
                raise ValueError(f"duplicate role for line {idx}")
            self.roles[idx] = _ROLE_NAMES[tokens[2]]
        else:
            raise ValueError(f"unknown statement {keyword!r}")
        self.rows += 1
        return _HEADER

    def _gate(self, kind: GateKind, tokens: list[str]) -> GateInstance:
        """The gate of a gate row. Once the width is known, a line above it
        is reported at this row rather than by ``Circuit``."""
        keyword = tokens[0]
        if kind is VTOF or kind is FRED:
            if len(tokens) != 4:
                raise ValueError(f"{keyword} needs exactly 3 line numbers")
            fields = tokens[1:]
        else:
            if len(tokens) < 2:
                raise ValueError(f"malformed statement {' '.join(tokens)!r}")
            k = parse_decimal(tokens[1])
            wanted = k + (2 if kind is CKNOT else 3)
            if len(tokens) != wanted + 1:
                raise ValueError(f"{keyword} with k={k} needs {wanted - 1} line numbers")
            fields = tokens[2:]
        try:
            if kind is CKNOT:
                *controls, target = fields
                lines = (*map(_SIGNED_LINES.__getitem__, controls), _LINES[target])
            else:
                lines = tuple(map(_LINES.__getitem__, fields))
        except KeyError:
            lines = _parse_lines(kind, fields)
        width = self.width
        if width is not None and (
            max(map(abs, lines)) if kind is CKNOT else max(lines)
        ) > width:
            raise ValueError(f"gate {keyword} {lines} exceeds width {width}")
        return GateInstance(kind, lines)


def _parse_lines(kind: GateKind, fields: list[str]) -> tuple[int, ...]:
    """The line numbers of a gate row's fields, in ASCII decimal, with one
    leading ``-`` allowed on a CKNOT control; raises on the first bad
    field."""
    lines = []
    for i, field in enumerate(fields):
        if kind is CKNOT and i < len(fields) - 1 and field[:1] == "-":
            if not (field[1:].isascii() and field[1:].isdigit()):
                raise ValueError(
                    f"expected an integer of digits 0-9 after one '-', got {field!r}"
                )
            lines.append(-int(field[1:]))
        else:
            lines.append(parse_decimal(field))
    return tuple(lines)


def _raise_earliest_error(rows: list[str]) -> NoReturn:
    """Read ``rows`` one at a time in file order and raise the error of the
    first bad row, with its line number. A gate row that already read is
    not read again, just as the first pass reads each distinct row once."""
    header = _Header()
    gate_rows: set[str] = set()
    for lineno, raw in enumerate(rows, start=1):
        if raw in gate_rows:
            continue
        try:
            if header.read(raw):
                gate_rows.add(raw)
        except ValueError as exc:
            raise ValueError(f"netlist line {lineno}: {exc}") from None
    raise AssertionError("no row failed when the rows were read one by one")


def read_netlist(text: str) -> Circuit:
    """The circuit that netlist ``text`` describes.

    Raises ``ValueError`` for a malformed netlist. An error in a row,
    including a gate that the ``Circuit`` refuses, is prefixed
    ``netlist line N:`` with the 1-based number of the earliest bad row. A
    missing ``lines`` row or a missing role has no row to name.
    """
    rows = text.splitlines()
    header = _Header()
    read = dict.fromkeys(rows)
    try:
        for raw in read:
            read[raw] = header.read(raw)
    except ValueError:
        _raise_earliest_error(rows)
    marks = list(map(read.__getitem__, rows))
    # A repeated lines or role row is an error at the repeat, which the
    # pass over distinct rows cannot see.
    if marks.count(_HEADER) != header.rows:
        _raise_earliest_error(rows)
    width = header.width
    if width is None:
        raise ValueError("netlist has no 'lines' statement")
    roles = header.roles
    if sorted(roles) != list(range(1, width + 1)):
        missing = sorted(set(range(1, width + 1)) - set(roles))
        if missing:
            raise ValueError(f"missing role statements for lines {missing}")
        raise ValueError(f"role statements outside 1..{width}")
    try:
        return Circuit(
            width=width,
            gates=tuple(filter(None, marks)),
            roles=tuple(roles[i] for i in range(1, width + 1)),
        )
    except ValueError as exc:
        # The header was checked as it was read, so a gate failed: the
        # earliest in file order, as Circuit names the earliest gate.
        for lineno, raw in enumerate(rows, start=1):
            gate = read[raw]
            if gate:
                try:
                    Circuit(width, (gate,))
                except ValueError:
                    raise ValueError(f"netlist line {lineno}: {exc}") from None
        raise
