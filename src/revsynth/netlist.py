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

Rows end at a line feed, a carriage return or the two together, and
nowhere else.

A netlist repeats a few distinct gates many times, so ``write_netlist``
formats each entry of the circuit's ``distinct_gates`` once, into a list,
and writes the rows by the circuit's ``order``, the index of each gate in
that list; no gate is hashed for a circuit that ``Circuit.from_table``
built, as every synthesis route's netlist is. ``read_netlist`` builds its
circuit from the gate list, so such a circuit finds its ``order`` when it
is written.
``read_netlist`` looks every row up in one process-wide table of canonical
primitive rows: a row exactly as ``write_netlist`` writes a valid VTOF or
FRED gate on lines 1..MAX_WIDTH, of which there are at most 6 720. The
table is empty at import and learns each such row the first time it is
read. So the early reads of a process parse each new row text once, and
a warm read parses no row: over 400 conservative n = 8 netlists, 390 rows
were parsed, 310 of them on the first read and none after the 102nd. The
rows the table lacks (header, blank, comment, macro and non-canonical
rows, and rows not seen before) are read once each, in order of first
appearance. That order is file order for every row that sets the width
or a role, because a repeated ``lines`` or ``role`` row is always an
error; what repeats are gate, blank and comment rows, which change
nothing.

Errors come in two tiers. First, the earliest row that fails to read is
named: bad syntax, a bad header, or a line above the width once
``lines`` is read. Only when every row reads is a missing ``lines`` row
or role reported, and then the earliest gate that ``Circuit`` refuses.
A row found in the table skips the width check of its row, so on any
error the rows are read again one by one in file order to find the row
to name.
"""

from __future__ import annotations

from itertools import filterfalse

from .circuit import (
    CKNOT, FRED, VTOF, Circuit, GateInstance, GateKind, LineRole, play,
)
from .permutation import MAX_WIDTH, parse_decimal, split_rows

_ROLE_NAMES = {r.value: r for r in LineRole}
_GATE_KINDS = {k.value: k for k in GateKind}
# The row keyword of each kind, as a plain str: a str-mixin enum member
# formats differently across Python versions.
_KIND_NAMES = {k: k.value for k in GateKind}
# What a ``lines`` or ``role`` row reads as. Like the None of a blank row it
# is falsy, so one filter keeps only the gates, and unlike None it can be
# counted apart from them.
_HEADER = ()
# The gate of every canonical primitive row read so far, by its text: a row
# that is exactly ``_gate_text(g)`` of a valid VTOF or FRED gate ``g`` on
# lines 1..MAX_WIDTH. Such a row reads as the same gate in every netlist,
# so it is parsed once per process, and there are at most
# 2 * 16 * 15 * 14 = 6 720 of them. Empty at import. A key is only ever
# added, with the one gate its text reads as, so concurrent reads need no
# lock.
_PRIMITIVE_ROWS: dict[str, GateInstance] = {}


def write_netlist(circuit: Circuit) -> str:
    """The netlist text of ``circuit``: its width, one role row per line,
    then one row per gate in order. Each distinct gate is formatted once
    and its text played by ``circuit.order``."""
    out = [f"lines {circuit.width}"]
    for idx, role in enumerate(circuit.roles, start=1):
        out.append(f"role {idx} {role.value}")
    texts = list(map(_gate_text, circuit.distinct_gates))
    out += play(texts, circuit.order)
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
    were. Each canonical primitive row it reads goes into
    ``_PRIMITIVE_ROWS``."""

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
            return self._gate(kind, tokens, raw)
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

    def _gate(self, kind: GateKind, tokens: list[str], raw: str) -> GateInstance:
        """The gate of gate row ``raw``, split into ``tokens``. Once the
        width is known, a line above it is reported at this row rather than
        by ``Circuit``."""
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
        lines = _parse_lines(kind, fields)
        width = self.width
        if width is not None and (
            max(map(abs, lines)) if kind is CKNOT else max(lines)
        ) > width:
            raise ValueError(f"gate {keyword} {lines} exceeds width {width}")
        gate = GateInstance(kind, lines)
        # The table takes the row when it is the writer's text of a gate
        # that ``validate`` accepts, on lines 1..MAX_WIDTH.
        if (kind is VTOF or kind is FRED) and raw == _gate_text(gate):
            a, b, c = lines
            if a != b != c != a and 0 < min(lines) <= max(lines) <= MAX_WIDTH:
                _PRIMITIVE_ROWS[raw] = gate
        return gate


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


def _raise_row_error(rows: list[str]) -> None:
    """Raise the error of the earliest bad row of ``rows``, with its line
    number, in two tiers. First the rows are read one at a time in file
    order, and the first that fails to read is named. Only when every row
    reads, and the header gives the width and every role, is each gate
    checked as ``Circuit`` checks it, and the earliest it refuses named.
    Return if neither tier finds an error. A gate row is read and checked
    at its first appearance only, as the fast path reads it."""
    header = _Header()
    gates: dict[str, tuple[int, GateInstance]] = {}
    for lineno, raw in enumerate(rows, start=1):
        if raw in gates:
            continue
        try:
            gate = header.read(raw)
        except ValueError as exc:
            raise ValueError(f"netlist line {lineno}: {exc}") from None
        if gate:
            gates[raw] = lineno, gate
    width = header.width
    if width is None or sorted(header.roles) != list(range(1, width + 1)):
        return
    for lineno, gate in gates.values():
        try:
            Circuit(width, (gate,))
        except ValueError as exc:
            raise ValueError(f"netlist line {lineno}: {exc}") from None


def read_netlist(text: str) -> Circuit:
    """The circuit that netlist ``text`` describes.

    Raises ``ValueError`` for a malformed netlist, in two tiers. If a row
    fails to read (bad syntax, a bad header, or a line above the width once
    ``lines`` is read), the error names the earliest such row. Only when
    every row reads is a missing ``lines`` row or role reported, with no
    row to name, and then the earliest gate that ``Circuit`` refuses, by
    its row. A row's number is 1-based and prefixed ``netlist line N:``.
    """
    rows = split_rows(text)
    known = _PRIMITIVE_ROWS
    # The rows the table lacks, in file order.
    misses = list(filterfalse(known.__contains__, rows))
    header = _Header()
    read = dict.fromkeys(misses)
    # The fast path reads each distinct row the table lacks once. It may
    # raise without a row, or at a later row than the earliest bad one, so
    # on any error the replay names the earliest bad row; the fast path's
    # error stands only when the replay finds none.
    try:
        for raw in read:
            read[raw] = header.read(raw)
        marks = list(map(read.__getitem__, misses))
        # A repeated lines or role row is an error at the repeat, which the
        # pass over distinct rows cannot see.
        if marks.count(_HEADER) != header.rows:
            raise ValueError("repeated 'lines' or 'role' statement")
        if len(marks) < len(rows):
            # Each other row is known, and so is each row read as a gate
            # here, unless its text is not canonical.
            if all(map(known.__contains__, filter(read.get, read))):
                marks = list(map(known.get, rows))
            else:
                marks = list(map(read.get, rows, map(known.get, rows)))
        width = header.width
        if width is None:
            raise ValueError("netlist has no 'lines' statement")
        roles = header.roles
        if sorted(roles) != list(range(1, width + 1)):
            missing = sorted(set(range(1, width + 1)) - set(roles))
            if missing:
                raise ValueError(f"missing role statements for lines {missing}")
            raise ValueError(f"role statements outside 1..{width}")
        # A known row skips the width check of its row, so Circuit may
        # refuse its gate.
        return Circuit(
            width=width,
            gates=tuple(filter(None, marks)),
            roles=tuple(roles[i] for i in range(1, width + 1)),
        )
    except ValueError:
        _raise_row_error(rows)
        raise
