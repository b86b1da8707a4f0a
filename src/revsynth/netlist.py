"""Plain-text netlist serialization.

Format, one statement per line, ``#`` starting a comment anywhere::

    lines <width>
    role <line-index> data|ancilla0|ancilla1|borrowed   (one per line, 1..width)
    VTOF <control> <invert> <target>
    FRED <control> <t1> <t2>
    CKNOT <k> <c1> ... <ck> <target>
    CKSWAP <k> <c1> ... <ck> <t1> <t2>

Every number is ASCII decimal, and the width lies in ``1..MAX_WIDTH``.
Gates apply in file order. ``write_netlist`` followed by ``read_netlist``
reproduces the circuit exactly. A netlist repeats a few distinct gates many
times, so both directions handle each distinct gate (or gate statement) once
and reuse the result for its repeats.
"""

from __future__ import annotations

from .circuit import Circuit, GateInstance, GateKind, LineRole
from .permutation import MAX_WIDTH, parse_decimal

_ROLE_NAMES = {r.value: r for r in LineRole}


def write_netlist(circuit: Circuit) -> str:
    out = [f"lines {circuit.width}"]
    for idx, role in enumerate(circuit.roles, start=1):
        out.append(f"role {idx} {role.value}")
    texts: dict[GateInstance, str] = {}
    for g in circuit.gates:
        line = texts.get(g)
        if line is None:
            line = texts[g] = _gate_text(g)
        out.append(line)
    return "\n".join(out) + "\n"


def _gate_text(g: GateInstance) -> str:
    if g.kind in (GateKind.VTOF, GateKind.FRED):
        return f"{g.kind.value} {g.lines[0]} {g.lines[1]} {g.lines[2]}"
    body = " ".join(str(l) for l in g.lines)
    return f"{g.kind.value} {g.k} {body}"


def _gate(keyword: str, fields: list[str], width: int | None) -> GateInstance:
    """The gate on the given line fields. Once the width is known, a line
    above it is reported at this statement rather than by ``Circuit``."""
    lines = tuple(map(parse_decimal, fields))
    if width is not None and max(lines) > width:
        raise ValueError(f"gate {keyword} {lines} exceeds width {width}")
    return GateInstance(GateKind(keyword), lines)


def read_netlist(text: str) -> Circuit:
    width: int | None = None
    roles: dict[int, LineRole] = {}
    gates: list[GateInstance] = []
    # Gate statements that parsed, by their raw line text. Failed ones are
    # never stored, so every bad line reports its own number.
    parsed: dict[str, GateInstance] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = parsed.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0]
        try:
            if keyword == "lines":
                if width is not None:
                    raise ValueError("duplicate 'lines' statement")
                if len(tokens) != 2:
                    raise ValueError(f"malformed statement {' '.join(tokens)!r}")
                width = parse_decimal(tokens[1])
                if not 1 <= width <= MAX_WIDTH:
                    raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {width}")
            elif keyword == "role":
                if len(tokens) != 3:
                    raise ValueError("role statement needs index and role name")
                idx = parse_decimal(tokens[1])
                if width is not None and not 1 <= idx <= width:
                    raise ValueError(f"role index {idx} outside 1..{width}")
                if tokens[2] not in _ROLE_NAMES:
                    raise ValueError(f"unknown role {tokens[2]!r}")
                if idx in roles:
                    raise ValueError(f"duplicate role for line {idx}")
                roles[idx] = _ROLE_NAMES[tokens[2]]
            elif keyword in ("VTOF", "FRED"):
                if len(tokens) != 4:
                    raise ValueError(f"{keyword} needs exactly 3 line numbers")
                gate = _gate(keyword, tokens[1:], width)
                gates.append(gate)
                parsed[raw] = gate
            elif keyword in ("CKNOT", "CKSWAP"):
                if len(tokens) < 2:
                    raise ValueError(f"malformed statement {' '.join(tokens)!r}")
                k = parse_decimal(tokens[1])
                wanted = k + (2 if keyword == "CKNOT" else 3)
                if len(tokens) != wanted + 1:
                    raise ValueError(
                        f"{keyword} with k={k} needs {wanted - 1} line numbers"
                    )
                gate = _gate(keyword, tokens[2:], width)
                gates.append(gate)
                parsed[raw] = gate
            else:
                raise ValueError(f"unknown statement {keyword!r}")
        except ValueError as exc:
            raise ValueError(f"netlist line {lineno}: {exc}") from None
    if width is None:
        raise ValueError("netlist has no 'lines' statement")
    if sorted(roles) != list(range(1, width + 1)):
        missing = sorted(set(range(1, width + 1)) - set(roles))
        if missing:
            raise ValueError(f"missing role statements for lines {missing}")
        raise ValueError(f"role statements outside 1..{width}")
    return Circuit(
        width=width,
        gates=tuple(gates),
        roles=tuple(roles[i] for i in range(1, width + 1)),
    )
