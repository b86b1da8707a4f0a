"""Netlist text format: golden output, round trips, and parse errors."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from revsynth import (
    sample_permutation,
    synth_conservative,
    synth_even,
    synth_general,
)
from revsynth.circuit import (
    Circuit,
    GateInstance,
    GateKind,
    LineRole,
    cknot,
    ckswap,
    fred,
    vtof,
)
from revsynth import netlist
from revsynth.netlist import read_netlist, write_netlist
from revsynth.permutation import MAX_WIDTH, parse_decimal

from conftest import random_primitive_circuit

GOLDEN = """\
lines 4
role 1 data
role 2 data
role 3 borrowed
role 4 ancilla0
VTOF 1 2 3
FRED 4 1 2
CKNOT 2 1 3 4
CKSWAP 1 2 3 4
"""


def golden_circuit() -> Circuit:
    return Circuit(
        width=4,
        gates=(
            vtof(1, 2, 3),
            fred(4, 1, 2),
            cknot((1, 3), 4),
            ckswap((2,), 3, 4),
        ),
        roles=(
            LineRole.DATA,
            LineRole.DATA,
            LineRole.BORROWED,
            LineRole.ANCILLA0,
        ),
    )


def signed_circuit() -> Circuit:
    """Repeated CKNOT macros with negated controls, among primitives."""
    a, b, c = cknot((-1, 2, -4), 3), cknot((-2,), 1), cknot((1, -3), 4)
    v, f = vtof(1, 2, 3), fred(4, 1, 2)
    return Circuit(4, (a, v, b, a, c, f, b, c, a, v), roles=golden_circuit().roles)


def test_write_golden_text():
    assert write_netlist(golden_circuit()) == GOLDEN


def test_read_golden_text():
    assert read_netlist(GOLDEN) == golden_circuit()


def test_round_trip_random_circuits():
    rng = random.Random(31)
    for _ in range(20):
        width = rng.randint(3, 6)
        c = random_primitive_circuit(width, rng.randint(0, 10), rng)
        assert read_netlist(write_netlist(c)) == c


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a full-line comment
    lines 2   # trailing comment
    role 1 data
    role 2 data

    CKNOT 1 1 2  # controlled NOT
    """
    c = read_netlist(text)
    assert c.width == 2
    assert c.gates == (cknot((1,), 2),)


_HEAD3 = "lines 3\nrole 1 data\nrole 2 data\nrole 3 data\n"


def test_negated_controls_round_trip():
    c = Circuit(3, (cknot((-1, 2), 3), cknot((-1, -2), 3), cknot((-3,), 1)))
    text = write_netlist(c)
    assert text.splitlines()[4:] == [
        "CKNOT 2 -1 2 3", "CKNOT 2 -1 -2 3", "CKNOT 1 -3 1",
    ]
    assert read_netlist(text) == c
    # A line number past the lookup table is still read, and refused.
    assert read_netlist(_HEAD3 + "CKNOT 1 -01 2\n").gates == (cknot((-1,), 2),)
    with pytest.raises(ValueError, match=r"line 5: gate CKNOT \(-17, 2\) exceeds"):
        read_netlist(_HEAD3 + "CKNOT 1 -17 2\n")


def test_zero_control_macros_round_trip():
    c = Circuit(2, (cknot((), 1), ckswap((), 1, 2)))
    text = write_netlist(c)
    assert "CKNOT 0 1" in text
    assert "CKSWAP 0 1 2" in text
    assert read_netlist(text) == c


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("lines 2\nrole 1 data\nrole 2 data\nCKNOT 2 1 2", "netlist line 4"),
        ("lines 2\nrole 1 data\nrole 2 data\nVTOF 1 2", "netlist line 4"),
        ("lines 2\nrole 1 data\nrole 2 spare", "unknown role"),
        ("lines 2\nrole 1 data\nrole 1 data\nrole 2 data", "duplicate role"),
        ("lines 2\nrole 1 data\nrole 2 data\nNAND 1 2", "unknown statement"),
        ("lines 2\nrole 1 data\nrole 2 data\nlines 2", "duplicate 'lines'"),
        ("lines x\n", "expected an integer"),
        # A bad line after repeated good ones reports its own number.
        (
            "lines 3\nrole 1 data\nrole 2 data\nrole 3 data\n"
            "VTOF 1 2 3\nVTOF 1 2 3\nVTOF 1 2\nVTOF 1 2\n",
            "netlist line 7: VTOF needs exactly 3",
        ),
        (
            "lines 3\nrole 1 data\nrole 2 data\nrole 3 data\n"
            "FRED 1 2 3\nFRED 1 2 3  # again\nFRED 1 2 3\nFRED 1 2 x\n",
            "netlist line 8: expected an integer",
        ),
        # The width is checked where it is read, before any per-line work.
        ("lines 0\n", r"netlist line 1: width must be in \[1, 16\], got 0"),
        ("lines 17\n", r"netlist line 1: width must be in \[1, 16\], got 17"),
        ("lines 100000000\n", "netlist line 1: width must be in"),
        # Fields are ASCII decimal: no sign, underscore or non-ASCII digit.
        (_HEAD3 + "VTOF +1 2 3\n", "netlist line 5: expected an integer"),
        # Only a CKNOT control takes a sign, and only one '-'.
        (_HEAD3 + "CKNOT 2 -1 2 3\nCKNOT 2 -0 2 3\n",
         r"netlist line 6: lines are 1-based, got \(0, 2, 3\)"),
        (_HEAD3 + "CKNOT 2 -1 2 3\nCKNOT 2 -1 2 3\nCKNOT 2 --1 2 3\n",
         "netlist line 7: expected an integer of digits 0-9 after one '-', got '--1'"),
        (_HEAD3 + "VTOF 1 2 3\nVTOF -1 2 3\n",
         "netlist line 6: expected an integer of digits 0-9, got '-1'"),
        (_HEAD3 + "\nFRED 1 -2 3\n",
         "netlist line 6: expected an integer of digits 0-9, got '-2'"),
        (_HEAD3 + "CKSWAP 1 -1 2 3\n",
         "netlist line 5: expected an integer of digits 0-9, got '-1'"),
        (_HEAD3 + "CKNOT 0 3\nCKNOT 1 1 3\nCKNOT 1 -1 3\nCKNOT 1 1 -3\n",
         "netlist line 8: expected an integer of digits 0-9, got '-3'"),
        (_HEAD3 + "CKNOT 1 -1 3\nCKNOT 1 -4 3\n",
         r"netlist line 6: gate CKNOT \(-4, 3\) exceeds width 3"),
        (_HEAD3 + "VTOF 1 2 3_0\n", "netlist line 5: expected an integer"),
        (_HEAD3 + "VTOF 1 2 \u0663\n", "netlist line 5: expected an integer"),
        (_HEAD3 + "CKNOT -1\n", "netlist line 5: expected an integer"),
        (_HEAD3 + "CKSWAP -2 1\n", "netlist line 5: expected an integer"),
        ("lines 3\nrole -1 data\n", "netlist line 2: expected an integer"),
        # Once the width is read, line numbers are checked at their statement.
        (
            "lines 2\nrole 1 data\nrole 2 data\nrole 7 data\n",
            r"netlist line 4: role index 7 outside 1\.\.2",
        ),
        (
            "lines 2\nrole 1 data\nrole 2 data\nVTOF 1 2 3\n",
            r"netlist line 4: gate VTOF \(1, 2, 3\) exceeds width 2",
        ),
        (
            "lines 2\nrole 1 data\nrole 2 data\nCKSWAP 1 2 1 3\n",
            r"netlist line 4: gate CKSWAP \(2, 1, 3\) exceeds width 2",
        ),
        # A gate that only Circuit refuses names its row too: the earliest.
        (_HEAD3 + "VTOF 0 1 2\n", r"netlist line 5: lines are 1-based, got \(0, 1, 2\)"),
        (
            _HEAD3 + "FRED 1 2 1\n",
            r"netlist line 5: gate lines must be distinct, got \(1, 2, 1\)",
        ),
        (
            _HEAD3 + "FRED 1 2 3\nFRED 1 2 3\nCKNOT 1 2 2\nVTOF 0 1 2\nCKNOT 1 2 2\n",
            r"netlist line 7: gate lines must be distinct, got \(2, 2\)",
        ),
        (
            "VTOF 1 2 5\n" + _HEAD3 + "VTOF 1 2 3\nVTOF 1 2 5\n",
            r"netlist line 1: gate VTOF \(1, 2, 5\) exceeds width 3",
        ),
        # A repeated header row before a bad distinct row is the earlier error.
        (_HEAD3 + "role 2 data\nVTOF 1 2 x\n", "netlist line 5: duplicate role for line 2"),
        (_HEAD3 + "VTOF 1 2 3\nlines 3\nVTOF 1 2 3\n", "netlist line 6: duplicate 'lines'"),
        # A row that fails to read is named before an earlier gate that
        # only Circuit refuses.
        (
            "lines 4\n" + "".join(f"role {i} data\n" for i in range(1, 5))
            + "VTOF 1 2 3\nVTOF 1 1 2\nVTOF 2 3 4\nbogus 1\n",
            "^netlist line 9: unknown statement 'bogus'$",
        ),
    ],
)
def test_malformed_statements(bad: str, fragment: str):
    with pytest.raises(ValueError, match=fragment):
        read_netlist(bad)


def test_missing_pieces():
    with pytest.raises(ValueError, match="no 'lines' statement"):
        read_netlist("role 1 data\n")
    with pytest.raises(ValueError, match=r"missing role statements for lines \[2\]"):
        read_netlist("lines 2\nrole 1 data\n")
    with pytest.raises(ValueError, match="outside"):
        read_netlist("lines 1\nrole 1 data\nrole 2 data\n")


def test_gate_lines_exceeding_width_rejected():
    with pytest.raises(ValueError, match="exceeds width"):
        read_netlist("lines 2\nrole 1 data\nrole 2 data\nVTOF 1 2 3\n")


def _reference_read(text: str) -> Circuit:
    """The row-by-row reader that ``read_netlist`` replaced, kept as the
    reference for its errors, line numbers and circuits."""
    width: int | None = None
    roles: dict[int, LineRole] = {}
    gates: list[GateInstance] = []
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
                if tokens[2] not in {r.value for r in LineRole}:
                    raise ValueError(f"unknown role {tokens[2]!r}")
                if idx in roles:
                    raise ValueError(f"duplicate role for line {idx}")
                roles[idx] = LineRole(tokens[2])
            elif keyword in ("VTOF", "FRED", "CKNOT", "CKSWAP"):
                if keyword in ("VTOF", "FRED"):
                    if len(tokens) != 4:
                        raise ValueError(f"{keyword} needs exactly 3 line numbers")
                    fields = tokens[1:]
                else:
                    if len(tokens) < 2:
                        raise ValueError(f"malformed statement {' '.join(tokens)!r}")
                    k = parse_decimal(tokens[1])
                    wanted = k + (2 if keyword == "CKNOT" else 3)
                    if len(tokens) != wanted + 1:
                        raise ValueError(
                            f"{keyword} with k={k} needs {wanted - 1} line numbers"
                        )
                    fields = tokens[2:]
                signed = len(fields) - 1 if keyword == "CKNOT" else 0
                lines = tuple(
                    _reference_line(f, i < signed) for i, f in enumerate(fields)
                )
                if width is not None and max(map(abs, lines)) > width:
                    raise ValueError(f"gate {keyword} {lines} exceeds width {width}")
                gate = GateInstance(GateKind(keyword), lines)
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


def _reference_line(field: str, signed: bool) -> int:
    if signed and field.startswith("-"):
        body = field[1:]
        if not (body.isascii() and body.isdigit()):
            raise ValueError(
                f"expected an integer of digits 0-9 after one '-', got {field!r}"
            )
        return -int(body)
    return parse_decimal(field)


def _duplicate_header(rows: list[str], width: int, rng: random.Random) -> None:
    rows.insert(rng.randint(0, len(rows)), rows[rng.randint(0, width)])


def _lines_after_gates(rows: list[str], width: int, rng: random.Random) -> None:
    rows.insert(rng.randint(width + 1, len(rows)), rows.pop(0))


def _gate_before_lines(rows: list[str], width: int, rng: random.Random) -> None:
    # Sometimes a gate beyond the width, which only Circuit can refuse.
    gate = rng.choice([rows[rng.randint(width + 1, len(rows) - 1)], f"FRED 1 2 {width + 1}"])
    rows.insert(0, gate)
    rows.insert(rng.randint(width + 2, len(rows)), gate)


def _noise(rows: list[str], width: int, rng: random.Random) -> None:
    for _ in range(rng.randint(1, 4)):
        rows.insert(rng.randint(0, len(rows)), rng.choice(["", "   ", "# note", "  # x"]))
    i = rng.randint(0, len(rows) - 1)
    rows[i] += "  # trailing"


def _corrupt_a_repeat(rows: list[str], width: int, rng: random.Random) -> None:
    gate_rows = {r for r in rows if r.startswith(("VTOF", "FRED", "CKNOT", "CKSWAP"))}
    repeated = sorted(r for r in gate_rows if rows.count(r) > 1)
    if not repeated:
        return
    row = rng.choice(repeated)
    i = rng.choice([i for i, r in enumerate(rows) if r == row])
    keyword, *fields = row.split()
    j = rng.randrange(len(fields))
    fields[j] = rng.choice(
        ["x", "0", "+1", "٣", "-1", "-0", "--2", fields[j - 1], str(width + 1)]
    )
    fields = rng.choice([fields, fields[:-1], fields + ["1"]])
    rows[i] = " ".join([rng.choice([keyword, keyword.lower()]), *fields])


_MUTATIONS = (
    _duplicate_header, _lines_after_gates, _gate_before_lines, _noise, _corrupt_a_repeat,
)


def _outcome(read, text: str):
    try:
        return read(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_reader_matches_the_row_by_row_reference():
    rng = random.Random(20)
    bases = [
        synth_general(sample_permutation(3, seed=2)),
        synth_even(sample_permutation(3, "even", seed=2)),
        synth_conservative(sample_permutation(4, "conservative", seed=2)),
        golden_circuit(),
        signed_circuit(),
    ]
    seen = {"circuit": 0, "same error": 0, "row named": 0}
    for base in bases:
        for _ in range(60):
            rows = write_netlist(base).splitlines()
            for mutate in rng.sample(_MUTATIONS, rng.randint(1, 3)):
                mutate(rows, base.width, rng)
            text = rng.choice(["\n", "\r\n"]).join(rows) + "\n"
            want = _outcome(_reference_read, text)
            got = _outcome(read_netlist, text)
            if got == want:
                seen["circuit" if isinstance(want, Circuit) else "same error"] += 1
                continue
            # The one allowed difference: a gate that Circuit refuses now
            # carries the number of its row.
            assert isinstance(want, tuple) and isinstance(got, tuple), text
            assert got[0] is want[0] is ValueError, text
            assert not want[1].startswith("netlist line"), text
            assert re.fullmatch(r"netlist line \d+: " + re.escape(want[1]), got[1]), text
            seen["row named"] += 1
    assert min(seen.values()) >= 10, seen


def _corpus(seed: int) -> list[str]:
    """Netlists of every route, mutated as in the reference test above."""
    rng = random.Random(seed)
    bases = [
        synth_general(sample_permutation(3, seed=2)),
        synth_even(sample_permutation(3, "even", seed=2)),
        synth_conservative(sample_permutation(4, "conservative", seed=2)),
        golden_circuit(),
        signed_circuit(),
    ]
    texts = []
    for base in bases:
        for _ in range(40):
            rows = write_netlist(base).splitlines()
            for mutate in rng.sample(_MUTATIONS, rng.randint(1, 3)):
                mutate(rows, base.width, rng)
            texts.append(rng.choice(["\n", "\r\n"]).join(rows) + "\n")
    return texts


def _assert_table_canonical() -> None:
    """Every key is the text that write_netlist gives its valid primitive
    gate, on lines 1..MAX_WIDTH."""
    table = netlist._PRIMITIVE_ROWS
    assert len(table) <= 2 * MAX_WIDTH * (MAX_WIDTH - 1) * (MAX_WIDTH - 2)
    for row, gate in table.items():
        assert gate.kind in (GateKind.VTOF, GateKind.FRED)
        gate.validate()
        assert max(gate.lines) <= MAX_WIDTH
        assert row == netlist._gate_text(gate)


def test_reader_reads_alike_with_the_row_table_empty_and_full():
    texts = _corpus(21)
    cold = []
    for text in texts:
        netlist._PRIMITIVE_ROWS.clear()
        cold.append(_outcome(read_netlist, text))
    for text in texts:
        _outcome(read_netlist, text)
    assert len(netlist._PRIMITIVE_ROWS) > 10
    warm = [_outcome(read_netlist, text) for text in texts]
    assert warm == cold
    assert sum(isinstance(o, Circuit) for o in cold) >= 20
    assert sum(isinstance(o, tuple) for o in cold) >= 20
    _assert_table_canonical()


@pytest.mark.parametrize(
    "row, want",
    [
        ("FRED 01 2 3", fred(1, 2, 3)),
        ("FRED 1 2 3  # c", fred(1, 2, 3)),
        ("FRED 1 2 3#", fred(1, 2, 3)),
        ("FRED\t1\t2\t3", fred(1, 2, 3)),
        ("FRED 1  2 3", fred(1, 2, 3)),
        (" FRED 1 2 3", fred(1, 2, 3)),
        ("FRED 1 2 3 ", fred(1, 2, 3)),
        ("VTOF 1 2 3\x0c", vtof(1, 2, 3)),
        ("CKNOT 1 1 2", cknot((1,), 2)),
        ("CKNOT 2 -1 2 3", cknot((-1, 2), 3)),
        ("CKSWAP 1 1 2 3", ckswap((1,), 2, 3)),
        ("VTOF 1 1 2", r"gate lines must be distinct, got \(1, 1, 2\)"),
        ("FRED 0 1 2", r"lines are 1-based, got \(0, 1, 2\)"),
        ("FRED 1 2 17", r"gate FRED \(1, 2, 17\) exceeds width 3"),
    ],
)
def test_rows_outside_the_table_read_as_before(row: str, want):
    """A row that is not canonical, or not a valid primitive gate, reads
    as it always has, never enters the table, and keeps its own errors
    when the same gate's canonical row is known."""
    canonical = ["FRED 1 2 3", "VTOF 1 2 3", "FRED 1 2 4", "FRED 1 2 16"]
    wide = "lines 16\n" + "".join(f"role {i} data\n" for i in range(1, 17))
    for warm in (False, True):
        netlist._PRIMITIVE_ROWS.clear()
        if warm:
            read_netlist(wide + "\n".join(canonical) + "\n")
            assert set(netlist._PRIMITIVE_ROWS) == set(canonical)
        for text, lineno, count in (
            (_HEAD3 + f"{row}\n", 5, 1),
            (_HEAD3 + f"{row}\n{row}\n", 5, 2),
            (f"{row}\n" + _HEAD3, 1, 1),  # before the width is known
        ):
            if isinstance(want, str):
                with pytest.raises(ValueError, match=f"^netlist line {lineno}: {want}$"):
                    read_netlist(text)
            else:
                assert read_netlist(text).gates == (want,) * count
        assert row not in netlist._PRIMITIVE_ROWS
        assert set(netlist._PRIMITIVE_ROWS) <= set(canonical)
    _assert_table_canonical()


def test_crlf_rows_read_as_their_text_without_line_end():
    netlist._PRIMITIVE_ROWS.clear()
    rows = [*_HEAD3.splitlines(), "FRED 1 2 3", "VTOF 3 1 2", "FRED 1 2 3"]
    for end in ("\r\n", "\r", "\n"):
        c = read_netlist(end.join(rows) + end)
        assert c.gates == (fred(1, 2, 3), vtof(3, 1, 2), fred(1, 2, 3))
    assert set(netlist._PRIMITIVE_ROWS) == {"FRED 1 2 3", "VTOF 3 1 2"}


@pytest.mark.parametrize(
    "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]
)
def test_netlist_rows_end_only_at_line_ends(sep: str):
    # The commented-out gate stays in its comment.
    text = _HEAD3 + f"# note{sep}FRED 1 2 4\nFRED 1 2 3\n"
    assert read_netlist(text).gates == (fred(1, 2, 3),)
    # An error in a row names that row's line of the file.
    with pytest.raises(ValueError, match=r"^netlist line 5: gate FRED \(1, 2, 4\)"):
        read_netlist(_HEAD3 + f"FRED 1 2 4 # note{sep}x\n")
    with pytest.raises(ValueError, match="^netlist line 6: unknown statement 'FREDX'"):
        read_netlist(_HEAD3 + f"# note{sep}x\nFREDX 1 2 3\n")


def test_a_known_row_too_wide_for_its_netlist_is_an_error_of_its_row():
    netlist._PRIMITIVE_ROWS.clear()
    read_netlist("lines 5\n" + "".join(f"role {i} data\n" for i in range(1, 6))
                 + "FRED 1 2 5\nFRED 1 2 3\n")
    assert {"FRED 1 2 5", "FRED 1 2 3"} <= set(netlist._PRIMITIVE_ROWS)
    head4 = "lines 4\n" + "".join(f"role {i} data\n" for i in range(1, 5))
    # The same gate in another spelling before the width is read.
    text = "FRED 1 2 5  # c\n" + head4 + "FRED 1 2 3\nFRED 1 2 5\n"
    with pytest.raises(ValueError, match=r"^netlist line 8: gate FRED \(1, 2, 5\) exceeds"):
        read_netlist(text)
    # The same row before and after: Circuit refuses it, at the first.
    text = "FRED 1 2 5\n" + head4 + "FRED 1 2 3\nFRED 1 2 5\n"
    with pytest.raises(ValueError, match=r"^netlist line 1: gate FRED \(1, 2, 5\) exceeds"):
        read_netlist(text)
    # A row error comes before a missing role.
    with pytest.raises(ValueError, match=r"^netlist line 3: gate FRED \(1, 2, 3\) exceeds"):
        read_netlist("lines 2\nrole 1 data\nFRED 1 2 3\n")
    with pytest.raises(ValueError, match=r"missing role statements for lines \[2\]"):
        read_netlist("lines 2\nrole 1 data\n")


def test_row_table_stays_within_its_bound():
    netlist._PRIMITIVE_ROWS.clear()
    for n in range(3, 9):
        for circuit in (
            synth_general(sample_permutation(n, seed=n)),
            synth_even(sample_permutation(n, "even", seed=n)),
            synth_conservative(sample_permutation(n, "conservative", seed=n)),
        ):
            text = write_netlist(circuit)
            assert read_netlist(text) == circuit
            assert read_netlist(text) == circuit
    # Every row of a primitive netlist is known; at n = 8 the general
    # route alone uses rows on 9 lines.
    assert len(netlist._PRIMITIVE_ROWS) > 9 * 8 * 7
    _assert_table_canonical()


def test_one_read_makes_every_written_row_known():
    """Each gate row that write_netlist writes is canonical, so one read
    puts it in the table and every later read of it is a lookup."""
    for synth, kind, widths in (
        (synth_general, "any", range(3, 6)),
        (synth_even, "even", range(3, 6)),
        (synth_conservative, "conservative", range(4, 9)),
    ):
        for n in widths:
            text = write_netlist(synth(sample_permutation(n, kind, seed=n)))
            netlist._PRIMITIVE_ROWS.clear()
            read_netlist(text)
            rows = text.splitlines()
            gate_rows = [r for r in rows if not r.startswith(("lines ", "role "))]
            assert gate_rows, (kind, n)
            assert set(gate_rows) <= set(netlist._PRIMITIVE_ROWS), (kind, n)
    _assert_table_canonical()


def test_row_table_is_empty_at_import():
    code = (
        "import revsynth, revsynth.netlist as n\n"
        "assert type(n._PRIMITIVE_ROWS) is dict and not n._PRIMITIVE_ROWS\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
