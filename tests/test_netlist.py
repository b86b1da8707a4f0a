"""Netlist text format: golden output, round trips, and parse errors."""

from __future__ import annotations

import random

import pytest

from revsynth.circuit import Circuit, LineRole, cknot, ckswap, fred, vtof
from revsynth.netlist import read_netlist, write_netlist

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


def test_zero_control_macros_round_trip():
    c = Circuit(2, (cknot((), 1), ckswap((), 1, 2)))
    text = write_netlist(c)
    assert "CKNOT 0 1" in text
    assert "CKSWAP 0 1 2" in text
    assert read_netlist(text) == c


_HEAD3 = "lines 3\nrole 1 data\nrole 2 data\nrole 3 data\n"


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
