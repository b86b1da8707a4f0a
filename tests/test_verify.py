"""Exhaustive verification: pass/fail verdicts, role handling, and
counterexample reporting."""

from __future__ import annotations

import pytest

from revsynth.circuit import (
    Circuit,
    LineRole,
    cknot,
    ckswap,
    fred,
    swap,
    vtof,
)
from revsynth.errors import WidthMismatchError
from revsynth.permutation import Permutation
from revsynth.verify import verify_realizes

from conftest import cknot_permutation


def test_two_gate_cnot_passes():
    c = Circuit(3, (vtof(1, 2, 3), vtof(1, 2, 3)))
    target = cknot_permutation(3, (1,), 3)
    report = verify_realizes(c, target, backend="general")
    assert report.passed
    assert report.verdict == "pass"
    assert report.backend == "general"
    assert report.width == 3 and report.lines == 3
    assert report.primitive_gate_count == 2
    assert report.roles_summary["data"] == 3
    assert report.counterexample is None


def test_single_gate_against_double_control_fails():
    c = Circuit(3, (vtof(1, 2, 3),))
    target = cknot_permutation(3, (1, 2), 3)
    report = verify_realizes(c, target)
    assert not report.passed
    assert report.verdict == "fail"
    ce = report.counterexample
    # The all-zero input already disagrees: the gate flips its invert
    # line, the target leaves everything alone.
    assert ce.input == "000"
    assert ce.expected == "000"
    assert ce.actual == "010"


def test_counterexample_is_lowest_failing_input():
    # NOT on line 2 against the identity: every input fails; the report
    # must still pick the lowest one.
    c = Circuit(2, (cknot((), 2),))
    report = verify_realizes(c, Permutation.identity(2))
    assert report.counterexample.input == "00"
    assert report.counterexample.actual == "01"


def test_borrowed_line_must_be_restored_for_both_values():
    # The swap only misbehaves when the borrowed line starts at 1, and
    # only inputs with the ancilla at 0 are checked: the counterexample
    # has borrowed = 1, ancilla = 0.
    roles = (LineRole.DATA, LineRole.BORROWED, LineRole.ANCILLA0)
    c = Circuit(3, (swap(2, 3),), roles)
    report = verify_realizes(c, Permutation.identity(1))
    assert not report.passed
    assert report.counterexample.input == "010"
    assert report.counterexample.expected == "010"
    assert report.counterexample.actual == "001"


def test_ancilla_checked_only_at_declared_value():
    # This circuit scrambles states where line 3 is 1; declaring the line
    # a 0-ancilla keeps those states out of scope.
    roles = (LineRole.DATA, LineRole.DATA, LineRole.ANCILLA0)
    c = Circuit(3, (fred(3, 1, 2),), roles)
    report = verify_realizes(c, Permutation.identity(2))
    assert report.passed
    # Declared at 1, the same circuit must realize the line swap instead.
    roles1 = (LineRole.DATA, LineRole.DATA, LineRole.ANCILLA1)
    c1 = Circuit(3, (fred(3, 1, 2),), roles1)
    swap_two = Permutation(2, (0, 2, 1, 3))
    assert verify_realizes(c1, swap_two).passed
    assert not verify_realizes(c1, Permutation.identity(2)).passed


def test_ancilla_must_be_restored():
    # Flipping a 0-ancilla breaks restoration even though the data lines
    # are untouched.
    roles = (LineRole.DATA, LineRole.ANCILLA0)
    c = Circuit(2, (cknot((), 2),), roles)
    report = verify_realizes(c, Permutation.identity(1))
    assert not report.passed
    assert report.counterexample.input == "00"
    assert report.counterexample.expected == "00"
    assert report.counterexample.actual == "01"


def test_data_lines_may_sit_anywhere():
    # Data on lines 1 and 3, borrowed in the middle: the swap of the two
    # data lines realizes the 2-bit line swap.
    roles = (LineRole.DATA, LineRole.BORROWED, LineRole.DATA)
    c = Circuit(3, (ckswap((), 1, 3),), roles)
    swap_two = Permutation(2, (0, 2, 1, 3))
    assert verify_realizes(c, swap_two).passed


def test_width_mismatch_is_an_error():
    c = Circuit(3, ())
    with pytest.raises(WidthMismatchError):
        verify_realizes(c, Permutation.identity(2))


def test_report_counts_only_primitive_gates():
    roles = (LineRole.DATA,) * 3
    c = Circuit(3, (cknot((1,), 2), fred(1, 2, 3), fred(1, 2, 3)), roles)
    report = verify_realizes(c, Permutation.identity(3))
    assert report.primitive_gate_count == 2
