"""Exhaustive verification: pass/fail verdicts, role handling, and
counterexample reporting."""

from __future__ import annotations

import random

import pytest

from revsynth import verify
from revsynth.circuit import (
    VTOF,
    Circuit,
    LineRole,
    cknot,
    ckswap,
    final_line_masks,
    fred,
    masks_to_mapping,
    simulate,
    swap,
    vtof,
)
from revsynth.errors import WidthMismatchError
from revsynth.even import synth_even
from revsynth.fredkin import synth_conservative
from revsynth.permutation import Permutation, sample_permutation
from revsynth.toffoli import synth_general
from revsynth.verify import verify_realizes
from revsynth.weights import bits

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


def reference_verify(
    c: Circuit, target: Permutation
) -> tuple[str, str, str] | None:
    """Reference verifier, one state at a time: simulate all ``2**width``
    states, then check each valid one in ascending order. Returns the first
    counterexample as (input, expected, actual), or None on a pass."""
    data = c.lines_with_role(LineRole.DATA)
    w = c.width
    mapping = masks_to_mapping(final_line_masks(c), w)
    data_shifts = [w - l for l in data]
    data_bits = sum(1 << sh for sh in data_shifts)
    aux_keep = ((1 << w) - 1) ^ data_bits
    anc0 = sum(1 << (w - l) for l in c.lines_with_role(LineRole.ANCILLA0))
    anc1 = sum(1 << (w - l) for l in c.lines_with_role(LineRole.ANCILLA1))
    for s in range(1 << w):
        if s & anc0 or (s & anc1) != anc1:
            continue
        d = 0
        for sh in data_shifts:
            d = (d << 1) | ((s >> sh) & 1)
        out = target(d)
        e = s & aux_keep
        for i, sh in enumerate(data_shifts):
            e |= ((out >> (len(data) - 1 - i)) & 1) << sh
        if mapping[s] != e:
            return bits(s, w), bits(e, w), bits(mapping[s], w)
    return None


def assert_matches_reference(c: Circuit, target: Permutation) -> bool:
    """Same verdict and counterexample as the reference; returns the pass."""
    report = verify_realizes(c, target)
    ce = report.counterexample
    got = None if ce is None else (ce.input, ce.expected, ce.actual)
    assert got == reference_verify(c, target)
    assert report.passed == (got is None)
    return report.passed


@pytest.mark.parametrize(
    "synth, kind, width",
    [
        (synth_general, "any", 3),
        (synth_even, "even", 3),
        (synth_conservative, "conservative", 5),
    ],
)
def test_gate_deletion_mutants_match_reference(synth, kind, width):
    # 10 targets, 5 single-gate deletions each: 50 mutants per route.
    rng = random.Random(width)
    verdicts = []
    for seed in range(10):
        target = sample_permutation(width, kind, seed)
        c = synth(target)
        assert assert_matches_reference(c, target)
        for i in rng.sample(range(len(c.gates)), 5):
            mutant = Circuit(c.width, c.gates[:i] + c.gates[i + 1:], c.roles)
            verdicts.append(assert_matches_reference(mutant, target))
    assert len(verdicts) == 50 and not all(verdicts)


def random_layout_case(seed: int) -> tuple[Circuit, Permutation]:
    """A random role layout on 5-6 lines with a random gate list, and a
    target that the circuit realizes whenever it restores its non-data
    lines (when the data action is not a bijection, a random target)."""
    rng = random.Random(seed)
    w = rng.choice((5, 6))
    pool = (LineRole.DATA,) * 3 + (
        LineRole.BORROWED, LineRole.ANCILLA0, LineRole.ANCILLA1,
    )
    roles = [LineRole.DATA] + [rng.choice(pool) for _ in range(w - 1)]
    rng.shuffle(roles)
    gates = []
    for _ in range(rng.randint(1, 8)):
        c_, i, t = rng.sample(range(1, w + 1), 3)
        pick = rng.random()
        if pick < 0.4:
            # Two equal VTOFs restore the invert line and act as a CNOT.
            gates += [vtof(c_, i, t)] * 2
        elif pick < 0.7:
            gates.append(fred(c_, i, t))
        elif pick < 0.85:
            gates.append(vtof(c_, i, t))
        else:
            gates.append(cknot((c_, i), t))
    c = Circuit(w, tuple(gates), tuple(roles))
    data = c.lines_with_role(LineRole.DATA)
    n = len(data)
    anc1 = sum(1 << (w - l) for l in c.lines_with_role(LineRole.ANCILLA1))
    images = []
    for d in range(1 << n):
        s = anc1
        for j, l in enumerate(data):
            s |= (d >> (n - 1 - j) & 1) << (w - l)
        out = simulate(c, s)
        images.append(
            sum((out >> (w - l) & 1) << (n - 1 - j) for j, l in enumerate(data))
        )
    if len(set(images)) != len(images):
        images = rng.sample(range(1 << n), 1 << n)
    return c, Permutation(n, images)


def test_random_role_layouts_match_reference():
    seen = {"pass": 0, "fail": 0, "borrowed first": 0, "two borrowed": 0,
            "1-ancilla invert": 0}
    for seed in range(60):
        c, target = random_layout_case(seed)
        seen["pass" if assert_matches_reference(c, target) else "fail"] += 1
        borrowed = c.lines_with_role(LineRole.BORROWED)
        seen["borrowed first"] += bool(borrowed) and borrowed[0] < max(
            c.lines_with_role(LineRole.DATA)
        )
        seen["two borrowed"] += len(borrowed) >= 2
        seen["1-ancilla invert"] += any(
            g.kind is VTOF and c.roles[g.lines[1] - 1] is LineRole.ANCILLA1
            for g in c.gates
        )
    assert min(seen.values()) >= 5, seen


def test_constant_ancillas_are_not_enumerated(monkeypatch):
    # A conservative netlist on n + 1 lines simulates 2**n states; the
    # borrowed line of a general netlist doubles them.
    apply = verify.apply_gates_bitsliced
    state_bits = []

    def record(gates, masks, m):
        state_bits.append(m)
        return apply(gates, masks, m)

    monkeypatch.setattr(verify, "apply_gates_bitsliced", record)
    p = sample_permutation(4, "conservative", 0)
    assert verify_realizes(synth_conservative(p), p).passed
    q = sample_permutation(4, "any", 0)
    assert verify_realizes(synth_general(q), q).passed
    assert state_bits == [4, 5]
