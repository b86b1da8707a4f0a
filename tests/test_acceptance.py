"""Acceptance gate: twelve end-to-end criteria, one test and one printed
verdict line each.

Each test prints ``criterion NN [PASS|FAIL] ...`` straight to the
terminal (bypassing capture) and then asserts, so a plain ``pytest`` run
shows the per-criterion scoreboard. Later criteria reuse artifacts from
earlier ones only through the round-trip collector, which checks each
emitted netlist the moment it appears instead of hoarding them.
"""

from __future__ import annotations

import random
import time

from revsynth.analysis import (
    ckswap_parity_formula,
    embedded_gate_permutation,
    embedded_parity,
    independence_check,
    parity_vector,
)
from revsynth.circuit import (
    Circuit,
    LineRole,
    apply_gate,
    bit_of,
    circuit_to_permutation,
    fred,
    vtof,
)
from revsynth.errors import OddPermutationError
from revsynth.even import synth_even
from revsynth.fredkin import _merged_ckswap, synth_ckswap, synth_conservative
from revsynth.generators import TransformToken, decompose_generators
from revsynth.netlist import read_netlist, write_netlist
from revsynth.permutation import Permutation, sample_permutation
from revsynth.toffoli import synth_cknot, synth_cnot, synth_general, synth_not
from revsynth.verify import verify_realizes

from conftest import cknot_permutation, ckswap_permutation

# Criterion 12 wants write-then-read identity on every netlist the
# synthesis criteria produce. Round-tripping eagerly keeps memory flat.
_ROUND_TRIPS = {"checked": 0, "failed": 0}


def _collect(circuit: Circuit) -> None:
    text = write_netlist(circuit)
    _ROUND_TRIPS["checked"] += 1
    if read_netlist(text) != circuit:
        _ROUND_TRIPS["failed"] += 1


def _report(
    capsys, num: int, ok: bool, detail: str, elapsed: float,
    budget: float | None = None,
) -> None:
    tag = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s"
    if budget is not None:
        timing += f", budget {budget:.0f}s"
    with capsys.disabled():
        print(f"criterion {num:2d} [{tag}] {detail} ({timing})")


def test_criterion_01_primitive_truth_tables(capsys):
    start = time.perf_counter()
    ok = True
    v = vtof(1, 2, 3)
    f = fred(1, 2, 3)
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                s = (a << 2) | (b << 1) | c
                want_v = (a << 2) | ((b ^ 1) << 1) | ((a & b) ^ c)
                ok &= apply_gate(v, s, 3) == want_v
                want_f = (a << 2) | ((c << 1) | b if a else (b << 1) | c)
                ok &= apply_gate(f, s, 3) == want_f
    ok &= apply_gate(v, 0b000, 3) == 0b010
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1
    _report(capsys, 1, ok, "VTOF and FRED truth tables on all 8 inputs", elapsed, 1)
    assert ok


def test_criterion_02_base_cascades(capsys):
    start = time.perf_counter()
    cnot_gates = synth_cnot(1, 3, 2)
    not_gates = synth_not(3, (1, 2))
    ok = len(cnot_gates) == 2 and len(not_gates) == 4
    # Full-mapping equality quantifies the helpers over both start values.
    cnot_map = circuit_to_permutation(Circuit(3, cnot_gates))
    not_map = circuit_to_permutation(Circuit(3, not_gates))
    ok &= cnot_map.mapping == cknot_permutation(3, (1,), 3).mapping
    ok &= not_map.mapping == cknot_permutation(3, (), 3).mapping
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1
    _report(
        capsys, 2, ok,
        "2-gate CNOT and 4-gate NOT with helpers restored", elapsed, 1,
    )
    assert ok


def test_criterion_03_cknot_family(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(1, 7):
        free = {1: 1, 2: 0}.get(k, 1)
        width = k + 1 + free
        lines = tuple(range(1, width + 1))
        gates = synth_cknot(k, lines)
        roles = (
            (LineRole.DATA,) * (k + 1) + (LineRole.BORROWED,) * free
        )
        circuit = Circuit(width, gates, roles)
        got = circuit_to_permutation(circuit)
        want = cknot_permutation(width, lines[:k], lines[k])
        ok &= got.mapping == want.mapping
        _collect(circuit)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    _report(
        capsys, 3, ok,
        "C^kNOT exact for k=1..6 under both borrowed values", elapsed, 5,
    )
    assert ok


def test_criterion_04_general_universality(capsys):
    start = time.perf_counter()
    ok = True
    for width, count in ((3, 200), (4, 50)):
        for i in range(count):
            p = sample_permutation(width, "any", seed=40_000 + 97 * i + width)
            c = synth_general(p)
            report = verify_realizes(c, p, backend="general")
            ok &= report.passed and report.lines == width + 1
            ok &= c.roles == (LineRole.DATA,) * width + (LineRole.BORROWED,)
            _collect(c)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    _report(
        capsys, 4, ok,
        "200 n=3 and 50 n=4 permutations on n+1 lines, borrowed restored",
        elapsed, 60,
    )
    assert ok


def test_criterion_05_even_universality(capsys):
    start = time.perf_counter()
    ok = True
    for width, count in ((3, 100), (4, 25)):
        for i in range(count):
            p = sample_permutation(width, "even", seed=50_000 + 89 * i + width)
            c = synth_even(p)
            report = verify_realizes(c, p, backend="even")
            ok &= report.passed and report.lines == width
            _collect(c)
    # Every odd input must bounce: all 28 transpositions at n=3, plus
    # random odd permutations at n=4.
    rng = random.Random(505)
    odd_inputs = [
        Permutation.from_cycle(3, (a, b))
        for a in range(8) for b in range(a + 1, 8)
    ]
    while len(odd_inputs) < 28 + 25:
        p = sample_permutation(4, "any", seed=rng.getrandbits(32))
        if not p.is_even():
            odd_inputs.append(p)
    for p in odd_inputs:
        try:
            synth_even(p)
            ok = False
        except OddPermutationError:
            pass
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120
    _report(
        capsys, 5, ok,
        "125 even permutations on exactly n lines; 53 odd inputs rejected",
        elapsed, 120,
    )
    assert ok


def test_criterion_06_even_token_counts(capsys):
    start = time.perf_counter()
    ok = True
    for i in range(100):
        width = 3 + (i % 2)
        p = sample_permutation(width, "even", seed=60_000 + 101 * i)
        tokens = decompose_generators(p)
        swaps = sum(1 for t in tokens if t is TransformToken.T1P)
        shifts = len(tokens) - swaps
        ok &= swaps % 2 == 0 and shifts % 2 == 0
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    _report(
        capsys, 6, ok,
        "100 even permutations decompose to even counts of both tokens",
        elapsed, 10,
    )
    assert ok


def test_criterion_07_ckswap_family(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(1, 6):
        c = synth_ckswap(k)
        want = ckswap_permutation(k + 2, tuple(range(1, k + 1)), k + 1, k + 2)
        report = verify_realizes(c, want, backend="ckswap")
        ok &= report.passed
        _collect(c)
    # Borrowed-pair lowering: identity whenever the pair starts equal,
    # exhaustive at widths 6 and 7.
    for k in (2, 3):
        width = k + 4
        lines = tuple(range(1, k + 3))
        pair = (k + 3, k + 4)
        frag = Circuit(width, tuple(_merged_ckswap(lines[:k], lines[k:], pair)))
        got = circuit_to_permutation(frag)
        for s in range(1 << width):
            if bit_of(s, pair[0], width) == bit_of(s, pair[1], width):
                ok &= got(s) == s
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    _report(
        capsys, 7, ok,
        "C^kSWAP exact for k=1..5 with ancilla restored; equal-pair identity",
        elapsed, 10,
    )
    assert ok


def test_criterion_08_conservative_universality(capsys):
    start = time.perf_counter()
    ok = True
    pinned0 = pinned1 = 0
    for width, count in ((4, 25), (5, 10)):
        for i in range(count):
            p = sample_permutation(
                width, "conservative", seed=80_000 + 83 * i + width
            )
            c = synth_conservative(p)
            report = verify_realizes(c, p, backend="conservative")
            ok &= report.passed and report.lines == width + 1
            anc = c.roles[-1]
            ok &= anc in (LineRole.ANCILLA0, LineRole.ANCILLA1)
            if anc is LineRole.ANCILLA0:
                pinned0 += 1
            else:
                pinned1 += 1
            ok &= circuit_to_permutation(c).is_conservative()
            _collect(c)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120
    _report(
        capsys, 8, ok,
        "35 conservative permutations on n+1 lines with one ancilla; "
        "all weight-preserving",
        elapsed, 120,
    )
    with capsys.disabled():
        print(
            f"             note: ancilla pinned at 0 for {pinned0} targets and "
            f"at 1 for {pinned1}; a 0 pin is only possible when the target "
            "fixes every one-hot state, since swap-based gates cannot move a "
            "global state holding a single 1"
        )
    assert ok


def test_criterion_09_parity_vectors(capsys):
    start = time.perf_counter()
    ok = True
    for m in range(3, 11):
        for k in range(0, min(5, m - 2) + 1):
            brute = parity_vector(embedded_gate_permutation(k, m))
            ok &= ckswap_parity_formula(k, m) == brute
    rng = random.Random(909)
    for _ in range(10):
        m = rng.randint(3, 5)
        p = sample_permutation(m, "conservative", seed=rng.getrandbits(32))
        q = sample_permutation(m, "conservative", seed=rng.getrandbits(32))
        ok &= parity_vector(p.then(q)) == parity_vector(p) ^ parity_vector(q)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30
    _report(
        capsys, 9, ok,
        "closed form matches brute parity for k<=5, m<=10; additivity holds",
        elapsed, 30,
    )
    assert ok


def test_criterion_10_independence(capsys):
    start = time.perf_counter()
    ok = True
    for m in range(5, 13):
        for k in range(2, m - 1):
            ok &= independence_check(k, m).verdict == "independent"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1
    _report(
        capsys, 10, ok,
        "C^kSWAP outside the span of its predecessors for 2<=k<=m-2, m=5..12",
        elapsed, 1,
    )
    assert ok


def test_criterion_11_embedded_parity(capsys):
    start = time.perf_counter()
    ok = True
    for i in range(100):
        g = sample_permutation(3, "any", seed=110_000 + i)
        ok &= embedded_parity(g, 4) == "even"
        ok &= embedded_parity(g, 5) == "even"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5
    _report(
        capsys, 11, ok,
        "100 random 3-bit gates embed evenly at n=4 and n=5",
        elapsed, 5,
    )
    assert ok


def test_criterion_12_netlist_round_trip(capsys):
    start = time.perf_counter()
    checked = _ROUND_TRIPS["checked"]
    failed = _ROUND_TRIPS["failed"]
    # Criteria 3, 4, 5, 7 and 8 each fed the collector at least once.
    ok = failed == 0 and checked >= 6 + 250 + 125 + 5 + 35
    elapsed = time.perf_counter() - start
    _report(
        capsys, 12, ok,
        f"write-then-read identity on all {checked} emitted netlists",
        elapsed,
    )
    assert ok
