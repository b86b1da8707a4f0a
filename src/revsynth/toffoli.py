"""VTOF-alphabet synthesis: any permutation on n+1 lines, one borrowed line.

Building blocks are gate-list fragments over explicit lines: NOT, CNOT,
CCNOT, the recursive multi-controlled NOT that every CKNOT macro lowers
to, the increment ladder that adds 1 to a register of lines (the
generator T2' on all n lines, used by the token-pair fragments in
``even``), and ``synth_add_constant``, which adds any constant.

Both VTOF routes compile by conjugation (Shende, Prasad, Markov and
Hayes, IEEE TCAD 2003). ``conjugation_gates`` builds a CNOT/NOT list
sigma that carries the two states of a transposition, or the four of a
pair of disjoint transpositions, onto states that one wide multi-controlled
NOT swaps; ``append_conjugation`` emits sigma, that gate and sigma
reversed, and cancels equal gates where blocks meet. ``synth_general``
uses one full-width CKNOT per transposition of the target and lowers
everything to VTOF gates; ``even.synth_even`` uses one C^(n-2)NOT per pair.

The helper lines these fragments take are value-independent: every fragment
restores each helper for both of its start values, which is what lets a
single extra line serve the whole netlist.
"""

from __future__ import annotations

from typing import Sequence

from .circuit import Circuit, GateInstance, LineRole, cknot, cnot, not_gate, vtof
from .errors import InsufficientLinesError, WidthOutOfRangeError
# Unused here, but perfbench/tracer.py patches this binding and requires it.
from .generators import decompose_generators  # noqa: F401
from .permutation import Permutation

GENERAL_MIN_WIDTH = 3
GENERAL_MAX_WIDTH = 15


def synth_not(target: int, helpers: tuple[int, int]) -> tuple[GateInstance, ...]:
    """Invert ``target`` with 4 VTOF gates; both helpers are restored for
    every combination of their start values."""
    p, q = helpers
    if len({target, p, q}) != 3:
        raise InsufficientLinesError(
            f"NOT needs three distinct lines, got target {target}, helpers {helpers}"
        )
    return (
        vtof(p, q, target),
        vtof(q, p, target),
        vtof(p, q, target),
        vtof(q, p, target),
    )


def synth_cnot(control: int, target: int, helper: int) -> tuple[GateInstance, ...]:
    """XOR ``control`` into ``target`` with 2 VTOF gates; the helper serves
    as the invert-line twice and ends restored for both start values."""
    if len({control, target, helper}) != 3:
        raise InsufficientLinesError(
            f"CNOT needs three distinct lines, got {control}, {target}, {helper}"
        )
    g = vtof(control, helper, target)
    return (g, g)


def synth_ccnot(c1: int, c2: int, target: int) -> tuple[GateInstance, ...]:
    """Toffoli on three lines: one VTOF (which also flips ``c2``) followed
    by the 4-gate NOT on ``c2`` to undo the flip. Self-contained: 5 gates,
    no lines beyond the three given."""
    return (vtof(c1, c2, target),) + synth_not(c2, (c1, target))


def synth_cknot(k: int, lines: Sequence[int]) -> tuple[GateInstance, ...]:
    """Multi-controlled NOT: flip ``lines[k]`` iff ``lines[:k]`` are all 1.

    ``lines`` is ``k`` controls, the target, then the free lines the
    construction may use as helpers (restored for both values, so borrowed
    lines qualify). Needs two free lines when ``k == 0``, one when
    ``k == 1`` or ``k >= 3``, none when ``k == 2``. For ``k >= 3`` the
    recursion peels off the last control against a single free line ``x``:
    the ``k - 1``-control child (with ``x`` standing in for that control,
    and the peeled control as its target) runs twice, each time followed by
    a Toffoli joining the peeled control and ``x`` into the target. Size is
    ``T(k) = 2 T(k - 1) + 10`` gates, ``T(2) = 5``: it doubles per control.
    """
    if k < 0:
        raise ValueError(f"control count must be nonnegative, got {k}")
    if len(lines) < k + 1:
        raise InsufficientLinesError(
            f"CKNOT with {k} controls needs at least {k + 1} lines, got {len(lines)}"
        )
    controls = tuple(lines[:k])
    target = lines[k]
    free = tuple(lines[k + 1:])
    if k == 0:
        if len(free) < 2:
            raise InsufficientLinesError("NOT needs two free helper lines")
        return synth_not(target, (free[0], free[1]))
    if k == 1:
        if not free:
            raise InsufficientLinesError("CNOT needs one free helper line")
        return synth_cnot(controls[0], target, free[0])
    if k == 2:
        return synth_ccnot(controls[0], controls[1], target)
    if not free:
        raise InsufficientLinesError(
            f"CKNOT with {k} controls needs one free line beyond its {k + 1} gate lines"
        )
    x = free[0]
    child = synth_cknot(
        k - 1, (*controls[:-1], x, controls[-1], target, *free[1:])
    )
    join = synth_ccnot(controls[-1], x, target)
    return child + join + child + join


def increment(lines: Sequence[int]) -> tuple[GateInstance, ...]:
    """Add 1 to the register formed by ``lines`` (MSB first), modulo
    ``2**len(lines)``; every other line is untouched.

    One CKNOT per carry length, emitted widest first so every gate reads
    the original low bits: the gate targeting ``lines[i]`` fires iff all
    lines after it are 1. Each gate is self-inverse, so the reversed
    ladder subtracts 1.
    """
    return tuple(cknot(lines[i + 1:], lines[i]) for i in range(len(lines)))


def synth_add_constant(r: int, lines: Sequence[int]) -> tuple[GateInstance, ...]:
    """Add ``r`` to the register formed by ``lines`` (MSB first), modulo
    ``2**len(lines)``; every other line is untouched.

    ``r`` is written in non-adjacent form (signed binary with no two
    neighbouring nonzero digits), so at most ``(len(lines) + 1) // 2``
    digits are nonzero. A digit ``+-2**j`` adds or subtracts 1 on the top
    ``len(lines) - j`` lines, i.e. one increment ladder or its reverse.
    """
    m = len(lines)
    r %= 1 << m
    gates: list[GateInstance] = []
    j = 0
    while r:
        if r & 1:
            step = increment(lines[: m - j])
            if r & 2:  # digit -1: r = 4q + 3 continues as 4q + 4
                gates.extend(reversed(step))
                r += 1
            else:
                gates.extend(step)
                r -= 1
        r >>= 1
        j += 1
    return tuple(gates)


def conjugation_gates(
    states: Sequence[int], pivots: Sequence[int], n: int
) -> list[GateInstance]:
    """Macro gates ``sigma`` on lines ``1..n`` that carry 2 or 4 distinct
    states onto the states one wide CKNOT on target ``pivots[0]`` swaps.

    CNOTs row-reduce the differences of the states from ``states[0]``
    onto the unit vectors of the pivot lines, in order. A row that misses
    its pivot first takes it from its highest set bit, which lies above
    every earlier pivot when ``pivots`` is one line or lines n, n-1, n-2.
    The last difference of a quadruple whose XOR is 0 is the sum of the
    other two, so it is not reduced. NOTs then send ``states[0]`` to T
    with line ``pivots[0]`` cleared, where T = 2**n - 1.

    A pair lands on T - e_p and T, in order, where p = ``pivots[0]``
    (the general route takes a line where the two differ). A quadruple a, b, c, d with pivots n, n-1, n-2 lands
    on T-1, T, T-3, T-2: when a^b^c^d is nonzero d first lands on T-5,
    and three Toffolis with one negative control each on lines
    x, y, z = n-2, n-1, n (z ^= ~x y, y ^= ~x z, x ^= ~y z) carry it to
    T-2 while fixing T-3, T-1 and T.
    """
    gates: list[GateInstance] = []
    a = states[0]
    rows = [a ^ s for s in states[1:]]
    if len(rows) == 3 and not rows[0] ^ rows[1] ^ rows[2]:  # a^b^c^d == 0
        rows.pop()

    def cnot_bits(control: int, target: int) -> None:
        # Bit i of a state is line n - i.
        nonlocal a
        gates.append(cnot(n - control, n - target))
        for r, v in enumerate(rows):
            rows[r] = v ^ (v >> control & 1) << target
        a ^= (a >> control & 1) << target

    for i, line in enumerate(pivots[: len(rows)]):
        bit = n - line
        if not rows[i] >> bit & 1:
            cnot_bits(rows[i].bit_length() - 1, bit)
        w = rows[i]
        for q in range(w.bit_length()):
            if q != bit and w >> q & 1:
                cnot_bits(bit, q)
    flips = a ^ ((1 << n) - 1) ^ (1 << (n - pivots[0]))
    twisted = len(rows) == 3
    if twisted:
        # Each Toffoli sits between two NOTs on its negated control. The
        # NOT x pair between the first two cancels, and the leading NOT x
        # joins the flips.
        flips ^= 1 << (n - pivots[2])
    gates += [not_gate(l) for l in range(1, n + 1) if flips >> (n - l) & 1]
    if twisted:
        z, y, x = pivots
        gates += [cknot((x, y), z), cknot((x, z), y), not_gate(x),
                  not_gate(y), cknot((y, z), x), not_gate(y)]
    return gates


def append_conjugation(
    gates: list[GateInstance], sigma: list[GateInstance], centre: GateInstance
) -> None:
    """Append ``sigma``, the CKNOT ``centre`` and ``sigma`` reversed to
    ``gates`` (every gate is self-inverse, so the reversal undoes sigma).

    A trailing gate of ``sigma`` whose target is not a control of the
    centre, and which does not read the centre's target, commutes with the
    centre and would meet its own mirror, so it is left out. At the seam,
    each gate of the new block cancels an equal gate on top of ``gates``
    until one does not; no two neighbours inside a block are equal, so
    this is a full stack pass over the appended gates.
    """
    controls, target = centre.lines[:-1], centre.lines[-1]
    while sigma and sigma[-1].lines[-1] not in controls and (
        target not in sigma[-1].lines[:-1]
    ):
        sigma.pop()
    block = (*sigma, centre, *reversed(sigma))
    i = 0
    while gates and i < len(block) and gates[-1] == block[i]:
        gates.pop()
        i += 1
    gates += block[i:]


def synth_general(p: Permutation) -> Circuit:
    """Compile any permutation to a VTOF netlist on ``width + 1`` lines.

    The extra line is borrowed: it may hold either value and is always
    restored. Each transposition (a b) of ``p``, in list order, becomes one
    conjugation: with t the first line where a and b differ,
    ``conjugation_gates`` sends them to T - e_t and T, and one full-width
    CKNOT on target t, controlled by every other data line, swaps them.
    So the only wide gate per transposition is that CKNOT
    (transformation-based synthesis in the style of Miller, Maslov and
    Dueck, DAC 2003). Macro expansion then lowers the blocks: the
    full-width CKNOTs borrow the extra line, the CNOTs and NOTs borrow free
    data lines.
    """
    n = p.width
    if not GENERAL_MIN_WIDTH <= n <= GENERAL_MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"general synthesis supports widths "
            f"{GENERAL_MIN_WIDTH}..{GENERAL_MAX_WIDTH}, got {n}"
        )
    lines = range(1, n + 1)
    centres = {t: cknot([l for l in lines if l != t], t) for t in lines}
    gates: list[GateInstance] = []
    for a, b in p.to_transpositions():
        t = n + 1 - (a ^ b).bit_length()
        sigma = conjugation_gates((a, b) if a < b else (b, a), (t,), n)
        append_conjugation(gates, sigma, centres[t])
    macro = Circuit(
        n + 1,
        tuple(gates),
        roles=(LineRole.DATA,) * n + (LineRole.BORROWED,),
    )
    from .expand import expand_macros

    return expand_macros(macro, "VTOF")
