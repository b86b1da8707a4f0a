"""VTOF-alphabet synthesis: any permutation on n+1 lines, one borrowed line.

Building blocks are gate-list fragments over explicit lines: NOT, CNOT,
CCNOT, the recursive multi-controlled NOT that every CKNOT macro lowers
to, the increment ladder that adds 1 to a register of lines (the
generator T2' on all n lines, used by the token-pair fragments in
``even``), and ``synth_add_constant``, which adds any constant.
``synth_general`` swaps each transposition of the target with
one full-width multi-controlled NOT conjugated by CNOTs and NOTs
(``transposition_gates``) and lowers everything to VTOF gates.

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


def transposition_gates(a: int, b: int, width: int) -> tuple[GateInstance, ...]:
    """Macro gates on data lines ``1..width`` that swap states ``a`` and
    ``b`` and fix every other state.

    Line ``p`` is the first line where ``a`` and ``b`` differ. CNOTs from
    ``p`` onto the other differing lines make the two states differ on
    ``p`` alone; NOTs then set every other line of both to 1, so a single
    CKNOT on target ``p``, controlled by all other lines, swaps exactly
    them. The NOTs and CNOTs are undone in reverse order.
    """
    diff = [l for l in range(1, width + 1) if (a ^ b) >> (width - l) & 1]
    p = diff[0]
    cnots = [cnot(p, q) for q in diff[1:]]
    low = min(a, b)  # 0 on line p, so the CNOTs leave it alone
    others = [l for l in range(1, width + 1) if l != p]
    nots = [not_gate(l) for l in others if not low >> (width - l) & 1]
    return (*cnots, *nots, cknot(others, p), *reversed(nots), *reversed(cnots))


def synth_general(p: Permutation) -> Circuit:
    """Compile any permutation to a VTOF netlist on ``width + 1`` lines.

    The extra line is borrowed: it may hold either value and is always
    restored. Each transposition of ``p``, in list order, becomes one
    ``transposition_gates`` block, so the only wide gate per transposition
    is one full-width CKNOT (transformation-based synthesis in the style of
    Miller, Maslov and Dueck, DAC 2003). Macro expansion then lowers the
    blocks: the full-width CKNOTs borrow the extra line, the CNOTs and NOTs
    borrow free data lines.
    """
    n = p.width
    if not GENERAL_MIN_WIDTH <= n <= GENERAL_MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"general synthesis supports widths "
            f"{GENERAL_MIN_WIDTH}..{GENERAL_MAX_WIDTH}, got {n}"
        )
    gates: list[GateInstance] = []
    for a, b in p.to_transpositions():
        gates.extend(transposition_gates(a, b, n))
    macro = Circuit(
        n + 1,
        tuple(gates),
        roles=(LineRole.DATA,) * n + (LineRole.BORROWED,),
    )
    from .expand import expand_macros

    return expand_macros(macro, "VTOF")
