"""VTOF-alphabet synthesis: any permutation on n+1 lines, one borrowed line.

Building blocks are gate-list fragments over explicit lines: NOT, CNOT,
CCNOT, the recursive multi-controlled NOT that every CKNOT macro lowers
to (a control given as a negative line number fires on 0), the
increment ladder that adds 1 to a register of lines (the generator T2'
on all n lines, used by the token-pair fragments in ``even``), and
``synth_add_constant``, which adds any constant.

Both VTOF routes compile by conjugation (Shende, Prasad, Markov and
Hayes, IEEE TCAD 2003), through one pipeline, ``conjugated_netlist``. Each
block names 2 or 4 states; a per-route rule names the pivot lines and the
centre's controls. ``conjugation_gates`` builds a CNOT list sigma, and
the NOT layer ``flips`` that would end it, which carry the two states of
a transposition, or the four of a pair of disjoint transpositions, onto
states that one wide multi-controlled NOT swaps. The NOT layer is folded
into that gate instead of being emitted: ``negated_centre`` negates each
control it flips. A quadruple whose XOR is nonzero also gets a short VTOF
form on lines n-2..n, which puts its four states where that gate swaps
them, and the form's exact inverse (``TWISTED_TAILS``). sigma is linear,
so it is not reversed after its centre: the pipeline keeps a running
frame, the linear map of every CNOT emitted so far, maps each block's
states through it before ``conjugation_gates`` runs, and after the last
block emits one CNOT network (``frame_inverse``, Gauss-Jordan) that
undoes the frame. ``synth_general`` gives one block per transposition of
the target, with a full-width CKNOT; ``even.synth_even`` one per pair,
with a C^(n-2)NOT. The pipeline splits the macro list into distinct
macros plus an order (``circuit.gate_table``) and passes both to
``lower_cknots``, which lowers each distinct CKNOT once with
``synth_cknot`` on the helper lines of ``circuit.helper_order`` that it
leaves free, and, through ``circuit.lower_table``, numbers the gates of
its block once into a table of distinct netlist gates. That table and the
netlist's order make the one ``Circuit`` returned
(``Circuit.from_table``): no macro circuit is built, and the lowered
gates are hashed once per distinct block, not once per emitted gate.
``expand.expand_macros`` lowers VTOF macro netlists with ``lower_cknots``
too. Each CKNOT lowering is kept per line tuple for the whole process
(``_cknot_gates``, under the public ``synth_cknot``), so a centre that
recurs across targets is lowered once.

The helper lines these fragments take are value-independent: every fragment
restores each helper for both of its start values, which is what lets a
single extra line serve the whole netlist.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

from .circuit import (
    CKNOT, VTOF, Circuit, GateInstance, LineRole, cknot, cnot, gate_table,
    helper_order, lower_table, unused_lines, vtof,
)
from .errors import (
    InsufficientLinesError, UnexpandableMacroError, WidthOutOfRangeError,
)
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
    as the invert-line twice and ends restored for both start values.

    A negative ``control`` fires on 0 instead: 6 gates (c, h, x = control,
    helper, target: ``chx chx chx hcx chx hcx``), the shortest VTOF form,
    where NOT, CNOT, NOT costs 10."""
    c = abs(control)
    if len({c, target, helper}) != 3:
        raise InsufficientLinesError(
            f"CNOT needs three distinct lines, got {control}, {target}, {helper}"
        )
    g = vtof(c, helper, target)
    if control > 0:
        return (g, g)
    h = vtof(helper, c, target)
    return (g, g, g, h, g, h)


def synth_ccnot(c1: int, c2: int, target: int) -> tuple[GateInstance, ...]:
    """Toffoli on three lines, 5 VTOF gates and no other line.

    A negative control fires on 0, and every polarity costs 5: each form
    is the shortest, by a search over the 40 320 permutations of 3 lines
    that the tests rerun. As (control, invert, target) triples on lines
    1 = c1, 2 = c2, 3 = target, the Toffoli that fires on (c1, c2) =
    (1, 1) is ``123 132 312 132 312`` (one VTOF, which also flips c2, then
    the 4-gate NOT on c2 that undoes the flip); on (1, 0) it is
    ``123 312 123 213 132``, on (0, 1) ``123 231 213 213 321`` and on
    (0, 0) ``123 123 312 213 132``."""
    a, b = abs(c1), abs(c2)
    t = target
    g = vtof(a, b, t)
    if c1 > 0:
        if c2 > 0:
            return (g, vtof(a, t, b), vtof(t, a, b), vtof(a, t, b), vtof(t, a, b))
        return (g, vtof(t, a, b), g, vtof(b, a, t), vtof(a, t, b))
    if c2 > 0:
        return (g, vtof(b, t, a), vtof(b, a, t), vtof(b, a, t), vtof(t, b, a))
    return (g, g, vtof(t, a, b), vtof(b, a, t), vtof(a, t, b))


def synth_cknot(k: int, lines: Sequence[int]) -> tuple[GateInstance, ...]:
    """Multi-controlled NOT: flip ``lines[k]`` iff each control
    ``lines[:k]`` holds the value it fires on, 1 for a positive line
    number and 0 for a negative one.

    ``lines`` is ``k`` controls, the target, then the free lines the
    construction may use as helpers (restored for both values, so borrowed
    lines qualify). Needs two free lines when ``k == 0``, one when
    ``k == 1`` or ``k >= 3``, none when ``k == 2``. For ``k >= 3`` the
    recursion peels off the last control against a single free line ``x``:
    the ``k - 1``-control child (the other controls, signs kept, with
    ``x`` as its target and the peeled control among its helpers) runs
    twice, each time followed by a Toffoli joining the peeled control,
    with its sign, and ``x`` into the target. Size is
    ``T(k) = 2 T(k - 1) + 10`` gates, ``T(2) = 5``, for every polarity: it
    doubles per control. A negated control costs nothing from ``k = 2``;
    at ``k = 1`` it makes the CNOT 6 gates instead of 2.

    The lowering is kept per line tuple (``_cknot_gates``), so a repeated
    macro costs one lookup after its first call and makes no recursive
    call.
    """
    return _cknot_gates(k, tuple(lines))


# An entry is T(k) gate references, 8 * T(k) bytes: about 30 KB at k = 10.
# Few distinct lowerings occur: one general compile of a random target
# left 83 entries (0.2 MB) at n = 8 and 247 (2.3 MB) at n = 11, a
# compile whose peak RSS was about 200 MB.
@functools.lru_cache(maxsize=4096)
def _cknot_gates(k: int, lines: tuple[int, ...]) -> tuple[GateInstance, ...]:
    """``synth_cknot`` on a line tuple; the child is asked of ``synth_cknot``."""
    if k < 0:
        raise ValueError(f"control count must be nonnegative, got {k}")
    if len(lines) < k + 1:
        raise InsufficientLinesError(
            f"CKNOT with {k} controls needs at least {k + 1} lines, got {len(lines)}"
        )
    controls = lines[:k]
    target = lines[k]
    free = lines[k + 1:]
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
    peeled = controls[-1]
    child = synth_cknot(
        k - 1, (*controls[:-1], x, abs(peeled), target, *free[1:])
    )
    join = synth_ccnot(peeled, x, target)
    return child + join + child + join


def lower_cknots(
    macros: Sequence[GateInstance], order: Sequence[int], helpers: Sequence[int]
) -> tuple[tuple[GateInstance, ...], tuple[int, ...]]:
    """``circuit.lower_table`` of the macro list that plays ``macros[i]``
    for each ``i`` of ``order``, with each CKNOT replaced by its
    ``synth_cknot`` lowering and VTOF gates passed through: a table of
    distinct gates plus an order, the form ``Circuit.from_table`` takes.

    A CKNOT's free lines are the ``unused_lines`` of ``helpers``. Each
    distinct macro is lowered once. A CKSWAP or FRED raises
    ``UnexpandableMacroError``.
    """

    def lower(gate: GateInstance) -> Sequence[GateInstance]:
        kind, lines = gate
        if kind is VTOF:
            return (gate,)
        if kind is CKNOT:
            return synth_cknot(len(lines) - 1, lines + unused_lines(helpers, lines))
        raise UnexpandableMacroError(
            f"cannot expand {kind.value} over the VTOF alphabet"
        )

    return lower_table(macros, order, lower)


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


# Twisted tails, indexed by sigma's NOT layer on x, y, z = n-2, n-1, n
# (bits 2, 1, 0): a VTOF form as (control, invert, target) triples on lines
# 1, 2, 3 = x, y, z; its exact inverse; and the NOT-layer bit of x (1: the
# centre's control x fires on 0). Of all the forms that place the two pairs
# (``conjugation_gates``), each has the least length plus its inverse's, 8
# or 10, by a search over the 40 320 permutations of 3 lines that the tests
# rerun. No form repeats a gate in a row.
TWISTED_TAILS = (
    ("312 213 231 132", "231 132 312 213", 0),  # 000
    ("123 213 312 231", "132 231 132 123 213 312", 0),  # 001
    ("123 132 312 231 312", "132 321 132 213 312", 0),  # 010
    ("213 312 231", "132 231 132 213 312", 0),  # 011
    ("123 132 321 231 321", "231 312 132 213 312", 0),  # 100
    ("123 132 312 231", "132 321 312 213 123 213", 0),  # 101
    ("123 213 312 231 312 132", "321 123 213 132", 0),  # 110
    ("312 213 231", "132 231 132 312 213", 1),  # 111
)


Tail = tuple[tuple[GateInstance, ...], tuple[GateInstance, ...]]
NO_TAIL: Tail = ((), ())


@functools.cache
def _twisted_tails(x: int, y: int, z: int) -> tuple[tuple[Tail, int], ...]:
    """``TWISTED_TAILS`` as gates on lines x, y, z, built on first use.

    The table is text because nested tuple literals of the same forms took
    about 1.4 ms longer to compile on an import with no bytecode cache;
    each line triple is decoded once, so a twisted pair costs one lookup.
    """
    line = {"1": x, "2": y, "3": z}

    def form(text: str) -> tuple[GateInstance, ...]:
        return tuple(vtof(line[c], line[i], line[t]) for c, i, t in text.split())

    return tuple(((form(f), form(g)), x_flip) for f, g, x_flip in TWISTED_TAILS)


def conjugation_gates(
    states: Sequence[int], pivots: Sequence[int], n: int
) -> tuple[list[GateInstance], Tail, int]:
    """CNOT macros ``sigma`` on lines ``1..n``, a VTOF ``tail`` after them
    as a form and its inverse (``NO_TAIL`` but for a twisted quadruple),
    and the NOT layer ``flips`` that follows both, which carry 2 or 4
    distinct states onto states one wide CKNOT on target ``pivots[0]``
    swaps.

    CNOTs row-reduce the differences of the states from ``states[0]``
    onto the unit vectors of the pivot lines, in order. A row that misses
    its pivot first takes it from its highest set bit, which lies above
    every earlier pivot when ``pivots`` is one line or lines n, n-1, n-2.
    The last difference of a quadruple whose XOR is 0 is the sum of the
    other two, so it is not reduced. A NOT on each line of ``flips`` (a
    mask in state bits: line l is bit n - l) then sends ``states[0]`` to
    T with line ``pivots[0]`` cleared, where T = 2**n - 1. Those NOTs are
    not emitted: no gate of ``sigma`` follows them, so around the CKNOT
    each one on a control makes that control negative, and each one on
    another line commutes with the CKNOT and meets its mirror.

    A pair lands on T - e_p and T, in order, where p = ``pivots[0]``
    (the general route takes a line where the two differ). A quadruple
    a, b, c, d with pivots n, n-1, n-2 lands on T-1, T, T-3, T-2 when
    a^b^c^d is 0. Otherwise the CNOTs send them to v, v^e_z, v^e_y,
    v^e_x on lines x, y, z = n-2, n-1, n, and the tail is the
    ``TWISTED_TAILS`` entry for the NOT layer on those lines. Of those
    lines ``flips`` then keeps only the bit of x that the entry gives,
    and the tail and ``flips`` send {a, b} and {c, d} onto {T-1, T} and
    {T-3, T-2}, one pair each, in either order.
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
    if len(rows) < 3:
        return gates, NO_TAIL, flips
    z, y, x = pivots
    tail, x_flip = _twisted_tails(x, y, z)[flips & 0b111]  # lines n-2..n
    return gates, tail, flips & ~0b111 | x_flip << 2


def negated_centre(
    controls: Sequence[int], target: int, flips: int, n: int
) -> GateInstance:
    """The CKNOT on ``controls`` and ``target`` with each control whose
    bit is set in ``flips`` (line l is bit n - l) fired on 0: the centre
    conjugated by the NOT layer ``conjugation_gates`` leaves out."""
    return cknot([-l if flips >> (n - l) & 1 else l for l in controls], target)


def frame_inverse(frame: Sequence[int], n: int) -> list[GateInstance]:
    """CNOT macros that undo the linear map ``frame`` on lines ``1..n``:
    at most n**2 CNOTs, none for the identity.

    ``frame[i]`` is a row mask: output bit i (line n - i) of the map is
    the XOR of the input bits it holds. Gauss-Jordan elimination reduces
    the map's columns to the identity, one column at a time from bit 0.
    Adding column t to column c is the CNOT from line n - t to line n - c
    played before the map, so the CNOTs, played after the map in reverse
    order, undo it. Column elimination emitted fewer CNOTs than row
    elimination on seeded targets of both routes at n = 4..7.
    """
    columns = []
    for j in range(n):
        column = 0
        for row in reversed(frame):
            column = column << 1 | row >> j & 1
        columns.append(column)
    gates: list[GateInstance] = []
    for j in range(n):
        bit = 1 << j
        if not columns[j] & bit:
            c = next(c for c in range(j + 1, n) if columns[c] & bit)
            columns[j] ^= columns[c]
            gates.append(cnot(n - j, n - c))
        pivot = columns[j]
        for c, column in enumerate(columns):
            if column & bit and c != j:
                columns[c] = column ^ pivot
                gates.append(cnot(n - c, n - j))
    gates.reverse()
    return gates


def conjugated_netlist(
    blocks: Iterable[Sequence[int]],
    n: int,
    roles: Sequence[LineRole],
    rule: Callable[[list[int]], tuple[Sequence[int], Sequence[int]]],
) -> Circuit:
    """The netlist on the lines of ``roles`` that swaps the states of each
    block (2 or 4 of them) in pairs, block after block, with one
    conjugated CKNOT per block.

    A running frame holds L, the linear map of every CNOT emitted so far,
    as n row masks: ``frame[i]`` holds the input bits whose XOR is output
    bit i (line n - i). Each block's states are mapped through L, ``rule``
    maps those images to the pivots and the centre's controls, and
    ``conjugation_gates`` runs on the images. The block emits sigma, the
    tail's form, the CKNOT on those controls and target ``pivots[0]``,
    negated where ``flips`` sets them, and the inverse form. Swapping the
    images of the states under sigma after L is the same as swapping the
    states and then playing L and sigma, so sigma is not reversed: L takes
    sigma on instead (a CNOT c -> t is ``frame[n - t] ^= frame[n - c]``),
    and the netlist so far is every block's swap followed by L. After the
    last block the ``frame_inverse`` CNOTs undo L. ``lower_cknots`` lowers
    the macro list on helpers in ``helper_order(roles)``.
    """
    frame = [1 << i for i in range(n)]
    gates: list[GateInstance] = []
    for states in blocks:
        images = []
        for s in states:
            image = 0
            for row in reversed(frame):
                image = image << 1 | (row & s).bit_count() & 1
            images.append(image)
        pivots, controls = rule(images)
        sigma, (forward, inverse), flips = conjugation_gates(images, pivots, n)
        for _, (c, t) in sigma:
            frame[n - t] ^= frame[n - c]
        gates += sigma
        gates += forward
        gates.append(negated_centre(controls, pivots[0], flips, n))
        gates += inverse
    gates += frame_inverse(frame, n)
    table, order = lower_cknots(*gate_table(gates), helper_order(roles))
    return Circuit.from_table(len(roles), table, order, roles)


def synth_general(p: Permutation) -> Circuit:
    """Compile any permutation to a VTOF netlist on ``width + 1`` lines.

    The extra line is borrowed: it may hold either value and is always
    restored. Each transposition (a b) of ``p``, in list order, is one
    block of ``conjugated_netlist``: with t the first line where the
    images of a and b under the running frame differ, sigma sends those
    images, up to its NOT layer, to T - e_t and T, and one full-width
    CKNOT on target t, controlled by every other data line, swaps them.
    So the only wide gate per transposition is that CKNOT
    (transformation-based synthesis in the style of Miller, Maslov and
    Dueck, DAC 2003). It borrows the extra line when lowered; the CNOTs
    borrow free data lines.
    """
    n = p.width
    if not GENERAL_MIN_WIDTH <= n <= GENERAL_MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"general synthesis supports widths "
            f"{GENERAL_MIN_WIDTH}..{GENERAL_MAX_WIDTH}, got {n}"
        )
    lines = range(1, n + 1)
    controls = {t: [l for l in lines if l != t] for t in lines}

    def rule(images: list[int]) -> tuple[tuple[int], list[int]]:
        a, b = images
        t = n + 1 - (a ^ b).bit_length()
        return (t,), controls[t]

    return conjugated_netlist(
        p.to_transpositions(), n, (LineRole.DATA,) * n + (LineRole.BORROWED,), rule
    )
