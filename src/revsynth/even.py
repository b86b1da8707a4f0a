"""Even-permutation synthesis on exactly n lines, no extra inputs.

An even permutation is a product of pairs of disjoint transpositions
(``permutation.disjoint_pairs``). Each pair ``(a b)(c d)`` is one
C^(n-2)NOT conjugated by a short gate list ``sigma`` (Shende, Prasad,
Markov and Hayes, *Synthesis of reversible logic circuits*, IEEE TCAD
2003): the C^(n-2)NOT on controls 1..n-2 and target n swaps T-3 with T-2
and T-1 with T (T = 2**n - 1), and ``toffoli.conjugation_gates`` with
pivot lines n, n-1, n-2 sends a, b onto T-1, T and c, d onto T-3, T-2,
up to the NOT layer it returns as ``flips``. Those NOTs are not emitted:
each one on a control negates that control of the pair's C^(n-2)NOT
(``toffoli.negated_centre``), and the others cancel. When a^b^c^d is
nonzero the CNOTs of sigma are followed by a VTOF form of 3 to 6 gates on
lines n-2..n and the centre by its exact inverse form, 8 or 10 VTOF in
all (``toffoli.TWISTED_TAILS``); they put {a, b} and {c, d} onto those
two pairs, either way round. Line n-1 is the one line that C^(n-2)NOT
leaves free, so its lowering borrows it and the width never grows.
``toffoli.append_conjugation`` leaves out the CNOTs at the end of an
untwisted ``sigma`` that commute with the C^(n-2)NOT and cancels equal
CNOTs where pairs meet; ``toffoli.lower_cknots`` then lowers the macro
list, as distinct macros plus an order, straight into the netlist's table
of distinct gates and its order, with no macro circuit in between.

The paper's own generator argument survives as line-exact fragments that
``synth_even`` does not call: ``synth_pair`` realizes each adjacent pair
M1-M4 of primed tokens on n lines, the mixed pairs through
``synth_fused``, which joins the top-state swap to a full-width
controlled NOT.
"""

from __future__ import annotations

import enum

from .circuit import (
    Circuit, GateInstance, LineRole, cknot, gate_table, helper_order,
)
from .errors import OddPermutationError, WidthOutOfRangeError
# Unused here, but perfbench/tracer.py patches this binding and requires it.
from .generators import decompose_generators  # noqa: F401
from .permutation import MAX_WIDTH, Permutation, disjoint_pairs
from .toffoli import (
    append_conjugation, conjugation_gates, increment, lower_cknots, negated_centre,
)

EVEN_MIN_WIDTH = 3


class TokenPair(enum.Enum):
    """One adjacent pair of primed tokens.

    M1 = swap,swap; M2 = shift,shift; M3 = swap,shift; M4 = shift,swap.
    """

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"


def synth_fused(n: int) -> Circuit:
    """Fragment combining the top-state swap with the full controlled NOT.

    Realizes a ↦ a + aC + bC, b ↦ b + aC over GF(2), where a is line 1,
    b is line n, and C is the product of the middle lines — equivalently,
    swap the two largest states and then flip line 1 when all middle and
    low lines are 1. Four CKNOT gates over a two-way split of the middle
    lines; each has few enough controls to leave a line free to borrow.
    """
    if n < EVEN_MIN_WIDTH:
        raise WidthOutOfRangeError(f"fused gate needs width >= 3, got {n}")
    middles = tuple(range(2, n))
    x_half = middles[: (len(middles) + 1) // 2]
    y_half = middles[len(x_half):]
    k1 = cknot(x_half + (n,), 1)
    k2 = cknot((1,) + y_half, n)
    return Circuit(n, (k1, k2, k1, k2))


def synth_pair(pair: TokenPair, n: int) -> Circuit:
    """Line-exact fragment for one token pair on n lines.

    M1 is empty (the swaps cancel); M2 increments the high lines 1..n-1
    and leaves line n untouched (the shifts compose to +2); M3 and M4 join
    the increment ladder on the low lines 2..n with the fused gate — fused
    first for swap-then-shift, and after a leading high-half CKNOT for
    shift-then-swap.
    """
    if n < EVEN_MIN_WIDTH:
        raise WidthOutOfRangeError(f"pair synthesis needs width >= 3, got {n}")
    if pair is TokenPair.M1:
        return Circuit(n, ())
    if pair is TokenPair.M2:
        return Circuit(n, increment(range(1, n)))
    if pair is TokenPair.M3:
        return Circuit(n, synth_fused(n).gates + increment(range(2, n + 1)))
    head = cknot(tuple(range(2, n)), 1)
    tail = tuple(reversed(synth_fused(n).gates))
    return Circuit(n, (head,) + increment(range(2, n + 1)) + tail)


def synth_even(p: Permutation) -> Circuit:
    """Compile an even permutation to a VTOF netlist on exactly its own
    width: no ancilla, no borrowed lines.

    Each disjoint pair becomes ``sigma``, a twisted pair's VTOF form, the
    C^(n-2)NOT with the controls that the NOT layer flips negated, the
    inverse form and ``sigma`` reversed (``append_conjugation``), less the
    CNOTs at the end of an untwisted ``sigma`` that commute with the
    C^(n-2)NOT and the equal CNOTs that cancel where pairs meet.
    ``lower_cknots`` then lowers the CNOTs and the C^(n-2)NOT, borrowing
    free data lines; the VTOF gates pass through.
    """
    n = p.width
    if not EVEN_MIN_WIDTH <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"even synthesis supports widths {EVEN_MIN_WIDTH}..{MAX_WIDTH}, got {n}"
        )
    if not p.is_even():
        raise OddPermutationError("permutation is odd")
    controls = range(1, n - 1)
    gates: list[GateInstance] = []
    for (a, b), (c, d) in disjoint_pairs(p.mapping):
        sigma, tail, flips = conjugation_gates((a, b, c, d), (n, n - 1, n - 2), n)
        append_conjugation(
            gates, sigma, negated_centre(controls, n, flips, n), tail
        )
    roles = (LineRole.DATA,) * n
    table, order = lower_cknots(*gate_table(gates), helper_order(roles))
    return Circuit.from_table(n, table, order, roles)
