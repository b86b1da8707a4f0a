"""Even-permutation synthesis on exactly n lines, no extra inputs.

An even permutation is a product of pairs of disjoint transpositions
(``permutation.disjoint_pairs``). Each pair ``(a b)(c d)`` is one block
of ``toffoli.conjugated_netlist``: one C^(n-2)NOT on controls 1..n-2 and
target n, which swaps T-3 with T-2 and T-1 with T (T = 2**n - 1),
conjugated by a CNOT list sigma with pivot lines n, n-1, n-2 that sends
the images of a, b under the pipeline's running linear frame onto T-1, T
and those of c, d onto T-3, T-2 (either way round, through a twisted
tail, when a^b^c^d is nonzero). The pivots and controls are the same for
every pair. sigma is not reversed; the frame takes it on, and one CNOT
network after the last pair undoes the frame. Line n-1 is the one line
that C^(n-2)NOT leaves free, so its lowering borrows it, each CNOT
borrows a data line it leaves free, and the width never grows.

The paper's own generator argument survives as line-exact fragments that
``synth_even`` does not call: ``synth_pair`` realizes each adjacent pair
M1-M4 of primed tokens on n lines, the mixed pairs through
``synth_fused``, which joins the top-state swap to a full-width
controlled NOT.
"""

from __future__ import annotations

import enum

from .circuit import Circuit, LineRole, cknot
from .errors import OddPermutationError, WidthOutOfRangeError
# Unused here, but perfbench/tracer.py patches this binding and requires it.
from .generators import decompose_generators  # noqa: F401
from .permutation import MAX_WIDTH, Permutation, disjoint_pairs
from .toffoli import conjugated_netlist, increment

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
    width: no ancilla, no borrowed lines. Each disjoint pair is one
    conjugated C^(n-2)NOT, on the same pivots and controls whatever the
    pair's images; its lowering borrows free data lines.
    """
    n = p.width
    if not EVEN_MIN_WIDTH <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"even synthesis supports widths {EVEN_MIN_WIDTH}..{MAX_WIDTH}, got {n}"
        )
    if not p.is_even():
        raise OddPermutationError("permutation is odd")
    centre = (n, n - 1, n - 2), range(1, n - 1)
    blocks = (ab + cd for ab, cd in disjoint_pairs(p.mapping))
    return conjugated_netlist(blocks, n, (LineRole.DATA,) * n, lambda _: centre)
