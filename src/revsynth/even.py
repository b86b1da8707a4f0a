"""Even-permutation synthesis on exactly n lines, no extra inputs.

An even permutation decomposes into primed shift/swap tokens with an even
count of each kind. Token reduction keeps both counts even, so the reduced
stream still splits into adjacent pairs. Each pair kind has a line-exact
realization: doubled swaps cancel, doubled shifts become an increment on
the high lines, and the two mixed pairs become an increment ladder joined
to a single fused gate that combines the top-state swap with a full-width
controlled NOT. A run of doubled shifts becomes one add-constant block on
the high lines. Every gate leaves at least one of the n lines untouched,
so macro expansion borrows within the circuit and the width never grows.
"""

from __future__ import annotations

import enum
import itertools

from .circuit import Circuit, GateInstance, cknot
from .errors import OddPermutationError, OddTokenCountError, WidthOutOfRangeError
from .generators import (
    TransformToken,
    decompose_generators,
    expand_runs,
    reduce_tokens,
)
from .permutation import MAX_WIDTH, Permutation
from .toffoli import increment, synth_add_constant

EVEN_MIN_WIDTH = 3


class TokenPair(enum.Enum):
    """One adjacent pair of primed tokens.

    M1 = swap,swap; M2 = shift,shift; M3 = swap,shift; M4 = shift,swap.
    """

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"


_PAIR_OF = {
    (TransformToken.T1P, TransformToken.T1P): TokenPair.M1,
    (TransformToken.T2P, TransformToken.T2P): TokenPair.M2,
    (TransformToken.T1P, TransformToken.T2P): TokenPair.M3,
    (TransformToken.T2P, TransformToken.T1P): TokenPair.M4,
}


def pair_tokens(tokens: list[TransformToken]) -> list[TokenPair]:
    """Split a primed token sequence into adjacent pairs, preserving order.

    Requires an even count of each token kind (which every even
    permutation's decomposition satisfies); the composition of the pairs
    equals the composition of the tokens.
    """
    for tok in tokens:
        if tok not in (TransformToken.T1P, TransformToken.T2P):
            raise ValueError(f"pairing applies to primed tokens, got {tok.value}")
    n_swap = sum(1 for t in tokens if t is TransformToken.T1P)
    n_shift = len(tokens) - n_swap
    if n_swap % 2 or n_shift % 2:
        raise OddTokenCountError(
            f"token counts must both be even, got {n_swap} swaps "
            f"and {n_shift} shifts"
        )
    return [
        _PAIR_OF[(tokens[i], tokens[i + 1])] for i in range(0, len(tokens), 2)
    ]


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

    Pipeline: primed generator decomposition, token reduction, adjacent-pair
    grouping, one fragment per mixed pair and one add-constant block on the
    high lines 1..n-1 per maximal run of doubled shifts, then macro
    expansion borrowing free data lines.
    """
    n = p.width
    if not EVEN_MIN_WIDTH <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"even synthesis supports widths {EVEN_MIN_WIDTH}..{MAX_WIDTH}, got {n}"
        )
    if not p.is_even():
        raise OddPermutationError("permutation is odd")
    tokens = expand_runs(reduce_tokens(decompose_generators(p, "primed"), n))
    high = range(1, n)
    gates: list[GateInstance] = []
    for pair, run in itertools.groupby(pair_tokens(tokens)):
        if pair is TokenPair.M2:
            # m doubled shifts add 2m: m on the high lines, modulo 2**(n-1).
            gates.extend(synth_add_constant(len(list(run)), high))
        else:
            for _ in run:
                gates.extend(synth_pair(pair, n).gates)
    macro = Circuit(n, tuple(gates))
    from .expand import expand_macros

    return expand_macros(macro, "VTOF")
