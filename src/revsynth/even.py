"""Even-permutation synthesis on exactly n lines, no extra inputs.

An even permutation decomposes into primed shift/swap runs with an even
count of each token kind. Run reduction keeps both counts even, so the
reduced runs still split into adjacent token pairs, and ``pair_runs``
pairs them run by run, never expanding a run into tokens. Each pair kind
has a line-exact realization: doubled swaps cancel, doubled shifts become
an increment on the high lines, and the two mixed pairs become an
increment ladder joined to a single fused gate that combines the top-state
swap with a full-width controlled NOT. A run of doubled shifts becomes one
add-constant block on the high lines. Every gate leaves at least one of
the n lines untouched, so macro expansion borrows within the circuit and
the width never grows.
"""

from __future__ import annotations

import enum

from .circuit import Circuit, GateInstance, cknot
from .errors import OddPermutationError, OddTokenCountError, WidthOutOfRangeError
# Unused here, but perfbench/tracer.py patches this binding and requires it.
from .generators import decompose_generators  # noqa: F401
from .generators import Run, TransformToken, generator_runs, reduce_tokens
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


def pair_runs(runs: list[Run]) -> list[tuple[TokenPair, int]]:
    """Split primed token runs into adjacent token pairs, preserving order,
    as ``(pair, count)`` runs; neighbouring runs of one pair kind merge.

    Requires an even count of each token kind (which every even
    permutation's decomposition satisfies); the composition of the pairs
    equals the composition of the tokens.
    """
    out: list[tuple[TokenPair, int]] = []

    def add(pair: TokenPair, count: int) -> None:
        if out and out[-1][0] is pair:
            count += out.pop()[1]
        out.append((pair, count))

    totals = {TransformToken.T1P: 0, TransformToken.T2P: 0}
    held = None  # the last token of an odd run, paired with the next token
    for tok, count in runs:
        totals[tok] += count
        if held is not None:
            add(_PAIR_OF[held, tok], 1)
            count -= 1
        if count > 1:
            add(_PAIR_OF[tok, tok], count // 2)
        held = tok if count % 2 else None
    n_swap, n_shift = totals.values()
    if n_swap % 2 or n_shift % 2:
        raise OddTokenCountError(
            f"token counts must both be even, got {n_swap} swaps "
            f"and {n_shift} shifts"
        )
    return out


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

    Pipeline: primed generator runs, run reduction, adjacent-pair runs, one
    fragment per mixed pair (each kind built once per call) and one
    add-constant block on the high lines 1..n-1 per run of doubled shifts,
    then macro expansion borrowing free data lines.
    """
    n = p.width
    if not EVEN_MIN_WIDTH <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"even synthesis supports widths {EVEN_MIN_WIDTH}..{MAX_WIDTH}, got {n}"
        )
    if not p.is_even():
        raise OddPermutationError("permutation is odd")
    high = range(1, n)
    blocks: dict[TokenPair, tuple[GateInstance, ...]] = {}
    gates: list[GateInstance] = []
    for pair, count in pair_runs(reduce_tokens(generator_runs(p), n)):
        if pair is TokenPair.M2:
            # m doubled shifts add 2m: m on the high lines, modulo 2**(n-1).
            gates.extend(synth_add_constant(count, high))
        else:
            if pair not in blocks:
                blocks[pair] = synth_pair(pair, n).gates
            gates.extend(blocks[pair] * count)
    macro = Circuit(n, tuple(gates))
    from .expand import expand_macros

    return expand_macros(macro, "VTOF")
