"""Even-permutation synthesis on exactly n lines, no extra inputs.

An even permutation is a product of pairs of disjoint transpositions
(``permutation.disjoint_pairs``). Each pair ``(a b)(c d)`` is one
C^(n-2)NOT conjugated by a short gate list ``sigma`` (Shende, Prasad,
Markov and Hayes, *Synthesis of reversible logic circuits*, IEEE TCAD
2003): the C^(n-2)NOT on controls 1..n-2 and target n swaps T-3 with T-2
and T-1 with T (T = 2**n - 1), and ``sigma`` sends a, b onto T-1, T and
c, d onto T-3, T-2. Line n-1 is the one line that C^(n-2)NOT leaves free,
so macro expansion borrows it and the width never grows. The tail of
``sigma`` that commutes with the C^(n-2)NOT is left out, and equal
neighbouring macro gates cancel before expansion.

The paper's own generator argument survives as line-exact fragments that
``synth_even`` no longer calls: ``pair_runs`` splits primed token runs
with even counts of each kind into adjacent pairs M1-M4, and
``synth_pair`` realizes each pair on n lines, the mixed pairs through
``synth_fused``, which joins the top-state swap to a full-width
controlled NOT.
"""

from __future__ import annotations

import enum

from .circuit import Circuit, GateInstance, cknot, cnot, not_gate
from .errors import OddPermutationError, OddTokenCountError, WidthOutOfRangeError
# Unused here, but perfbench/tracer.py patches this binding and requires it.
from .generators import decompose_generators  # noqa: F401
from .generators import Run, TransformToken
from .permutation import MAX_WIDTH, Permutation, disjoint_pairs
from .toffoli import increment

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


def pair_sigma(a: int, b: int, c: int, d: int, n: int) -> list[GateInstance]:
    """Macro gates on lines ``1..n`` (``n >= 3``) that send the distinct
    states a, b, c, d to T-1, T, T-3, T-2, where T = 2**n - 1.

    CNOTs send a^b, a^c and, when it is independent of those two, a^d to
    the unit vectors of lines n, n-1 and n-2; NOTs then move a's image to
    T-1. When a^b^c^d is nonzero, d lands on T-5, and three Toffolis with
    one negative control each on lines x, y, z = n-2, n-1, n (z ^= ~x y,
    y ^= ~x z, x ^= ~y z) carry it to T-2 while fixing T-3, T-1 and T.
    """
    gates: list[GateInstance] = []
    # Bit i of a state is line n - i. Row i is driven to bit i; row 3 is a.
    rows = [a ^ b, a ^ c, a ^ d, a]

    def cnot_bits(control: int, target: int) -> None:
        gates.append(cnot(n - control, n - target))
        for r, v in enumerate(rows):
            rows[r] = v ^ (v >> control & 1) << target

    twisted = a ^ b ^ c ^ d
    for i in range(3 if twisted else 2):
        if not rows[i] >> i & 1:
            # Bits below i hold the earlier unit vectors, so row i, which is
            # independent of them, has a set bit above i.
            cnot_bits(rows[i].bit_length() - 1, i)
        w = rows[i]
        for q in range(w.bit_length()):
            if q != i and w >> q & 1:
                cnot_bits(i, q)
    flips = rows[3] ^ ((1 << n) - 2)
    if twisted:
        # z ^= ~x y, y ^= ~x z, x ^= ~y z: each is a Toffoli between two
        # NOTs on its negated control. The NOT x pair between the first two
        # cancels, and the leading NOT x joins the flips.
        flips ^= 4
    gates += [not_gate(l) for l in range(1, n + 1) if flips >> (n - l) & 1]
    if twisted:
        x, y, z = n - 2, n - 1, n
        gates += [cknot((x, y), z), cknot((x, z), y), not_gate(x),
                  not_gate(y), cknot((y, z), x), not_gate(y)]
    return gates


def synth_even(p: Permutation) -> Circuit:
    """Compile an even permutation to a VTOF netlist on exactly its own
    width: no ancilla, no borrowed lines.

    Each disjoint pair becomes ``sigma``, the C^(n-2)NOT and ``sigma``
    reversed (every gate is self-inverse), less the tail of ``sigma`` that
    commutes with the C^(n-2)NOT. One stack pass cancels equal neighbouring
    macro gates, then macro expansion lowers the rest, borrowing free data
    lines.
    """
    n = p.width
    if not EVEN_MIN_WIDTH <= n <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"even synthesis supports widths {EVEN_MIN_WIDTH}..{MAX_WIDTH}, got {n}"
        )
    if not p.is_even():
        raise OddPermutationError("permutation is odd")
    centre = cknot(range(1, n - 1), n)
    gates: list[GateInstance] = []
    for (a, b), (c, d) in disjoint_pairs(p.mapping):
        sigma = pair_sigma(a, b, c, d, n)
        # The centre reads lines 1..n-2 and flips line n, so a trailing
        # sigma gate that targets line n-1 or n without reading line n
        # commutes with it and would meet its own mirror.
        while sigma and sigma[-1].lines[-1] >= n - 1 and (
            n not in sigma[-1].lines[:-1]
        ):
            sigma.pop()
        for g in (*sigma, centre, *reversed(sigma)):
            if gates and gates[-1] == g:
                gates.pop()
            else:
                gates.append(g)
    macro = Circuit(n, tuple(gates))
    from .expand import expand_macros

    return expand_macros(macro, "VTOF")
