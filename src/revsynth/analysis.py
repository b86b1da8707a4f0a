"""Parity vectors of conservative permutations and what they obstruct.

A conservative permutation acts independently on each Hamming-weight
class; recording each class action's parity gives a GF(2) vector that is
additive under composition. The closed form for multi-controlled swap
gates (rows of Pascal's triangle mod 2) makes the vectors of the whole
gate family computable without simulation, and a rank argument over these
vectors shows each C^kSWAP lies outside the span of its predecessors — no
cascade of smaller controlled swaps can build it, on any number of lines.
An embedding parity check covers the complementary fact: any gate on
fewer than all lines is an even permutation of the larger state space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, ckswap, circuit_to_permutation
from .errors import RangeError, WidthOutOfRangeError
from .permutation import MAX_WIDTH, Permutation
from .weights import weight_decompose


@dataclass(frozen=True)
class ParityVector:
    """Per-weight-class parities of a conservative permutation on
    ``width`` lines: ``entries[i]`` is 1 iff the class-i action is odd.
    Entries 0 and ``width`` are always 0 (singleton classes)."""

    width: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.width + 1:
            raise ValueError(
                f"width {self.width} needs {self.width + 1} entries, "
                f"got {len(self.entries)}"
            )
        if any(e not in (0, 1) for e in self.entries):
            raise ValueError(f"entries must be bits, got {self.entries}")

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.entries)

    def __xor__(self, other: "ParityVector") -> "ParityVector":
        if self.width != other.width:
            raise ValueError("cannot combine vectors of different widths")
        return ParityVector(
            self.width,
            tuple(a ^ b for a, b in zip(self.entries, other.entries)),
        )


def parity_vector(p: Permutation) -> ParityVector:
    """Parity vector of a conservative permutation (one bit per weight
    class).

    :func:`weight_decompose` checks ``p``; then every cycle of ``p`` stays
    inside one class, and a cycle of length L adds L - 1 transpositions
    to its class's parity.
    """
    weight_decompose(p)  # raises NotConservativeError
    entries = [0] * (p.width + 1)
    for c in p.cycles():
        entries[c[0].bit_count()] ^= (len(c) - 1) & 1
    return ParityVector(p.width, tuple(entries))


def binom_mod2(n: int, r: int) -> int:
    """C(n, r) mod 2 by Lucas's rule: odd iff r is a submask of n."""
    if r < 0 or r > n:
        return 0
    return 1 if (r & ~n) == 0 else 0


def _check_line_count(m: int) -> None:
    if m > MAX_WIDTH:
        raise WidthOutOfRangeError(f"line count m capped at {MAX_WIDTH}, got {m}")


def ckswap_parity_formula(k: int, m: int) -> ParityVector:
    """Closed-form parity vector of the k-controlled swap on m <= 16 lines
    (k = 0 is the plain SWAP).

    Zeros through entry k, then the Pascal row C(m-2-k, j) mod 2 across
    entries k+1 .. m-1 (both ends of the row are 1), then 0.
    """
    _check_line_count(m)
    if not 0 <= k <= m - 2:
        raise RangeError(f"need 0 <= k <= m-2, got k={k}, m={m}")
    entries = [0] * (m + 1)
    for i in range(k + 1, m):
        entries[i] = binom_mod2(m - 2 - k, i - k - 1)
    return ParityVector(m, tuple(entries))


def embedded_gate_permutation(k: int, m: int) -> Permutation:
    """The k-controlled swap as an m-bit permutation, occupying the
    lowest-index lines (controls 1..k, targets k+1, k+2)."""
    _check_line_count(m)  # before a gate with k controls is built
    if not 0 <= k <= m - 2:
        raise RangeError(f"need 0 <= k <= m-2, got k={k}, m={m}")
    gate = ckswap(tuple(range(1, k + 1)), k + 1, k + 2)
    return circuit_to_permutation(Circuit(m, (gate,)))


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of testing one parity vector against the span of its
    predecessors, with a certificate either way: the first coordinate no
    combination can match, or the combination that matches."""

    verdict: str
    witness_coordinate: int | None = None
    coefficients: tuple[int, ...] | None = None


def independence_check(k: int, m: int) -> IndependenceResult:
    """Is the C^kSWAP parity vector on m <= 16 lines outside the GF(2)
    span of the C^0..C^(k-1)SWAP vectors?

    Gaussian elimination with tracked combinations: independent comes
    with the first coordinate of the irreducible residual, dependent with
    the coefficient bitmask that reproduces the vector.
    """
    _check_line_count(m)
    if not 1 <= k <= m - 2:
        raise RangeError(f"need 1 <= k <= m-2, got k={k}, m={m}")

    def as_int(vec: ParityVector) -> int:
        out = 0
        for i, e in enumerate(vec.entries):
            out |= e << i
        return out

    rows = [(as_int(ckswap_parity_formula(j, m)), 1 << j) for j in range(k)]
    pivots: list[tuple[int, int, int]] = []
    for vec, combo in rows:
        for pivot, pvec, pcombo in pivots:
            if (vec >> pivot) & 1:
                vec ^= pvec
                combo ^= pcombo
        if vec:
            pivots.append(((vec & -vec).bit_length() - 1, vec, combo))
    residual = as_int(ckswap_parity_formula(k, m))
    taken = 0
    for pivot, pvec, pcombo in pivots:
        if (residual >> pivot) & 1:
            residual ^= pvec
            taken ^= pcombo
    if residual == 0:
        return IndependenceResult(
            "dependent",
            coefficients=tuple((taken >> j) & 1 for j in range(k)),
        )
    return IndependenceResult(
        "independent",
        witness_coordinate=(residual & -residual).bit_length() - 1,
    )


def embedded_parity(g: Permutation, n: int) -> str:
    """Parity ("even"/"odd") of ``g`` viewed as an n-bit permutation
    acting on its own lines with n - width(g) lines appended untouched.

    Computed by cycle count over the full embedded state space, not by
    the multiplicity shortcut; any proper embedding must come out even.
    """
    k = g.width
    if n < k:
        raise RangeError(f"embedding width {n} is below the gate width {k}")
    if n > MAX_WIDTH:
        raise WidthOutOfRangeError(f"embedding width capped at {MAX_WIDTH}, got {n}")
    rest = n - k
    mapping = [
        (g(x >> rest) << rest) | (x & ((1 << rest) - 1)) for x in range(1 << n)
    ]
    return Permutation(n, mapping).parity()
