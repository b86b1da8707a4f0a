"""Bit-vector permutations: the synthesis targets.

A width-``n`` permutation is a bijection on the integers ``0 .. 2**n - 1``.
States are read MSB-first throughout the package: line 1 of a circuit carries
the most significant bit, line ``n`` the least significant one.
"""

from __future__ import annotations

import operator
import random
from typing import Sequence

from .errors import WidthMismatchError, WidthOutOfRangeError

MIN_WIDTH = 1
MAX_WIDTH = 16

_SAMPLE_KINDS = ("any", "even", "conservative")


class Permutation:
    """An immutable bijection on ``0 .. 2**width - 1``.

    Attributes:
        width: Number of bits.
        mapping: Tuple of images; ``mapping[x]`` is the image of ``x``.
    """

    __slots__ = ("width", "mapping")

    def __init__(self, width: int, mapping: tuple[int, ...] | list[int]):
        if not MIN_WIDTH <= width <= MAX_WIDTH:
            raise WidthOutOfRangeError(
                f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {width}"
            )
        size = 1 << width
        mapping = tuple(map(operator.index, mapping))  # ints only, no floats
        if len(mapping) != size:
            raise WidthMismatchError(
                f"width {width} needs {size} images, got {len(mapping)}"
            )
        if sorted(mapping) != list(range(size)):
            raise ValueError("mapping is not a bijection on 0..2**width-1")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, width: int) -> "Permutation":
        return cls(width, tuple(range(1 << width)))

    @classmethod
    def from_cycle(cls, width: int, cycle: tuple[int, ...] | list[int]) -> "Permutation":
        """Build the permutation sending ``cycle[i]`` to ``cycle[i+1]``
        (and the last element back to the first); everything else fixed."""
        mapping = list(range(1 << width))
        for i, x in enumerate(cycle):
            mapping[x] = cycle[(i + 1) % len(cycle)]
        return cls(width, mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.width == other.width and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash((self.width, self.mapping))

    def __repr__(self) -> str:
        return f"Permutation({self.width}, {self.mapping!r})"

    def then(self, other: "Permutation") -> "Permutation":
        """Sequential composition: ``p.then(q)`` applies ``p`` first.

        ``p.then(q)(x) == q(p(x))`` — the same order in which a circuit
        applies its gate list.
        """
        if other.width != self.width:
            raise WidthMismatchError(
                f"cannot compose widths {self.width} and {other.width}"
            )
        return Permutation(self.width, tuple(other.mapping[y] for y in self.mapping))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for x, y in enumerate(self.mapping):
            inv[y] = x
        return Permutation(self.width, tuple(inv))

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.mapping))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element,
        ordered by that element."""
        return cycles(self.mapping)

    def is_even(self) -> bool:
        """True when the permutation is a product of an even number of
        transpositions."""
        return len(transpositions(self.mapping)) % 2 == 0

    def parity(self) -> str:
        """``"even"`` or ``"odd"``."""
        return "even" if self.is_even() else "odd"

    def is_conservative(self) -> bool:
        """True when every image has the same Hamming weight as its input."""
        return all(y.bit_count() == x.bit_count() for x, y in enumerate(self.mapping))

    def to_transpositions(self) -> list[tuple[int, int]]:
        """Decompose into transpositions that recompose left to right
        (see :func:`transpositions`)."""
        return transpositions(self.mapping)


def cycles(mapping: Sequence[int]) -> list[tuple[int, ...]]:
    """Nontrivial cycles of the index permutation ``mapping`` (any
    length), each starting at its smallest element, ordered by that
    element."""
    seen = [False] * len(mapping)
    out: list[tuple[int, ...]] = []
    for start in range(len(mapping)):
        if seen[start] or mapping[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = mapping[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = mapping[x]
        out.append(tuple(cyc))
    return out


def transpositions(mapping: Sequence[int]) -> list[tuple[int, int]]:
    """Transpositions of index pairs that, applied in list order (first
    pair first), reproduce the index permutation ``mapping``: each cycle
    ``(c0 c1 ... cL)`` becomes ``(c0,c1), (c0,c2), ..., (c0,cL)``. Their
    count mod 2 is the parity."""
    return [(cyc[0], c) for cyc in cycles(mapping) for c in cyc[1:]]


Pair = tuple[tuple[int, int], tuple[int, int]]


def disjoint_pairs(mapping: Sequence[int]) -> list[Pair]:
    """Pairs of disjoint transpositions ``((a, b), (c, d))`` that, applied
    in list order (first pair first), reproduce the even index permutation
    ``mapping`` of at least 5 points.

    Each cycle ``(x_0 ... x_{m-1})`` is the involution R1, which maps
    ``x_i`` to ``x_{-i}``, followed by the involution R2, which maps
    ``x_j`` to ``x_{1-j}`` (indices mod m). The transpositions inside R1
    are disjoint and commute, and so are those inside R2, so each list is
    paired in order. When both counts are odd, the last transposition t1
    of R1 meets the first t2 of R2: disjoint, they are one more pair;
    sharing one state, a doubled transposition ``(v w)`` on two other
    states splits them into ``(t1, (v w))`` and ``((v w), t2)``.
    """
    r1: list[tuple[int, int]] = []
    r2: list[tuple[int, int]] = []
    for cyc in cycles(mapping):
        m = len(cyc)
        r1 += [(cyc[i], cyc[m - i]) for i in range(1, (m + 1) // 2)]
        r2 += [(cyc[j], cyc[(1 - j) % m]) for j in range(1, m // 2 + 1)]
    if (len(r1) + len(r2)) % 2:
        raise ValueError("an odd permutation has no disjoint-pair form")
    middle: list[Pair] = []
    if len(r1) % 2:
        # t1 and t2 are never equal: within one cycle a transposition of
        # R1 has an index sum of 0 mod m, and one of R2 a sum of 1.
        t1, t2 = r1.pop(), r2.pop(0)
        if set(t1) & set(t2):
            if len(mapping) < 5:
                raise ValueError(
                    f"disjoint pairs need at least 5 points, got {len(mapping)}"
                )
            v, w = [s for s in range(5) if s not in t1 + t2][:2]
            middle = [(t1, (v, w)), ((v, w), t2)]
        else:
            middle = [(t1, t2)]
    return (
        list(zip(r1[::2], r1[1::2])) + middle + list(zip(r2[::2], r2[1::2]))
    )


def sample_permutation(width: int, kind: str = "any", seed: int = 0) -> Permutation:
    """Draw a reproducible random permutation.

    Args:
        width: Number of bits (1..16).
        kind: ``"any"``, ``"even"`` (even parity), or ``"conservative"``
            (Hamming-weight preserving).
        seed: RNG seed; equal seeds give equal permutations.
    """
    if kind not in _SAMPLE_KINDS:
        raise ValueError(f"kind must be one of {_SAMPLE_KINDS}, got {kind!r}")
    if not MIN_WIDTH <= width <= MAX_WIDTH:
        raise WidthOutOfRangeError(
            f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {width}"
        )
    rng = random.Random(seed)
    size = 1 << width
    if kind == "conservative":
        mapping = list(range(size))
        by_weight: dict[int, list[int]] = {}
        for x in range(size):
            by_weight.setdefault(x.bit_count(), []).append(x)
        for states in by_weight.values():
            images = states[:]
            rng.shuffle(images)
            for s, img in zip(states, images):
                mapping[s] = img
        return Permutation(width, mapping)
    mapping = list(range(size))
    rng.shuffle(mapping)
    p = Permutation(width, mapping)
    if kind == "even" and not p.is_even():
        mapping[0], mapping[1] = mapping[1], mapping[0]
        p = Permutation(width, mapping)
    return p


def format_permutation(p: Permutation) -> str:
    """Serialize to the text format::

        perm <width>
        <2**width images of 0, 1, 2, ... in order>
    """
    lines = [f"perm {p.width}"]
    row: list[str] = []
    for y in p.mapping:
        row.append(str(y))
        if len(row) == 16:
            lines.append(" ".join(row))
            row = []
    if row:
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_permutation(text: str) -> Permutation:
    """Parse either serialization of a permutation.

    Image-list format: a ``perm <width>`` header followed by the ``2**width``
    images of ``0, 1, 2, ...``. Truth-table format: one ``<input bits>
    <output bits>`` row per state, in any row order. ``#`` starts a comment
    in both formats, and rows end as ``split_rows`` says.
    """
    tokens_by_line: list[list[str]] = []
    for raw in split_rows(text):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens_by_line.append(line.split())
    if not tokens_by_line:
        raise ValueError("empty permutation text")
    if tokens_by_line[0][0] == "perm":
        header = tokens_by_line[0]
        if len(header) != 2:
            raise ValueError(f"malformed header: {' '.join(header)!r}")
        try:
            width = parse_decimal(header[1])
        except ValueError:
            raise ValueError(f"malformed width: {header[1]!r}") from None
        flat: list[int] = []
        for toks in tokens_by_line[1:]:
            for t in toks:
                try:
                    flat.append(parse_decimal(t))
                except ValueError:
                    raise ValueError(f"malformed image: {t!r}") from None
        return Permutation(width, flat)
    return _parse_truth_table(tokens_by_line)


def split_rows(text: str) -> list[str]:
    """The rows of ``text``, each ended by a line feed, a carriage return or
    the two together: the line ends that universal newlines translate.
    ``str.splitlines`` also ends a row at a form feed, a vertical tab,
    U+2028 and others, which would turn the rest of a comment into a row.
    A line end after the last row adds no empty row."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()
    return rows


def parse_decimal(token: str) -> int:
    """A nonnegative integer written in ASCII digits. ``int`` alone would
    also take a sign, underscores and non-ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected an integer of digits 0-9, got {token!r}")
    return int(token)


def _parse_truth_table(rows: list[list[str]]) -> Permutation:
    width = len(rows[0][0])
    mapping: dict[int, int] = {}
    for toks in rows:
        if len(toks) != 2:
            raise ValueError(f"truth-table row needs 2 columns: {' '.join(toks)!r}")
        src, dst = toks
        if len(src) != width or len(dst) != width:
            raise ValueError(
                f"inconsistent bit-string lengths in row {src} {dst}"
            )
        if not set(src + dst) <= {"0", "1"}:
            raise ValueError(f"non-binary truth-table row: {src} {dst}")
        x, y = int(src, 2), int(dst, 2)
        if x in mapping:
            raise ValueError(f"duplicate truth-table input {src}")
        mapping[x] = y
    size = 1 << width
    if len(mapping) != size:
        raise ValueError(f"truth table has {len(mapping)} rows, needs {size}")
    return Permutation(width, tuple(mapping[x] for x in range(size)))
