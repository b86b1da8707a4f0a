"""Decomposition of permutations over two generator transforms.

The full symmetric group on ``0 .. 2**n - 1`` is generated by two
permutations: ``T1'`` swaps the two largest states ``2**n - 2`` and
``2**n - 1``, and ``T2'`` maps every state ``x`` to ``(x + 1) mod 2**n``.

``generator_runs`` emits the literal textbook recipe as runs,
``(token, count)``, with no cancellation: transpositions, then adjacent
swaps, then for each adjacent swap a shift run, one swap and the shift run
back. Every adjacent swap costs exactly one ``T1'`` and ``2**n`` shifts,
so an even permutation always yields even counts of both tokens.
``decompose_generators`` expands those runs into the literal token list.
No synthesis route compiles from the tokens; they carry the paper's
generator argument for result (ii), which ``synth_even`` realizes by
another construction. ``even.synth_pair`` still realizes each adjacent
pair of tokens on n lines.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .permutation import Permutation


class TransformToken(str, enum.Enum):
    T1P = "T1'"
    T2P = "T2'"


# A run ``(token, count)`` stands for ``count`` copies of ``token`` in a row.
Run = tuple[TransformToken, int]


def adjacent_swap_tokens(a: int, width: int) -> list[Run]:
    """Runs realizing the adjacent transposition ``(a, a+1)``.

    Shift ``(a, a+1)`` onto the top pair with ``2**n - 2 - a`` ``T2'``
    steps, swap, shift back with ``a + 2`` steps. Literal: a full-cycle
    shift run stays whole, and only a run of 0 shifts is left out.
    """
    size = 1 << width
    if not 0 <= a <= size - 2:
        raise ValueError(f"adjacent swap start must be in [0, {size - 2}], got {a}")
    shift, swap = TransformToken.T2P, TransformToken.T1P
    lead = size - 2 - a
    runs = ((shift, lead), (swap, 1), (shift, size - lead))
    return [run for run in runs if run[1]]


def transposition_tokens(i: int, j: int, width: int) -> list[Run]:
    """Runs realizing the transposition ``(i, j)``, ``i < j``.

    The moving element bubbles up through ``j - i`` adjacent swaps, then the
    displaced elements bubble back through ``j - i - 1`` more: an odd count,
    matching the odd parity of a transposition.
    """
    if not 0 <= i < j < (1 << width):
        raise ValueError(f"need 0 <= i < j < 2**width, got ({i}, {j})")
    out: list[Run] = []
    for a in range(i, j):
        out.extend(adjacent_swap_tokens(a, width))
    for a in range(j - 2, i - 1, -1):
        out.extend(adjacent_swap_tokens(a, width))
    return out


def generator_runs(p: Permutation) -> Iterator[Run]:
    """The literal recipe for ``p`` as runs, one transposition at a time,
    so only one transposition's runs are held at once."""
    for i, j in p.to_transpositions():
        yield from transposition_tokens(i, j, p.width)


def decompose_generators(p: Permutation) -> list[TransformToken]:
    """Decompose a permutation into a generator-token sequence.

    Composing the returned tokens in list order reproduces ``p`` exactly.
    The identity yields an empty list. This is the expansion of
    :func:`generator_runs`, token by token.
    """
    out: list[TransformToken] = []
    for tok, count in generator_runs(p):
        out += [tok] * count
    return out
