"""Hamming-weight classes of a conservative permutation.

A weight-preserving (conservative) permutation on ``n`` bits acts
independently on each class of states with exactly ``k`` ones.
:func:`weight_decompose` is the one pass that checks the weights and
groups the states by class; callers read each class's action straight
off the permutation.
"""

from __future__ import annotations

from .errors import NotConservativeError
from .permutation import Permutation


def bits(x: int, width: int) -> str:
    """MSB-first bit string of ``x`` on ``width`` bits."""
    return format(x, f"0{width}b")


def weight_decompose(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """The weight classes of a conservative permutation, in one pass over
    ``p.mapping``: ``classes[k]`` holds the weight-k states in ascending
    order.

    Raises:
        NotConservativeError: on the lowest input whose image has another
            Hamming weight.
    """
    n = p.width
    classes: list[list[int]] = [[] for _ in range(n + 1)]
    for x, y in enumerate(p.mapping):
        k = x.bit_count()
        if y.bit_count() != k:
            raise NotConservativeError(
                f"input {bits(x, n)} (weight {k}) maps to "
                f"{bits(y, n)} (weight {y.bit_count()})"
            )
        classes[k].append(x)
    return tuple(map(tuple, classes))
