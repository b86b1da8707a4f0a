"""Hamming-weight classes of bit strings.

A weight-preserving (conservative) permutation on ``n`` bits acts
independently on each class ``S_k`` of strings with exactly ``k`` ones; the
classes are always listed in lexicographic (= ascending numeric, MSB-first)
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConservativeError
from .permutation import Permutation


def bits(x: int, width: int) -> str:
    """MSB-first bit string of ``x`` on ``width`` bits."""
    return format(x, f"0{width}b")


def hamming_distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def strings_of_weight(width: int, k: int) -> list[int]:
    """All width-bit states of Hamming weight ``k``, lexicographic order."""
    return [x for x in range(1 << width) if x.bit_count() == k]


@dataclass(frozen=True)
class WeightClassDecomposition:
    """A conservative permutation split into its per-class actions.

    ``classes[k][i]`` is the index (within the lexicographically sorted
    class ``S_k``) of the image of the ``i``-th string of ``S_k``.
    """

    width: int
    classes: tuple[tuple[int, ...], ...]


def weight_decompose(p: Permutation) -> WeightClassDecomposition:
    """Split a conservative permutation into its weight-class actions.

    Raises:
        NotConservativeError: if ``p`` changes any input's Hamming weight.
    """
    for x in range(1 << p.width):
        if p(x).bit_count() != x.bit_count():
            raise NotConservativeError(
                f"input {bits(x, p.width)} (weight {x.bit_count()}) maps to "
                f"{bits(p(x), p.width)} (weight {p(x).bit_count()})"
            )
    classes: list[tuple[int, ...]] = []
    for k in range(p.width + 1):
        states = strings_of_weight(p.width, k)
        index_of = {s: i for i, s in enumerate(states)}
        classes.append(tuple(index_of[p(s)] for s in states))
    return WeightClassDecomposition(p.width, tuple(classes))


def recompose(d: WeightClassDecomposition) -> Permutation:
    """Inverse of :func:`weight_decompose`."""
    mapping = [0] * (1 << d.width)
    for k, cls in enumerate(d.classes):
        states = strings_of_weight(d.width, k)
        for i, img in enumerate(cls):
            mapping[states[i]] = states[img]
    return Permutation(d.width, mapping)
