"""Shared oracle builders for the test suite.

Each permutation oracle constructs the expected permutation directly from
bit arithmetic, independently of the synthesis code under test.
``conjugation_block`` is the gate-list oracle: the self-contained block
that the VTOF routes' running frame replaces.
"""

from __future__ import annotations

import random

from revsynth.circuit import Circuit, GateInstance, GateKind
from revsynth.generators import TransformToken
from revsynth.permutation import Permutation
from revsynth.toffoli import conjugation_gates, negated_centre


def cknot_permutation(
    width: int, controls: tuple[int, ...], target: int
) -> Permutation:
    """Oracle: flip ``target`` iff every control line is 1 (MSB-first),
    or 0 for a control given as its negative line number."""
    mapping = []
    for x in range(1 << width):
        if all((x >> (width - abs(c))) & 1 == (c > 0) for c in controls):
            x ^= 1 << (width - target)
        mapping.append(x)
    return Permutation(width, mapping)


def ckswap_permutation(
    width: int, controls: tuple[int, ...], t1: int, t2: int
) -> Permutation:
    """Oracle: swap lines ``t1``/``t2`` iff every control line is 1."""
    mapping = []
    for x in range(1 << width):
        if all((x >> (width - c)) & 1 for c in controls):
            a = (x >> (width - t1)) & 1
            b = (x >> (width - t2)) & 1
            if a != b:
                x ^= (1 << (width - t1)) | (1 << (width - t2))
        mapping.append(x)
    return Permutation(width, mapping)


def conjugation_block(states, pivots, controls, n: int) -> list[GateInstance]:
    """The macro gates that swap ``states`` in pairs on their own, with no
    frame: sigma and the tail's form from ``conjugation_gates``, the
    centre on ``controls`` and target ``pivots[0]`` with the controls the
    NOT layer sets negated, the inverse form, then sigma reversed."""
    sigma, (forward, inverse), flips = conjugation_gates(states, pivots, n)
    centre = negated_centre(controls, pivots[0], flips, n)
    return [*sigma, *forward, centre, *inverse, *reversed(sigma)]


def random_primitive_circuit(
    width: int, n_gates: int, rng: random.Random
) -> Circuit:
    """A random mix of VTOF and FRED gates, for simulator cross-checks."""
    gates = []
    for _ in range(n_gates):
        lines = tuple(rng.sample(range(1, width + 1), 3))
        kind = rng.choice((GateKind.VTOF, GateKind.FRED))
        gates.append(GateInstance(kind, lines))
    return Circuit(width, tuple(gates))


def compose_runs(runs, width: int) -> Permutation:
    """Oracle: apply ``(token, count)`` runs in order, first run first. A
    shift run adds ``count`` modulo ``2**width``; a swap run exchanges its
    state pair, the two largest states, iff ``count`` is odd."""
    size = 1 << width
    mapping = list(range(size))
    for tok, count in runs:
        if tok is TransformToken.T2P:
            mapping = [(y + count) % size for y in mapping]
        elif count % 2:
            swap = {size - 2: size - 1, size - 1: size - 2}
            mapping = [swap.get(y, y) for y in mapping]
    return Permutation(width, mapping)
