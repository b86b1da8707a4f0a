"""Shared oracle builders for the test suite.

Each permutation oracle constructs the expected permutation directly from
bit arithmetic, independently of the synthesis code under test.
``random_invertible`` draws the linear maps that the final-network and
affine-fit tests feed in, and ``fitted`` splits a target as the VTOF
pipeline does. ``conjugation_block`` is the gate-list oracle: the
self-contained block that the VTOF routes' running frame replaces.
"""

from __future__ import annotations

import random

from revsynth.circuit import Circuit, GateInstance, GateKind
from revsynth.generators import TransformToken
from revsynth.permutation import Permutation
from revsynth.toffoli import affine_fit, conjugation_gates, negated_centre


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


def random_invertible(n: int, rng: random.Random) -> list[int]:
    """Row masks of a random invertible n x n matrix over GF(2): a random
    matrix kept only when its rows reduce to full rank."""
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        basis: dict[int, int] = {}
        for v in rows:
            while v and v.bit_length() - 1 in basis:
                v ^= basis[v.bit_length() - 1]
            if not v:
                break
            basis[v.bit_length() - 1] = v
        else:
            return rows


def fitted(p: Permutation) -> tuple[Permutation, Permutation]:
    """The ``affine_fit`` A of ``p`` and q = A^-1 . p, the target whose
    blocks the VTOF routes emit: q then A is ``p``."""
    table, c = affine_fit(p.mapping, p.width)
    affine = Permutation(p.width, [t ^ c for t in table])
    return affine, p.then(affine.inverse())


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
