"""The affine factor of the VTOF pipeline: ``toffoli.affine_fit`` writes a
target p as an affine map A(x) = Mx ^ c after q = A^-1 . p, and both VTOF
routes compile q and then A. Affine targets cost one final network."""

from __future__ import annotations

import random

import pytest

from revsynth import (
    Permutation,
    sample_permutation,
    synth_conservative,
    synth_even,
    synth_general,
    verify_realizes,
)
from revsynth.toffoli import affine_fit

from conftest import fitted, random_invertible


def linear_map(rows: list[int], x: int) -> int:
    """The image of state ``x`` under the row masks ``rows`` (bit i of the
    image is the parity of ``rows[i] & x``)."""
    return sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))


def rotate_left(x: int, k: int, n: int) -> int:
    return (x << k | x >> (n - k)) & ((1 << n) - 1)


# Formula-defined benchmark functions (RevLib: Wille, Grosse, Teuber,
# Dueck and Drechsler, ISMVL 2008), as the images of 0 .. 2**n - 1.
STRUCTURED = {
    "gray": lambda n: [x ^ x >> 1 for x in range(1 << n)],
    "bit reversal": lambda n: [
        int(format(x, f"0{n}b")[::-1], 2) for x in range(1 << n)
    ],
    "xor 1010..": lambda n: [x ^ int(("10" * n)[:n], 2) for x in range(1 << n)],
    "rotate left": lambda n: [rotate_left(x, 1, n) for x in range(1 << n)],
    "x + 1": lambda n: [(x + 1) % (1 << n) for x in range(1 << n)],
    "hidden weighted bit": lambda n: [
        rotate_left(x, x.bit_count() % n, n) for x in range(1 << n)
    ],
}

SYNTH = {
    "general": synth_general,
    "even": synth_even,
    "conservative": synth_conservative,
}

# Primitive gates at n = 3..8, on every route that compiles the target:
# both VTOF routes wherever it is even, and the conservative route for
# hidden weighted bit, the one weight-preserving target. Frozen. Before
# the affine fit the n = 8 counts (general / even) were: Gray code
# 104 562 / 28 448, bit reversal 56 732 / 15 616, XOR with a constant
# 60 172 / 14 750, rotation 104 634 / 29 044, x + 1 120 358 / odd.
FROZEN = {
    ("gray", "general"): (6, 12, 20, 30, 42, 56),
    ("gray", "even"): (6, 12, 20, 30, 42, 56),
    ("bit reversal", "general"): (6, 12, 12, 18, 18, 24),
    ("bit reversal", "even"): (6, 12, 12, 18, 18, 24),
    ("xor 1010..", "general"): (8, 8, 12, 12, 16, 16),
    ("xor 1010..", "even"): (8, 8, 12, 12, 16, 16),
    ("rotate left", "general"): (12, 18, 24, 30, 36, 42),
    ("rotate left", "even"): (12, 18, 24, 30, 36, 42),
    ("x + 1", "general"): (11, 70, 368, 1684, 7196, 29740),
    ("hidden weighted bit", "conservative"): (4, 21, 124, 387, 1238, 4565),
}


@pytest.mark.parametrize("name, route", sorted(FROZEN))
def test_structured_targets_frozen_counts(name: str, route: str):
    for n, count in zip(range(3, 9), FROZEN[name, route]):
        p = Permutation(n, STRUCTURED[name](n))
        if route == "general":
            assert ((name, "even") in FROZEN) == p.is_even(), n
        c = SYNTH[route](p)
        assert len(c.gates) == count, n
        assert verify_realizes(c, p).passed, n


@pytest.mark.parametrize("n", range(3, 11))
def test_affine_targets_cost_at_most_one_final_network(n: int):
    # At most n**2 CNOTs of 2 VTOF each, then a NOT of 4 VTOF per set bit
    # of c; q is the identity, so no block is emitted.
    rng = random.Random(n)
    for _ in range(3):
        rows = random_invertible(n, rng)
        c = rng.getrandbits(n)
        p = Permutation(n, [linear_map(rows, x) ^ c for x in range(1 << n)])
        for synth in (synth_general, synth_even):
            circuit = synth(p)
            assert len(circuit.gates) <= 2 * n * n + 4 * c.bit_count(), synth
            assert verify_realizes(circuit, p).passed, synth


@pytest.mark.parametrize("n", range(3, 9))
def test_fitted_q_fixes_a_base_and_its_neighbours(n: int):
    # A fit agrees with p on its base b and on every b ^ e_j. When M is
    # singular at all n + 1 bases there is no fit, and q is p: 1 to 3 %
    # of random targets at n = 6..8 (200 each), 2 of these 10 at n = 8.
    units = [1 << j for j in range(n)]
    fits = 0
    for kind in ("any", "even"):
        for seed in range(5):
            p = sample_permutation(n, kind, seed)
            affine, q = fitted(p)
            if affine.is_identity():
                continue
            fits += 1
            assert q.then(affine) == p and q.is_even() == p.is_even(), (kind, seed)
            fixed = sum(q(x) == x for x in range(1 << n))
            assert fixed > sum(p(x) == x for x in range(1 << n)), (kind, seed)
            assert any(
                all(q(b ^ e) == b ^ e for e in (0, *units)) for b in (0, *units)
            ), (kind, seed)
    assert fits >= 8


def test_a_single_transposition_never_gets_a_fit():
    # It fixes 2**n - 2 states; a non-identity affine map agrees with it
    # on at most 2**(n-1) + 2, which is not more from n = 3.
    identity = {n: (list(range(1 << n)), 0) for n in range(3, 7)}
    for a in range(8):
        for b in range(a + 1, 8):
            p = Permutation.from_cycle(3, (a, b))
            assert affine_fit(p.mapping, 3) == identity[3], (a, b)
    rng = random.Random(7)
    for n in (4, 5, 6):
        for _ in range(20):
            p = Permutation.from_cycle(n, rng.sample(range(1 << n), 2))
            assert affine_fit(p.mapping, n) == identity[n], p
