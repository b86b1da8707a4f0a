"""Frozen netlist bytes: seeded targets on every route hash to fixed
digests. A change that alters any emitted byte must update a digest here
and say why; a pure speed-up must leave every digest untouched."""

from __future__ import annotations

import hashlib

import pytest

from revsynth import (
    sample_permutation,
    synth_conservative,
    synth_even,
    synth_general,
    verify_realizes,
    write_netlist,
)

ROUTES = {
    "general": (synth_general, "any", range(3, 6)),
    "even": (synth_even, "even", range(3, 6)),
    "conservative": (synth_conservative, "conservative", range(3, 8)),
}

DIGESTS = {
    "general": "78220102797440da31197c3965b557ed6d2ee33992fe057beb49d462a5317f9a",
    "even": "281878449b92221b2d09cbe04020205bcb3178406c06b66b35f4118856d74a45",
    "conservative": "a4edc3635e189dc30465da203604387b7d9178242782c6d3f70503e30ef71461",
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_seeded_netlists_are_frozen(route: str):
    synth, kind, widths = ROUTES[route]
    digest = hashlib.sha256()
    for n in widths:
        for seed in range(4):
            p = sample_permutation(n, kind, seed=seed)
            c = synth(p)
            assert verify_realizes(c, p).passed, (n, seed)
            digest.update(write_netlist(c).encode())
    assert digest.hexdigest() == DIGESTS[route]


# The benchmark's conservative width and one wider: the first widths whose
# stage plans reach C^6SWAP and C^7SWAP centres.
WIDE_CONSERVATIVE = ((8, 0), (8, 1), (9, 0))
WIDE_CONSERVATIVE_DIGEST = (
    "5f7273a5499b725359cf3ca5a6d7ff249bab90b0fe80334d074c5cb248dc1c88"
)


def test_wide_conservative_netlists_are_frozen():
    digest = hashlib.sha256()
    for n, seed in WIDE_CONSERVATIVE:
        p = sample_permutation(n, "conservative", seed)
        digest.update(write_netlist(synth_conservative(p)).encode())
    assert digest.hexdigest() == WIDE_CONSERVATIVE_DIGEST


# The widths whose VTOF routes lower C^5NOT to C^7NOT centres: general's
# full-width CKNOT has n-1 controls, even's C^(n-2)NOT n-2.
WIDE_VTOF = tuple(
    (route, n, 0) for route in ("general", "even") for n in (6, 7, 8)
)
WIDE_VTOF_DIGEST = (
    "8beb54753b2e36510992319dca1efcbee7045df3718f8af75a24a2ddc9e5c016"
)


def test_wide_vtof_netlists_are_frozen():
    digest = hashlib.sha256()
    for route, n, seed in WIDE_VTOF:
        synth, kind, _ = ROUTES[route]
        p = sample_permutation(n, kind, seed)
        digest.update(write_netlist(synth(p)).encode())
    assert digest.hexdigest() == WIDE_VTOF_DIGEST
