"""Public API of the ``revsynth`` package: what ``__all__`` promises."""

from __future__ import annotations

import revsynth

# Names removed from the package, each with the one place its behaviour
# lives now, or why it has none.
REMOVED = (
    "synth_ckswap_ancilla",  # fredkin.ckswap_fred_with_ancilla
    "synth_ckswap_borrowed_pair",  # fredkin._merged_ckswap
    "synth_t2",  # toffoli.increment
    "parity",  # Permutation.parity
    "synth_t1",  # toffoli.conjugation_gates((0, 1), (n,), n) around a CKNOT
    "pair_tokens",  # deleted with even.pair_runs: no route pairs tokens
    "OddTokenCountError",  # deleted with even.pair_runs, its only raiser
    "WeightClassDecomposition",  # weights.weight_decompose's classes tuple
    "recompose",  # Permutation: the classes list states, not images
    "strings_of_weight",  # weights.weight_decompose(p)[k]
    "hamming_distance",  # (a ^ b).bit_count()
    "synth_transposition",  # fredkin._transposition_gates on state integers
    "EqualStringsError",  # callers of fredkin._transposition_gates pass a != b
    "WeightMismatchError",  # weights.weight_decompose's NotConservativeError
)


def test_every_exported_name_resolves():
    for name in revsynth.__all__:
        assert getattr(revsynth, name, None) is not None, name


def test_exports_are_unique():
    assert len(revsynth.__all__) == len(set(revsynth.__all__))


def test_removed_names_stay_removed():
    for name in REMOVED:
        assert name not in revsynth.__all__
        assert not hasattr(revsynth, name), name
