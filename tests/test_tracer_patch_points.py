"""The benchmark tracer (``perfbench/tracer.py``) wraps revsynth functions
by name in the modules that bind them. A rename that drops one of those
bindings must fail here, not only under ``perfbench/run.py --trace 1``."""

from __future__ import annotations

import sys
from pathlib import Path

import revsynth
from revsynth import sample_permutation, synth_general, verify_realizes

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    before = revsynth.toffoli.decompose_generators
    tracer = Tracer()
    try:
        tracer.install(revsynth)
        assert revsynth.toffoli.decompose_generators is not before
        p = sample_permutation(3, "any", seed=1)
        assert verify_realizes(synth_general(p), p).passed
    finally:
        tracer.restore()
    assert revsynth.toffoli.decompose_generators is before
    assert tracer.counts["toffoli.cknot_calls"] > 0
