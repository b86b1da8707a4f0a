"""The benchmark tracer (``perfbench/tracer.py``) wraps revsynth functions
by name in the modules that bind them. A rename that drops one of those
bindings must fail here, not only under ``perfbench/run.py --trace 1``."""

from __future__ import annotations

import sys
from pathlib import Path

import revsynth
from revsynth import (
    sample_permutation,
    synth_conservative,
    synth_even,
    synth_general,
    verify_realizes,
    write_netlist,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every object the tracer patches an attribute of.
OWNERS = (
    revsynth,
    revsynth.generators,
    revsynth.toffoli,
    revsynth.even,
    revsynth.fredkin,
    revsynth.weights,
    revsynth.expand,
    revsynth.verify,
    revsynth.netlist,
    revsynth.circuit.Circuit,
    revsynth.circuit.GateInstance,
)


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    routes = (
        (synth_general, "any", 3),
        (synth_even, "even", 4),
        (synth_conservative, "conservative", 4),
    )
    targets = [sample_permutation(w, kind, seed=1) for _, kind, w in routes]
    untraced = [
        write_netlist(synth(p)) for (synth, _, _), p in zip(routes, targets)
    ]
    saved = [(owner, dict(vars(owner))) for owner in OWNERS]
    decompose = revsynth.generators.decompose_generators
    tracer = Tracer()
    try:
        tracer.install(revsynth)
        # No route calls these bindings, but the tracer requires them.
        assert revsynth.toffoli.decompose_generators is not decompose
        assert revsynth.even.decompose_generators is not decompose
        for (synth, _, _), p, text in zip(routes, targets, untraced):
            c = synth(p)
            assert verify_realizes(c, p).passed
            # The traced run goes through the wrappers and the warm caches;
            # its bytes must not differ.
            assert revsynth.write_netlist(c) == text
        # No route expands a macro circuit, so feed the expansion wrapper
        # directly, through the module binding that the tracer patches.
        macro = revsynth.circuit.Circuit(3, (revsynth.circuit.cnot(1, 2),))
        assert revsynth.expand.expand_macros(macro, "VTOF").is_primitive()
    finally:
        tracer.restore()
    for owner, attrs in saved:
        for name, value in attrs.items():
            assert vars(owner).get(name) is value, (owner, name)
    assert tracer.counts["toffoli.cknot_calls"] > 0
    assert tracer.counts["fredkin.macro_gates"] > 0
    # The untraced runs above cached the C^kSWAP shapes; the conservative
    # route must still call the traced lowering once per centre of its plan.
    centres = sum(
        g.kind is revsynth.circuit.GateKind.CKSWAP
        for _, stage in revsynth.fredkin.conservative_stage_plan(targets[2])
        for g in stage
    )
    assert tracer.counts["fredkin.lower_calls"] == centres > 0
    assert tracer.counts["expand.macro_gates"] > 0
    # Every Circuit is built through the traced __post_init__, those from a
    # gate table too: one netlist per route, the macro circuit and its
    # expansion.
    assert sum(span[0] == "circuit.build" for span in tracer.spans) == 5
    assert tracer.counts["netlist.bytes"] == sum(map(len, untraced))
