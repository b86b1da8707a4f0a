"""Per-module tracing from outside revsynth, by wrapping its functions.

``Tracer.install`` replaces each traced function at every name it is bound
under, and ``Tracer.restore`` puts the originals back. A wrapper records one
span (name, start, end, parent span, target) per outermost call: when a
function is already on the span stack, its recursive calls run unwrapped.
Spans stay in memory until ``write``. Gate validation is only counted, with
a C-level counter, because it runs about three times per emitted gate.

The binding sites matter: ``decompose_generators`` is imported into
``toffoli`` and ``even``, ``weight_decompose`` into ``fredkin``, and
``expand`` imports ``synth_cknot`` and ``ckswap_fred_with_ancilla`` from
their modules on every call, so patching the defining module covers it.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.target = -1
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._validate_calls = itertools.count()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owners, attr, wrap) -> None:
        original = getattr(owners[0], attr)
        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner}.{attr} is bound to another object")
        wrapper = wrap(original)
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _timed(self, name, note=None):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                if name in self._active:
                    return fn(*args, **kwargs)
                with self.span(name):
                    result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result

            return wrapper

        return wrap

    def install(self, rs) -> None:
        """Wrap the public functions of the ``revsynth`` package ``rs``."""
        c = self.counts
        p = self._patch

        def tokens(args, result):
            c["generators.tokens"] += len(result)

        def pair(args, result):
            c[f"even.pairs.{args[0].value}"] += 1

        def plan(args, result):
            c["fredkin.macro_gates"] += sum(len(stage) for _, stage in result)

        def expand(args, result):
            c["expand.macro_gates"] += len(args[0].gates)
            c["expand.primitive_gates"] += len(result.gates)

        def verify(args, result):
            c["verify.states"] += 1 << args[0].width
            c["verify.gate_states"] += len(args[0].gates) << args[0].width

        def written(args, result):
            c["netlist.bytes"] += len(result)

        def read(args, result):
            c["netlist.read_gates"] += len(result.gates)

        def calls(name):
            def note(args, result):
                c[name] += 1

            return note

        p([rs.generators, rs.toffoli, rs.even], "decompose_generators",
          self._timed("generators.decompose", tokens))
        p([rs.toffoli], "synth_cknot",
          self._timed("toffoli.cknot", calls("toffoli.cknot_calls")))
        p([rs.even], "synth_pair", self._timed("even.pair", pair))
        p([rs.fredkin], "conservative_stage_plan",
          self._timed("fredkin.plan", plan))
        p([rs.fredkin], "ckswap_fred_with_ancilla",
          self._timed("fredkin.lower", calls("fredkin.lower_calls")))
        p([rs.weights, rs.fredkin], "weight_decompose",
          self._timed("weights.decompose"))
        p([rs.expand], "expand_macros", self._timed("expand", expand))
        p([rs.circuit.Circuit], "__post_init__", self._timed("circuit.build"))
        p([rs.verify, rs], "verify_realizes", self._timed("verify", verify))
        p([rs.netlist, rs], "write_netlist", self._timed("netlist.write", written))
        p([rs.netlist, rs], "read_netlist", self._timed("netlist.read", read))

        def count_validate(fn):
            tick = self._validate_calls.__next__

            def validate(gate):
                tick()
                return fn(gate)

            return validate

        p([rs.circuit.GateInstance], "validate", count_validate)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.counts["circuit.validate_calls"] = next(self._validate_calls)

    # -- spans ---------------------------------------------------------------

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds by span name. Self time is a span's
        duration minus the durations of its direct children; children
        nest inside their parent, so they never overlap it."""
        inclusive: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - covered[i]
        return inclusive, own

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append((self.name, perf_counter(), 0.0, parent, t.target))
        t._stack.append(self.index)
        t._active.add(self.name)

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        t = self.tracer
        t._stack.pop()
        t._active.discard(self.name)
        name, start, _, parent, target = t.spans[self.index]
        t.spans[self.index] = (name, start, end, parent, target)
