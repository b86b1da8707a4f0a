"""revsynth benchmark: time and check compile/verify on seeded targets.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload general-n4 --seed 1 --seconds 35 --trace 0

One process, one thread, closed loop: each target is compiled and checked
before the next is drawn. Per target:

* compile: ``parse_permutation`` -> ``synth_<route>`` -> ``verify_realizes``
  -> ``write_netlist``, from spec text to verified netlist text;
* check: ``read_netlist`` -> ``verify_realizes``, from netlist text to verdict.

Outside the timed spans every netlist is also run through the independent
evaluator in ``evaluator.py`` and the circuit read back is compared with the
compiled one. One netlist per run gets an extra gate on lines 1, 2, 3, which
both the program and the evaluator must reject.

Every time and rate is scaled to a nominal host speed measured alongside
the targets (``speed.py``), because the speed of a shared host drifts by
more than the bounds between runs. ``--trace 0`` reports the end-to-end
metrics. ``--trace 1`` spends half the
time untraced, then reruns the same targets with every module wrapped
(``tracer.py``) and reports per-module metrics and the tracing overhead; a
traced netlist that differs from its untraced one counts as a failure.
Human-readable lines come first; the last line is one JSON object. The exit
code is 1 if any operation failed, 2 if there are no revsynth sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from evaluator import realizes
from speed import REFERENCE_S, reference_job
from tracer import Tracer
from workloads import WORKLOADS, expected_roles, spec_text, targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3


def import_revsynth():
    """Import revsynth afresh from this checkout's ``src``, never from
    anywhere else."""
    for name in [m for m in sys.modules if m.split(".")[0] == "revsynth"]:
        del sys.modules[name]
    rs = importlib.import_module("revsynth")
    if Path(rs.__file__).resolve().parent != SRC / "revsynth":
        raise ImportError(f"revsynth was loaded from {rs.__file__}")
    return rs


class Result(NamedTuple):
    compile_s: float
    check_s: float
    gates: int
    digest: str  # sha256 of the netlist text


class Tally:
    """Operations attempted and failed, over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(what)


class Bench:
    def __init__(self, rs, workload, tally: Tally):
        self.rs = rs
        self.workload = workload
        self.synth = getattr(rs, f"synth_{workload.route}")
        self.roles = expected_roles(workload)
        self.tally = tally
        self.control: tuple[str, list[int]] | None = None
        self.reference: list[float] = []  # reference_job() seconds

    def run_target(self, mapping: list[int], spec: str, tracer=None) -> Result | None:
        """Compile and check one target (two operations); None on failure."""
        rs = self.rs
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        self.tally.attempted += 2
        try:
            t0 = perf_counter()
            with span("compile"):
                p = rs.parse_permutation(spec)
                circuit = self.synth(p)
                report = rs.verify_realizes(circuit, p)
                text = rs.write_netlist(circuit)
            t1 = perf_counter()
            with span("check"):
                back = rs.read_netlist(text)
                verdict = rs.verify_realizes(back, p).verdict
            t2 = perf_counter()
        except Exception as exc:  # a target that raises fails both operations
            self.tally.fail(f"target raised {exc!r}", ops=2)
            return None
        roles = tuple(r.value for r in circuit.roles)
        independent = self._independent(text, mapping)
        failures = 0
        if not (
            report.verdict == "pass"
            and roles in self.roles
            and report.primitive_gate_count == len(circuit.gates)
            and independent
        ):
            self.tally.fail(f"compile: verdict {report.verdict}, roles {roles}, "
                            f"evaluator passes {independent}")
            failures += 1
        if verdict != "pass" or back != circuit:
            self.tally.fail(f"check: verdict {verdict}, same circuit {back == circuit}")
            failures += 1
        if failures:
            return None
        if self.control is None:
            self.control = (text, mapping)
        return Result(t1 - t0, t2 - t1, len(circuit.gates),
                      hashlib.sha256(text.encode()).hexdigest())

    def _independent(self, text: str, mapping: list[int]) -> bool:
        try:
            return realizes(text, mapping, self.workload.primitive)
        except (ValueError, IndexError):
            return False

    def negative_control(self) -> None:
        """A netlist with one extra gate on lines 1, 2, 3 must be rejected
        by the program and by the evaluator."""
        self.tally.attempted += 1
        if self.control is None:
            self.tally.fail("negative control: no netlist to alter")
            return
        text, mapping = self.control
        bad = text + f"{self.workload.primitive} 1 2 3\n"
        rs = self.rs
        p = rs.parse_permutation(spec_text(mapping))
        program_rejects = rs.verify_realizes(rs.read_netlist(bad), p).verdict == "fail"
        if not program_rejects or self._independent(bad, mapping):
            self.tally.fail(f"negative control: program rejects {program_rejects}")

    def loop(self, items, seconds: float, at_least: int, tracer=None):
        """Closed loop over ``(mapping, spec)`` items: stop once another
        target would likely end past ``seconds``, but not before
        ``at_least`` targets. Returns ``(mapping, spec, result)`` triples."""
        done = []
        start = perf_counter()
        for mapping, spec in items:
            self.reference.append(reference_job())
            if tracer is not None:
                tracer.target = len(done)
            done.append((mapping, spec, self.run_target(mapping, spec, tracer)))
            self.reference.append(reference_job())
            k = len(done)
            if k >= at_least and (perf_counter() - start) * (k + 1) / k > seconds:
                break
        return done


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, but not
    below the median, as (value, percentile, samples beyond). With 20
    samples or fewer the floor applies and fewer than 10 lie beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def setup(workload, seed: int):
    """Import revsynth, draw the inputs and compile and check one warm-up
    target. This is repeated from a fresh import; setup_s is the median."""
    tally = Tally()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rs = import_revsynth()
        stream = targets(workload, seed)
        warm = next(stream)
        pool = [next(stream) for _ in range(workload.pool)]
        drawn = perf_counter() - t0
        bench = Bench(rs, workload, tally)
        result = bench.run_target(*warm)
        times.append(drawn + (result.compile_s + result.check_s if result else 0.0))
    return bench, itertools.chain(pool, stream), statistics.median(times)


def measure(bench, stream, seconds: float):
    """Untraced run: the end-to-end metrics."""
    pool = bench.workload.pool
    done = bench.loop(stream, seconds, pool)
    ok = [r for _, _, r in done if r]
    if not ok:
        return {}, {}
    compile_s = [r.compile_s for r in ok]
    check_s = [r.check_s for r in ok]
    first = [r for _, _, r in done[:pool] if r]
    digest = hashlib.sha256("".join(r.digest for r in first).encode()).hexdigest()
    tail_s, tail_p, beyond = tail(compile_s)
    metrics = {
        "compile_s.p50": (statistics.median(compile_s), "s"),
        "compile_s.tail": (tail_s, "s"),
        "check_s.p50": (statistics.median(check_s), "s"),
        "targets_per_s": (len(ok) / (sum(compile_s) + sum(check_s)), "1/s"),
        "primitive_gates.mean": (statistics.fmean(r.gates for r in first), "count"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "compile_s.p50": f"n={len(ok)}",
        "compile_s.tail": f"p{tail_p:.0f} of n={len(ok)}, {beyond} beyond",
        "check_s.p50": f"n={len(ok)}",
        "targets_per_s": "over the summed compile and check time",
        "primitive_gates.mean": f"first {len(first)} targets, "
        f"netlists sha256 {digest[:16]}",
    }
    return metrics, notes


def measure_traced(bench, stream, seconds: float, span_path: Path):
    """Half the time untraced, then the same targets traced: the
    per-module metrics and the tracing overhead."""
    plain = bench.loop(stream, seconds / 2, 1)
    tracer = Tracer()
    tracer.install(bench.rs)
    try:
        traced = bench.loop([(m, s) for m, s, _ in plain], 0, len(plain), tracer)
    finally:
        tracer.restore()
    for (_, _, a), (_, _, b) in zip(plain, traced):
        if a and b and a.digest != b.digest:
            bench.tally.fail("traced netlist differs from the untraced one")
    base = [r for _, _, r in plain if r]
    ok = [r for _, _, r in traced if r]
    if not ok or not base:
        return {}, {}
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(span_path)

    n = len(ok)
    gates = sum(r.gates for r in ok)
    c = tracer.counts
    inclusive, own = tracer.totals()

    def each(value):
        return value / n

    def rate(count, secs):
        return count / secs if secs else 0.0

    metrics = {
        "generators.tokens": (each(c["generators.tokens"]), "count"),
        "generators.decompose_s": (each(inclusive["generators.decompose"]), "s"),
        "toffoli.cknot_calls": (each(c["toffoli.cknot_calls"]), "count"),
        "toffoli.cknot_s": (each(inclusive["toffoli.cknot"]), "s"),
        **{
            f"even.pairs.{kind}": (each(c[f"even.pairs.{kind}"]), "count")
            for kind in ("M1", "M2", "M3", "M4")
        },
        "even.pair_s": (each(inclusive["even.pair"]), "s"),
        "fredkin.plan_s": (each(inclusive["fredkin.plan"]), "s"),
        "fredkin.macro_gates": (each(c["fredkin.macro_gates"]), "count"),
        "fredkin.lower_calls": (each(c["fredkin.lower_calls"]), "count"),
        "fredkin.lower_s": (each(inclusive["fredkin.lower"]), "s"),
        "weights.decompose_s": (each(inclusive["weights.decompose"]), "s"),
        "expand.s": (each(inclusive["expand"]), "s"),
        "expand.self_s": (each(own["expand"]), "s"),
        "expand.macro_gates": (each(c["expand.macro_gates"]), "count"),
        "expand.ratio": (
            rate(c["expand.primitive_gates"], c["expand.macro_gates"]), "gates/gate"),
        "circuit.validate_calls": (each(c["circuit.validate_calls"]), "count"),
        "circuit.validate_per_gate": (c["circuit.validate_calls"] / gates, "calls/gate"),
        "circuit.build_s": (each(inclusive["circuit.build"]), "s"),
        "verify.s": (each(inclusive["verify"]), "s"),
        "verify.states": (each(c["verify.states"]), "count"),
        "verify.gate_states_per_s": (
            rate(c["verify.gate_states"], inclusive["verify"]), "1/s"),
        "netlist.write_s": (each(inclusive["netlist.write"]), "s"),
        "netlist.read_s": (each(inclusive["netlist.read"]), "s"),
        "netlist.bytes": (each(c["netlist.bytes"]), "B"),
        "netlist.read_gates_per_s": (
            rate(c["netlist.read_gates"], inclusive["netlist.read"]), "1/s"),
        "trace.overhead": (
            statistics.median(r.compile_s for r in ok)
            / statistics.median(r.compile_s for r in base), "ratio"),
    }
    notes = {
        "generators.tokens": f"per target, n={n}; every count and time below too",
        "circuit.validate_per_gate": f"over {gates} emitted gates",
        "trace.overhead": "traced over untraced compile_s.p50, same targets",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "revsynth" / "__init__.py").is_file():
        print(f"error: no revsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    bench, stream, setup_s = setup(workload, args.seed)
    if args.trace:
        span_path = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        metrics, notes = measure_traced(bench, stream, args.seconds, span_path)
    else:
        metrics, notes = measure(bench, stream, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        notes["setup_s"] = f"median of {SETUP_REPEATS} fresh imports, draws and warm-ups"
    bench.negative_control()
    factor = REFERENCE_S / statistics.median(bench.reference)
    for name, (value, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (value * factor, unit)
        elif unit == "1/s":
            metrics[name] = (value / factor, unit)

    tally = bench.tally
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"times scaled by {factor:.4f}: reference job median "
          f"{REFERENCE_S / factor:.5f} s, nominal {REFERENCE_S} s (see speed.py)")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:.6g} {unit}{note}")
    print(f"{'failed_ratio':28s} {tally.failed / tally.attempted:.6g}  "
          f"({tally.failed} of {tally.attempted} operations)")
    for err in tally.errors:
        print(f"failure: {err}")
    correct = tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
