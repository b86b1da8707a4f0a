"""Command-line front end: synthesize, verify, analyze, sample.

Exit codes: 0 success, 1 verification failure, 2 input or precondition
error. Reports are plain text with a stable field order; ``--json``
mirrors the same fields.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any

from .analysis import (
    embedded_gate_permutation,
    embedded_parity,
    independence_check,
    parity_vector,
)
from .errors import RangeError, RevsynthError
from .even import synth_even
from .fredkin import synth_conservative
from .netlist import read_netlist, write_netlist
from .permutation import (
    format_permutation,
    parse_permutation,
    sample_permutation,
)
from .toffoli import synth_general
from .verify import SynthesisReport, verify_realizes

_BACKENDS = {
    "general": synth_general,
    "even": synth_even,
    "conservative": synth_conservative,
}


def render_report(report: SynthesisReport, as_json: bool) -> str:
    """One synthesis/verification report, text or JSON, same fields in
    the same order. Text leaves out an unnamed backend and roles with no
    line."""
    record: dict[str, Any] = {
        "backend": report.backend,
        "width": report.width,
        "lines": report.lines,
        "roles": report.roles_summary,
        "primitive_gates": report.primitive_gate_count,
        "verdict": report.verdict,
    }
    if report.counterexample is not None:
        record["counterexample"] = asdict(report.counterexample)
    if as_json:
        return json.dumps(record, indent=2)
    if record["backend"] is None:
        del record["backend"]
    roles = record["roles"].items()
    record["roles"] = " ".join(f"{name}={count}" for name, count in roles if count)
    counterexample = record.pop("counterexample", {})
    rows = [f"{field}: {value}" for field, value in record.items()]
    rows += (f"counterexample_{field}: {v}" for field, v in counterexample.items())
    return "\n".join(rows)


def cmd_synth(args: argparse.Namespace) -> int:
    p = parse_permutation(Path(args.spec).read_text())
    circuit = _BACKENDS[args.backend](p)
    report = verify_realizes(circuit, p, backend=args.backend)
    if args.out:
        Path(args.out).write_text(write_netlist(circuit))
    print(render_report(report, args.json))
    return 0 if report.passed else 1


def cmd_verify(args: argparse.Namespace) -> int:
    circuit = read_netlist(Path(args.netlist).read_text())
    p = parse_permutation(Path(args.spec).read_text())
    report = verify_realizes(circuit, p)
    print(render_report(report, args.json))
    return 0 if report.passed else 1


def cmd_parity_vector(args: argparse.Namespace) -> int:
    if (args.gate is None) == (args.spec is None):
        raise ValueError("give exactly one of --gate or --spec")
    if args.gate is not None:
        if args.m is None:
            raise ValueError("--gate needs --m (total line count)")
        if args.gate == "ckswap":
            if args.k is None:
                raise ValueError("--gate ckswap needs --k (control count)")
            k = args.k
        else:
            k = {"swap": 0, "cswap": 1}[args.gate]
        vec = parity_vector(embedded_gate_permutation(k, args.m))
    else:
        vec = parity_vector(parse_permutation(Path(args.spec).read_text()))
    if args.json:
        print(json.dumps({"width": vec.width, "entries": list(vec.entries)}))
    else:
        print(vec)
    return 0


def cmd_independence(args: argparse.Namespace) -> int:
    result = independence_check(args.k, args.m)
    if args.json:
        payload: dict[str, object] = {"k": args.k, "m": args.m,
                                      "verdict": result.verdict}
        if result.witness_coordinate is not None:
            payload["witness_coordinate"] = result.witness_coordinate
        if result.coefficients is not None:
            payload["coefficients"] = list(result.coefficients)
        print(json.dumps(payload))
    else:
        print(result.verdict)
    return 0


def cmd_embedded_parity(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise RangeError(f"--count must be at least 1, got {args.count}")
    parities = []
    for i in range(args.count):
        g = sample_permutation(args.width, "any", args.seed + i)
        parities.append(embedded_parity(g, args.n))
    all_even = all(par == "even" for par in parities)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "gate_width": args.width,
                    "count": args.count,
                    "all_even": all_even,
                    "parities": parities,
                }
            )
        )
    elif all_even:
        print("all even")
    else:
        for i, par in enumerate(parities):
            if par == "odd":
                print(f"sample {i}: odd")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    p = sample_permutation(args.width, args.kind, args.seed)
    if args.json:
        text = json.dumps({"width": p.width, "mapping": list(p.mapping)}) + "\n"
    else:
        text = format_permutation(p)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revsynth",
        description="Reversible-logic synthesis over single-gate alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="compile a permutation to a netlist")
    synth.add_argument("spec", help="permutation file (perm header or truth table)")
    backend = synth.add_mutually_exclusive_group(required=True)
    backend.add_argument(
        "--general", dest="backend", action="store_const", const="general",
        help="any permutation; one borrowed line",
    )
    backend.add_argument(
        "--even", dest="backend", action="store_const", const="even",
        help="even permutation; no extra lines",
    )
    backend.add_argument(
        "--conservative", dest="backend", action="store_const",
        const="conservative",
        help="weight-preserving permutation; one ancilla line",
    )
    synth.add_argument("--out", help="write the netlist to this path")
    synth.add_argument("--json", action="store_true")
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="check a netlist against a permutation")
    verify.add_argument("netlist")
    verify.add_argument("spec")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    analyze = sub.add_parser("analyze", help="parity-vector analyses")
    analyze_sub = analyze.add_subparsers(dest="analysis", required=True)

    pv = analyze_sub.add_parser(
        "parity-vector", help="per-weight-class parities of a conservative gate"
    )
    pv.add_argument("--gate", choices=("swap", "cswap", "ckswap"))
    pv.add_argument("--k", type=int, help="control count for --gate ckswap")
    pv.add_argument("--m", type=int, help="total line count for --gate")
    pv.add_argument("--spec", help="permutation file instead of a named gate")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_parity_vector)

    ind = analyze_sub.add_parser(
        "independence",
        help="is C^kSWAP's parity vector outside the span of its predecessors?",
    )
    ind.add_argument("--k", type=int, required=True)
    ind.add_argument("--m", type=int, required=True)
    ind.add_argument("--json", action="store_true")
    ind.set_defaults(func=cmd_independence)

    ep = analyze_sub.add_parser(
        "embedded-parity",
        help="parity of random gates embedded on extra lines",
    )
    ep.add_argument("--n", type=int, required=True, help="embedding width")
    ep.add_argument("--width", type=int, default=3, help="gate width (default 3)")
    ep.add_argument("--count", type=int, default=100)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--json", action="store_true")
    ep.set_defaults(func=cmd_embedded_parity)

    sample = sub.add_parser("sample", help="emit a random permutation file")
    sample.add_argument("--width", type=int, required=True)
    sample.add_argument(
        "--kind", choices=("any", "even", "conservative"), default="any"
    )
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", help="write to this path instead of stdout")
    sample.add_argument("--json", action="store_true")
    sample.set_defaults(func=cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RevsynthError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
