"""Command-line interface: report rendering, exit codes, and file I/O."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revsynth
from revsynth.circuit import Circuit, vtof
from revsynth.cli import main
from revsynth.netlist import read_netlist, write_netlist
from revsynth.permutation import (
    Permutation,
    format_permutation,
    parse_permutation,
    sample_permutation,
)
from revsynth.verify import verify_realizes
from revsynth.weights import bits

from conftest import cknot_permutation


@pytest.fixture
def perm3(tmp_path):
    p = sample_permutation(3, "any", seed=12)
    path = tmp_path / "p3.perm"
    path.write_text(format_permutation(p))
    return p, path


def embedded_fredkin_table() -> str:
    fred3 = (0, 1, 2, 3, 4, 6, 5, 7)
    rows = []
    for x in range(16):
        y = (fred3[x >> 1] << 1) | (x & 1)
        rows.append(f"{bits(x, 4)} {bits(y, 4)}")
    return "\n".join(rows) + "\n"


def test_synth_general_report_text(perm3, tmp_path, capsys):
    p, path = perm3
    out = tmp_path / "out.netlist"
    assert main(["synth", str(path), "--general", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    lines = text.strip().splitlines()
    assert lines[0] == "backend: general"
    assert lines[1] == "width: 3"
    assert lines[2] == "lines: 4"
    assert lines[3] == "roles: data=3 borrowed=1"
    assert lines[4].startswith("primitive_gates: ")
    assert lines[5] == "verdict: pass"
    # The emitted netlist stands on its own.
    c = read_netlist(out.read_text())
    assert verify_realizes(c, p).passed


def test_readme_example_gate_count(tmp_path, capsys):
    # The README's CLI example, frozen: a change in emitted size must
    # update the README with it.
    perm = tmp_path / "p.perm"
    out = tmp_path / "p.netlist"
    assert main(["sample", "--width", "3", "--seed", "1", "--out", str(perm)]) == 0
    capsys.readouterr()
    assert main(["synth", str(perm), "--general", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[4] == "primitive_gates: 50"


def test_synth_even_rejects_odd_permutation(tmp_path, capsys):
    odd = Permutation.from_cycle(3, (0, 1))
    path = tmp_path / "odd.perm"
    path.write_text(format_permutation(odd))
    assert main(["synth", str(path), "--even"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: permutation is odd"


def test_synth_even_uses_exact_width(tmp_path, capsys):
    p = sample_permutation(3, "even", seed=3)
    path = tmp_path / "even.perm"
    path.write_text(format_permutation(p))
    assert main(["synth", str(path), "--even"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "backend: even"
    assert lines[2] == "lines: 3"
    assert lines[3] == "roles: data=3"


def test_synth_conservative_truth_table(tmp_path, capsys):
    path = tmp_path / "fredkin4.tt"
    path.write_text(embedded_fredkin_table())
    assert main(["synth", str(path), "--conservative"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "backend: conservative"
    assert lines[1] == "width: 4"
    assert lines[2] == "lines: 5"
    assert lines[3] == "roles: data=4 ancilla0=1"
    assert lines[5] == "verdict: pass"


def test_synth_backend_is_required(perm3, capsys):
    _, path = perm3
    with pytest.raises(SystemExit):
        main(["synth", str(path)])


def test_synth_json_report(perm3, capsys):
    _, path = perm3
    assert main(["synth", str(path), "--general", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "general"
    assert payload["width"] == 3
    assert payload["lines"] == 4
    assert payload["roles"] == {
        "data": 3, "ancilla0": 0, "ancilla1": 0, "borrowed": 1,
    }
    assert payload["verdict"] == "pass"
    assert "counterexample" not in payload


def test_verify_pass_and_fail(tmp_path, capsys):
    target = cknot_permutation(3, (1,), 3)
    spec = tmp_path / "cnot.perm"
    spec.write_text(format_permutation(target))
    good = tmp_path / "good.netlist"
    good.write_text(write_netlist(Circuit(3, (vtof(1, 2, 3), vtof(1, 2, 3)))))
    assert main(["verify", str(good), str(spec)]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out
    assert "backend:" not in out

    bad = tmp_path / "bad.netlist"
    bad.write_text(write_netlist(Circuit(3, (vtof(1, 2, 3),))))
    assert main(["verify", str(bad), str(spec)]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert "verdict: fail" in lines
    assert "counterexample_input: 000" in lines
    assert "counterexample_expected: 000" in lines
    assert "counterexample_actual: 010" in lines


def test_verify_width_mismatch_is_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "p2.perm"
    spec.write_text(format_permutation(Permutation.identity(2)))
    net = tmp_path / "c3.netlist"
    net.write_text(write_netlist(Circuit(3, ())))
    assert main(["verify", str(net), str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["synth", "/nonexistent/p.perm", "--general"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parity_vector_named_gates(capsys):
    assert main(["analyze", "parity-vector", "--gate", "swap", "--m", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 0 1 0"
    assert main(["analyze", "parity-vector", "--gate", "cswap", "--m", "4"]) == 0
    assert capsys.readouterr().out.strip() == "0 0 1 1 0"
    assert main(
        ["analyze", "parity-vector", "--gate", "ckswap", "--k", "2", "--m", "4"]
    ) == 0
    assert capsys.readouterr().out.strip() == "0 0 0 1 0"


def test_parity_vector_from_spec_file(tmp_path, capsys):
    p = Permutation(3, (0, 1, 2, 3, 4, 6, 5, 7))
    path = tmp_path / "fred.perm"
    path.write_text(format_permutation(p))
    assert main(["analyze", "parity-vector", "--spec", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "0 0 1 0"


def test_parity_vector_argument_validation(tmp_path, capsys):
    assert main(["analyze", "parity-vector", "--m", "4"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["analyze", "parity-vector", "--gate", "ckswap", "--m", "4"]) == 2
    assert "--k" in capsys.readouterr().err
    assert main(["analyze", "parity-vector", "--gate", "swap"]) == 2
    assert "--m" in capsys.readouterr().err


def test_independence_output(capsys):
    assert main(["analyze", "independence", "--k", "2", "--m", "6"]) == 0
    assert capsys.readouterr().out.strip() == "independent"
    assert main(["analyze", "independence", "--k", "2", "--m", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "k": 2, "m": 6, "verdict": "independent", "witness_coordinate": 3,
    }


def test_independence_range_error(capsys):
    assert main(["analyze", "independence", "--k", "9", "--m", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "independence", "--k", "3", "--m", "17"]) == 2
    assert "capped at 16" in capsys.readouterr().err


def test_embedded_parity_all_even(capsys):
    assert main(
        ["analyze", "embedded-parity", "--n", "4", "--count", "20"]
    ) == 0
    assert capsys.readouterr().out.strip() == "all even"


def test_embedded_parity_reports_odd_samples(capsys):
    # Without spare lines the samples keep their own parities, so the odd
    # ones get listed; mirror the command's sampling to predict which.
    from revsynth.analysis import embedded_parity

    expected = [
        f"sample {i}: odd"
        for i in range(5)
        if embedded_parity(sample_permutation(3, "any", 9 + i), 3) == "odd"
    ]
    assert expected  # seed chosen so at least one odd sample appears
    assert main(
        ["analyze", "embedded-parity", "--n", "3", "--count", "5", "--seed", "9"]
    ) == 0
    assert capsys.readouterr().out.strip().splitlines() == expected


def test_embedded_parity_json(capsys):
    assert main(
        ["analyze", "embedded-parity", "--n", "4", "--count", "3", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["gate_width"] == 3
    assert payload["all_even"] is True
    assert payload["parities"] == ["even"] * 3


@pytest.mark.parametrize("count", ["0", "-3"])
def test_embedded_parity_rejects_a_non_positive_count(count, capsys):
    # Zero samples would otherwise report "all even" over nothing.
    argv = ["analyze", "embedded-parity", "--n", "4", "--count", count]
    assert main(argv) == 2
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --count must be at least 1" in captured.err


def test_sample_output_is_deterministic(tmp_path, capsys):
    assert main(["sample", "--width", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--width", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert parse_permutation(first) == sample_permutation(3, "any", 5)


def test_sample_kind_and_out_file(tmp_path, capsys):
    out = tmp_path / "even.perm"
    assert main(
        ["sample", "--width", "4", "--kind", "even", "--seed", "2",
         "--out", str(out)]
    ) == 0
    p = parse_permutation(out.read_text())
    assert p.is_even()
    assert p == sample_permutation(4, "even", 2)


def test_sample_writes_the_same_bytes_to_stdout_and_file(tmp_path, capsys):
    out = tmp_path / "p.perm"
    assert main(["sample", "--width", "3", "--seed", "5"]) == 0
    assert main(["sample", "--width", "3", "--seed", "5", "--out", str(out)]) == 0
    text = format_permutation(sample_permutation(3, "any", 5))
    assert capsys.readouterr().out == text
    assert out.read_text() == text
    argv = ["sample", "--width", "3", "--seed", "5", "--json"]
    assert main(argv) == 0
    assert main(argv + ["--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n")
    assert out.read_text() == text


def test_sample_json(capsys):
    assert main(["sample", "--width", "3", "--seed", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["width"] == 3
    assert sorted(payload["mapping"]) == list(range(8))


def run_module(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    """``python -m revsynth ARGS`` in a fresh process, importing the
    package from the same tree as this test run."""
    src = str(Path(revsynth.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "revsynth", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_module_runs_the_readme_example(tmp_path):
    done = run_module("sample", "--width", "3", "--seed", "1", "--out", "p.perm",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    done = run_module("synth", "p.perm", "--general", "--out", "p.netlist",
                      cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "primitive_gates: 50" in done.stdout.splitlines()
    assert (tmp_path / "p.netlist").read_text().startswith("lines 4\n")


def test_module_exits_2_on_an_odd_permutation_for_even(tmp_path):
    (tmp_path / "odd.perm").write_text(
        format_permutation(Permutation.from_cycle(3, (0, 1)))
    )
    done = run_module("synth", "odd.perm", "--even", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.strip() == "error: permutation is odd"
