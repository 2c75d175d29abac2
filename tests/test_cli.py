from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partalg
from partalg.cli import main, parse
from partalg.diagram import parse_diagram


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def test_multiply_golden_json(capsys):
    code, out, err = run(
        capsys,
        "diagrams", "multiply", "--k", "4",
        "--lhs", "1,2|3|4,3',4'|1',2'",
        "--rhs", "1|2|3,1'|4,2',3',4'",
        "--json",
    )
    assert code == 0 and err == ""
    assert out == '{"coeff":["0/1","1/1"],"diagram":"1,2|3|4,1\',2\',3\',4\'"}\n'


def test_multiply_human_output(capsys):
    code, out, _ = run(
        capsys,
        "diagrams", "multiply", "--k", "4",
        "--lhs", "1,2|3|4,3',4'|1',2'",
        "--rhs", "1|2|3,1'|4,2',3',4'",
    )
    assert code == 0
    assert out == "(x) * 1,2|3|4,1',2',3',4'\n"


def test_multiply_rejects_wrong_rgs_length(capsys):
    code, out, err = run(
        capsys, "diagrams", "multiply", "--k", "2", "--lhs", "rgs:0,0,1"
    )
    assert code == 2 and out == ""
    assert "usage error" in err and "even" in err


def test_multiply_requires_rhs(capsys):
    code, _, err = run(capsys, "diagrams", "multiply", "--k", "2", "--lhs", "1,1'|2,2'")
    assert code == 2 and "--rhs is required" in err


def test_enumerate_filter_and_roundtrip(capsys):
    code, out, _ = run(capsys, "diagrams", "enumerate", "--k", "2", "--filter", "uniform")
    assert code == 0
    lines = out.splitlines()
    assert lines == ["1,2,1',2'", "1,1'|2,2'", "1,2'|2,1'"]
    for line in lines:
        assert parse_diagram(line).to_text() == line

    code, out, _ = run(capsys, "diagrams", "enumerate", "--k", "2", "--json")
    docs = json_lines(out)
    assert len(docs) == 15
    assert docs[0] == {"diagram": "1,2,1',2'"}


def test_classify_document(capsys):
    code, out, _ = run(
        capsys, "diagrams", "classify", "--k", "2", "--diagram", "1,1'|2,2'", "--json"
    )
    assert code == 0
    assert json_lines(out) == [
        {
            "diagram": "1,1'|2,2'",
            "uniform": True,
            "top_propagating": True,
            "bottom_propagating": True,
            "lp_bounded": True,
            "linf_bounded": True,
            "column_finite": True,
        }
    ]
    code, out, _ = run(capsys, "diagrams", "classify", "--k", "2", "--diagram", "1,1',2'|2")
    assert code == 0
    assert "uniform: no" in out and "bottom_propagating: yes" in out


def test_rep_entry(capsys):
    code, out, _ = run(
        capsys, "rep", "entry", "--k", "2", "--diagram", "1,1',2'|2",
        "--top", "3,7", "--bottom", "3,3",
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run(
        capsys, "rep", "entry", "--k", "2", "--diagram", "1,1',2'|2",
        "--top", "3,7", "--bottom", "3,5", "--json",
    )
    assert (code, out) == (0, '{"entry":0}\n')


def test_rep_matrix_modes(capsys):
    code, out, _ = run(capsys, "rep", "matrix", "--k", "1", "--diagram", "1|1'", "--n", "2")
    assert code == 0 and out == "1/1 1/1\n1/1 1/1\n"
    code, out, _ = run(
        capsys, "rep", "matrix", "--k", "1", "--diagram", "1|1'", "--n", "2", "--json"
    )
    assert json_lines(out) == [
        {"dim": 2, "triples": [[0, 0, "1/1"], [0, 1, "1/1"], [1, 0, "1/1"], [1, 1, "1/1"]]}
    ]
    # large matrices fall back to a triple listing
    code, out, _ = run(
        capsys, "rep", "matrix", "--k", "2", "--diagram", "1,1'|2,2'", "--n", "6"
    )
    assert code == 0
    assert out.splitlines()[0] == "0 0 1/1"
    assert len(out.splitlines()) == 36


def test_verify_schur_weyl(capsys):
    code, out, _ = run(capsys, "verify", "schur-weyl", "--n", "2", "--k", "2", "--json")
    assert code == 0
    (doc,) = json_lines(out)
    assert doc["centralizer_dim"] == doc["diagram_span_rank"] == 8
    assert doc["commutant_of_perms_dim"] == 8
    assert doc["surjectivity_verdict"] and doc["double_commutant_verdict"]

    code, out, _ = run(capsys, "verify", "schur-weyl", "--n", "3", "--k", "1")
    assert code == 0
    assert "surjectivity_verdict: yes" in out


def test_verify_closure_and_classification(capsys):
    code, out, _ = run(capsys, "verify", "closure", "--k", "2", "--json")
    assert code == 0
    assert json_lines(out) == [{"k": 2, "uniform": True, "top": True, "bottom": True}]

    code, out, _ = run(capsys, "verify", "classification", "--k", "2", "--json")
    assert code == 0
    assert json_lines(out) == [
        {
            "k": 2,
            "lp_matches_uniform": True,
            "linf_matches_bottom_propagating": True,
            "column_finite_matches_top_propagating": True,
        }
    ]


def test_norms_lp_frozen_example(capsys):
    code, out, _ = run(
        capsys, "norms", "lp", "--k", "2", "--diagram", "2,1'|1|2'",
        "--trunc", "4", "--ratio", "1/2",
    )
    assert (code, out) == (0, "15/1\n")
    code, out, _ = run(
        capsys, "norms", "lp", "--k", "2", "--diagram", "2,1'|1|2'",
        "--trunc", "4", "--trunc", "8", "--ratio", "1/2", "--json",
    )
    (doc,) = json_lines(out)
    assert doc == {
        "diagram": "1|2,1'|2'",
        "truncations": [4, 8],
        "norms": ["15/1", "255/1"],
        "divergent": True,
        "r": "1/2",
    }


def test_norms_linf(capsys):
    code, out, _ = run(
        capsys, "norms", "linf", "--k", "2", "--diagram", "1,1'|2|2'", "--trunc", "5"
    )
    assert (code, out) == (0, "5/1\n")
    code, out, _ = run(
        capsys, "norms", "linf", "--k", "2", "--diagram", "1,1'|2,2'", "--json"
    )
    (doc,) = json_lines(out)
    assert doc["norms"] == ["1/1", "1/1"] and doc["divergent"] is False
    assert "r" not in doc


def test_norms_ratio_validation(capsys):
    code, _, err = run(
        capsys, "norms", "lp", "--k", "1", "--diagram", "1,1'", "--ratio", "0/1"
    )
    assert code == 2 and "between 0 and 1" in err
    code, _, err = run(
        capsys, "norms", "lp", "--k", "1", "--diagram", "1,1'", "--ratio", "half"
    )
    assert code == 2


def test_invariants_subcommands(capsys):
    code, out, _ = run(capsys, "invariants", "dim", "--n", "3", "--k", "2")
    assert (code, out) == (0, "2\n")

    code, out, _ = run(capsys, "invariants", "vector", "--pi", "1,2", "--n", "2", "--json")
    assert json_lines(out) == [{"pi": "1,2", "n": 2, "k": 2, "support": [[1, 1], [2, 2]]}]

    code, out, _ = run(
        capsys, "invariants", "act", "--k", "2", "--diagram", "1,1'|2|2'",
        "--pi", "1|2", "--n", "3", "--json",
    )
    assert json_lines(out) == [{"tau": "1|2", "coeff": "3/1"}]

    code, out, _ = run(
        capsys, "invariants", "act", "--k", "2", "--diagram", "1,2,1',2'",
        "--pi", "1|2", "--n", "3",
    )
    assert (code, out) == (0, "1,2: 1/1\n")


def test_invariants_act_rejects_small_n(capsys):
    code, _, err = run(
        capsys, "invariants", "act", "--k", "3", "--diagram", "1,1'|2,2'|3,3'",
        "--pi", "1|2|3", "--n", "2",
    )
    assert code == 2 and "at least k" in err


def test_count_subcommands(capsys):
    assert run(capsys, "count", "bell", "--g", "6")[:2] == (0, "203\n")
    code, out, _ = run(
        capsys, "count", "partitions", "--g", "4", "--max-blocks", "2", "--json"
    )
    assert json_lines(out) == [{"g": 4, "max_blocks": 2, "count": 8}]


def test_parse_builds_commands():
    cmd = parse(["verify", "schur-weyl", "--n", "4", "--k", "2", "--json"])
    assert cmd.name == "verify schur-weyl" and cmd.json_mode
    cmd = parse(["count", "bell", "--g", "3"])
    assert not cmd.json_mode


def test_unknown_subcommand_exits_with_usage_code():
    with pytest.raises(SystemExit) as exc:
        main(["diagrams", "frobnicate"])
    assert exc.value.code == 2


def test_budget_errors_surface_as_runtime_failures(capsys):
    code, _, err = run(capsys, "verify", "schur-weyl", "--n", "6", "--k", "2")
    assert code == 1 and "error:" in err


def test_module_entry_point_runs_in_a_subprocess():
    # the child imports the same partalg as this process, installed or not
    src = str(Path(partalg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "partalg.cli", "count", "bell", "--g", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0 and proc.stdout == "15\n"
