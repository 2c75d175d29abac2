from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import partalg
from partalg import seqmodel
from partalg.cli import main, parse
from partalg.diagram import parse_diagram
from partalg.setpart import bell_number


HERE = Path(__file__).resolve().parent


def run(capsys, *argv: str) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the invocation itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out: str) -> list[dict]:
    return [json.loads(line) for line in out.splitlines()]


def test_cli_output_matches_recorded_fixtures(capsys, monkeypatch):
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    cases = [
        (e["argv"], (e["exit"], e["stdout"], e["stderr"]))
        for e in json.loads((HERE / "cli_fixture.json").read_text())
    ]
    # stdout and exit code of the benchmark's cli-small mix
    cases += [
        (e["argv"], (e["exit"], e["stdout"]))
        for e in json.loads((HERE.parent / "perfbench" / "golden_cli.json").read_text())
    ]
    mismatched = [argv for argv, want in cases if run(capsys, *argv)[: len(want)] != want]
    assert mismatched == []


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


def test_rep_matrix_of_one_long_block_prints_fast(capsys):
    # one block on 10000 strands: three nonzeros, each block's place value summed in one pass
    k = 10000
    start = time.perf_counter()
    code, out, err = run(capsys, "rep", "matrix", "--n", "3", "--diagram", "rgs:" + ",".join(["0"] * (2 * k)))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    diagonal = (3**k - 1) // 2
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:  # 3^10000 has 4772 digits, over Python's default limit of 4300
        sys.set_int_max_str_digits(0)
    try:
        assert out.splitlines() == [f"{x * diagonal} {x * diagonal} 1/1" for x in range(3)]
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


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

    # the three families at k = 4 hold 131, 855 and 855 diagrams; each closes from at most 6 generators
    code, out, _ = run(capsys, "verify", "closure", "--k", "4")
    assert (code, out) == (0, "uniform: closed\ntop: closed\nbottom: closed\n")

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

    # one diagram product: no vector over all 200^3 tuples is built
    code, out, _ = run(
        capsys, "invariants", "act", "--n", "200", "--diagram", "1,2,3,1',2',3'", "--pi", "1,2|3",
    )
    assert (code, out) == (0, "1,2,3: 1/1\n")


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


def test_classification_verdict_fails_when_the_column_counts_disagree(capsys, monkeypatch):
    # without the flip the column counts are the row counts: 1,2,1'|2' is
    # top-propagating but not bottom-propagating, so the third verdict fails
    monkeypatch.setattr(seqmodel, "flip", lambda d: d)
    code, out, err = run(capsys, "verify", "classification", "--k", "2")
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        "lp_matches_uniform: yes",
        "linf_matches_bottom_propagating: yes",
        "column_finite_matches_top_propagating: no",
    ]


def test_classification_walks_one_diagram_per_shape(capsys, monkeypatch):
    # 109 shapes times 8^4 tuples pass the budget, where the 4140 diagrams did not
    code, out, err = run(capsys, "verify", "classification", "--k", "4")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "k: 4",
        "lp_matches_uniform: yes",
        "linf_matches_bottom_propagating: yes",
        "column_finite_matches_top_propagating: yes",
    ]
    code, out, err = run(capsys, "verify", "classification", "--k", "5")
    assert (code, out) == (1, "")
    assert err == "error: classification at k = 5 scans 8^5 tuples for each of 339 shapes, over the limit 1048576\n"
    # the orbit sizes must add up to Bell(2k): a shape left out is a failure, not a smaller yes
    shapes = partalg.diagram._shapes
    monkeypatch.setattr(partalg.diagram, "_shapes", lambda k: list(shapes(k))[:-1])
    code, out, err = run(capsys, "verify", "classification", "--k", "2")
    assert (code, out) == (1, "")
    assert err == "error: the 8 shapes at k = 2 cover 14 diagrams, not Bell(4) = 15\n"


def test_budget_errors_surface_as_runtime_failures(capsys, monkeypatch):
    # (7, 2) reads 4809 basis nonzeros, 7^3 nonzeros of p_1 and 7^4 positions, under 8192;
    # its permutation span mod 2 needs more than 16 * 8192 words and is stopped there
    monkeypatch.setattr(partalg.rep, "MATRIX_NNZ_LIMIT", 8192)
    code, out, err = run(capsys, "verify", "schur-weyl", "--n", "7", "--k", "2")
    assert (code, out) == (1, "")
    assert err == "error: permutation span at (n, k) = (7, 2) mod 2 stopped after 131080 words at rank 427, over the limit 131072\n"
    # at (6, 2) the closure mod 2 passes the meter, and its upper bound's commutator rows
    # are refused before the first is formed
    monkeypatch.setattr(partalg.rep, "MATRIX_NNZ_LIMIT", 4096)
    code, out, err = run(capsys, "verify", "schur-weyl", "--n", "6", "--k", "2")
    assert (code, out) == (1, "")
    assert err == "error: commutant at dimension 36 labels 1296 positions and reads 15552 terms, over the limit 4096\n"


def test_oversized_rep_matrix_fails_fast_with_one_line(capsys):
    # 30^7 nonzeros: refused before anything is allocated
    start = time.perf_counter()
    code, out, err = run(
        capsys, "rep", "matrix", "--k", "6", "--diagram", "1|2|3|4|5|6|1',2',3',4',5',6'", "--n", "30"
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# a 4000-digit n (or truncation) on 3000 singleton blocks in each row: each budget compares its power with the
# exponent capped, so none of these computes the exact n^3000 before refusing it
HUGE = str(10**3999)
SINGLETONS = "|".join(map(str, range(1, 3001)))
SINGLETON_DIAGRAM = SINGLETONS + "|" + "|".join(f"{i}'" for i in range(1, 3001))
HUGE_POWERS = (
    ["rep", "matrix", "--k", "3000", "--diagram", SINGLETON_DIAGRAM, "--n", HUGE],
    ["invariants", "vector", "--n", HUGE, "--pi", SINGLETONS],
    ["invariants", "act", "--n", HUGE, "--diagram", SINGLETON_DIAGRAM, "--pi", SINGLETONS],
    ["norms", "lp", "--k", "3000", "--trunc", HUGE, "--diagram", SINGLETON_DIAGRAM],
)

# stopped by the meter of the permutation span mod 2, at 16 times the limit, in 0.4 and 0.6 s in process
METERED = (["verify", "schur-weyl", "--n", "11", "--k", "2"], ["verify", "schur-weyl", "--n", "7", "--k", "3"])


@pytest.mark.parametrize(
    "argv, seconds",
    [
        (["invariants", "vector", "--n", "30", "--pi", "1|2|3|4|5|6"], 1.0),  # 30^6 tuples
        (["norms", "lp", "--k", "4", "--trunc", "300", "--diagram", "1|2|3|4|1'|2'|3'|4'"], 1.0),  # 300^4
        (["verify", "closure", "--k", "6"], 1.0),  # Bell(12) diagrams, refused before enumerating
        (["verify", "classification", "--k", "5"], 1.0),  # 339 shapes times 8^5 tuples
        (["verify", "schur-weyl", "--n", "9", "--k", "3"], 1.0),  # sum_(b <= 9) S(6, b) 9^b = 1911771 basis nonzeros
        (["verify", "schur-weyl", "--n", "5", "--k", "4"], 1.0),  # sum_(b <= 5) S(8, b) 5^b = 4468305 basis nonzeros
        (["verify", "closure", "--k", "7"], 1.0),  # Bell(14) diagrams, refused before enumerating
        (["verify", "closure", "--k", "2000"], 1.0),  # at least 2^3999 diagrams
        (["verify", "schur-weyl", "--n", "2", "--k", "2000"], 1.0),  # at least 2^3999 diagrams
        (["verify", "classification", "--k", "2000"], 1.0),  # at least 2^3999 diagrams
        (["diagrams", "enumerate", "--k", "6"], 1.0),  # Bell(12) diagrams, refused before enumerating
        (["diagrams", "enumerate", "--k", "5000000"], 1.0),  # at least 2^9999999 diagrams
        # 200^3 tuples in the support of p_pi
        (["invariants", "act", "--n", "200", "--diagram", "1,2,3,1',2',3'", "--pi", "1|2|3"], 1.0),
        (["verify", "schur-weyl", "--n", "1", "--k", "6"], 1.0),  # Bell(12) diagrams, before their nonzeros
        (["verify", "classification", "--k", "6"], 1.0),  # Bell(12) diagrams, before their tuples
        (["norms", "lp", "--k", "1", "--diagram", "1|1'", "--trunc", "16000"], 1.0),  # 500-word weights
        *((argv, 2.0) for argv in METERED),
        *((argv, 1.0) for argv in HUGE_POWERS),
    ],
)
def test_oversized_inputs_fail_fast_with_one_line(capsys, argv, seconds):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert (code, out) == (1, "")
    limit = 16 * 2**20 if argv in METERED else 2**20
    assert err.startswith("error: ") and err.endswith(f", over the limit {limit}\n") and err.count("\n") == 1
    # from k = 6 on Bell(2k) is over the limit, and one guard refuses every walk over the diagrams
    k = int(argv[argv.index("--k") + 1]) if "--k" in argv else 0
    if argv[0] in ("diagrams", "verify") and k >= 6:
        assert " enumerates Bell(" in err


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["diagrams", "classify", "--k", "1000000000", "--diagram", "1,1'"], 2),
        (["invariants", "vector", "--k", "1000000000", "--n", "2", "--pi", "1,2"], 3),
    ],
)
def test_a_huge_k_with_few_vertices_is_a_usage_error_at_once(capsys, argv, missing):
    # the least missing vertex is found without allocating the 10^9 vertices
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.endswith(f"vertex {missing} is missing from the blocks\n") and err.count("\n") == 1


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["diagrams", "classify", "--diagram", "1|1'"],
        ["diagrams", "multiply", "--lhs", "1|1'", "--rhs", "1,1'"],
        ["rep", "matrix", "--n", "2", "--diagram", "1|1'"],
        ["rep", "matrix", "--n", "2", "--diagram", "rgs:0,0"],
    ],
)
def test_a_k_below_one_with_a_diagram_is_one_usage_error(capsys, argv, k):
    code, out, err = run(capsys, *argv, "--k", k)
    assert (code, out, err) == (2, "", "usage error: k must be a positive integer\n")


def test_large_restricted_partition_counts_finish_fast(capsys):
    for argv, want in [
        (["count", "partitions", "--g", "600", "--max-blocks", "600"], bell_number(600)),
        (["count", "partitions", "--g", "6000", "--max-blocks", "2"], 2**5999),  # S(g, 1) + S(g, 2)
        (["invariants", "dim", "--n", "2", "--k", "6000"], 2**5999),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == f"{want}\n"


def test_results_of_any_size_print_and_the_digit_limit_is_restored(capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on int-to-text conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, whatever earlier calls left
    try:
        # Bell(2000) has 4350 digits
        plain = run(capsys, "count", "bell", "--g", "2000")
        as_json = run(capsys, "count", "bell", "--g", "2000", "--json")
        assert sys.get_int_max_str_digits() == 4300
        # argument parsing keeps the limit: a 5000-digit --g is a usage error
        assert run(capsys, "count", "bell", "--g", "1" * 5000)[0] == 2
        sys.set_int_max_str_digits(0)
        want = bell_number(2000)
        assert plain == (0, f"{want}\n", "")
        assert as_json[0] == 0 and json_lines(as_json[1]) == [{"g": 2000, "count": want}]
    finally:
        sys.set_int_max_str_digits(before)


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


def _cli_process(*argv: str, **kwargs) -> subprocess.Popen:
    src = str(Path(partalg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # stdout block-buffered, as it is by default on a pipe or a file, so a short output fails only when flushed
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return subprocess.Popen([sys.executable, "-m", "partalg.cli", *argv], stderr=subprocess.PIPE,
                            env={**env, "PYTHONPATH": path}, **kwargs)


def test_a_reader_that_closes_the_pipe_gets_exit_1_and_no_traceback():
    # `diagrams enumerate --k 5 | head -1`: 115,975 lines, far more than a pipe holds, fail while printing
    proc = _cli_process("diagrams", "enumerate", "--k", "5", stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"1,2,3,4,5,1',2',3',4',5'\n"
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")
    proc.stderr.close()
    # a reader gone before the child starts: one short line fails only when flushed
    proc = _cli_process("count", "bell", "--g", "4", stdout=subprocess.PIPE)
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")
    proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [("diagrams", "enumerate", "--k", "3"), ("count", "bell", "--g", "4")])
def test_a_failed_write_is_one_error_line_and_exit_1(argv):
    # 203 lines fill the buffer and fail while printing; one short line fails only when flushed
    with open("/dev/full", "wb") as full:
        proc = _cli_process(*argv, stdout=full)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1 and err.decode().splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
def test_an_interrupt_is_one_line_and_exit_130():
    proc = _cli_process("diagrams", "enumerate", "--k", "5", stdout=subprocess.PIPE)
    proc.stdout.readline()  # the command is printing, and blocks on the full pipe until it is read
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (130, b"interrupted\n")
