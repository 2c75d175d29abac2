"""The package's exports, and which modules `import partalg` and each CLI command load."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partalg

# every name `partalg` exports, by its defining submodule
EXPORTS = {
    "setpart": [
        "SetPartition", "bell_number", "count_partitions", "enumerate_partitions", "from_blocks", "from_edges",
        "orbit_partition", "refines", "stirling2",
    ],
    "diagram": [
        "AlgebraElement", "Diagram", "Poly", "RectDiagram", "closed_under_product", "concat", "enumerate_diagrams",
        "flip", "identity", "is_bottom_propagating", "is_top_propagating", "is_uniform", "multiply",
        "parse_diagram", "parse_rect_diagram", "partition_algebra_generators", "rect_compose",
    ],
    "rep": ["PermWord", "SparseMat", "act", "entry", "eval_at", "matrix", "perm_matrix", "tuple_rank"],
    "centralizer": [
        "BudgetExceededError", "VerificationReport", "centralizer_dimension", "commutant_dimension",
        "perm_span_dim", "perm_span_expected", "span_rank", "verify_schur_weyl",
    ],
    "seqmodel": [
        "GeometricWeights", "MonomialInvariant", "NormProfile", "act_on_invariants", "classify_column_finite",
        "classify_linf_bounded", "classify_lp_bounded", "invariant_dim", "l1_truncated_norm", "linf_matrix_norm",
        "monomial_vector",
    ],
}


def test_every_export_is_the_object_of_its_defining_module():
    assert partalg.__all__ == [name for names in EXPORTS.values() for name in names]
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"partalg.{module}")
        for name in names:
            scope: dict = {}
            exec(f"from partalg import {name}", scope)
            assert scope[name] is getattr(defining, name), name
    assert set(partalg.__all__) <= set(dir(partalg))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        partalg.nonesuch  # noqa: B018


# stdlib modules no command needs: `dataclasses` pulls in `inspect`, and only --json output needs `json`
HEAVY = {"dataclasses", "inspect", "json"}


def _modules_after(code: str) -> set[str]:
    """The modules loaded in a fresh interpreter once `code` has run."""
    # the child imports the same partalg as this process, installed or not
    src = str(Path(partalg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = f"import sys\n{code}\nprint(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _partalg_modules_after(code: str) -> set[str]:
    return {m for m in _modules_after(code) if m.startswith("partalg")}


def test_import_partalg_loads_no_submodule_until_one_is_used():
    assert _partalg_modules_after("import partalg") == {"partalg"}
    loaded = _partalg_modules_after("import partalg\nassert partalg.rational.frac_str(2) == '2/1'")
    assert loaded == {"partalg", "partalg.rational"}
    loaded = _partalg_modules_after("import partalg\nassert partalg.rep.MATRIX_NNZ_LIMIT == 2**20")
    assert "partalg.rep" in loaded and "partalg.centralizer" not in loaded


@pytest.mark.parametrize(
    "argv, used, unused",
    [
        (["count", "bell", "--g", "5"], "setpart", {"diagram", "rep", "centralizer", "seqmodel"}),
        (["diagrams", "multiply", "--lhs", "1,1'|2,2'", "--rhs", "1,2|1',2'"], "diagram",
         {"rep", "centralizer", "seqmodel"}),
        (["norms", "lp", "--diagram", "1|1'", "--trunc", "4"], "seqmodel", {"centralizer"}),
        (["verify", "schur-weyl", "--n", "2", "--k", "2"], "centralizer", {"seqmodel"}),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(argv, used, unused):
    loaded = _modules_after(f"from partalg.cli import main\nassert main({argv!r}) == 0")
    assert f"partalg.{used}" in loaded
    assert loaded & {f"partalg.{m}" for m in unused} == set()
    assert loaded & HEAVY == set()


@pytest.mark.parametrize(
    "argv", [["count", "bell", "--g", "5"], ["diagrams", "multiply", "--lhs", "1,1'|2,2'", "--rhs", "1,2|1',2'"]]
)
def test_json_is_loaded_only_for_json_output(argv):
    for flags, loaded in [([], set()), (["--json"], {"json"})]:
        modules = _modules_after(f"from partalg.cli import main\nassert main({argv + flags!r}) == 0")
        assert modules & HEAVY == loaded
