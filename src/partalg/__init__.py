"""Exact partition-diagram algebras and their tensor-power actions.

Everything is computed over the rationals (fractions.Fraction) or the
integers; there are no floating point numbers anywhere in the package.
"""

# Each exported name by its defining submodule.  Names and submodules are imported on first access
# (PEP 562), so `import partalg` loads no submodule and a CLI call loads only those it uses.
_EXPORTS = {
    "setpart": ("SetPartition", "bell_number", "count_partitions", "enumerate_partitions", "from_blocks",
                "from_edges", "orbit_partition", "refines", "stirling2"),
    "diagram": ("AlgebraElement", "Diagram", "Poly", "RectDiagram", "closed_under_product", "concat",
                "enumerate_diagrams", "flip", "identity", "is_bottom_propagating", "is_top_propagating",
                "is_uniform", "multiply", "parse_diagram", "parse_rect_diagram", "partition_algebra_generators",
                "rect_compose"),
    "rep": ("PermWord", "SparseMat", "act", "entry", "eval_at", "matrix", "perm_matrix", "tuple_rank"),
    "centralizer": ("BudgetExceededError", "VerificationReport", "centralizer_dimension", "commutant_dimension",
                    "perm_span_dim", "perm_span_expected", "span_rank", "verify_schur_weyl"),
    "seqmodel": ("GeometricWeights", "MonomialInvariant", "NormProfile", "act_on_invariants",
                 "classify_column_finite", "classify_linf_bounded", "classify_lp_bounded", "invariant_dim",
                 "l1_truncated_norm", "linf_matrix_norm", "monomial_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "rational"}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own hook, which -X importtime reports (importlib.import_module is not)
    __import__(f"{__name__}.{module}")
    return globals()[module] if name == module else getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
