"""In-memory span recorder wrapped around partalg's public functions.

`Tracer.install` replaces each traced function at every partalg module
namespace that binds it, so calls made through `from .rep import matrix`
inside `centralizer` and `seqmodel` are recorded too. Each span is
`[name, start, end, parent, run]`: `parent` is the index of the enclosing
span in `spans` (or None) and `run` the id of the benchmark op that caused
it. Nothing is written until the caller dumps `spans`.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# Prefix of the stderr line on which a traced CLI child reports its spans.
SPANS_MARKER = "PERFBENCH_SPANS "

MODULES = ("setpart", "diagram", "rep", "centralizer", "seqmodel", "cli")

# (defining module, function). Per-element helpers such as tuple_rank,
# refines and the is_* predicates run up to millions of times per pass and
# stay unwrapped so the trace does not dominate the run; their time is the
# self time of the traced caller.
TRACED = (
    ("setpart", "enumerate_partitions"),
    ("diagram", "enumerate_diagrams"),
    ("diagram", "concat"),
    ("diagram", "multiply"),
    ("rep", "matrix"),
    ("rep", "perm_matrix"),
    ("centralizer", "rank_of_rows"),
    ("centralizer", "span_rank"),
    ("centralizer", "commutant_dimension"),
    ("centralizer", "perm_span_dim"),
    ("centralizer", "verify_schur_weyl"),
    ("seqmodel", "l1_truncated_norm"),
    ("seqmodel", "linf_matrix_norm"),
    ("seqmodel", "classify_lp_bounded"),
    ("seqmodel", "classify_linf_bounded"),
    ("seqmodel", "classify_column_finite"),
    ("seqmodel", "lp_norm_profile"),
    ("seqmodel", "linf_norm_profile"),
    ("seqmodel", "monomial_vector"),
    ("seqmodel", "act_on_invariants"),
    ("cli", "parse"),
    ("cli", "execute"),
)

# Generator functions: the wrapper drains them so the span covers the work.
GENERATORS = {"enumerate_partitions", "enumerate_diagrams"}

# commutant_dimension is one function serving two verify layers; its span is
# named after the generators it receives.
COMMUTANT_SPANS = ("centralizer.commutant_of_perms", "centralizer.commutant_of_diagrams")

COUNTERS = (
    "centralizer.rank_of_rows.rows",
    "centralizer.rank_of_rows.rank",
    "centralizer.unknowns",
    "rep.matrix.nnz",
    "diagram.enumerate_diagrams.count",
    "seqmodel.l1_truncated_norm.tuples",
)


def span_names() -> list[str]:
    names = []
    for module, fn in TRACED:
        names.extend(COMMUTANT_SPANS if fn == "commutant_dimension" else [f"{module}.{fn}"])
    return names


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _swap(args: tuple, kwargs: dict, index: int, name: str, value) -> tuple[tuple, dict]:
    """The call's arguments with one argument, positional or keyword, replaced."""
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1 :], kwargs
    return args, {**kwargs, name: value}


def _is_permutation(m) -> bool:
    return (
        m.nnz == m.dim
        and all(v == 1 for _, _, v in m.triples)
        and len({c for _, c, _ in m.triples}) == m.dim
    )


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, fn: str, orig):
        name = f"{module}.{fn}"
        spans, counts, opened = self.spans, self.counts, self._open

        def wrapper(*args, **kwargs):
            label = name
            if fn == "rank_of_rows":
                rows = _arg(args, kwargs, 0, "rows")

                def counted():
                    for row in rows:
                        counts["centralizer.rank_of_rows.rows"] += 1
                        yield row

                args, kwargs = _swap(args, kwargs, 0, "rows", counted())
            elif fn == "commutant_dimension":
                gens = list(_arg(args, kwargs, 0, "generators"))
                args, kwargs = _swap(args, kwargs, 0, "generators", gens)
                label = COMMUTANT_SPANS[0 if all(map(_is_permutation, gens)) else 1]
                if gens:
                    counts["centralizer.unknowns"] += gens[0].dim ** 2
            elif fn == "l1_truncated_norm":
                trunc, d = _arg(args, kwargs, 1, "trunc"), _arg(args, kwargs, 0, "d")
                counts["seqmodel.l1_truncated_norm.tuples"] += trunc**d.k
            idx = len(spans)
            spans.append([label, time.perf_counter(), None, opened[-1] if opened else None, self.run])
            opened.append(idx)
            try:
                result = orig(*args, **kwargs)
                if fn in GENERATORS:
                    result = list(result)
            finally:
                spans[idx][2] = time.perf_counter()
                opened.pop()
            if fn == "rank_of_rows":
                counts["centralizer.rank_of_rows.rank"] += result
            elif fn == "matrix":
                counts["rep.matrix.nnz"] += result.nnz
            elif fn == "enumerate_diagrams":
                counts["diagram.enumerate_diagrams.count"] += len(result)
            return iter(result) if fn in GENERATORS else result

        return wrapper

    def install(self) -> None:
        """Patch every binding of each traced function in the loaded partalg modules."""
        defining = {m: importlib.import_module(f"partalg.{m}") for m in MODULES}
        namespaces = [mod for key, mod in list(sys.modules.items()) if key == "partalg" or key.startswith("partalg.")]
        for module, fn in TRACED:
            orig = getattr(defining[module], fn, None)
            if orig is None:  # removed by a later change: its metrics read 0
                continue
            wrapper = self._wrap(module, fn, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, orig))

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    def adopt(self, spans: list[list], counts: dict[str, int]) -> None:
        """Merge spans and counts recorded in a child process under the current run id."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, None if parent is None else parent + base, self.run])
        for key, value in counts.items():
            self.counts[key] += value


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds (minus direct children) and calls."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out[name]
        agg["s"] += end - start
        agg["self_s"] += end - start - child[i]
        agg["calls"] += 1
    return out
