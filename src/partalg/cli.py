"""Command line front end.  Results go to stdout, diagnostics to stderr.
With --json every result is one compact JSON document per line.  Exit code
0 means every requested check passed; usage problems exit 2, runtime
failures exit 1.

A failed write to stdout exits 1 too, after one `error:` line, or with no
line when the reader closed the pipe; an interrupt exits 130 after one line.

Every subcommand is one entry of `_COMMANDS`, keyed by "group action".  An
entry holds the subcommand's argparse flags, a validator that turns the
parsed flags into a payload dict or raises ValueError (which `parse` turns
into a UsageError), a runner that takes the payload as keyword arguments
and returns (documents, exit code), and a formatter that turns one document
into its plain-text lines.  The parser, `parse` and `execute` are written
once over that table, and `execute` is the only place that prints: one
compact JSON line per document with --json, otherwise the formatter's
lines.  Adding a subcommand means adding one entry.  A call builds the
parser of its own entry only and imports only the modules that entry runs.
`Command` is a `types.SimpleNamespace`, so no call imports the standard
library's record decorator or `inspect`; only --json imports `json`.
"""

from __future__ import annotations

import argparse
import os
import sys
import types
from typing import Callable, Iterable, NamedTuple

import partalg

__all__ = ["Command", "UsageError", "parse", "execute", "main"]


class UsageError(ValueError):
    """Invalid invocation: bad flag combination or malformed input text."""


class Command(types.SimpleNamespace):
    """One parsed invocation: the `_COMMANDS` key, the validated payload and the --json flag."""

    def __init__(self, name: str, payload: dict, json_mode: bool):
        super().__init__(name=name, payload=payload, json_mode=json_mode)


class _Spec(NamedTuple):
    flags: dict[str, dict]
    validate: Callable[[argparse.Namespace], dict]
    run: Callable[..., tuple[Iterable[dict], int]]
    format: Callable[[dict], list[str]]


class _Retry(Exception):
    """A usage error met by `_build_parser(only)`, the tree of one command; `parse` reports it with the full tree."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Retry(message)


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    # the help text is the docstring's first paragraph; the rest is for developers
    cls = argparse.ArgumentParser if only is None else _OneCommandParser
    p = cls(prog="partalg", description=__doc__.split("\n\n")[0])
    groups = p.add_subparsers(dest="group", required=True)
    actions = {}
    for name in [only] if only else _COMMANDS:
        group, action = name.split(" ")
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        sp = actions[group].add_parser(action)
        sp.add_argument("--json", action="store_true", help="one JSON document per result line")
        for flag, kwargs in _COMMANDS[name].flags.items():
            sp.add_argument(flag, **kwargs)
    return p


def parse(argv: list[str]) -> Command:
    """Parse and semantically validate one invocation; a ValueError is a UsageError.

    Only the command that argv[:2] names gets a parser; on a usage error the full tree parses again.
    """
    only = " ".join(argv[:2])
    try:
        ns = _build_parser(only if only in _COMMANDS else None).parse_args(argv)
    except _Retry:
        ns = _build_parser().parse_args(argv)
    name = f"{ns.group} {ns.action}"
    try:
        payload = _COMMANDS[name].validate(ns)
    except ValueError as err:
        raise UsageError(str(err)) from None
    return Command(name=name, payload=payload, json_mode=ns.json)


def execute(cmd: Command) -> int:
    """Run a parsed command and print its documents; returns the exit code."""
    spec = _COMMANDS[cmd.name]
    docs, code = spec.run(**cmd.payload)
    if cmd.json_mode:
        import json  # only --json output needs it
    for doc in docs:
        for line in [json.dumps(doc, separators=(",", ":"))] if cmd.json_mode else spec.format(doc):
            print(line)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        cmd = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    try:
        with partalg.setpart._all_digits():  # argument parsing above keeps the limit
            code = execute(cmd)
        if sys.stdout:  # None when the process started with stdout closed; print then drops the output
            sys.stdout.flush()  # a closed or full stdout fails here, not at exit
        return code
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a failed write to stdout
        # as the signal module's note on SIGPIPE: what is still buffered, flushed at exit, goes to os.devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(err, BrokenPipeError):  # a reader that left wants no more output, nor a message
            print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


# Input checks --------------------------------------------------------------


def _positive(ns: argparse.Namespace, *flags: str) -> None:
    if any(getattr(ns, f) < 1 for f in flags):
        names = " and ".join(f"--{f}" for f in flags)
        what = "a positive integer" if len(flags) == 1 else "positive integers"
        raise UsageError(f"{names} must be {what}")


def _parse_pi(text: str, k: int | None) -> partalg.setpart.SetPartition:
    try:
        return partalg.setpart.parse_text(text, ground_size=k)
    except ValueError as err:
        raise UsageError(f"invalid partition text {text!r}: {err}") from None


def _parse_ratio(text: str) -> partalg.seqmodel.GeometricWeights:
    return partalg.seqmodel.GeometricWeights(partalg.rational.parse_frac(text))


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        out = tuple(int(x.strip()) for x in text.split(","))
    except ValueError:
        raise UsageError(f"malformed tuple {text!r}") from None
    if not out or any(v < 1 for v in out):
        raise UsageError(f"tuple entries must be positive integers, got {text!r}")
    return out


def _truncations(ns: argparse.Namespace) -> tuple[int, ...]:
    truncs = tuple(ns.trunc or (partalg.seqmodel.DEFAULT_TRUNC_SMALL, partalg.seqmodel.DEFAULT_TRUNC_LARGE))
    if any(t < 1 for t in truncs):
        raise UsageError("--trunc values must be positive")
    return truncs


def _check_k(ns):
    _positive(ns, "k")
    return {"k": ns.k}


def _check_n_k(ns):
    _positive(ns, "n", "k")
    return {"n": ns.n, "k": ns.k}


def _check_multiply(ns):
    lhs = partalg.diagram.parse_diagram(ns.lhs, ns.k)
    if ns.rhs is None:
        raise UsageError("--rhs is required")
    return {"lhs": lhs, "rhs": partalg.diagram.parse_diagram(ns.rhs, lhs.k)}


def _check_rep_matrix(ns):
    _positive(ns, "n")
    return {"d": partalg.diagram.parse_diagram(ns.diagram, ns.k), "n": ns.n}


def _check_rep_entry(ns):
    d = partalg.diagram.parse_diagram(ns.diagram, ns.k)
    top, bottom = _parse_tuple(ns.top), _parse_tuple(ns.bottom)
    if len(top) != d.k or len(bottom) != d.k:
        raise UsageError(f"--top and --bottom must have length k={d.k}")
    return {"d": d, "top": top, "bottom": bottom}


def _check_inv_vector(ns):
    _positive(ns, "n")
    return {"pi": _parse_pi(ns.pi, ns.k), "n": ns.n}


def _check_inv_act(ns):
    d = partalg.diagram.parse_diagram(ns.diagram, ns.k)
    pi = _parse_pi(ns.pi, d.k)
    if ns.n < d.k:
        raise UsageError(f"--n must be at least k={d.k} for a full power sum basis")
    return {"d": d, "pi": pi, "n": ns.n}


def _check_g(ns):
    if ns.g < 0:
        raise UsageError("--g must be non-negative")
    return {"g": ns.g}


def _check_partitions(ns):
    payload = _check_g(ns)
    if ns.max_blocks is not None and ns.max_blocks < 1:
        raise UsageError("--max-blocks must be at least 1")
    return {**payload, "max_blocks": ns.max_blocks}


# Runners -------------------------------------------------------------------


def _run_multiply(lhs, rhs):
    elem = partalg.diagram.AlgebraElement.from_diagram
    return partalg.diagram.multiply(elem(lhs), elem(rhs)).to_json_terms(), 0


def _run_classify(d, weights):
    doc = {
        "diagram": d.to_text(),
        "uniform": partalg.diagram.is_uniform(d),
        "top_propagating": partalg.diagram.is_top_propagating(d),
        "bottom_propagating": partalg.diagram.is_bottom_propagating(d),
        "lp_bounded": partalg.seqmodel.classify_lp_bounded(d, weights),
        "linf_bounded": partalg.seqmodel.classify_linf_bounded(d),
        "column_finite": partalg.seqmodel.classify_column_finite(d),
    }
    return [doc], 0


def _run_schur_weyl(n, k):
    report = partalg.centralizer.verify_schur_weyl(n, k)
    return [report.to_json()], 0 if report.surjectivity_verdict and report.double_commutant_verdict else 1


def _run_enumerate(k, subset):
    partalg.rep.check_diagram_count("diagrams enumerate", k)
    return ({"diagram": d.to_text()} for d in partalg.diagram.enumerate_diagrams(k, subset)), 0


def _run_closure(k):
    partalg.rep.check_diagram_count("closure", k)
    families: dict[str, list] = {subset: [] for subset in partalg.diagram._SUBSET_PREDICATES}
    for d in partalg.diagram.enumerate_diagrams(k):
        for subset, pred in partalg.diagram._SUBSET_PREDICATES.items():
            if pred(d):
                families[subset].append(d)
    doc: dict = {"k": k} | {s: partalg.diagram.closed_under_product(m) for s, m in families.items()}
    return [doc], 0 if doc["uniform"] and doc["top"] and doc["bottom"] else 1


def _run_classification(k, weights):
    """Compare the verdicts on one diagram per shape: every test is constant on a shape (`diagram._shapes`)."""
    bell = partalg.rep.check_diagram_count("classification", k)
    shapes = list(partalg.diagram._shapes(k))
    m, trunc = len(shapes), partalg.seqmodel.DEFAULT_TRUNC_LARGE
    partalg.rep.check_budget(m * trunc**k, lambda: f"classification at k = {k} scans {trunc}^{k} tuples for each of {m} shapes")
    covered = sum(size for _, size in shapes)
    if covered != bell:
        raise RuntimeError(f"the {m} shapes at k = {k} cover {covered} diagrams, not Bell({2 * k}) = {bell}")
    lp_ok = linf_ok = col_ok = True
    for d, _ in shapes:
        lp_ok = lp_ok and partalg.seqmodel.classify_lp_bounded(d, weights) == partalg.diagram.is_uniform(d)
        linf_ok = linf_ok and partalg.seqmodel.classify_linf_bounded(d) == partalg.diagram.is_bottom_propagating(d)
        col_ok = col_ok and partalg.seqmodel.classify_column_finite(d) == partalg.diagram.is_top_propagating(d)
    doc = {
        "k": k,
        "lp_matches_uniform": lp_ok,
        "linf_matches_bottom_propagating": linf_ok,
        "column_finite_matches_top_propagating": col_ok,
    }
    return [doc], 0 if lp_ok and linf_ok and col_ok else 1


def _run_inv_vector(pi, n):
    inv = partalg.seqmodel.monomial_vector(pi, n)
    support = [list(partalg.rep.unrank_tuple(r, inv.n, inv.k)) for r in inv.support()]
    return [{"pi": inv.pi.to_text(), "n": inv.n, "k": inv.k, "support": support}], 0


def _run_inv_act(d, pi, n):
    terms = partalg.seqmodel.act_on_invariants(d, pi, n).items()
    return [{"tau": tau.to_text(), "coeff": partalg.rational.frac_str(c)} for tau, c in terms], 0


# Plain-text formatters -----------------------------------------------------


def _fields(doc: dict) -> list[str]:
    """One `key: value` line per field, booleans as yes/no."""
    return [f"{key}: {('yes' if val else 'no') if isinstance(val, bool) else val}"
            for key, val in doc.items()]


def _field(key: str) -> Callable[[dict], list[str]]:
    return lambda doc: [str(doc[key])]


def _format_term(term: dict) -> list[str]:
    poly = partalg.diagram.Poly(tuple(term["coeff"]))
    return [f"({poly.pretty()}) * {term['diagram']}"]


def _format_matrix(doc: dict) -> list[str]:
    dim, triples = doc["dim"], doc["triples"]
    if dim > 32:
        return [f"{r} {c} {v}" for r, c, v in triples]
    rows = [[partalg.rational.frac_str(0)] * dim for _ in range(dim)]
    for r, c, v in triples:
        rows[r][c] = v
    return [" ".join(row) for row in rows]


def _format_closure(doc: dict) -> list[str]:
    return [f"{s}: {'closed' if doc[s] else 'NOT closed'}" for s in ("uniform", "top", "bottom")]


_COMMANDS: dict[str, _Spec] = {
    "diagrams enumerate": _Spec(
        {"--k": {"type": int, "required": True}, "--filter": {"choices": ["uniform", "top", "bottom"]}},
        lambda ns: {**_check_k(ns), "subset": ns.filter},
        _run_enumerate,
        _field("diagram"),
    ),
    "diagrams multiply": _Spec(
        {"--k": {"type": int}, "--lhs": {"required": True}, "--rhs": {}},
        _check_multiply,
        _run_multiply,
        _format_term,
    ),
    "diagrams classify": _Spec(
        {"--k": {"type": int}, "--diagram": {"required": True}, "--ratio": {"default": "1/2"}},
        lambda ns: {"d": partalg.diagram.parse_diagram(ns.diagram, ns.k), "weights": _parse_ratio(ns.ratio)},
        _run_classify,
        _fields,
    ),
    "rep matrix": _Spec(
        {"--k": {"type": int}, "--n": {"type": int, "required": True}, "--diagram": {"required": True}},
        _check_rep_matrix,
        lambda d, n: ([partalg.rep.matrix(d, n).to_json()], 0),
        _format_matrix,
    ),
    "rep entry": _Spec(
        {"--k": {"type": int}, "--diagram": {"required": True}, "--top": {"required": True},
         "--bottom": {"required": True}},
        _check_rep_entry,
        lambda d, top, bottom: ([{"entry": partalg.rep.entry(d, top, bottom)}], 0),
        _field("entry"),
    ),
    "verify schur-weyl": _Spec(
        {"--n": {"type": int, "required": True}, "--k": {"type": int, "required": True}},
        _check_n_k,
        _run_schur_weyl,
        _fields,
    ),
    "verify closure": _Spec({"--k": {"type": int, "default": 2}}, _check_k, _run_closure, _format_closure),
    "verify classification": _Spec(
        {"--k": {"type": int, "default": 2}, "--ratio": {"default": "1/2"}},
        lambda ns: {**_check_k(ns), "weights": _parse_ratio(ns.ratio)},
        _run_classification,
        _fields,
    ),
    "norms lp": _Spec(
        {"--k": {"type": int}, "--diagram": {"required": True}, "--trunc": {"type": int, "action": "append"},
         "--ratio": {"default": "1/2"}},
        lambda ns: {"d": partalg.diagram.parse_diagram(ns.diagram, ns.k), "truncations": _truncations(ns),
                    "weights": _parse_ratio(ns.ratio)},
        lambda d, truncations, weights: ([partalg.seqmodel.lp_norm_profile(d, weights, truncations).to_json()], 0),
        lambda doc: doc["norms"],
    ),
    "norms linf": _Spec(
        {"--k": {"type": int}, "--diagram": {"required": True}, "--trunc": {"type": int, "action": "append"}},
        lambda ns: {"d": partalg.diagram.parse_diagram(ns.diagram, ns.k), "truncations": _truncations(ns)},
        lambda d, truncations: ([partalg.seqmodel.linf_norm_profile(d, truncations).to_json()], 0),
        lambda doc: doc["norms"],
    ),
    "invariants dim": _Spec(
        {"--k": {"type": int, "required": True}, "--n": {"type": int, "required": True}},
        _check_n_k,
        lambda n, k: ([{"n": n, "k": k, "dim": partalg.seqmodel.invariant_dim(n, k)}], 0),
        _field("dim"),
    ),
    "invariants vector": _Spec(
        {"--k": {"type": int}, "--n": {"type": int, "required": True}, "--pi": {"required": True}},
        _check_inv_vector,
        _run_inv_vector,
        lambda doc: [",".join(str(v) for v in t) for t in doc["support"]],
    ),
    "invariants act": _Spec(
        {"--k": {"type": int}, "--n": {"type": int, "required": True}, "--diagram": {"required": True},
         "--pi": {"required": True}},
        _check_inv_act,
        _run_inv_act,
        lambda doc: [f"{doc['tau']}: {doc['coeff']}"],
    ),
    "count bell": _Spec(
        {"--g": {"type": int, "required": True}},
        _check_g,
        lambda g: ([{"g": g, "count": partalg.setpart.bell_number(g)}], 0),
        _field("count"),
    ),
    "count partitions": _Spec(
        {"--g": {"type": int, "required": True}, "--max-blocks": {"type": int}},
        _check_partitions,
        lambda g, max_blocks: (
            [{"g": g, "max_blocks": max_blocks, "count": partalg.setpart.count_partitions(g, max_blocks)}], 0
        ),
        _field("count"),
    ),
}


if __name__ == "__main__":
    sys.exit(main())
