"""The benchmark's four workloads: seeded job lists with their correctness checks.

A job is one op: `run(tracer)` calls partalg and returns a comparable
result, `check(result)` compares it with an answer from `oracles` or the
golden CLI output. Jobs look partalg functions up on their modules at call
time, so a tracer installed around a pass sees every call. Why each
workload exists and what it bypasses is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from partalg import centralizer, cli, diagram, rep, seqmodel, setpart

import oracles
from tracer import SPANS_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sizes are fixed and the seed only picks diagrams, pairs and order, so the
# work in a pass barely depends on the seed.
MULTIPLY_PAIRS = 400  # seeded k = 4 products per k3-span pass
NORM_DIAGRAMS = 48  # seeded k = 3 diagrams per norm kind per seqmodel-k3 pass
NORM_TRUNCS = (2, 4, 8)
NORM_RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
ACT_CALLS = 24  # seeded (diagram, pi) pairs at n = 4, k = 3


@dataclass
class Job:
    label: str
    run: Callable[[object], object]
    check: Callable[[object], bool]
    cli: Cli | None = None  # set on a job that is one partalg CLI subprocess


def random_rgs(rng: random.Random, size: int) -> tuple[int, ...]:
    rgs = [0]
    for _ in range(size - 1):
        rgs.append(rng.randint(0, max(rgs) + 1))
    return tuple(rgs)


def make_diagram(rgs: tuple[int, ...]) -> diagram.Diagram:
    return diagram.Diagram(len(rgs) // 2, setpart.SetPartition(rgs))


def _cli_in_process(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# verify-k2 -----------------------------------------------------------------


def _report_ok(report, n: int, k: int) -> bool:
    c, p = oracles.centralizer_dim(n, k), oracles.perm_span_dim(n, k)
    got = (
        report.n,
        report.k,
        report.centralizer_dim,
        report.diagram_span_rank,
        report.commutant_of_perms_dim,
        report.perm_span_dim,
        report.commutant_of_diagrams_dim,
    )
    return got == (n, k, c, c, c, p, p) and report.surjectivity_verdict and report.double_commutant_verdict


def verify_k2(rng: random.Random) -> list[Job]:
    ns = [2, 3, 4, 5]
    rng.shuffle(ns)
    return [
        Job(f"verify_schur_weyl({n}, 2)", lambda _, n=n: centralizer.verify_schur_weyl(n, 2), lambda r, n=n: _report_ok(r, n, 2))
        for n in ns
    ]


# k3-span -------------------------------------------------------------------


def _diagram_span(n: int):
    mats = []
    shapes = []
    for d in diagram.enumerate_diagrams(3):
        m = rep.matrix(d, n)
        mats.append(m)
        shapes.append((d.part.rgs, m.dim, m.nnz))
    return shapes, centralizer.span_rank(mats)


def _diagram_span_ok(result, n: int) -> bool:
    shapes, rank = result
    return (
        len(shapes) == sum(oracles.stirling2_row(6))
        and len({rgs for rgs, _, _ in shapes}) == len(shapes)
        and all(dim == n**3 and nnz == n ** oracles.num_blocks(rgs) for rgs, dim, nnz in shapes)
        and rank == oracles.centralizer_dim(n, 3)
    )


def _perm_commutant(n: int) -> int:
    gens = [rep.perm_matrix(s, 3) for s in centralizer.symmetric_group_generators(n)]
    return centralizer.commutant_dimension(gens)


def _product(d1, d2):
    prod = diagram.multiply(diagram.AlgebraElement.from_diagram(d1), diagram.AlgebraElement.from_diagram(d2))
    return [(d.part.rgs, poly.coeffs) for d, poly in prod.terms()]


def _product_ok(terms, rgs1, rgs2) -> bool:
    rgs, loops = oracles.diagram_product(rgs1, rgs2, 4)
    return terms == [(rgs, (Fraction(0),) * loops + (Fraction(1),))]


def k3_span(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (3, 4, 5):
        jobs.append(Job(f"span of k=3 diagrams at n={n}", lambda _, n=n: _diagram_span(n), lambda r, n=n: _diagram_span_ok(r, n)))
        jobs.append(
            Job(
                f"commutant of S_{n} generators at k=3",
                lambda _, n=n: _perm_commutant(n),
                lambda r, n=n: r == oracles.centralizer_dim(n, 3),
            )
        )
    jobs.append(
        Job(
            "verify closure --k 3",
            lambda _: _cli_in_process(["verify", "closure", "--k", "3"]),
            lambda r: r == (0, "uniform: closed\ntop: closed\nbottom: closed\n"),
        )
    )
    for _ in range(MULTIPLY_PAIRS):
        a, b = random_rgs(rng, 8), random_rgs(rng, 8)
        d1, d2 = make_diagram(a), make_diagram(b)
        jobs.append(Job(f"multiply {a} {b}", lambda _, d1=d1, d2=d2: _product(d1, d2), lambda r, a=a, b=b: _product_ok(r, a, b)))
    rng.shuffle(jobs)
    return jobs


# seqmodel-k3 ---------------------------------------------------------------

CLASSIFICATION_K3 = (
    "k: 3\n"
    "lp_matches_uniform: yes\n"
    "linf_matches_bottom_propagating: yes\n"
    "column_finite_matches_top_propagating: yes\n"
)


def _lp_ok(profile, rgs, ratio: Fraction) -> bool:
    norm = lambda t: oracles.l1_norm(rgs, 3, t, ratio)  # noqa: E731
    return (
        profile.diagram.part.rgs == rgs
        and profile.truncations == NORM_TRUNCS
        and profile.norms == tuple(map(norm, NORM_TRUNCS))
        and profile.divergent == (norm(4) != norm(8))
        and profile.ratio == ratio
    )


def _linf_ok(profile, rgs) -> bool:
    norm = lambda t: oracles.linf_norm(rgs, 3, t)  # noqa: E731
    return (
        profile.diagram.part.rgs == rgs
        and profile.truncations == NORM_TRUNCS
        and profile.norms == tuple(map(norm, NORM_TRUNCS))
        and profile.divergent == (norm(4) != norm(8))
    )


def _act_ok(coeffs, rgs, pi_rgs) -> bool:
    n, k = 4, 3
    recon = [0] * n**k
    for tau, c in coeffs.items():
        if tau.ground_size != k or c == 0:
            return False
        for i, hit in enumerate(oracles.monomial_indicator(tau.rgs, n, k)):
            recon[i] += c * hit
    return recon == oracles.diagram_on_invariant(rgs, k, pi_rgs, n)


def seqmodel_k3(rng: random.Random) -> list[Job]:
    jobs = [
        Job(
            "verify classification --k 3",
            lambda _: _cli_in_process(["verify", "classification", "--k", "3"]),
            lambda r: r == (0, CLASSIFICATION_K3),
        )
    ]
    for i in range(NORM_DIAGRAMS):
        rgs = random_rgs(rng, 6)
        ratio = NORM_RATIOS[i % len(NORM_RATIOS)]
        d, weights = make_diagram(rgs), seqmodel.GeometricWeights(ratio)
        jobs.append(
            Job(
                f"lp_norm_profile {rgs} r={ratio}",
                lambda _, d=d, weights=weights: seqmodel.lp_norm_profile(d, weights, NORM_TRUNCS),
                lambda r, rgs=rgs, ratio=ratio: _lp_ok(r, rgs, ratio),
            )
        )
    for _ in range(NORM_DIAGRAMS):
        rgs = random_rgs(rng, 6)
        d = make_diagram(rgs)
        jobs.append(
            Job(
                f"linf_norm_profile {rgs}",
                lambda _, d=d: seqmodel.linf_norm_profile(d, NORM_TRUNCS),
                lambda r, rgs=rgs: _linf_ok(r, rgs),
            )
        )
    for _ in range(ACT_CALLS):
        rgs, pi_rgs = random_rgs(rng, 6), random_rgs(rng, 3)
        d, pi = make_diagram(rgs), setpart.SetPartition(pi_rgs)
        jobs.append(
            Job(
                f"act_on_invariants {rgs} pi={pi_rgs} n=4",
                lambda _, d=d, pi=pi: seqmodel.act_on_invariants(d, pi, 4),
                lambda r, rgs=rgs, pi_rgs=pi_rgs: _act_ok(r, rgs, pi_rgs),
            )
        )
    rng.shuffle(jobs)
    return jobs


# cli-small -----------------------------------------------------------------


class Cli:
    """Runs partalg CLI subprocesses and keeps the largest peak RSS of an untraced one."""

    def __init__(self):
        self.peak_kib = 0

    def call(self, argv: list[str], tracer) -> tuple[int, str]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if tracer is not None:
            cmd = [sys.executable, str(HERE / "clitrace.py"), *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)
            last = proc.stderr.rstrip("\n").rpartition("\n")[2]
            if last.startswith(SPANS_MARKER):
                doc = json.loads(last[len(SPANS_MARKER) :])
                tracer.adopt(doc["spans"], doc["counts"])
            return proc.returncode, proc.stdout
        # Reaped with wait4, so the child's own peak RSS is known. stderr
        # (usage messages) is not checked, so one pipe suffices.
        cmd = [sys.executable, "-m", "partalg.cli", *argv]
        with subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        ) as proc:
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # the hard limit: kill, let __exit__ reap, re-raise
                proc.kill()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode, out.decode()


def cli_small(rng: random.Random) -> list[Job]:
    golden = json.loads((HERE / "golden_cli.json").read_text())
    rng.shuffle(golden)
    runner = Cli()
    jobs = []
    for entry in golden:
        want = (entry["exit"], entry["stdout"])
        jobs.append(
            Job(
                "partalg " + " ".join(entry["argv"]),
                lambda tracer, argv=entry["argv"]: runner.call(argv, tracer),
                lambda r, want=want: r == want,
                cli=runner,
            )
        )
    return jobs


WORKLOADS = {
    "verify-k2": verify_k2,
    "k3-span": k3_span,
    "seqmodel-k3": seqmodel_k3,
    "cli-small": cli_small,
}


def build(name: str, seed: int) -> list[Job]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
