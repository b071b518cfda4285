"""Workload definitions: which jobs a seed selects, and how each job runs.

A workload is a list of slots.  Each slot holds one or more jobs of about
the same cost (an equal-cost stratum); a seed picks one member per slot and
an order, so it changes input content but never input size.  One pass runs
the whole list once; a run repeats the same list pass after pass.

Every job has a key (which, with the pinned file, determines its output),
a known answer ("PASS"/"FAIL" for library jobs, the exit code for CLI jobs)
and a canonical text whose SHA-256 is pinned in expected.json.

The engine is always reached through attributes of the `laxdual` package
looked up at call time, so the wrappers spans.install() puts there are seen.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import NamedTuple, Tuple

LIBRARY_WORKLOADS = ("deep_table", "certify_sweep", "rational_reduce")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_batch",)

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCES_FILE = os.path.join(HERE, "sources.json")
WORK_DIR = ".perfbench_tmp"  # relative to the checkout root


class Job(NamedTuple):
    key: str
    expect: str
    kind: str
    args: Tuple


# -- job lists ---------------------------------------------------------------

DEEP_DEPTH = 17
# One n = 15 system per table, and the k = 2 table also at n = 16.  The
# seventh job is the median job, and its cost sits well apart from its
# neighbours' (n = 15 systems below, table builds above), so the median
# stays inside its samples.
DEEP_SYSTEMS = ((1, 15), (2, 15), (3, 15), (2, 16))


def _deep_table_slots():
    builds = [[Job(f"build k={k} depth={DEEP_DEPTH}", "PASS", "build", (k, DEEP_DEPTH))] for k in (1, 2, 3)]
    zcs = [[Job(f"zero_curvature k={k} n={n}", "PASS", "zc", (k, n))] for k, n in DEEP_SYSTEMS]
    return builds, zcs


def _certify_slots():
    slots = []
    for k in range(2, 7):
        for n in range(1, k):
            slots.append([Job(f"dual_equivalence n={n} k={k}", "PASS", "dual", (n, k))])
    for k in range(1, 4):
        for n in range(1, 6):
            slots.append([Job(f"flow_matches_zc k={k} n={n}", "PASS", "flow", (k, n))])
    for k in range(1, 7):
        slots.append([Job(f"sklyanin_check k={k}", "PASS", "sklyanin", (k,))])
    for k in range(1, 5):
        for d in (5, 7):
            slots.append([Job(f"resolvent_check k={k} depth={d}", "PASS", "resolvent", (k, d))])
    # The two orders of a pair cost the same and give different reports.
    for k in range(1, 4):
        for n, m in ((1, 2), (2, 3), (1, 3), (2, 4)):
            for kind in ("strong_zc", "commuting_flows"):
                slots.append([Job(f"{kind} k={k} n={a} m={b}", "PASS", kind, (k, a, b)) for a, b in ((n, m), (m, n))])
        for n1, n2 in ((1, 2), (2, 3), (1, 4), (3, 4)):
            slots.append([
                Job(f"hamiltonians_commute k={k} n1={a} n2={b}", "PASS", "hcommute", (k, a, b))
                for a, b in ((n1, n2), (n2, n1))
            ])
    # Tampered control: a perturbed table must make the verifier FAIL.
    slots.append([
        Job(f"tampered {check} k={k}", "FAIL", "tamper", (check, k))
        for check in ("sklyanin", "resolvent") for k in (2, 3)
    ])
    return slots


# Sources for rational_reduce: Hamiltonian densities ("h") and PDE right-hand
# sides ("rhs") stored in sources.json; each slot pairs one source with a
# seed-chosen member of the rule-set pool for its k.  With fifteen sources the
# median and the p90 each fall inside one source's samples, not between two.
RATIONAL_SOURCES = (
    ("h", 1, 5), ("h", 1, 6), ("h", 1, 7), ("h", 2, 4), ("h", 2, 5), ("h", 2, 6),
    ("h", 3, 4), ("h", 3, 5),
    ("rhs", 1, 6), ("rhs", 1, 7), ("rhs", 1, 8), ("rhs", 2, 5), ("rhs", 2, 6),
    ("rhs", 2, 7), ("rhs", 3, 5),
)
RULESETS_PER_K = 8


def source_name(kind, k, n):
    return f"{kind}_k{k}_n{n}"


def _rational_slots():
    slots = []
    for kind, k, n in RATIONAL_SOURCES:
        name = source_name(kind, k, n)
        slots.append([
            Job(f"reduce {name} rules={k}.{i}", "PASS", "reduce", (name, k, i)) for i in range(RULESETS_PER_K)
        ])
    return slots


def _formats(argv, formats=("text", "latex", "json")):
    return [argv + ("--format", f) for f in formats]


CLI_RULE_FILES = 4


def _cli_slots():
    w = WORK_DIR
    groups = [
        _formats(("psi", "--k", "2", "--depth", "6")),
        _formats(("psi", "--k", "3", "--depth", "7")),
        _formats(("psi", "--k", "1", "--depth", "12")),
        [a for k in ("2", "3") for a in _formats(("psi", "--k", k, "--lax", "4"))],
        _formats(("psi", "--k", "1", "--lax", "6", "--depth", "8")),
        [("derive", "--k", "1", "--n", "2", "--style", s, "--format", f)
         for s in ("evolution", "zero") for f in ("text", "latex")],
        _formats(("derive", "--k", "1", "--n", "3")),
        _formats(("derive", "--k", "2", "--n", "4")),
        [("derive", "--k", "3", "--n", "2", "--style", s) for s in ("evolution", "zero")],
        _formats(("derive", "--k", "2", "--n", "1"), ("text", "json")),
        [("derive", "--k", "1", "--n", "3", "--sub", f"{w}/rules-k1-{i}.sub") for i in range(CLI_RULE_FILES)],
        [("derive", "--k", "1", "--n", "4", "--style", "zero", "--sub", f"{w}/rules-k1-{i}.sub")
         for i in range(CLI_RULE_FILES)],
        [("derive", "--k", "2", "--n", "3", "--sub", f"{w}/rules-k2-{i}.sub") for i in range(CLI_RULE_FILES)],
        _formats(("hamiltonian", "--k", "1", "--n", "4")),
        _formats(("hamiltonian", "--k", "2", "--n", "3")),
        _formats(("hamiltonian", "--k", "3", "--n", "2")),
        _formats(("verify", "sklyanin", "--k", "3"), ("json", "text")),
        _formats(("verify", "sklyanin", "--k", "4"), ("json", "text")),
        _formats(("verify", "duality", "--n", "2", "--k", "4"), ("json", "text")),
        _formats(("verify", "duality", "--n", "1", "--k", "3"), ("json", "text")),
        _formats(("verify", "flow", "--k", "2", "--n", "3"), ("json", "text")),
        _formats(("verify", "flow", "--k", "1", "--n", "4"), ("json", "text")),
        [("--config", f"{w}/derive-{i}.conf", "derive", "--k", "2", "--n", "2") for i in range(len(DERIVE_CONFIGS))],
        [("--config", f"{w}/psi-{i}.conf", "psi", "--k", "2") for i in range(len(PSI_CONFIGS))],
    ]
    slots = [[Job(" ".join(argv), "0", "cli", argv) for argv in group] for group in groups]
    # Tampered control: the launcher perturbs the table the verifier reads.
    slots.append([
        Job(f"[tampered] verify sklyanin --k {k}", "1", "cli_tampered", ("verify", "sklyanin", "--k", k))
        for k in ("2", "3")
    ])
    return slots


DERIVE_CONFIGS = ("format=json\nstyle=zero\n", "# defaults\nformat=latex\ndepth=7\n", "style=zero\n")
PSI_CONFIGS = ("format=latex\ndepth=6\n", "format=json\n")


def slots(workload):
    if workload == "deep_table":
        builds, zcs = _deep_table_slots()
        return builds + zcs
    return {
        "certify_sweep": _certify_slots,
        "rational_reduce": _rational_slots,
        "cli_batch": _cli_slots,
    }[workload]()


def pass_jobs(workload, seed):
    """The job list of one pass: one member per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep_table":
        # Every table is built before the zero-curvature jobs that read it.
        builds, zcs = _deep_table_slots()
        first = [slot[0] for slot in builds]
        second = [slot[0] for slot in zcs]
        rng.shuffle(first)
        rng.shuffle(second)
        return first + second
    jobs = [rng.choice(slot) for slot in slots(workload)]
    rng.shuffle(jobs)
    return jobs


def all_jobs(workload):
    return [job for slot in slots(workload) for job in slot]


# -- inputs ------------------------------------------------------------------


def _odd_rational(rng):
    """A rational of 5 to 6 bits over 5 to 6 bits with an odd denominator > 1;
    the narrow height range keeps the members of a stratum at equal cost."""
    while True:
        q = Fraction(rng.randint(17, 63) * rng.choice((1, -1)), rng.randrange(17, 64, 2))
        if q.denominator > 1 and q.numerator % q.denominator:
            return q


def ruleset(k, i):
    """Rule set i for k fields: a rational mix of b1 and c1, a reduction of
    c1 onto a constant e times a placeholder field b1s, and rescalings of the
    other fields.  Every coefficient has an odd denominator."""
    from laxdual import DiffPoly, FieldVar

    rng = random.Random(f"rules:{k}:{i}")

    def v(kind, index=0):
        return DiffPoly.var(kind, index)

    rules = {
        FieldVar("b", 1): v("b", 1).scale(_odd_rational(rng)) + v("c", 1).scale(_odd_rational(rng)),
        FieldVar("c", 1): v("c", 1).scale(_odd_rational(rng)) + (v("e") * v("b1s")).scale(_odd_rational(rng)),
    }
    for j in range(2, k + 1):
        rules[FieldVar("b", j)] = v("b", j).scale(_odd_rational(rng))
        rules[FieldVar("c", j)] = v("c", j).scale(_odd_rational(rng))
    return rules


def write_cli_files(root):
    """Rule and config files the cli_batch jobs name, under root/WORK_DIR."""
    work = os.path.join(root, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    files = {}
    for k in (1, 2):
        for i in range(CLI_RULE_FILES):
            rules = ruleset(k, i)
            files[f"rules-k{k}-{i}.sub"] = "".join(f"{u} = {rules[u].to_text()}\n" for u in sorted(rules))
    for i, text in enumerate(DERIVE_CONFIGS):
        files[f"derive-{i}.conf"] = text
    for i, text in enumerate(PSI_CONFIGS):
        files[f"psi-{i}.conf"] = text
    for name, text in files.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return work


def tamper_table(table):
    """The table with b1*c1 added to a_k: every verifier must reject it."""
    from laxdual import DiffPoly, PsiTable, Sl2Poly

    rows = list(table.rows)
    row = rows[table.k]
    rows[table.k] = Sl2Poly(a=row.a + DiffPoly.var("b", 1) * DiffPoly.var("c", 1), bp=row.bp, cm=row.cm)
    return PsiTable(k=table.k, depth=table.depth, rows=tuple(rows))


# -- running library jobs ----------------------------------------------------


def _report(report):
    return ("PASS" if report.passed else "FAIL"), json.dumps(report.to_json(), sort_keys=True)


def _table_text(table):
    return "\n".join(
        f"{j}: {row.a.to_text()} | {row.bp.to_text()} | {row.cm.to_text()}" for j, row in enumerate(table.rows)
    )


def _system_text(system):
    return "\n".join(f"d{system.n}({u}) = {system.evolution[u].to_text()}" for u in sorted(system.evolution))


class Runner:
    """Runs library jobs in one process; deep_table tables live here between jobs."""

    def __init__(self):
        import laxdual

        self.lx = laxdual
        self.tables = {}
        self._sources = None

    def source(self, name):
        if self._sources is None:
            with open(SOURCES_FILE, "r", encoding="utf-8") as handle:
                self._sources = json.load(handle)
        return self.lx.DiffPoly.from_json(self._sources[name])

    def run(self, job):
        """(verdict, canonical text) of one job."""
        lx = self.lx
        a = job.args
        if job.kind == "build":
            table = self.tables[a[0]] = lx.build_psi(*a)
            return "PASS", _table_text(table)
        if job.kind == "zc":
            return "PASS", _system_text(lx.zero_curvature(self.tables[a[0]], a[1]))
        if job.kind == "dual":
            return _report(lx.dual_equivalence(*a).report)
        if job.kind == "flow":
            k, n = a
            return _report(lx.flow_matches_zc(lx.build_psi(k, k + n + 2), n))
        if job.kind == "sklyanin":
            return _report(lx.sklyanin_check(lx.build_psi(a[0], a[0])))
        if job.kind == "resolvent":
            k, d = a
            return _report(lx.resolvent_check(lx.build_psi(k, max(k, d)), d))
        if job.kind == "strong_zc":
            k, n, m = a
            return _report(lx.strong_zc_check(lx.build_psi(k, k + max(n, m) + 2), n, m))
        if job.kind == "commuting_flows":
            k, n, m = a
            return _report(lx.commuting_flows_check(lx.build_psi(k, k + max(n, m) + 2), n, m))
        if job.kind == "hcommute":
            k, n1, n2 = a
            acc = lx.hamiltonians_commute(lx.build_psi(k, k + max(n1, n2) + 2), n1, n2)
            ok = lx.equal_mod_total_derivative(acc, lx.DiffPoly.zero())
            return ("PASS" if ok else "FAIL"), acc.to_text()
        if job.kind == "tamper":
            check, k = a
            if check == "sklyanin":
                return _report(lx.sklyanin_check(tamper_table(lx.build_psi(k, k))))
            return _report(lx.resolvent_check(tamper_table(lx.build_psi(k, k + 5)), 5))
        if job.kind == "reduce":
            name, k, i = a
            p = self.source(name)
            rules = ruleset(k, i)
            q = p.substitute(rules)
            dq = q.derive()
            # substitution commutes with the derivation ...
            commutes = dq == p.derive().substitute(rules)
            # ... and the Euler operator kills the total derivative dq.
            exact = lx.equal_mod_total_derivative(dq, lx.DiffPoly.zero())
            return ("PASS" if commutes and exact else "FAIL"), q.to_text()
        raise ValueError(f"unknown job kind {job.kind!r}")


def make_sources():
    """Source polynomials for rational_reduce, as DiffPoly JSON payloads."""
    import laxdual as lx

    out = {}
    for kind, k, n in RATIONAL_SOURCES:
        table = lx.build_psi(k, k + n + 2)
        if kind == "h":
            poly = lx.hamiltonian_density(table, n)
        else:
            system = lx.zero_curvature(table, n)
            poly = system.evolution[max(system.evolution)]
        out[source_name(kind, k, n)] = poly.to_json()
    return out
