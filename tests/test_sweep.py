"""The wide certification sweeps.

Marked slow, so the default run deselects them (pyproject.toml); run them with
`pytest -m slow`.  Everything runs in one process on the shared row store of
each k, so the routes read the same row objects and the derivatives those rows
keep.  The last test replays the benchmark's rational_reduce jobs; it only
reads perfbench/.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from laxdual import diffpoly
from laxdual.diffpoly import DiffPoly, equal_mod_total_derivative
from laxdual.fnr import build_psi
from laxdual.poisson import flow_matches_zc, hamiltonians_commute, sklyanin_check
from laxdual.zerocurv import dual_equivalence, dual_table_map_check

from conftest import ref_euler_chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.slow
def test_three_routes_agree_on_the_wide_sweep():
    for k in range(2, 9):
        for n in range(1, k):
            result = dual_equivalence(n, k)
            assert result.report.passed, ("duality", n, k, result.report.failures())
    for k in range(1, 7):
        for n in range(1, 11):
            report = flow_matches_zc(build_psi(k, max(k, n)), n)
            assert report.passed, ("flow", k, n, report.failures())
    for k in range(1, 11):
        report = sklyanin_check(build_psi(k, k))
        assert report.passed, ("sklyanin", k, report.failures())


@pytest.mark.slow
def test_phi_maps_every_row_up_to_seven():
    for k in range(2, 8):
        for n in range(1, k):
            report = dual_table_map_check(n, k, k + 4)
            assert report.passed, (n, k, report.failures())


@pytest.mark.slow
def test_hamiltonians_commute_on_the_wide_sweep():
    for k in range(1, 5):
        for n2 in range(2, 8):
            table = build_psi(k, k + n2 + 2)
            for n1 in range(1, n2):
                acc = hamiltonians_commute(table, n1, n2)
                assert equal_mod_total_derivative(acc, DiffPoly.zero()), (k, n1, n2, acc.to_text())


@pytest.mark.slow
def test_euler_chains_match_the_oracle_on_deep_rows():
    # Every field's Euler table, reduced, against the last element of the
    # chain of whole polynomials; the oracle reads a copy, so the shared rows
    # keep no partials.  Every Euler derivative of a row's derivative is zero,
    # so the rows themselves are compared too.
    for k in (1, 2):
        table = build_psi(k, 20)
        fields = table.free_fields()
        for row in table.rows[1:]:
            for p in (row.a, row.bp, row.cm, row.a.derive(), row.bp.derive(), row.cm.derive()):
                for u, q in diffpoly._euler_tables(p, fields).items():
                    got = diffpoly._reduced(q, p.den)
                    want = ref_euler_chain(DiffPoly.from_json(p.to_json()), u)[-1]
                    assert got.to_text() == want.to_text(), (k, u, p.to_text())
                    assert got == want, (k, u, p.to_text())


@pytest.mark.slow
def test_every_rational_reduce_job_matches_its_pin():
    # Every substitution and Euler job of the benchmark, replayed through its
    # own runner against the pinned verdicts and output hashes; a benchmark
    # run covers only the jobs its seed selects.
    spec = importlib.util.spec_from_file_location("perfbench_jobs", PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    pinned = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["workloads"]["rational_reduce"]
    runner = jobs.Runner()
    all_jobs = jobs.all_jobs("rational_reduce")
    assert len(all_jobs) == len(pinned)
    for job in all_jobs:
        verdict, text = runner.run(job)
        got = {"verdict": verdict, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        assert got == pinned[job.key], job.key
