"""The wide three-route certification sweep.

Marked slow, so the default run deselects it (pyproject.toml); run it with
`pytest -m slow`.  Everything runs in one process on the shared row store of
each k, so the routes read the same row objects and the derivatives those rows
keep.
"""

import pytest

from laxdual.fnr import build_psi
from laxdual.poisson import flow_matches_zc, sklyanin_check
from laxdual.zerocurv import dual_equivalence


@pytest.mark.slow
def test_three_routes_agree_on_the_wide_sweep():
    for k in range(2, 9):
        for n in range(1, k):
            result = dual_equivalence(n, k)
            assert result.passed, ("duality", n, k, result.report.failures())
    for k in range(1, 7):
        for n in range(1, 11):
            report = flow_matches_zc(build_psi(k, max(k, n)), n)
            assert report.passed, ("flow", k, n, report.failures())
    for k in range(1, 11):
        report = sklyanin_check(build_psi(k, k))
        assert report.passed, ("sklyanin", k, report.failures())
