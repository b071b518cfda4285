"""The shared per-k store: lazily extended rows, and memos that serve only
tables whose rows are the store's own objects."""

import random
import sys
import threading

import pytest

from laxdual.diffpoly import DiffPoly, equal_mod_total_derivative
from laxdual.fnr import PsiTable, build_psi
from laxdual.loopalg import Sl2Poly
from laxdual.poisson import (
    flow_matches_zc,
    hamiltonian_density,
    hamiltonians_commute,
    resolvent_check,
    sklyanin_check,
    wz_expand,
)
from laxdual.zerocurv import (
    PdeSystem,
    ResidualNonZero,
    commuting_flows_check,
    strong_zc_check,
    zero_curvature,
)

from conftest import reference_rows, unowned


def tampered(table):
    """The table with b1*c1 added to a_k: every verifier must reject it."""
    rows = list(table.rows)
    row = rows[table.k]
    rows[table.k] = Sl2Poly(a=row.a + DiffPoly.var("b", 1) * DiffPoly.var("c", 1), bp=row.bp, cm=row.cm)
    return PsiTable(k=table.k, depth=table.depth, rows=tuple(rows))


class TestRowReuse:
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_depths_match_the_recursions(self, fresh_store, seed):
        order = [(k, d) for k in (1, 2, 3) for d in range(k, 10)]
        random.Random(seed).shuffle(order)
        for k, d in order:
            assert list(build_psi(k, d).rows) == reference_rows(k, d)
        for k in (1, 2, 3):
            assert len(fresh_store[k].rows) == 10

    def test_tables_share_row_objects(self, fresh_store):
        deep, shallow = build_psi(2, 8), build_psi(2, 4)
        assert all(s is d for s, d in zip(shallow.rows, deep.rows))

    def test_concurrent_extension(self, fresh_store):
        want = {k: reference_rows(k, 11) for k in (1, 2, 3)}
        tables, errors = [], []

        def work(seed):
            order = [(k, d) for k in (1, 2, 3) for d in range(k, 12)]
            random.Random(seed).shuffle(order)
            try:
                for k, d in order:
                    tables.append(build_psi(k, d))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(tables) == 8 * sum(12 - k for k in (1, 2, 3))
        for k in (1, 2, 3):
            assert fresh_store[k].rows == want[k]
        for table in tables:
            assert list(table.rows) == want[table.k][: table.depth + 1]


class TestMemos:
    def test_zero_curvature_is_shared(self):
        assert zero_curvature(build_psi(2, 5), 3) is zero_curvature(build_psi(2, 9), 3)

    def test_unowned_table_recomputes(self):
        table = build_psi(2, 5)
        copy = unowned(table)
        assert zero_curvature(copy, 3) is not zero_curvature(table, 3)
        assert zero_curvature(copy, 3).evolution == zero_curvature(table, 3).evolution

    def test_shallow_expansion_is_an_exact_truncation(self):
        table = build_psi(3, 3)
        deep = wz_expand(table, 9)
        for depth in (1, 4, 9):
            fresh = wz_expand(unowned(table), depth)
            served = wz_expand(table, depth)
            assert served.w == fresh.w == deep.w[:depth]
            assert served.zdot_densities == fresh.zdot_densities == deep.zdot_densities[:depth]

    def test_density_served_after_a_deeper_expansion(self):
        table = build_psi(2, 2)
        wz_expand(table, 8)
        for n in range(0, 7):
            assert hamiltonian_density(table, n) == hamiltonian_density(unowned(table), n)


def _fails(result) -> bool:
    if isinstance(result, PdeSystem):
        return False  # a system is returned only once its residuals vanish
    if isinstance(result, DiffPoly):
        return not equal_mod_total_derivative(result, DiffPoly.zero())
    return not result.passed


# Each verifier with arguments where the tampered table fails: zero_curvature
# rejects it for any n != k.
VERIFIERS = {
    "zero_curvature": lambda t: zero_curvature(t, 3),
    "strong_zc_check": lambda t: strong_zc_check(t, 1, 3),
    "commuting_flows_check": lambda t: commuting_flows_check(t, 3, 1),
    "flow_matches_zc": lambda t: flow_matches_zc(t, 3),
    "hamiltonians_commute": lambda t: hamiltonians_commute(t, 2, 3),
    "sklyanin_check": sklyanin_check,
    "resolvent_check": lambda t: resolvent_check(t, 5),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_tampered_table_bypasses_filled_memos(name, k):
    verify = VERIFIERS[name]
    table = build_psi(k, k + 6)
    assert not _fails(verify(table))
    try:
        rejected = _fails(verify(tampered(table)))
    except ResidualNonZero:
        rejected = True
    assert rejected
    # The store is not poisoned: the owned table passes again.
    assert not _fails(verify(build_psi(k, k + 6)))
