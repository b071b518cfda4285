"""The shared per-k store: lazily extended rows, and memos that serve only
tables whose rows are the store's own objects."""

import random
import sys
import threading

import pytest

from laxdual.diffpoly import DiffPoly, equal_mod_total_derivative
from laxdual.fnr import build_psi
from laxdual.poisson import (
    WZExpansion,
    _expansion,
    flow_matches_zc,
    hamiltonian_density,
    hamiltonians_commute,
    resolvent_check,
    sklyanin_check,
)
from laxdual.zerocurv import (
    PdeSystem,
    ResidualNonZero,
    commuting_flows_check,
    strong_zc_check,
    zero_curvature,
)

from conftest import reference_rows, riccati_orders, tampered, unowned


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

    def test_concurrent_riccati_growth(self, fresh_store):
        # In each round eight threads grow the one shared expansion per k of an
        # empty store to shuffled depths d and read back W's orders 1..d and the
        # density of order d, which grows W k - 1 orders further; a growth step
        # that two threads race through shifts every later order.  Without the
        # lock, 30 rounds fail in nearly every run.
        want = {k: riccati_orders(WZExpansion(build_psi(k, k)), 9) for k in (1, 2, 3)}
        results, errors = [], []
        rounds = 30

        def work(seed, start):
            order = [(k, d) for k in (1, 2, 3) for d in range(1, 10)]
            random.Random(seed).shuffle(order)
            try:
                start.wait()
                for k, d in order:
                    wz = _expansion(build_psi(k, k))._grown(d)
                    w = [(wz.beta(j), wz.gamma(j)) for j in range(1, d + 1)]
                    results.append((k, d, w, wz.density(d)))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(rounds):
                fresh_store.clear()
                start = threading.Barrier(8, timeout=60)
                threads = [threading.Thread(target=work, args=(8 * rnd + i, start)) for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert not errors
        assert len(results) == rounds * 8 * 3 * 9
        for k, d, w, density in results:
            for j, got in enumerate(w, 1):
                assert got == want[k][j - 1][:2], (k, d, j)
            assert density == want[k][d - 1][2], (k, d)


class TestMemos:
    def test_zero_curvature_is_shared(self):
        assert zero_curvature(build_psi(2, 5), 3) is zero_curvature(build_psi(2, 9), 3)

    def test_unowned_table_recomputes(self):
        table = build_psi(2, 5)
        copy = unowned(table)
        assert zero_curvature(copy, 3) is not zero_curvature(table, 3)
        assert zero_curvature(copy, 3).evolution == zero_curvature(table, 3).evolution

    def test_shallow_expansion_is_an_exact_truncation(self):
        # a table served after a deeper request gets the deeper expansion,
        # whose first orders are those of a fresh, shallower one
        table = build_psi(3, 3)
        deep = _expansion(table)._grown(9)
        for depth in (1, 4, 9):
            fresh = WZExpansion(table)._grown(depth)
            assert _expansion(table)._grown(depth) is deep and fresh.depth == depth
            assert riccati_orders(fresh, depth) == riccati_orders(deep, depth)

    def test_density_served_after_a_deeper_expansion(self):
        table = build_psi(2, 2)
        _expansion(table)._grown(8)
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
