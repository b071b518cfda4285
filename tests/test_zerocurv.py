"""Zero-curvature systems, strong flatness, duality of the two routes."""

import pytest

from laxdual.diffpoly import DiffPoly, FieldVar
from laxdual.fnr import PsiTable, build_psi
from laxdual.loopalg import Sl2Poly, lm_commutator, sl2_commutator
from laxdual.fnr import lax_matrix
from laxdual.zerocurv import (
    ResidualNonZero,
    commuting_flows_check,
    dual_equivalence,
    generating_recurrence_check,
    strong_zc_check,
    zero_curvature,
)

from conftest import P, fv


class TestZeroCurvature:
    def test_nls(self):
        system = zero_curvature(build_psi(1, 4), 2)
        assert system.rhs("b", 1) == P("1/2*b1'' - b1^2*c1")
        assert system.rhs("c", 1) == P("-1/2*c1'' + c1^2*b1")

    def test_dual_four_field(self):
        system = zero_curvature(build_psi(2, 4), 1)
        assert system.rhs("b", 1) == P("2*b2")
        assert system.rhs("c", 1) == P("-2*c2")
        assert system.rhs("b", 2) == P("b1' + b1^2*c1")
        assert system.rhs("c", 2) == P("c1' - c1^2*b1")

    def test_cmkdv(self):
        system = zero_curvature(build_psi(1, 5), 3)
        assert system.rhs("b", 1) == P("1/4*b1''' - 3/2*b1*c1*b1'")
        assert system.rhs("c", 1) == P("1/4*c1''' - 3/2*b1*c1*c1'")

    def test_gerdjikov_ivanov(self):
        # reference system typo-corrected: quintic exponents in eqs 1-2 fixed
        # by charge grading and the reduced (b2=c2=0) form, 3/2 -> 3/4 in
        # eqs 3-4 by re-expanding the flow from the Lax matrix entries
        system = zero_curvature(build_psi(2, 6), 4)
        assert system.rhs("b", 1) == P(
            "1/2*b1'' - b2^2*c1 - 2*b1*b2*c2 + 1/2*b1^2*c1' - 1/4*b1^3*c1^2"
        )
        assert system.rhs("c", 1) == P(
            "-1/2*c1'' + c2^2*b1 + 2*c1*b2*c2 + 1/2*c1^2*b1' + 1/4*c1^3*b1^2"
        )
        assert system.rhs("b", 2) == P(
            "1/2*b2'' - b2^2*c2 - b1*b1'*c2 - b1'*b2*c1 - 1/2*b1^2*c2'"
            " - 3/4*b1^2*c1^2*b2 - 1/2*b1^3*c1*c2"
        )
        assert system.rhs("c", 2) == P(
            "-1/2*c2'' + c2^2*b2 - b1*c1'*c2 - b2*c1*c1' - 1/2*c1^2*b2'"
            " + 3/4*b1^2*c1^2*c2 + 1/2*c1^3*b1*b2"
        )

    def test_own_time_is_translation(self):
        system = zero_curvature(build_psi(3, 4), 3)
        for u in system.fields():
            assert system.evolution[u] == DiffPoly.from_var(u).derive()

    def test_truncated_flow_components(self):
        # for n < k the evolution must reproduce, row by row,
        # d_n l_p = sum_{j=0}^{n} [l_{n-j}, l_{p+j}] evaluated on the table
        table = build_psi(4, 8)
        for n in (1, 2, 3):
            system = zero_curvature(table, n)
            for p in range(1, table.k + 1):
                acc = Sl2Poly()
                for j in range(0, n + 1):
                    acc = acc + sl2_commutator(table.rows[n - j], table.rows[p + j])
                assert system.rhs("b", p) == acc.bp
                assert system.rhs("c", p) == acc.cm

    def test_chain_rule_derivation(self):
        system = zero_curvature(build_psi(1, 4), 2)
        # d_2 of b1'^2 = 2 b1' * d(d_2 b1)
        got = system.derivative(P("b1'^2"))
        assert got == P("2*b1'") * system.rhs("b", 1).derive()

    def test_unknown_field_rejected(self):
        system = zero_curvature(build_psi(1, 4), 2)
        with pytest.raises(KeyError):
            system.derivative(P("b7"))

    def test_tampered_table_raises_residual(self):
        table = build_psi(2, 5)
        rows = list(table.rows)
        # corrupt a row that V^(3) uses: the lambda^0 residual picks it up
        rows[3] = Sl2Poly(a=rows[3].a, bp=rows[3].bp + P("b1"), cm=rows[3].cm)
        with pytest.raises(ResidualNonZero):
            zero_curvature(PsiTable(k=2, depth=5, rows=tuple(rows)), 3)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            zero_curvature(build_psi(2, 3), 4)


class TestStrongZeroCurvature:
    def test_flow_with_itself(self):
        assert strong_zc_check(build_psi(1, 4), 2, 2).passed

    def test_nls_cmkdv_pair(self):
        assert strong_zc_check(build_psi(1, 5), 2, 3).passed

    def test_k2_pair_1_4(self):
        assert strong_zc_check(build_psi(2, 6), 1, 4).passed

    def test_sweep_small(self):
        for k in (1, 2):
            table = build_psi(k, 5)
            for n in range(1, 5):
                for m in range(n, 5):
                    assert strong_zc_check(table, n, m).passed, (k, n, m)


class TestGeneratingRecurrence:
    def test_first_step_any_k(self):
        for k in (1, 2, 3):
            assert generating_recurrence_check(build_psi(k, 4), 1).passed

    def test_matches_printed_matrices(self):
        assert generating_recurrence_check(build_psi(1, 4), 2).passed
        assert generating_recurrence_check(build_psi(2, 6), 4).passed


class TestCommutingFlows:
    def test_nls_cmkdv_flows_commute(self):
        assert commuting_flows_check(build_psi(1, 6), 2, 3).passed


class TestDualEquivalence:
    def test_nls_pair(self):
        result = dual_equivalence(1, 2)
        assert result.passed
        assert result.common.rhs("b", 1) == P("1/2*b1'' - b1^2*c1")
        # the eliminated fields are the constraint-map rows of the t_1 table
        assert result.common.auxiliary[fv("b", 2)] == P("1/2*b1'")
        assert result.common.auxiliary[fv("c", 2)] == P("-1/2*c1'")

    def test_cmkdv_pair(self):
        result = dual_equivalence(1, 3)
        assert result.passed
        assert result.common.rhs("b", 1) == P("1/4*b1''' - 3/2*b1*c1*b1'")

    def test_gi_pair(self):
        result = dual_equivalence(2, 4)
        assert result.passed
        assert result.common.rhs("b", 1) == zero_curvature(build_psi(2, 6), 4).rhs("b", 1)

    def test_remaining_acceptance_pairs(self):
        assert dual_equivalence(2, 3).passed
        assert dual_equivalence(3, 4).passed

    def test_all_pairs_up_to_five(self):
        for k in range(2, 6):
            for n in range(1, k):
                assert dual_equivalence(n, k).passed, (n, k)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            dual_equivalence(2, 2)

