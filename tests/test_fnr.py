"""Constraint-map construction: closure, off-diagonal recursion, Lax matrices."""

import pytest

from laxdual.diffpoly import DiffPoly
from laxdual.fnr import (
    PsiTable,
    build_psi,
    casimir_closure_a,
    diag_consistency,
    extend_offdiagonal,
    lax_matrix,
    trace_square_check,
)
from laxdual.loopalg import DepthExhausted, LaurentMatrix, Sl2Poly

from conftest import P


class TestCasimirClosure:
    def test_a1_empty_sum(self):
        assert casimir_closure_a(build_psi(1, 2).rows, 1).is_zero()

    def test_a2(self):
        assert casimir_closure_a(build_psi(1, 2).rows, 2) == P("-1/2*b1*c1")

    def test_k2_a3(self):
        assert casimir_closure_a(build_psi(2, 3).rows, 3) == P("-1/2*b2*c1 - 1/2*b1*c2")

    def test_k2_a4(self):
        expected = P("1/4*b1*c1' - 1/4*b1'*c1 - 1/2*b2*c2 - 1/8*b1^2*c1^2")
        assert casimir_closure_a(build_psi(2, 4).rows, 4) == expected


class TestExtendOffdiagonal:
    def test_k1_first_step(self):
        b2, c2 = extend_offdiagonal(build_psi(1, 2).rows, 1, 1)
        assert b2 == P("1/2*b1'")
        assert c2 == P("-1/2*c1'")

    def test_k2_first_step(self):
        b3, c3 = extend_offdiagonal(build_psi(2, 3).rows, 1, 2)
        assert b3 == P("1/2*b1'")
        assert c3 == P("-1/2*c1'")

    def test_k2_second_step(self):
        b4, c4 = extend_offdiagonal(build_psi(2, 4).rows, 2, 2)
        assert b4 == P("1/2*b2' - 1/2*c2*b1^2 - 1/2*b2*c1*b1")
        assert c4 == P("-1/2*c2' - 1/2*b2*c1^2 - 1/2*b1*c1*c2")


class TestBuildPsi:
    def test_row_zero_is_sigma3(self):
        table = build_psi(3, 5)
        assert table.rows[0] == Sl2Poly(a=DiffPoly.const(1))

    def test_free_fields_rows(self):
        table = build_psi(3, 5)
        for j in range(1, 4):
            assert table.rows[j].bp == P(f"b{j}")
            assert table.rows[j].cm == P(f"c{j}")

    def test_no_derivatives_up_to_k(self):
        # build at depth exactly k: every row is derivative-free
        for k in range(1, 7):
            table = build_psi(k, k)
            for row in table.rows:
                for poly in (row.a, row.bp, row.cm):
                    assert poly.max_dorder() == 0

    def test_derivatives_beyond_k(self):
        table = build_psi(2, 4)
        assert table.rows[3].bp.max_dorder() == 1

    def test_squared_trace_and_diagonal_flow(self):
        for k in (1, 2, 3):
            table = build_psi(k, 8)
            assert trace_square_check(table).passed
            assert diag_consistency(table).passed

    def test_determinism(self):
        t1, t2 = build_psi(3, 9), build_psi(3, 9)
        assert t1.rows == t2.rows
        assert [r.a.to_text() for r in t1.rows] == [r.a.to_text() for r in t2.rows]

    def test_depth_soundness(self):
        shallow, deep = build_psi(2, 5), build_psi(2, 9)
        assert shallow.rows == deep.rows[:6]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_psi(0, 3)
        with pytest.raises(ValueError):
            build_psi(3, 2)

    @pytest.mark.parametrize("depth", [9, 2])
    def test_rows_must_match_depth(self, depth):
        # too few rows used to fail with IndexError deep in the checks; too
        # many made diag_consistency check nothing
        with pytest.raises(ValueError, match="needs"):
            PsiTable(k=2, depth=depth, rows=build_psi(2, 4).rows)


class TestLaxMatrix:
    def test_v11(self):
        table = build_psi(1, 3)
        expected = LaurentMatrix(
            {1: Sl2Poly.sigma3(), 0: Sl2Poly(bp=P("b1"), cm=P("c1"))}
        )
        assert lax_matrix(table, 1) == expected

    def test_v22(self):
        table = build_psi(2, 3)
        expected = LaurentMatrix(
            {
                2: Sl2Poly.sigma3(),
                1: Sl2Poly(bp=P("b1"), cm=P("c1")),
                0: Sl2Poly(a=P("-1/2*b1*c1"), bp=P("b2"), cm=P("c2")),
            }
        )
        assert lax_matrix(table, 2) == expected

    def test_order_zero(self):
        assert lax_matrix(build_psi(2, 3), 0) == LaurentMatrix({0: Sl2Poly.sigma3()})

    def test_depth_guard(self):
        with pytest.raises(DepthExhausted):
            lax_matrix(build_psi(1, 2), 3)

    def test_psi_series_truncation(self):
        table = build_psi(1, 3)
        series = table.psi_series()
        assert series.depth == 3
        with pytest.raises(DepthExhausted):
            series.coeff(-4)
