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

from conftest import P, report_digest, tampered_above_k


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
        with pytest.raises(DepthExhausted, match=r"lambda\^0; the known floor is 1"):
            lax_matrix(build_psi(1, 2), 3)
        with pytest.raises(ValueError):
            lax_matrix(build_psi(1, 2), 3)

    def test_psi_series_truncation(self):
        table = build_psi(1, 3)
        series = table.psi_series()
        assert series.floor == -3
        with pytest.raises(DepthExhausted):
            series.coeff(-4)


# SHA-256 of json.dumps(report.to_json(), sort_keys=True) of the
# (diag_consistency, trace_square_check) reports on tampered_above_k(k, attr),
# recorded from the implementation that summed the rows by hand.  At k = 3
# the diagonal check cannot see a_4: it reads a_p only for p <= depth - k.
ROW_CHECK_DIGESTS = {
    (1, "a"): (
        "0a8e268b22de8d88e56edd48f96f427f32569a3737ecd1a8773fbcb14e2ecd88",
        "9f89de7c4e0f9b7ff75d29066d3b5fca9dc17a6675d46284564f265c288ee56d",
    ),
    (1, "bp"): (
        "77ebe309ceaa8f45a53f5ea72787d581d0ca8748ae9cb14b087e4a4be0aa6948",
        "28e4ec4e6a87fc80aa4095e984b521453ed79b07407dba863ccfcb75d4e7a53e",
    ),
    (1, "cm"): (
        "90d074d02757c1fa78d361a14c410027a66be0b9a351e917778e4e7428482660",
        "b3d73d5c383244154712f5a82d4dc3ee1d9f12ec8bbab072e9b1affd0d37a1ab",
    ),
    (2, "a"): (
        "1a8070d8f77da80e2e7b503bccf2f222cb5c89428892bcc3d71a8aae1d675fd9",
        "6d6c50d3cbc15c2a51a5c18a0a963756f6f5e2b55a15266dd3405221cfbe6597",
    ),
    (2, "bp"): (
        "c1537eddb919d9b6d5349abd7f06a2383916d09304c87a4206fd921b9fff7418",
        "cc835e402a9e1dd2736f2cba38767fff9218610905a410f4663473adf864f1bd",
    ),
    (2, "cm"): (
        "c3226c9e264fc296145c2e9fd711e6f2b06f5907061805ea058731ba0e33cc6b",
        "7c82d8906211b183bcce4f56008bf71434111c5957d314513e0501b7330af148",
    ),
    (3, "a"): (
        "a2627c2cf14d8229b9ca077f7f14f64aff293aaabd968ef021b3a672a938d257",
        "0d9b04a14db40b29bfc5bbd0d9095fd2026cd0f9b07bc150b1dd83a08b529786",
    ),
    (3, "bp"): (
        "38334761055ccae8f87f8f28324acc2baf87cb174f97bc7a642d9c886ae409ab",
        "7d54521830ef85a1bbe3c25b4a23d51cd95987670d387e012d1a5386e6f86c08",
    ),
    (3, "cm"): (
        "f157dc9a698ed018996314653bdf712a1fc86ed17a5cf370420211502ae73ace",
        "5ce41b67bd69aa2c02ab4dcd84bda50aa778b2adca4efe3a98fd4265739e0190",
    ),
}


@pytest.mark.parametrize("k, attr", sorted(ROW_CHECK_DIGESTS))
def test_row_checks_fail_byte_identically(k, attr):
    table = tampered_above_k(k, attr)
    diag, trace = diag_consistency(table), trace_square_check(table)
    assert diag.passed == ((k, attr) == (3, "a"))
    assert not trace.passed
    assert (report_digest(diag), report_digest(trace)) == ROW_CHECK_DIGESTS[k, attr]
