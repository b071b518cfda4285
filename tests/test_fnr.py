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

from conftest import P, report_digest, tampered_above_k, with_added


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

    @pytest.mark.parametrize(
        "k, depth",
        [(1.0, 3), (True, 3), ("1", 3), (1, 3.0), (1, True)],
        ids=["float-k", "bool-k", "str-k", "float-depth", "bool-depth"],
    )
    def test_anything_but_an_int_is_refused_before_the_store(self, fresh_store, k, depth):
        # 1.0 and True are equal keys to the store of k = 1: a store made for
        # either would serve every later build_psi(1, ...) in the process.
        with pytest.raises(TypeError, match="must be an int"):
            build_psi(k, depth)
        assert fresh_store == {}
        table = build_psi(1, 3)
        assert type(table.k) is int and table.rows[1].bp == P("b1")

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
# (diag_consistency, trace_square_check) reports on tampered_above_k(k, attr).
# The trace digests, and those of the sigma3 items (labelled p=P) of each flow
# report, in order, were recorded from the implementation that summed the rows
# by hand; the flow digests were recorded again when the sigma+ and sigma-
# items joined them.  The sigma3 items alone cannot see a_4 at k = 3, which
# they read only for p <= depth - k; the sigma+- items of p = 2, 3 read it.
ROW_CHECK_DIGESTS = {
    (1, "a"): (
        "0cd682005b8495a42049d7962e3bcf52cf8ba767a324a79389777b234070ccfe",
        "9f89de7c4e0f9b7ff75d29066d3b5fca9dc17a6675d46284564f265c288ee56d",
    ),
    (1, "bp"): (
        "85e6ea88574fafed63f125bc0927ac461a462d65d57fb64b2d697fbbf7f656ee",
        "28e4ec4e6a87fc80aa4095e984b521453ed79b07407dba863ccfcb75d4e7a53e",
    ),
    (1, "cm"): (
        "ed46cc27bce4da602d4739499a2beb3d6677a2e7318eabc8bdfdbd7a0edc8cde",
        "b3d73d5c383244154712f5a82d4dc3ee1d9f12ec8bbab072e9b1affd0d37a1ab",
    ),
    (2, "a"): (
        "a0ae92adc5151e216ce67d0dd9e9915f8e4074350c0c6d0e55eb5dabd0a3fe5b",
        "6d6c50d3cbc15c2a51a5c18a0a963756f6f5e2b55a15266dd3405221cfbe6597",
    ),
    (2, "bp"): (
        "1d5e6fdc28e4e6a7565de7c140eb4ac86f3bb066375d38564d593fb235b188cb",
        "cc835e402a9e1dd2736f2cba38767fff9218610905a410f4663473adf864f1bd",
    ),
    (2, "cm"): (
        "d75fa11c7b64853b4347bae461791194c8dd796de4744069047dfe72a627454a",
        "7c82d8906211b183bcce4f56008bf71434111c5957d314513e0501b7330af148",
    ),
    (3, "a"): (
        "24e4d6170d85f0a45bbd38e55cbb18c6b1389ede01b9818bb95c187b6dd2026d",
        "0d9b04a14db40b29bfc5bbd0d9095fd2026cd0f9b07bc150b1dd83a08b529786",
    ),
    (3, "bp"): (
        "ef540c85795ada360116c56f118a481284e3cce4c9f305488bd8205bd70bdf9a",
        "7d54521830ef85a1bbe3c25b4a23d51cd95987670d387e012d1a5386e6f86c08",
    ),
    (3, "cm"): (
        "ff0c1765e4398a5ce45d5654464c18a8e7269a217177dd27d30227b8544300e9",
        "5ce41b67bd69aa2c02ab4dcd84bda50aa778b2adca4efe3a98fd4265739e0190",
    ),
}


@pytest.mark.parametrize("k, attr", sorted(ROW_CHECK_DIGESTS))
def test_row_checks_fail_byte_identically(k, attr):
    table = tampered_above_k(k, attr)
    diag, trace = diag_consistency(table), trace_square_check(table)
    assert not diag.passed and not trace.passed
    assert (report_digest(diag), report_digest(trace)) == ROW_CHECK_DIGESTS[k, attr]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_checks_catch_every_tampered_entry(k):
    # Every entry of every row of build_psi(k, k + 6), each with one of three
    # additions: the flow check (all three sl(2) parts) or the trace check must
    # fail.  With the sigma3 part alone, six tables per k passed both: the
    # off-diagonal entries of the last row, which only the sigma+- parts read.
    table = build_psi(k, k + 6)
    for j in range(1, k + 7):
        for attr in ("a", "bp", "cm"):
            for extra in ("1/3*b1*c1", "b1'", "b1^2*c1"):
                bad = with_added(table, j, extra, (attr,))
                caught = not diag_consistency(bad).passed or not trace_square_check(bad).passed
                assert caught, (j, attr, extra)
