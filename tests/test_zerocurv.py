"""Zero-curvature systems, strong flatness, duality of the two routes."""

import itertools
import sys
import threading

import pytest

from laxdual.diffpoly import DiffPoly, FieldVar, _mapped
from laxdual.fnr import PsiTable, build_psi
from laxdual.loopalg import (
    DepthExhausted,
    LaurentMatrix,
    Sl2Poly,
    lm_commutator,
    shift,
)
from laxdual.fnr import diag_consistency, lax_matrix
from laxdual import cli, fnr, zerocurv
from laxdual.zerocurv import (
    PdeSystem,
    ResidualNonZero,
    commuting_flows_check,
    _duality,
    dual_equivalence,
    dual_table_map_check,
    strong_zc_check,
    zero_curvature,
)

from conftest import P, digest, fv, ref_flow, report_digest, sl2_commutator, tampered_above_k, unowned, with_added


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

    def test_chain_rule_skips_constant_symbols(self):
        # e has no evolution rule and none is needed: d_n e = 0.
        system = zero_curvature(build_psi(1, 4), 2)
        assert system.derivative(P("e*b1")) == P("e") * system.derivative(P("b1"))
        assert system.derivative(P("e^2")).is_zero()

    def test_unknown_field_rejected(self):
        system = zero_curvature(build_psi(1, 4), 2)
        with pytest.raises(KeyError):
            system.derivative(P("b7"))

    def test_unknown_field_is_named_as_text_names_it(self):
        # b1s is kind "b1s", index 0; the message must not read "b1s0".
        system = zero_curvature(build_psi(1, 2), 2)
        with pytest.raises(KeyError) as exc:
            system.derivative(P("b1s'*b1"))
        assert exc.value.args == ("no evolution rule for field b1s",)

    def test_missing_rule_names_the_smallest_field(self):
        # The message names the smallest field without a rule in the public
        # order, whichever generator was interned first.
        system = zero_curvature(build_psi(1, 3), 2)
        with pytest.raises(KeyError) as exc:
            system.derivative(P("b2*c3 + c2 + b1"))
        assert exc.value.args == ("no evolution rule for field b2",)
        # By id b2 < aamiss1s < zzmiss1s < zzmiss1s', and aamiss1s comes
        # first in the public order.
        P("b2 + aamiss1s + zzmiss1s")
        with pytest.raises(KeyError) as exc:
            system.derivative(P("zzmiss1s'*b2 + aamiss1s*b1"))
        assert exc.value.args == ("no evolution rule for field aamiss1s",)

    def test_tampered_table_raises_residual(self):
        table = build_psi(2, 5)
        rows = list(table.rows)
        # corrupt a row that V^(3) uses: the lambda^0 residual picks it up
        rows[3] = Sl2Poly(a=rows[3].a, bp=rows[3].bp + P("b1"), cm=rows[3].cm)
        with pytest.raises(ResidualNonZero):
            zero_curvature(PsiTable(k=2, depth=5, rows=tuple(rows)), 3)

    def test_depth_guard(self):
        # V^(4) needs row 4; the floor of lambda^4 L at depth 3 is lambda^1
        with pytest.raises(ValueError):
            zero_curvature(build_psi(2, 3), 4)
        with pytest.raises(DepthExhausted, match=r"lambda\^0; the known floor is 1"):
            zero_curvature(build_psi(2, 3), 4)

    @pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_a_partner_time_that_is_not_an_int_leaves_the_memo(self, fresh_store, capsys, n):
        # True is an equal key to n = 1's memo entry: a system stored under it
        # would print as dTrue(b1) in a later `derive --k 1 --n 1`.
        table = build_psi(1, 3)
        with pytest.raises(TypeError, match="n must be an int"):
            zero_curvature(table, n)
        assert fresh_store[1].memo == {}
        assert cli.main(["derive", "--k", "1", "--n", "1"]) == 0
        assert capsys.readouterr().out == "d1(b1) = b1'\nd1(c1) = c1'\n"


# SHA-256 of the ResidualNonZero message of zero_curvature(tampered_above_k(k,
# attr), k + 1), recorded from the implementation that assembled the flow from
# the commutator and the table rows by hand.
RESIDUAL_MESSAGE_DIGESTS = {
    (1, "a"): "9a82974567c84cb1d3f9e6b9531f74fcfa20c2bee3742f0f618f4cfa9454e39e",
    (1, "bp"): "34112c785557b09b8c06f320f7b85d597975080606b6c15a912d98d4f779ac6f",
    (1, "cm"): "db50e4846240868edfc33b674b701130c2c7b0ed3b868c8a326b2889c1fa8bc7",
    (2, "a"): "68c65661463cd6ef439a31d1b527a6406b1b69bc99799ed396e1472a6962b678",
    (2, "bp"): "0dc59e979d503baefb3f748a09ef93695991b81f99a1a3cedf16fe7ab0155cf4",
    (2, "cm"): "465b4b5c82c6188e03020152f120827927ecc758bded65b886c2d9d853c0f205",
    (3, "a"): "e7376f947c4dce27fb826177d7f406bfed6163b46a9f1c2bf5fd9fc91382eaeb",
    (3, "bp"): "a5585ca75715ae1844acc7c85f789c4942ba350cb35866b7f9ee179547bfa099",
    (3, "cm"): "c6105eb3ffc7f7a9146254bba333b8d13ea481bc1bb6e8596bf089b7a7705e7c",
}


@pytest.mark.parametrize("k, attr", sorted(RESIDUAL_MESSAGE_DIGESTS))
def test_residual_message_is_byte_identical(k, attr):
    with pytest.raises(ResidualNonZero) as info:
        zero_curvature(tampered_above_k(k, attr), k + 1)
    assert digest(str(info.value)) == RESIDUAL_MESSAGE_DIGESTS[k, attr]


# Each system's evolution against the flow assembled as one Laurent sum, for
# owned tables with n ascending (one new row verified per system) and
# descending (the first system verifies every row), and for copies, which are
# checked in full every time.
@pytest.mark.parametrize("order", ["ascending", "descending", "copied"])
def test_evolution_matches_the_laurent_sum(order, fresh_store):
    for k in range(1, 5):
        table = build_psi(k, 8)
        for n in range(8, 0, -1) if order == "descending" else range(1, 9):
            system = zero_curvature(unowned(table) if order == "copied" else table, n)
            flow = ref_flow(table, n)
            for q in range(1, k + 1):
                for kind, attr in (("b", "bp"), ("c", "cm")):
                    want = getattr(flow.coeff(k - q), attr)
                    assert system.rhs(kind, q) == want, (k, n, kind, q)
                    assert system.rhs(kind, q).to_text() == want.to_text(), (k, n, kind, q)
        assert fresh_store[k].flow_verified == (-k - 1 if order == "copied" else 8 - k)


# The ResidualNonZero messages of zero_curvature(with_added(build_psi(2, 12),
# 3, "b1*c1", ("a",)), n), recorded from the implementation that assembled
# the flow as one Laurent sum and checked every coefficient of every system.
TAMPERED_A3_MESSAGES = {
    9: "zero_curvature(k=2, n=9): nonvanishing residuals:\n"
    "  lambda^7: (0; -2*b1^2*c1; 2*b1*c1^2)\n"
    "  lambda^6: (-b1*c1' - b1'*c1; -2*b1*b2*c1; 2*b1*c1*c2)",
    10: "zero_curvature(k=2, n=10): nonvanishing residuals:\n"
    "  lambda^8: (0; -2*b1^2*c1; 2*b1*c1^2)\n"
    "  lambda^7: (-b1*c1' - b1'*c1; -2*b1*b2*c1; 2*b1*c1*c2)",
}


@pytest.mark.parametrize("n", sorted(TAMPERED_A3_MESSAGES))
def test_a_tampered_copy_of_a_verified_table_is_checked_in_full(n):
    table = build_psi(2, 12)
    zero_curvature(table, 9)
    with pytest.raises(ResidualNonZero) as info:
        zero_curvature(with_added(table, 3, "b1*c1", ("a",)), n)
    assert str(info.value) == TAMPERED_A3_MESSAGES[n]


def test_a_later_system_checks_only_rows_not_yet_verified(fresh_store, monkeypatch):
    table = build_psi(2, 12)
    zero_curvature(table, 9)
    assert fresh_store[2].flow_verified == 7
    rows = []

    def counted(real):
        def flow_residual(series, v_k, p):
            rows.append(p)
            return real(series, v_k, p)

        return flow_residual

    monkeypatch.setattr(zerocurv, "_flow_residual", counted(zerocurv._flow_residual))
    monkeypatch.setattr(fnr, "_flow_residual", counted(fnr._flow_residual))
    zero_curvature(table, 10)
    assert rows == [8]
    rows.clear()
    zero_curvature(unowned(table), 10)
    assert rows == list(range(-2, 9))
    # diag_consistency checks every row, every time.
    rows.clear()
    assert diag_consistency(table).passed
    assert rows == list(range(1, 11))
    assert fresh_store[2].flow_verified == 8


def test_threads_on_one_store_give_the_serial_systems(fresh_store):
    k, ns = 2, range(6, 10)
    serial = {n: zero_curvature(unowned(build_psi(k, 9)), n) for n in ns}
    assert fresh_store[k].flow_verified == -k - 1
    results, errors = [], []
    start = threading.Barrier(4)

    def run(order):
        try:
            start.wait(timeout=30)
            results.extend((n, zero_curvature(build_psi(k, 9), n)) for n in order)
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(order,)) for order in (ns, ns[::-1]) * 2]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(before)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 16
    for n, system in results:
        assert system.evolution == serial[n].evolution, n
    assert fresh_store[k].flow_verified == max(ns) - k


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


def assert_generating_recurrence(table, n):
    # V^(n) = lambda V^(n-1) + l_n, so the constant term of V^(n) is l_n
    v_n = lax_matrix(table, n)
    rebuilt = shift(lax_matrix(table, n - 1), 1) + LaurentMatrix({0: table.rows[n]})
    assert v_n == rebuilt, (table.k, n)
    assert v_n.coeff(0) == table.rows[n], (table.k, n)


class TestGeneratingRecurrence:
    def test_first_step_any_k(self):
        for k in (1, 2, 3):
            assert_generating_recurrence(build_psi(k, 4), 1)

    def test_matches_printed_matrices(self):
        for k, depth in ((1, 4), (2, 6), (3, 4)):
            table = build_psi(k, depth)
            for n in range(1, depth + 1):
                assert_generating_recurrence(table, n)


class TestCommutingFlows:
    def test_nls_cmkdv_flows_commute(self):
        assert commuting_flows_check(build_psi(1, 6), 2, 3).passed


# A tampered table cannot make strong_zc_check or commuting_flows_check fail:
# zero_curvature raises ResidualNonZero first.  A tampered system can: the
# n = 3 system of k = 1 with b1*c1 added to d_3 b1.  Each check's failing
# labels and the report_digest of its report are pinned.
TAMPERED_FLOW_REPORTS = {
    "strong_zc_check": (
        strong_zc_check,
        ["lambda^1", "lambda^0"],
        "ded5622cb01c32300cbf2187435a47902040f7eb437d419f24a251518e63c147",
    ),
    "commuting_flows_check": (
        commuting_flows_check,
        ["[2,3] on b1", "[2,3] on c1"],
        "f23a69863ebbaf55e7af363c594cffeb222803b43a493e770a7b6f7209255706",
    ),
}


@pytest.mark.parametrize("name", sorted(TAMPERED_FLOW_REPORTS))
def test_tampered_flow_fails_the_check(name, monkeypatch):
    check, failing, want = TAMPERED_FLOW_REPORTS[name]
    real = zerocurv.zero_curvature

    def tampered_flow(table, n):
        system = real(table, n)
        if n != 3:
            return system
        # A fresh system: the memoized one is shared and must stay as it is.
        evolution = dict(system.evolution)
        evolution[fv("b", 1)] = evolution[fv("b", 1)] + P("b1*c1")
        return PdeSystem(k=system.k, n=n, evolution=evolution)

    monkeypatch.setattr(zerocurv, "zero_curvature", tampered_flow)
    report = check(build_psi(1, 6), 2, 3)
    assert not report.passed
    assert [item.label for item in report.failures()] == failing
    assert report_digest(report) == want


class TestDualEquivalence:
    def test_nls_pair(self):
        result = dual_equivalence(1, 2)
        assert result.report.passed
        # the eliminated fields are the constraint-map rows of the t_1 table
        assert result.psi == {fv("b", 2): P("1/2*b1'"), fv("c", 2): P("-1/2*c1'")}

    def test_phi_derives_by_route_a(self):
        # phi sends the t_2-derivative b1' to d_2 b1 of the t_1 world, which
        # is NLS; substitute would keep it as the t_1-derivative b1'.
        psi = dual_equivalence(1, 2).psi
        route_a = zero_curvature(build_psi(1, 2), 2)
        assert _mapped(P("b1'"), psi, route_a.derivative) == P("1/2*b1'' - b1^2*c1")
        assert P("b1'").substitute(psi) == P("b1'")

    def test_cmkdv_pair(self):
        result = dual_equivalence(1, 3)
        assert result.report.passed
        # route B's rules, mapped by phi, met route A's, which are cmKdV
        assert [item.label for item in result.report.items][-2:] == ["d_3 b1", "d_3 c1"]
        assert zero_curvature(build_psi(1, 3), 3).rhs("b", 1) == P("1/4*b1''' - 3/2*b1*c1*b1'")
        rows = build_psi(1, 3).rows
        assert result.psi == {fv("b", j): rows[j].bp for j in (2, 3)} | {fv("c", j): rows[j].cm for j in (2, 3)}

    def test_gi_pair(self):
        result = dual_equivalence(2, 4)
        assert result.report.passed
        rows = build_psi(2, 4).rows
        assert result.psi == {fv("b", j): rows[j].bp for j in (3, 4)} | {fv("c", j): rows[j].cm for j in (3, 4)}

    def test_remaining_acceptance_pairs(self):
        assert dual_equivalence(2, 3).report.passed
        assert dual_equivalence(3, 4).report.passed

    def test_all_pairs_up_to_five(self):
        for k in range(2, 6):
            for n in range(1, k):
                assert dual_equivalence(n, k).report.passed, (n, k)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            dual_equivalence(2, 2)



# A tampered system of either route makes dual_equivalence(1, 3) fail: b1*c1
# added to the rule for b1 of route A (the n = 3 system of k = 1) or of route B
# (the n = 1 system of k = 3).  Each case's failing labels and the
# report_digest of its report, recorded on the unchanged engine, are pinned.
TAMPERED_DUALITY_REPORTS = {
    "route A": (
        (1, 3),
        ["d_3 b1"],
        "1cfb72a7f952cf7c7309b6e17c27bebbaf092a33bf16aa1fe1557c434f783341",
    ),
    "route B": (
        (3, 1),
        ["elimination b2", "elimination b3", "a_3 rewrite", "d_3 b1", "d_3 c1"],
        "a27085c1586dabbdc8e92aa51f412ce4fcd078636556130c210de7531780a543",
    ),
}


@pytest.mark.parametrize("route", sorted(TAMPERED_DUALITY_REPORTS))
def test_tampered_route_fails_dual_equivalence(route, monkeypatch):
    tampered_kn, failing, want = TAMPERED_DUALITY_REPORTS[route]
    real = zerocurv.zero_curvature

    def tampered_route(table, n):
        system = real(table, n)
        if (table.k, n) != tampered_kn:
            return system
        # A fresh system: the memoized one is shared and must stay as it is.
        evolution = dict(system.evolution)
        evolution[fv("b", 1)] = evolution[fv("b", 1)] + P("b1*c1")
        return PdeSystem(k=system.k, n=n, evolution=evolution)

    monkeypatch.setattr(zerocurv, "zero_curvature", tampered_route)
    report = dual_equivalence(1, 3).report
    assert not report.passed
    assert [item.label for item in report.failures()] == failing
    assert report_digest(report) == want


# A free row j <= k of the t_k table, handed to the two-table core.  A constant
# added to b_k or c_k leaves route B's rules as they are, so only the
# elimination of that field fails; b1*c1 moves route B's rule for d_n b_k as
# well, and with it the d_k item of b_n that reads it.
TAMPERED_FREE_ROWS = {
    ("bp", "1"): ["elimination b3"],
    ("cm", "1"): ["elimination c3"],
    ("bp", "b1*c1"): ["elimination b3", "d_3 b1"],
}


@pytest.mark.parametrize("attr, extra", sorted(TAMPERED_FREE_ROWS))
def test_tampered_table_fails_its_elimination_items(attr, extra):
    table_k = with_added(build_psi(3, 3), 3, extra, (attr,))
    report = _duality(build_psi(1, 3), table_k).report
    assert [item.label for item in report.failures()] == TAMPERED_FREE_ROWS[attr, extra]
    assert [item.label for item in report.items] == [item.label for item in dual_equivalence(1, 3).report.items]


# One entry (a, b or c) of one row 1..k of either table, plus 1, b1*c1 or b1',
# handed to the two-table core.  Most tamperings make a zero-curvature system
# raise; the rest give a failing report.  Per (n, k), the digest of the
# outcomes in order (each report's report_digest, or the error's type and
# message), recorded before DualityResult owned the duality map.
TAMPERED_TABLE_DIGESTS = {
    (1, 2): "df4d87b4dabf0349adc78023cc2db288c1f936fbfb48022b6b285f99d9871629",
    (1, 3): "6b65c9daeff9b94ed2f897b1badb4a091f4e07298d489304b40a8bb9d09ac664",
    (2, 3): "4afc2e65373541c9012955313b090240c05c7afe555d700dcab76c50646db15d",
    (1, 4): "45f1db906dc47ab37ab84f3e4afbbb2790bbc1968f53f7c4ac71a75668d86b30",
    (2, 4): "138cd70baf10c8d53ad0a4f64d8e84f5c42821984fb57d768df4855a43384bfa",
    (3, 4): "90c2aefd6d2b1c13a731602d5fb161dff3e5de4e79fac362d4a058be0fe34fa3",
}


@pytest.mark.parametrize("n, k", sorted(TAMPERED_TABLE_DIGESTS))
def test_tampered_tables_keep_their_reports_and_errors(n, k):
    outcomes = []
    cases = itertools.product(("n", "k"), range(1, k + 1), ("a", "bp", "cm"), ("1", "b1*c1", "b1'"))
    for side, j, attr, extra in cases:
        tables = {"n": build_psi(n, k), "k": build_psi(k, k)}
        tables[side] = with_added(tables[side], j, extra, (attr,))
        try:
            report = _duality(tables["n"], tables["k"]).report
        except ResidualNonZero as exc:
            outcomes.append(f"ResidualNonZero: {exc}")
        else:
            assert not report.passed, (side, j, attr, extra)
            outcomes.append(report_digest(report))
    assert len(outcomes) == 18 * k
    assert digest("\n".join(outcomes)) == TAMPERED_TABLE_DIGESTS[n, k]


class TestDualityMap:
    def test_phi_reads_the_current_psi(self):
        result = dual_equivalence(1, 3)
        b2 = DiffPoly.var("b", 2)
        assert result.phi(b2) == result.psi[fv("b", 2)]
        # A new dict, and then a change to it, are both what phi reads next.
        result.psi = {fv("b", 2): P("7*c1")}
        assert result.phi(b2 * b2.derive()) == P("7*c1") * result.route_a.derivative(P("7*c1"))
        result.psi[fv("b", 2)] = P("b1")
        assert result.phi(b2 + P("c2")) == P("b1 + c2")

    @pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (2, 3), (2, 5)])
    def test_route_a_is_the_shared_system(self, n, k):
        assert dual_equivalence(n, k).route_a is zero_curvature(build_psi(n, k + 3), k)
        result = _duality(build_psi(n, k + 2), build_psi(k, k + 2))
        assert result.route_a is zero_curvature(build_psi(n, k), k)


# report_digest of dual_table_map_check(n, k, k + 4), recorded before the
# generator map stopped building a polynomial per monomial image.
DUAL_TABLE_MAP_DIGESTS = {
    (1, 2): "98ab8e63051bc3b2d68f23241c1455c0806ecf670bee4a0ae77df59139347973",
    (1, 3): "c9a803f279b83dbb2f2516107adf80436e0b8c324cd7014d1c0567181a138e91",
    (2, 3): "904cb7f03b4c0f30f3a1f04e5cf28711e89d3f06ea34138b16587ef013cd968a",
    (1, 4): "90ea424676c7188c473bb87179799ca9e632dc19fb14528739d64eea9dade196",
    (2, 4): "717ba14f0fcf49ed55003cc69cdc6071c2c15e3e5c26755a73f50de009ed5a14",
    (3, 4): "744cfdf32c3774529e10e15dcc744f71159326d40823939126c17babc061263c",
    (1, 5): "abf1a2a00907e9b3b9583f5680b0473effa15a8234d1dd223b2e456fbaaf994a",
    (2, 5): "08d90ef5d135edc155482ae93d6fb486b1517f16c4cea23ce806b92c93d75e7f",
    (3, 5): "804fc0726c7a8dde4561c0344eefb27c4644660a77ab14a01e652aba5326e638",
    (4, 5): "2ad7002436667c68c7efd5e1f890117d8283e81c80d104af03aac693b06321b8",
}


class TestDualTableMap:
    def test_phi_maps_every_row_up_to_five(self):
        for k in range(2, 6):
            for n in range(1, k):
                report = dual_table_map_check(n, k, k + 4)
                assert report.passed, (n, k, report.failures())
                assert len(report.items) == 3 * (k + 4)
                assert report_digest(report) == DUAL_TABLE_MAP_DIGESTS[n, k]

    def test_a_tampered_row_keeps_its_residual_digest(self, monkeypatch):
        # The residual is phi of the added terms: powers of eliminated fields
        # and a derivative, each mapped through psi and the derivation.
        real = zerocurv.build_psi

        def tampered_build(k, depth):
            table = real(k, depth)
            return with_added(table, 5, "b2*c3^2 - 3/5*b3''*c2 + 7/9*c2^4") if k == 3 else table

        monkeypatch.setattr(zerocurv, "build_psi", tampered_build)
        report = dual_table_map_check(1, 3, 7)
        assert [item.label for item in report.failures()] == ["row 5 a", "row 5 b", "row 5 c"]
        assert report_digest(report) == "865716c38df08791aabdc6c39095abf90ddfccdbc4b9cd26f0004e081e736274"

    def test_labels(self):
        report = dual_table_map_check(1, 2, 2)
        assert report.name == "dual_table_map(n=1, k=2, depth=2)"
        assert [item.label for item in report.items] == [
            "row 1 a", "row 1 b", "row 1 c", "row 2 a", "row 2 b", "row 2 c",
        ]

    def test_a_tampered_row_above_k_fails_exactly_its_items(self, monkeypatch):
        real = zerocurv.build_psi

        def tampered_build(k, depth):
            table = real(k, depth)
            return with_added(table, 5, "b1*c1") if k == 3 else table

        monkeypatch.setattr(zerocurv, "build_psi", tampered_build)
        report = dual_table_map_check(1, 3, 7)
        assert [item.label for item in report.failures()] == ["row 5 a", "row 5 b", "row 5 c"]
        assert len(report.items) == 21

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="1 <= n < k"):
            dual_table_map_check(2, 2, 4)
        with pytest.raises(ValueError, match="depth >= 1"):
            dual_table_map_check(1, 2, 0)
