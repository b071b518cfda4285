"""Zero-curvature systems, strong flatness, duality of the two routes."""

import pytest

from laxdual.diffpoly import DiffPoly, FieldVar, _mapped
from laxdual.fnr import PsiTable, build_psi
from laxdual.loopalg import (
    DepthExhausted,
    LaurentMatrix,
    Sl2Poly,
    lm_commutator,
    shift,
    sl2_commutator,
)
from laxdual.fnr import lax_matrix
from laxdual import zerocurv
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

from conftest import P, digest, fv, report_digest, tampered_above_k, with_added


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


class TestDualTableMap:
    def test_phi_maps_every_row_up_to_five(self):
        for k in range(2, 6):
            for n in range(1, k):
                report = dual_table_map_check(n, k, k + 4)
                assert report.passed, (n, k, report.failures())
                assert len(report.items) == 3 * (k + 4)

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
