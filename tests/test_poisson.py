"""Bracket tables, Sklyanin relation, W-Z expansion, Hamiltonian flows."""

import random

import pytest

from laxdual import poisson
from laxdual.diffpoly import DiffPoly, FieldVar, equal_mod_total_derivative
from laxdual.fnr import PsiTable, build_psi, lax_matrix
from laxdual.loopalg import DepthExhausted, Sl2Poly, entry_polynomials
from laxdual.poisson import (
    BracketTable,
    WZExpansion,
    _expansion,
    _variations,
    field_bracket_table,
    flow_from_hamiltonian,
    flow_matches_zc,
    hamiltonian_density,
    hamiltonians_commute,
    resolvent_check,
    sklyanin_check,
)
from laxdual.zerocurv import zero_curvature

from conftest import P, fv, ref_bracket, report_digest, riccati_orders, tampered, unowned, with_added


def bracket_value(table, m_kind, m_idx, n_kind, n_idx):
    return field_bracket_table(table).pair(fv(m_kind, m_idx), fv(n_kind, n_idx))


class TestBracketTable:
    def test_k1_canonical(self):
        table = build_psi(1, 1)
        assert bracket_value(table, "b", 1, "c", 1) == DiffPoly.const(4)

    def test_k2(self):
        table = build_psi(2, 2)
        assert bracket_value(table, "b", 1, "c", 2) == DiffPoly.const(4)
        assert bracket_value(table, "c", 1, "b", 2) == DiffPoly.const(-4)
        assert bracket_value(table, "b", 1, "c", 1).is_zero()
        assert bracket_value(table, "b", 2, "c", 2).is_zero()

    def test_k3(self):
        table = build_psi(3, 3)
        assert bracket_value(table, "b", 3, "c", 3) == P("-2*b1*c1")
        assert bracket_value(table, "b", 3, "c", 1) == DiffPoly.const(4)
        assert bracket_value(table, "b", 1, "c", 3) == DiffPoly.const(4)
        assert bracket_value(table, "b", 2, "c", 2) == DiffPoly.const(4)

    def test_all_unlisted_zero_k3(self):
        brackets = field_bracket_table(build_psi(3, 3))
        listed = {("b1", "c3"), ("b2", "c2"), ("b3", "c1"), ("b3", "c3")}
        for u in brackets.fields:
            for v in brackets.fields:
                name = (f"{u.kind}{u.index}", f"{v.kind}{v.index}")
                if name in listed or tuple(reversed(name)) in listed:
                    continue
                assert brackets.pair(u, v).is_zero(), name

    def test_antisymmetry_and_ultralocality(self):
        for k in (1, 2, 3, 4):
            brackets = field_bracket_table(build_psi(k, k))
            for u in brackets.fields:
                for v in brackets.fields:
                    assert brackets.pair(u, v) == -brackets.pair(v, u)
                    assert brackets.pair(u, v).max_dorder() == 0

    def test_jacobi(self):
        for k in (1, 2, 3, 4):
            assert field_bracket_table(build_psi(k, k)).jacobi_check().passed

    def test_jacobi_fails_on_raised_entry(self):
        # P[b1, c1] raised by b1, antisymmetrically, breaks the identity on the
        # triple (b1, c1, c2); raising it by b2 instead would go unnoticed
        good = field_bracket_table(build_psi(2, 2))
        b1, c1 = fv("b", 1), fv("c", 1)
        entries = dict(good.entries)
        entries[(b1, c1)] = good.pair(b1, c1) + P("b1")
        entries[(c1, b1)] = good.pair(c1, b1) - P("b1")
        report = BracketTable(k=2, entries=entries, fields=good.fields).jacobi_check()
        assert [(item.label, item.residual) for item in report.failures()] == [("(b1,c1,c2)", "-4")]
        assert report_digest(report) == "4db1dc3aeb031761d258727452beefcc0fef1efb46073f8202f399c1ddb5f746"

    def test_leibniz_against_raw_bracket(self):
        # {b_m, a_n} = -2 b_{m+n-k-1} and {c_m, a_n} = +2 c_{m+n-k-1} must
        # emerge from the Leibniz rule applied to the closure polynomials
        for k in (1, 2, 3, 4):
            table = build_psi(k, k)
            brackets = field_bracket_table(table)
            for m in range(1, k + 1):
                for n in range(1, k + 1):
                    idx = m + n - k - 1
                    image_b = table.rows[idx].bp if idx >= 0 else DiffPoly.zero()
                    image_c = table.rows[idx].cm if idx >= 0 else DiffPoly.zero()
                    got_b = brackets.bracket_field(fv("b", m), table.rows[n].a)
                    got_c = brackets.bracket_field(fv("c", m), table.rows[n].a)
                    assert got_b == image_b.scale(-2), (k, m, n)
                    assert got_c == image_c.scale(2), (k, m, n)

    def test_shared_by_the_tables_that_own_rows_below_k(self):
        table = build_psi(3, 5)
        shared = field_bracket_table(table)
        assert field_bracket_table(build_psi(3, 3)) is shared
        # tampered() changes row k, which the bracket does not read
        assert field_bracket_table(tampered(table)) is shared
        fresh = field_bracket_table(unowned(table))
        assert fresh is not shared and fresh == shared
        assert field_bracket_table(with_added(table, 1, "b1*c1", ("a",))) != shared

    def test_bracket_bilinear_zero(self):
        brackets = field_bracket_table(build_psi(2, 2))
        assert brackets.bracket(DiffPoly.zero(), P("b1*c2")).is_zero()


class TestContraction:
    """gradient_bracket contracts dp against vector_field(dq); the oracle is
    the entrywise sum over the bracket table."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_lax_entry_gradients(self, k):
        table = build_psi(k, k)
        brackets = field_bracket_table(table)
        parts = entry_polynomials(lax_matrix(table, k))
        grads = [brackets.gradient(p) for part in parts for p in part.values()]
        for dp in grads:
            for dq in grads:
                assert brackets.gradient_bracket(dp, dq) == ref_bracket(brackets, dp, dq)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_density_variations(self, k):
        table = build_psi(k, k)
        brackets = field_bracket_table(table)
        variations = [_variations(table, n) for n in range(5)]
        for dp in variations:
            for dq in variations:
                assert brackets.gradient_bracket(dp, dq) == ref_bracket(brackets, dp, dq)

    def test_vector_field_names_every_free_field(self):
        brackets = field_bracket_table(build_psi(2, 2))
        field = brackets.vector_field({fv("c", 2): DiffPoly.const(1)})
        assert tuple(field) == brackets.fields
        assert field[fv("b", 1)] == DiffPoly.const(4) and field[fv("c", 1)].is_zero()


class TestDerivativeFree:
    """The bracket is ultralocal: a polynomial that carries a derivative is
    refused by name, not read as if the derivative were absent."""

    REFUSED = r"derivative-free polynomials only, got .*b1'"

    @pytest.fixture
    def table(self):
        """build_psi(2, 2) with b1' added to a_2, an entry of the Lax matrix."""
        return with_added(build_psi(2, 2), 2, "b1'", ("a",))

    def test_bracket(self, table):
        with pytest.raises(ValueError, match=self.REFUSED):
            field_bracket_table(table).bracket(table.rows[2].a, table.rows[1].cm)

    def test_bracket_field(self, table):
        with pytest.raises(ValueError, match=self.REFUSED):
            field_bracket_table(table).bracket_field(fv("c", 1), table.rows[2].a)

    def test_sklyanin_check(self, table):
        with pytest.raises(ValueError, match=self.REFUSED):
            sklyanin_check(table)


class TestSklyanin:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_passes(self, k):
        assert sklyanin_check(build_psi(k, k)).passed

    def test_reports_all_sixteen_entries(self):
        report = sklyanin_check(build_psi(1, 1))
        assert len(report.items) == 16

    def test_too_shallow_table_raises_depth_exhausted(self):
        # The bracket table raised a plain ValueError here, while the flow
        # check on the same table raised DepthExhausted.
        table = PsiTable(3, 1, build_psi(3, 3).rows[:2])
        with pytest.raises(DepthExhausted, match=r"lambda\^-2; the known floor is -1"):
            sklyanin_check(table)
        with pytest.raises(DepthExhausted):
            flow_matches_zc(table, 1)


# SHA-256 of json.dumps(report.to_json(), sort_keys=True) for the perturbed
# tables below, recorded from the earlier implementation that built the 4x4
# matrices of the Sklyanin relation and inverted 1+W as a gl(2) series.
FAILING_REPORT_DIGESTS = {
    1: (
        "cd0ff61d62eff5b062420f3a3f5a672d22d33c058790b868f2665ea69fb3ff57",
        "8b93ab3555918eb252f2735425d9533b941fd0f260dc84c73848e36f8b8cb30b",
    ),
    2: (
        "7a5474a78700f4a99dfd195497debb14c370ac2289e0aefc43a3384a6e562441",
        "e969a5af2d696e7fd3fbb9d7ddb24030a5eef283cddae652d94eb158bde3690e",
    ),
    3: (
        "890eeb06cdab9241710222f74d052414dd7a0813ab85fef341cd3e893465b15e",
        "feda2eac803c1fcf6c7e44e8c72170759706028af6523b0a97dd7d26b1ed6098",
    ),
}


def perturbed(k):
    """build_psi(k, 5) with b1*c1 added to a_k, c1 to b_1 and 3/5*b1^2 to c_1."""
    rows = list(build_psi(k, 5).rows)
    for j, attr, delta in ((k, "a", P("b1*c1")), (1, "bp", P("c1")), (1, "cm", P("3/5*b1^2"))):
        parts = {"a": rows[j].a, "bp": rows[j].bp, "cm": rows[j].cm}
        parts[attr] = parts[attr] + delta
        rows[j] = Sl2Poly(**parts)
    return PsiTable(k=k, depth=5, rows=tuple(rows))


# report_digest of sklyanin_check on build_psi(k, k), on tampered(build_psi(k, k))
# and on build_psi(k, k) with b1*c1 added to a_1 (a bracket-table entry),
# recorded when each bracket was an entrywise sum.
SKLYANIN_DIGESTS = {
    ("built", 1): "cde36a49770545a0be3b3e0ed97475bce1b0d918fe9732b19f1c67d190819759",
    ("built", 2): "5992678cada629e4710599c5022ad93aadd337d6e6a3e0ade1cf01220ca7a08e",
    ("built", 3): "b85ec886f0ecde28bb20effcc3b30aebf5c374bc135ee177e732b8c51b1405f9",
    ("built", 4): "a9b807eef8729686f02f0b17c04bd2d07c262701a199719d01df2f87cdb8e589",
    ("built", 5): "53cb4cb97e0f7f52e535422305c85491c30ae7ffe3fa7256e83c99ca92f514bd",
    ("built", 6): "0e172a45778f39981c406554e0172e5f379fa78866d3b87ec2d437e6bcd26f2e",
    ("built", 7): "0d15ae970afc135f4270d74204409e90937057d346832c090c1d1bdf0c822192",
    ("tampered", 1): "12ba97d1cd25ad5f4847e808d520addd702212187291465a754d1b0c3db76e55",
    ("tampered", 2): "386821f30d8620cdaf5a8d4d47d2dafe60636970fab705809707cf47a2bb33c6",
    ("tampered", 3): "73ba3d3e4938d98b17a21850bf5ac56e8ce5e550bfdb1ef24fb76138231fd91a",
    ("with_added", 2): "f0eb1d81fb8b5ff206c919733dfce1a7f8d7278436a8a73cfafaf8712d1c1ad1",
    ("with_added", 3): "b508773e01b05407bdb7896a83cf8a367e28452fcd0bd642ab5fbc5839abc5a2",
}


@pytest.mark.parametrize("kind,k", sorted(SKLYANIN_DIGESTS))
def test_sklyanin_reports_are_byte_identical(kind, k):
    table = build_psi(k, k)
    if kind == "tampered":
        table = tampered(table)
    elif kind == "with_added":
        table = with_added(table, 1, "b1*c1", ("a",))
    report = sklyanin_check(table)
    assert report.passed is (kind == "built")
    assert report_digest(report) == SKLYANIN_DIGESTS[kind, k]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_failing_reports_are_byte_identical(k):
    table = perturbed(k)
    sklyanin, resolvent = sklyanin_check(table), resolvent_check(table, 5)
    assert not sklyanin.passed and not resolvent.passed
    assert (report_digest(sklyanin), report_digest(resolvent)) == FAILING_REPORT_DIGESTS[k]


# The same digest of flow_matches_zc at n = k on tampered(build_psi(k, k)),
# recorded when each verifier turned its residuals into items by hand.
FLOW_FAILING_DIGESTS = {
    1: "b164a90c2c06cde8982f09fc2242457d793e98b4ff2c272cf77f4f38f7f2e665",
    2: "861221e86f5aa91b4922079e4646245d97bc1e4f90f78d0413aeaa76d7dd4725",
    3: "a02ef60bb483d87da2f1a8f50b54434089340ad54858656afa0b10b0d11c53eb",
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_failing_flow_report_is_byte_identical(k):
    report = flow_matches_zc(tampered(build_psi(k, k)), k)
    assert not report.passed
    assert report_digest(report) == FLOW_FAILING_DIGESTS[k]


class TestShallowTables:
    """Hand-built tables that stop short: each reader names the first row it
    lacks, through the floor of the table's series."""

    def test_bracket_table_reads_rows_below_k(self):
        rows = build_psi(3, 3).rows
        with pytest.raises(DepthExhausted, match=r"lambda\^-2; the known floor is -1$"):
            field_bracket_table(PsiTable(3, 1, rows[:2]))
        # rows 0..k-1 are all it reads
        assert field_bracket_table(PsiTable(3, 2, rows[:3])) == field_bracket_table(build_psi(3, 3))

    def test_wz_expand_reads_rows_to_k(self):
        with pytest.raises(DepthExhausted, match=r"lambda\^-3; the known floor is -2$"):
            _expansion(PsiTable(3, 2, build_psi(3, 3).rows[:3]))

    def test_resolvent_check_reads_rows_to_its_depth(self):
        with pytest.raises(DepthExhausted, match=r"lambda\^-3; the known floor is -2$"):
            resolvent_check(PsiTable(1, 2, build_psi(1, 2).rows), 5)


class TestWZExpansion:
    def test_k1_first_orders(self):
        wz = _expansion(build_psi(1, 1))
        assert wz.beta(1) == P("-1/2*b1") and wz.gamma(1) == P("1/2*c1")
        assert wz.beta(2) == P("-1/4*b1'") and wz.gamma(2) == P("-1/4*c1'")
        assert wz.beta(3) == P("-1/8*b1'' + 1/8*b1^2*c1")
        assert wz.gamma(3) == P("1/8*c1'' - 1/8*b1*c1^2")

    def test_depth_guard(self):
        with pytest.raises(DepthExhausted):
            _expansion(build_psi(1, 1))._grown(0)

    @pytest.mark.parametrize("order", [0, -1])
    @pytest.mark.parametrize("read", ["beta", "gamma", "density"])
    def test_orders_outside_the_expansion_raise(self, read, order):
        wz = _expansion(build_psi(1, 4))._grown(3)
        with pytest.raises(DepthExhausted, match=rf"^order {order} of W or of dZ is below 1$"):
            getattr(wz, read)(order)

    @pytest.mark.parametrize("read", ["beta", "gamma", "density"])
    def test_reads_past_the_depth_grow_the_expansion(self, read):
        table = build_psi(2, 2)
        wz = WZExpansion(table)._grown(3)
        assert wz.depth == 3
        getattr(wz, read)(7)
        # depth is W's order, and density 7 reads W to order 7 + k - 1
        assert wz.depth == {"beta": 7, "gamma": 7, "density": 8}[read]
        assert riccati_orders(wz, 7) == riccati_orders(WZExpansion(table), 7)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("order", [0, -1])
    def test_density_orders_below_one_raise_for_every_k(self, order, k):
        # orders n..n+k-1 of W reach 1 for n = 0 once k >= 2; the density refuses n itself
        wz = WZExpansion(build_psi(k, k))
        with pytest.raises(DepthExhausted, match=rf"^order {order} of W or of dZ is below 1$"):
            wz.density(order)
        assert wz.depth == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_resolvent_check_solves_w_to_its_depth_only(self, fresh_store, k):
        assert resolvent_check(build_psi(k, 6), 6).passed
        wz = _expansion(build_psi(k, 6))
        assert wz.depth == len(wz.betas) - 1 == len(wz.gammas) - 1 == 6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hamiltonian_density_solves_w_to_order_n_plus_k(self, fresh_store, k):
        for n in range(5):
            hamiltonian_density(build_psi(k, k), n)
            wz = _expansion(build_psi(k, k))
            assert wz.depth == len(wz.betas) - 1 == n + k

    def test_depth_follows_gammas(self):
        # betas is appended before gammas, so a lock-free reader may see
        # beta_j before gamma_j: order j counts as solved only with gamma_j
        wz = WZExpansion(build_psi(2, 2))._grown(3)
        wz.betas.append(DiffPoly.zero())
        assert wz.depth == 3

    def test_prefix_stability(self, fresh_store):
        # every order reads the same whatever was requested before it, in the
        # shared expansion of an empty store and in a fresh one
        want = riccati_orders(WZExpansion(build_psi(2, 2)), 9)
        requests = [(read, j) for read in range(3) for j in range(1, 10)]
        for seed in range(3):
            random.Random(seed).shuffle(requests)
            fresh_store.clear()
            for wz in (_expansion(build_psi(2, 2)), WZExpansion(build_psi(2, 2))):
                for read, j in requests:
                    assert (wz.beta, wz.gamma, wz.density)[read](j) == want[j - 1][read], (seed, read, j)


class TestRiccatiResidual:
    def test_solution_satisfies_the_equation(self):
        # Independent oracle: rebuild dW = O + DW - WD - WOW with honest 2x2
        # matrices of polynomials (series in 1/lambda; order j <-> lambda^-j).
        k, depth = 2, 6
        table = build_psi(k, depth)
        wz = _expansion(table)
        zero = DiffPoly.zero()

        def mat(p11, p12, p21, p22):
            return ((p11, p12), (p21, p22))

        def madd(x, y, sign=1):
            return tuple(
                tuple(a + (b if sign > 0 else -b) for a, b in zip(rx, ry))
                for rx, ry in zip(x, y)
            )

        def mmul(x, y):
            return tuple(
                tuple(
                    x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)
                )
                for i in range(2)
            )

        def series_mul(xs, ys, top):
            out = {}
            for j1, m1 in xs.items():
                for j2, m2 in ys.items():
                    if j1 + j2 > top:
                        continue
                    acc = out.get(j1 + j2)
                    out[j1 + j2] = mmul(m1, m2) if acc is None else madd(acc, mmul(m1, m2))
            return out

        diag = {m - k: mat(table.rows[m].a, zero, zero, -table.rows[m].a) for m in range(k + 1)}
        offd = {m - k: mat(zero, table.rows[m].bp, table.rows[m].cm, zero) for m in range(1, k + 1)}
        w = {j: mat(zero, wz.beta(j), wz.gamma(j), zero) for j in range(1, depth + 1)}
        dw = {j: mat(zero, wz.beta(j).derive(), wz.gamma(j).derive(), zero) for j in w}

        top = depth - k  # orders beyond this are contaminated by truncation
        residual = dict(dw)
        for j, m in offd.items():
            residual[j] = madd(residual.get(j, mat(zero, zero, zero, zero)), m, sign=-1)
        for term, sign in (
            (series_mul(diag, w, top), -1),
            (series_mul(w, diag, top), 1),
            (series_mul(series_mul(w, offd, top), w, top), 1),
        ):
            for j, m in term.items():
                residual[j] = madd(residual.get(j, mat(zero, zero, zero, zero)), m, sign=sign)
        for j in range(1 - k, top + 1):
            entries = residual.get(j, mat(zero, zero, zero, zero))
            assert all(p.is_zero() for row_ in entries for p in row_), f"order {j}"


class TestHamiltonianDensity:
    def test_k1_n0(self):
        assert hamiltonian_density(build_psi(1, 1), 0) == P("1/2*b1*c1")

    def test_nls_density(self):
        # printed with the same term twice; corrected second term c1*d2(b1)
        want = P("1/16*b1*c1'' + 1/16*c1*b1'' - 1/8*b1^2*c1^2")
        assert equal_mod_total_derivative(hamiltonian_density(build_psi(1, 1), 2), want)

    def test_cmkdv_density(self):
        want = P("1/32*c1*b1''' - 1/32*b1*c1''' + 3/32*b1^2*c1*c1' - 3/32*b1*c1^2*b1'")
        assert equal_mod_total_derivative(hamiltonian_density(build_psi(1, 1), 3), want)

    def test_dual_nls_density(self):
        want = P("1/2*b2*c2 + 1/8*c1*b1' - 1/8*b1*c1' + 1/8*b1^2*c1^2")
        assert equal_mod_total_derivative(hamiltonian_density(build_psi(2, 2), 1), want)

    def test_dual_cmkdv_density(self):
        want = P(
            "1/8*c1*b1' - 1/8*b1*c1' + 1/4*b1^2*c1*c2 + 1/4*b1*c1^2*b2"
            " + 1/2*b3*c2 + 1/2*b2*c3"
        )
        assert equal_mod_total_derivative(hamiltonian_density(build_psi(3, 3), 1), want)

    def test_gi_density(self):
        # middle line typo-corrected: 1/8 (b1^2 c2 c1' - b2 c1^2 b1')
        want = (
            P("1/16*b2*c1'' + 1/16*c2*b1'' + 1/16*c1*b2'' + 1/16*b1*c2''")
            + P("1/8*b1^2*c2*c1' - 1/8*b2*c1^2*b1'")
            + P("-1/16*b1^3*c1^2*c2 - 1/16*b1^2*b2*c1^3 - 1/4*b1*b2*c2^2 - 1/4*c1*c2*b2^2")
        )
        assert equal_mod_total_derivative(hamiltonian_density(build_psi(2, 2), 4), want)


class TestHamiltonianFlows:
    def test_nls_flow(self):
        system = flow_from_hamiltonian(build_psi(1, 1), 2)
        assert system.rhs("b", 1) == P("1/2*b1'' - b1^2*c1")
        assert system.rhs("c", 1) == P("-1/2*c1'' + c1^2*b1")

    def test_dual_nls_flow(self):
        system = flow_from_hamiltonian(build_psi(2, 2), 1)
        assert system.rhs("b", 1) == P("2*b2")
        assert system.rhs("c", 1) == P("-2*c2")
        assert system.rhs("b", 2) == P("b1' + b1^2*c1")
        assert system.rhs("c", 2) == P("c1' - c1^2*b1")

    def test_own_time_flow_is_translation(self):
        for k in (1, 2, 3):
            system = flow_from_hamiltonian(build_psi(k, k), k)
            for u in system.fields():
                assert system.evolution[u] == DiffPoly.from_var(u).derive()

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 1), (3, 1), (2, 4), (4, 2)])
    def test_flow_matches_zero_curvature(self, k, n):
        assert flow_matches_zc(build_psi(k, max(k, n) + 1), n).passed

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 3), (3, 1)])
    def test_flow_sees_only_the_density_mod_total_derivatives(self, monkeypatch, k, n):
        # The flow reads the density through the Euler operator: adding a term
        # with a nonzero variational derivative must break the match with
        # zero curvature, and adding a total derivative must not.  The table
        # owns no rows, so no shared variational gradient hides the patch.
        table = unowned(build_psi(k, max(k, n) + 1))
        for extra, passes in ((P("b1*c1'"), False), (P("b1*c1").derive(), True)):
            monkeypatch.setattr(poisson, "hamiltonian_density", lambda t, m, e=extra: hamiltonian_density(t, m) + e)
            report = flow_matches_zc(table, n)
            assert report.passed is passes, report.failures()

    def test_variations_are_shared_by_owned_tables(self):
        table = build_psi(2, 4)
        shared = _variations(table, 3)
        assert _variations(build_psi(2, 2), 3) is shared
        for other in (unowned(table), tampered(table)):
            fresh = _variations(other, 3)
            assert fresh is not shared and _variations(other, 3) is not fresh
        assert _variations(unowned(table), 3) == shared
        assert _variations(tampered(table), 3) != shared

    def test_hamiltonians_commute_k1(self):
        residual = hamiltonians_commute(build_psi(1, 1), 2, 3)
        assert equal_mod_total_derivative(residual, DiffPoly.zero())


class TestResolvent:
    def test_order_zero_and_one(self):
        report = resolvent_check(build_psi(1, 2), 1)
        assert report.passed

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_depth_six(self, k):
        assert resolvent_check(build_psi(k, 6), 6).passed

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_depth_seven(self, k):
        assert resolvent_check(build_psi(k, 7), 7).passed

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_depth_fourteen(self, k):
        assert resolvent_check(build_psi(k, 14), 14).passed

    def test_depth_guard(self):
        with pytest.raises(DepthExhausted):
            resolvent_check(build_psi(1, 2), 5)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_is_refused_by_name(self, depth):
        with pytest.raises(DepthExhausted, match=r"^resolvent_check needs depth >= 1$"):
            resolvent_check(build_psi(1, 3), depth)
