"""Acceptance suite: the eight exit criteria, each at its stated tolerance.

Every comparison here is exact (integer/rational identity of canonical term
tables); the timing bounds are the stated runtime ceilings.  Each criterion
prints one pass line (visible with `pytest -s` or in the captured output).
"""

import json
import subprocess
import sys
import time

import pytest

from laxdual.diffpoly import DiffPoly, equal_mod_total_derivative
from laxdual.fnr import build_psi, diag_consistency, lax_matrix, trace_square_check
from laxdual.loopalg import LaurentMatrix, Sl2Poly
from laxdual.poisson import (
    field_bracket_table,
    flow_matches_zc,
    hamiltonian_density,
    resolvent_check,
    sklyanin_check,
)
from laxdual.zerocurv import (
    commuting_flows_check,
    dual_equivalence,
    strong_zc_check,
    zero_curvature,
)

from conftest import P, fv


def row(a="0", b="0", c="0") -> Sl2Poly:
    return Sl2Poly(a=P(a), bp=P(b), cm=P(c))


def timed(bound_seconds):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc == (None, None, None):
                assert self.elapsed < bound_seconds, f"exceeded {bound_seconds}s bound"
            return False

    return _Timer()


def test_criterion_1_lax_matrix_regression():
    fixtures = [
        # (k, n, {lambda-exponent: row})
        (1, 1, {1: row(a="1"), 0: row(b="b1", c="c1")}),
        (1, 2, {2: row(a="1"), 1: row(b="b1", c="c1"),
                0: row(a="-1/2*b1*c1", b="1/2*b1'", c="-1/2*c1'")}),
        (2, 1, {1: row(a="1"), 0: row(b="b1", c="c1")}),
        (2, 2, {2: row(a="1"), 1: row(b="b1", c="c1"),
                0: row(a="-1/2*b1*c1", b="b2", c="c2")}),
        (2, 4, {4: row(a="1"), 3: row(b="b1", c="c1"),
                2: row(a="-1/2*b1*c1", b="b2", c="c2"),
                1: row(a="-1/2*b2*c1 - 1/2*b1*c2", b="1/2*b1'", c="-1/2*c1'"),
                0: row(a="1/4*b1*c1' - 1/4*b1'*c1 - 1/2*b2*c2 - 1/8*b1^2*c1^2",
                       b="1/2*b2' - 1/2*c2*b1^2 - 1/2*b2*c1*b1",
                       c="-1/2*c2' - 1/2*b2*c1^2 - 1/2*b1*c2*c1")}),
    ]
    for k, n, expected in fixtures:
        with timed(1.0):
            got = lax_matrix(build_psi(k, max(k, n)), n)
        assert got == LaurentMatrix(expected), f"V_{k}^({n})"
    print("ACCEPTANCE 1 (Lax-matrix regression): PASS")


def test_criterion_2_pde_regression():
    with timed(5.0):
        nls = zero_curvature(build_psi(1, 4), 2)
    assert nls.rhs("b", 1) == P("1/2*b1'' - b1^2*c1")
    assert nls.rhs("c", 1) == P("-1/2*c1'' + c1^2*b1")

    with timed(5.0):
        dual4 = zero_curvature(build_psi(2, 4), 1)
    assert dual4.rhs("b", 1) == P("2*b2")
    assert dual4.rhs("c", 1) == P("-2*c2")
    assert dual4.rhs("b", 2) == P("b1' + b1^2*c1")
    assert dual4.rhs("c", 2) == P("c1' - c1^2*b1")

    cmkdv_b = P("1/4*b1''' - 3/2*b1*c1*b1'")
    cmkdv_c = P("1/4*c1''' - 3/2*b1*c1*c1'")
    with timed(5.0):
        direct = zero_curvature(build_psi(1, 5), 3)
    assert direct.rhs("b", 1) == cmkdv_b and direct.rhs("c", 1) == cmkdv_c
    with timed(5.0):
        dual_route = dual_equivalence(1, 3)
    assert dual_route.report.passed and dual_route.route_a is direct
    # Route B's rules through the duality map: d_3 u1 = d_1 u3 + (u1' - d_1 u3).
    route_b = zero_curvature(build_psi(3, 3), 1)
    for kind, want in (("b", cmkdv_b), ("c", cmkdv_c)):
        u1, u3 = P(f"{kind}1"), P(f"{kind}3")
        got = dual_route.phi(u3).derive() + dual_route.phi(u1.derive() - route_b.rhs(kind, 3))
        assert got == want

    with timed(5.0):
        gi = zero_curvature(build_psi(2, 6), 4)
    assert gi.rhs("b", 1) == P(
        "1/2*b1'' - b2^2*c1 - 2*b2*c2*b1 + 1/2*b1^2*c1' - 1/4*b1^3*c1^2"
    )
    assert gi.rhs("c", 1) == P(
        "-1/2*c1'' + c2^2*b1 + 2*c2*b2*c1 + 1/2*c1^2*b1' + 1/4*c1^3*b1^2"
    )
    assert gi.rhs("b", 2) == P(
        "1/2*b2'' - b2^2*c2 - b1*c2*b1' - b2*c1*b1' - 1/2*b1^2*c2'"
        " - 3/4*b1^2*c1^2*b2 - 1/2*b1^3*c1*c2"
    )
    assert gi.rhs("c", 2) == P(
        "-1/2*c2'' + c2^2*b2 - b1*c2*c1' - b2*c1*c1' - 1/2*c1^2*b2'"
        " + 3/4*b1^2*c1^2*c2 + 1/2*c1^3*b1*b2"
    )
    print("ACCEPTANCE 2 (PDE regression): PASS")


def test_criterion_3_bracket_regression():
    def value(k, u, v):
        return field_bracket_table(build_psi(k, k)).pair(u, v)

    assert value(1, fv("b", 1), fv("c", 1)) == DiffPoly.const(4)

    assert value(2, fv("b", 1), fv("c", 2)) == DiffPoly.const(4)
    assert value(2, fv("c", 1), fv("b", 2)) == DiffPoly.const(-4)

    assert value(3, fv("b", 3), fv("c", 3)) == P("-2*b1*c1")
    assert value(3, fv("b", 3), fv("c", 1)) == DiffPoly.const(4)
    assert value(3, fv("b", 1), fv("c", 3)) == DiffPoly.const(4)
    assert value(3, fv("b", 2), fv("c", 2)) == DiffPoly.const(4)

    listed = {
        1: {("b1", "c1")},
        2: {("b1", "c2"), ("c1", "b2")},
        3: {("b3", "c3"), ("b3", "c1"), ("b1", "c3"), ("b2", "c2")},
    }
    for k, pairs in listed.items():
        brackets = field_bracket_table(build_psi(k, k))
        for u in brackets.fields:
            for v in brackets.fields:
                name = (f"{u.kind}{u.index}", f"{v.kind}{v.index}")
                if name in pairs or tuple(reversed(name)) in pairs:
                    continue
                assert brackets.pair(u, v).is_zero(), (k, name)
    print("ACCEPTANCE 3 (bracket regression): PASS")


def test_criterion_4_sklyanin():
    for k in (1, 2, 3):
        report = sklyanin_check(build_psi(k, k))
        assert report.passed, report.failures()
    with timed(60.0):
        report = sklyanin_check(build_psi(4, 4))
    assert report.passed, report.failures()
    print("ACCEPTANCE 4 (Sklyanin r-matrix, k <= 4): PASS")


def test_criterion_5_duality():
    for n, k in ((1, 2), (1, 3), (2, 4), (2, 3), (3, 4)):
        with timed(60.0):
            result = dual_equivalence(n, k)
        assert result.report.passed, (n, k, result.report.failures())
    print("ACCEPTANCE 5 (dual-formulation equivalence): PASS")


def test_criterion_6_hamiltonians():
    nls = P("1/16*b1*c1'' + 1/16*c1*b1'' - 1/8*b1^2*c1^2")  # typo-corrected
    assert equal_mod_total_derivative(hamiltonian_density(build_psi(1, 1), 2), nls)

    cmkdv = P("1/32*c1*b1''' - 1/32*b1*c1''' + 3/32*b1^2*c1*c1' - 3/32*b1*c1^2*b1'")
    assert equal_mod_total_derivative(hamiltonian_density(build_psi(1, 1), 3), cmkdv)

    dual_nls = P("1/2*b2*c2 + 1/8*c1*b1' - 1/8*b1*c1' + 1/8*b1^2*c1^2")
    assert equal_mod_total_derivative(hamiltonian_density(build_psi(2, 2), 1), dual_nls)

    dual_cmkdv = P(
        "1/8*c1*b1' - 1/8*b1*c1' + 1/4*b1^2*c1*c2 + 1/4*b1*c1^2*b2 + 1/2*b3*c2 + 1/2*b2*c3"
    )
    assert equal_mod_total_derivative(hamiltonian_density(build_psi(3, 3), 1), dual_cmkdv)

    gi = (  # middle line typo-corrected to 1/8 (b1^2 c2 c1' - b2 c1^2 b1')
        P("1/16*b2*c1'' + 1/16*c2*b1'' + 1/16*c1*b2'' + 1/16*b1*c2''")
        + P("1/8*b1^2*c2*c1' - 1/8*b2*c1^2*b1'")
        + P("-1/16*b1^3*c1^2*c2 - 1/16*b1^2*b2*c1^3 - 1/4*b1*b2*c2^2 - 1/4*c1*c2*b2^2")
    )
    assert equal_mod_total_derivative(hamiltonian_density(build_psi(2, 2), 4), gi)

    for k, n in ((1, 2), (1, 3), (2, 1), (3, 1), (2, 4), (4, 2)):
        report = flow_matches_zc(build_psi(k, max(k, n) + 1), n)
        assert report.passed, (k, n, report.failures())
    print("ACCEPTANCE 6 (Hamiltonians and flows): PASS")


def test_criterion_7_property_suites():
    # ring/Leibniz/Euler/Jacobi/projector identities live in the per-module
    # suites (test_diffpoly, test_loopalg, test_poisson); this criterion pins
    # the large-scale structural identities at their stated ranges.
    with timed(300.0):
        for k in range(1, 7):
            table = build_psi(k, 14)
            assert trace_square_check(table).passed, k
            assert diag_consistency(table).passed, k
        for k in (1, 2, 3):
            table = build_psi(k, 6)
            for n in range(1, 6):
                for m in range(n, 6):
                    assert strong_zc_check(table, n, m).passed, (k, n, m)
        for k in (1, 2, 3):
            assert resolvent_check(build_psi(k, 6), 6).passed, k
        for k in (1, 2, 3, 4):
            assert field_bracket_table(build_psi(k, k)).jacobi_check().passed, k
        assert commuting_flows_check(build_psi(1, 6), 2, 3).passed
    print("ACCEPTANCE 7 (property suites at scale): PASS")


def test_criterion_8_determinism():
    commands = [
        ["psi", "--k", "2", "--depth", "5", "--format", "json"],
        ["derive", "--k", "2", "--n", "4", "--format", "json"],
        ["derive", "--k", "1", "--n", "3", "--format", "latex"],
        ["hamiltonian", "--k", "2", "--n", "4", "--format", "text"],
        ["verify", "sklyanin", "--k", "3", "--format", "json"],
        ["verify", "duality", "--n", "1", "--k", "2", "--format", "json"],
    ]
    for command in commands:
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "laxdual.cli", *command],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1], command
    print("ACCEPTANCE 8 (byte determinism): PASS")
