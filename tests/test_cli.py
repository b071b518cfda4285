"""Command-line behaviour: formats, exit codes, determinism, substitutions."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from laxdual import cli
from laxdual.cli import main
from laxdual.diffpoly import DiffPoly, parse_fieldvar
from laxdual.fnr import build_psi, lax_matrix
from laxdual.poisson import flow_matches_zc, hamiltonian_density, sklyanin_check
from laxdual.report import CheckReport
from laxdual.zerocurv import zero_curvature

from conftest import P, digest, run_process, tampered


def run_cli(*argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDerive:
    def test_nls_text(self):
        code, out, _ = run_cli("derive", "--k", "1", "--n", "2")
        assert code == 0
        assert out == "d2(b1) = -b1^2*c1 + 1/2*b1''\nd2(c1) = b1*c1^2 - 1/2*c1''\n"

    def test_json_roundtrip(self):
        code, out, _ = run_cli("derive", "--k", "2", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2 and payload["n"] == 1
        rules = {e["field"]: DiffPoly.from_json(e["rhs"]) for e in payload["evolution"]}
        assert rules["b1"] == P("2*b2")
        assert rules["c2"] == P("c1' - b1*c1^2")

    def test_latex(self):
        code, out, _ = run_cli("derive", "--k", "1", "--n", "2", "--format", "latex")
        assert code == 0
        assert r"\partial_{t_{2}} b_{1}" in out

    def test_substitution_file(self, tmp_path):
        sub = tmp_path / "reduce.sub"
        sub.write_text("c1 = e*b1s\n", encoding="utf-8")
        code, out, _ = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 0
        assert "d2(b1) = -b1^2*b1s*e + 1/2*b1''" in out
        assert "d2(b1s*e) = " in out

    @pytest.mark.parametrize(
        "style, want",
        [
            (
                "evolution",
                r"\partial_{t_{2}} \left( 2 b_{1} \right) = -4 {b_{1}}^{2} c_{1} + b_{1}'' \\" "\n"
                r"\partial_{t_{2}} c_{1} = 2 b_{1} {c_{1}}^{2} - \frac{1}{2} c_{1}''" "\n",
            ),
            (
                "zero",
                r"\partial_{t_{2}} \left( 2 b_{1} \right) - \left( -4 {b_{1}}^{2} c_{1} + b_{1}'' \right) = 0 \\"
                "\n"
                r"\partial_{t_{2}} c_{1} - \left( 2 b_{1} {c_{1}}^{2} - \frac{1}{2} c_{1}'' \right) = 0" "\n",
            ),
        ],
        ids=["evolution", "zero"],
    )
    def test_latex_substitutes_the_left_side(self, tmp_path, style, want):
        sub = tmp_path / "double.sub"
        sub.write_text("b1 = 2*b1\n", encoding="utf-8")
        argv = ("derive", "--k", "1", "--n", "2", "--sub", str(sub), "--style", style)
        code, out, _ = run_cli(*argv, "--format", "latex")
        assert (code, out) == (0, want)
        # the text form already wrote the substituted left side
        assert run_cli(*argv)[1].startswith("d2(2*b1) ")

    def test_zero_style_of_a_vanishing_side(self, tmp_path):
        # A right side that vanished used to leave two spaces before "= 0" in
        # text, and "- \left( 0 \right)" in LaTeX.
        sub = tmp_path / "zero.sub"
        sub.write_text("c1 = 0\n", encoding="utf-8")
        argv = ("derive", "--k", "1", "--n", "2", "--style", "zero", "--sub", str(sub))
        code, out, _ = run_cli(*argv)
        assert (code, out) == (0, "d2(b1) - 1/2*b1'' = 0\nd2(0) = 0\n")
        code, out, _ = run_cli(*argv, "--format", "latex")
        assert code == 0 and out.splitlines() == [
            r"\partial_{t_{2}} b_{1} - \left( \frac{1}{2} b_{1}'' \right) = 0 \\",
            r"\partial_{t_{2}} \left( 0 \right) = 0",
        ]

    def test_substitution_targets_the_fields_of_its_k(self, tmp_path):
        # b2 is a field at k = 2 only.  A rule no polynomial of the system can
        # meet used to print the system unsubstituted and exit 0.
        sub = tmp_path / "b2.sub"
        sub.write_text("b2 = c1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "2", "--n", "1", "--sub", str(sub))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "d1(b1) = 2*c1"
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert (code, out) == (2, "")
        assert err == f"error: {sub}:1: substitution target 'b2' is not a field of the system: b1, c1\n"

    @pytest.mark.parametrize(
        "k, rule, error",
        [
            ("1", "b1 = 1/0*c1", "zero denominator in '1/0'"),
            ("2", "b3 = c1", "substitution target 'b3' is not a field of the system: b1, b2, c1, c2"),
        ],
    )
    def test_substitution_file_is_read_before_the_system_is_derived(self, tmp_path, monkeypatch, k, rule, error):
        # A bad rule used to be refused only after the whole derivation.
        sub = tmp_path / "bad.sub"
        sub.write_text(rule + "\n", encoding="utf-8")

        def derive_nothing(*args):
            raise AssertionError("the system was derived before the rules were read")

        monkeypatch.setattr(cli, "zero_curvature", derive_nothing)
        code, out, err = run_cli("derive", "--k", k, "--n", "20", "--sub", str(sub))
        assert (code, out) == (2, "")
        assert err == f"error: {sub}:1: {error}\n"

    def test_substitution_needs_explicit_star(self, tmp_path):
        sub = tmp_path / "implicit.sub"
        sub.write_text("b1 = 2 3 c1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert f"{sub}:1:" in err

    def test_substitution_rejects_parentheses(self, tmp_path):
        sub = tmp_path / "paren.sub"
        sub.write_text("# grouping is not part of the grammar\nc1 = 2*(b1)\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert f"{sub}:2:" in err

    def test_substitution_rejects_a_number_past_the_int_string_limit(self, tmp_path, default_int_digit_limit):
        sub = tmp_path / "long.sub"
        sub.write_text("c1 = " + "7" * 5000 + "*b1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert err == f"error: {sub}:1: a number of 5000 digits is past the int-string limit\n"

    def test_output_past_the_int_string_limit_is_one_named_error(self, tmp_path, default_int_digit_limit):
        # 2200 digits parse, but the square the flow takes of them does not print.
        sub = tmp_path / "grows.sub"
        sub.write_text("b1 = " + "7" * 2200 + "*b1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert err == "error: ValueError: the coefficient <an integer of 14616 bits> is past the int-string limit\n"

    def test_substitution_rejects_repeated_target(self, tmp_path):
        sub = tmp_path / "twice.sub"
        sub.write_text("b1 = c1\n# the second rule for b1 used to win silently\nb1 = 2*c1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub))
        assert code == 2 and out == ""
        assert f"{sub}:3:" in err and "'b1'" in err

    def test_usage_error_on_bad_k(self):
        code, _, err = run_cli("derive", "--k", "0", "--n", "2")
        assert code == 2

    def test_missing_required_flag(self):
        code, _, _ = run_cli("derive", "--k", "1")
        assert code == 2


class TestPsi:
    def test_text_header(self):
        code, out, _ = run_cli("psi", "--k", "1", "--depth", "2")
        assert code == 0
        assert out.splitlines()[0] == "# psi table: k=1 depth=2"
        assert "j=2: a = -1/2*b1*c1 | b = 1/2*b1' | c = -1/2*c1'" in out

    def test_json_rows_match_engine(self):
        code, out, _ = run_cli("psi", "--k", "2", "--depth", "4", "--format", "json")
        payload = json.loads(out)
        table = build_psi(2, 4)
        assert payload["depth"] == 4
        for row in payload["rows"]:
            j = row["j"]
            assert DiffPoly.from_json(row["a"]) == table.rows[j].a
            assert DiffPoly.from_json(row["b"]) == table.rows[j].bp
            assert DiffPoly.from_json(row["c"]) == table.rows[j].cm

    def test_lax_matrix_latex(self):
        code, out, _ = run_cli("psi", "--k", "1", "--lax", "1", "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{pmatrix}")
        assert "\\lambda" in out and "b_{1}" in out

    def test_lax_order_zero_is_sigma3(self):
        assert run_cli("psi", "--k", "2", "--lax", "0") == (0, "lambda^0: a = 1 | b = 0 | c = 0\n", "")

    def test_negative_lax_is_a_usage_error(self):
        code, out, err = run_cli("psi", "--k", "1", "--lax", "-1")
        assert (code, out) == (2, "")
        assert "--lax" in err and "lax must be >= 0" in err
        assert "ValueError" not in err

    def test_default_depth(self):
        code, out, _ = run_cli("psi", "--k", "2")
        assert code == 0
        assert "depth=4" in out.splitlines()[0]

    def test_lax_json_shape(self):
        data = json.loads(run_cli("psi", "--k", "1", "--lax", "1", "--format", "json")[1])
        assert data["depth"] is None
        assert list(data["coeffs"]) == ["1", "0"]
        assert data["coeffs"]["1"] == {"a": P("1").to_json(), "bp": [], "cm": []}
        assert data["coeffs"]["0"] == {"a": [], "bp": P("b1").to_json(), "cm": P("c1").to_json()}

    def test_lax_ignores_depth(self):
        # V_1^(6) needs rows 0..6, beyond the default depth k + 2
        plain = run_cli("psi", "--k", "1", "--lax", "6")
        assert plain[0] == 0
        assert plain == run_cli("psi", "--k", "1", "--lax", "6", "--depth", "8")


class TestHamiltonian:
    def test_text(self):
        code, out, _ = run_cli("hamiltonian", "--k", "1", "--n", "2")
        assert code == 0
        assert out.strip() == "density(k=1, n=2) = 1/16*b1*c1'' - 1/8*b1^2*c1^2 + 1/16*b1''*c1"

    def test_json_matches_engine(self):
        code, out, _ = run_cli("hamiltonian", "--k", "2", "--n", "1", "--format", "json")
        payload = json.loads(out)
        assert DiffPoly.from_json(payload["density"]) == hamiltonian_density(build_psi(2, 5), 1)

    def test_rejects_depth(self):
        code, _, err = run_cli("hamiltonian", "--k", "1", "--n", "2", "--depth", "5")
        assert code == 2
        assert "--depth" in err


# SHA-256 of stdout in (text, latex).  Every V_k^(N) holds sigma3 at lambda^N,
# which LaTeX writes as a bare \lambda^{N} and -\lambda^{N}.
LAYOUT_DIGESTS = {
    "psi --k 1": (
        "d8397a0d6431175f10ee3470830f83c788f492b29b03e5eb4867001bbc051ca6",
        "97618d9cf1cf4e2a2fb217a1973ba87a8ba23c86fc5e55933a36aebfa7d8be49",
    ),
    "psi --k 2": (
        "ff713067b615546b39608b0ff817e64a20d9a909c44379d5c3d2c764ae28e9b6",
        "859c6485c783e8a947609f9dfc2cf8f8d846f48719a8458fbcb0f64cddba4dd0",
    ),
    "psi --k 3": (
        "7f7427d53c5465536aa3b32c09f4952cc707a5674e7ec2f8b4a98a0624b20672",
        "0f9a17a95a6945838eae316862d1a4de048ea53ddc3f29c7ffc8505673766c72",
    ),
    "psi --k 2 --lax 3": (
        "1ca57024ab2be1a0f730864817a1f4b910fa123468c72e7c9a3ffe05b8e749bd",
        "0f08f5cd2f1bdc5882b87a0e6f87cbb25a52efbc05c31ef79e3e4d621e752dfd",
    ),
    "psi --k 2 --lax 4": (
        "4baafa89bb9ecc72ac8a41773e2995ee8644c2888b0be7a0c8c97d7948112479",
        "d547844771262507e5444dd24fbc71d0ff3ae72745729b7291d43a9d369c425a",
    ),
    "psi --k 3 --lax 3": (
        "7bd64ae36e000a11b9449a48825296f53854259c9a473fb9ea8443f7ecedace4",
        "18c98fc18cdfbaff3f32da5b90bf0089b608d774a198fcbbb241cf685cf1f341",
    ),
    "psi --k 3 --lax 4": (
        "d63e5f38b0436ada46b503bba197ae92e39e3e4d3827f248967c8ce354e0df9e",
        "4dfecf253c05044c1c2f485541011eae1cc4a8834b0c6ab7c3c950beae03b24a",
    ),
    "hamiltonian --k 1 --n 2": (
        "372692937aa84aaa245448e55538447d813a2a65f654473d6fdd4ff64ec07b9f",
        "2d746a2992d9b12411c237fe3a46ccc8179e750c6999a39d5e9d8418de5c2fa6",
    ),
    "hamiltonian --k 2 --n 3": (
        "1ccea97726fc1a8fa19e55b234be926cd11fed554cf67b82b3823b7662092094",
        "fb6e574180430b7b51b58953ffc1cde39de0e4dee36617beda2ef64a32f40bfe",
    ),
    "hamiltonian --k 3 --n 1": (
        "03def2f4a1ff1f3ea52d122233f34d3c4d15d0da8363c5d3c703347cb7edd926",
        "3af26df13c916b7847450060aa503e3d4fdc7219cb8630ce7fbe8fd7c3ce2116",
    ),
}


@pytest.mark.parametrize("argv", LAYOUT_DIGESTS)
def test_layout_is_pinned(argv):
    outs = [run_cli(*argv.split(), "--format", fmt) for fmt in ("text", "latex")]
    assert [(code, err) for code, _, err in outs] == [(0, ""), (0, "")]
    assert tuple(digest(out) for _, out, _ in outs) == LAYOUT_DIGESTS[argv]


class TestVerify:
    def test_sklyanin_pass(self):
        code, out, _ = run_cli("verify", "sklyanin", "--k", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["items"]) == 16

    def test_sklyanin_rejects_depth(self):
        code, _, err = run_cli("verify", "sklyanin", "--k", "2", "--depth", "5")
        assert code == 2
        assert "--depth" in err

    def test_duality_pass(self):
        code, out, _ = run_cli("verify", "duality", "--n", "1", "--k", "2")
        assert code == 0

    def test_flow_pass(self):
        code, out, _ = run_cli("verify", "flow", "--k", "1", "--n", "2", "--format", "text")
        assert code == 0
        assert out.startswith("flow_matches_zc")

    # SHA-256 of stdout (text, json) for each check on tampered tables.
    @pytest.mark.parametrize(
        "argv, name, keys, digests",
        [
            (
                ("sklyanin", "--k", "2"),
                "sklyanin(k=2)",
                ["k"],
                (
                    "e86c9ffaf1843620731108c78a53f83282bc37af47e26740debe7691e27d89b6",
                    "3a20cd8ac442b1b38dbf6b5a85b80c91fb4d84061bb0edbca7be12af26b34eb9",
                ),
            ),
            (
                ("flow", "--k", "2", "--n", "2"),
                "flow_matches_zc(k=2, n=2)",
                ["k", "n"],
                (
                    "bad6843cdb31c991c205f686128a1ce91fb1e375dbdbab567ce14cf416f6d9a5",
                    "64544423d86c297158e59a4ff17506fa05122267c9beaacfe41b0f0b0d07a829",
                ),
            ),
        ],
        ids=["sklyanin", "flow"],
    )
    def test_tampered_table_fails_with_exit_1(self, monkeypatch, argv, name, keys, digests):
        # The check looks cli.build_psi up when it runs, so it checks the tampered table.
        build = cli.build_psi
        monkeypatch.setattr(cli, "build_psi", lambda k, depth: tampered(build(k, depth)))
        code, text, err = run_cli("verify", *argv, "--format", "text")
        assert (code, err) == (1, "")
        header, *items = text.splitlines()
        assert header == f"{name}: FAIL"
        failed = [line for line in items if line.startswith("  [FAIL] ")]
        assert failed and all("  residual: " in line for line in failed)
        assert all(line.startswith("  [ok  ] ") for line in items if line not in failed)
        code, out, err = run_cli("verify", *argv, "--format", "json")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert list(payload) == ["check", "passed", "items", *keys]
        assert (payload["check"], payload["passed"]) == (name, False)
        assert (digest(text), digest(out)) == digests


# The payloads the CLI wrote with json.dumps(payload, indent=2), each
# polynomial as its to_json list: the reference for the CLI's own writer.


def psi_payload(k, depth):
    rows = build_psi(k, depth).rows
    return {
        "k": k,
        "depth": depth,
        "rows": [
            {"j": j, "a": rows[j].a.to_json(), "b": rows[j].bp.to_json(), "c": rows[j].cm.to_json()}
            for j in range(depth + 1)
        ],
    }


def lax_payload(k, order):
    x = lax_matrix(build_psi(k, max(k, order)), order)
    coeffs = {
        str(e): {"a": x.coeffs[e].a.to_json(), "bp": x.coeffs[e].bp.to_json(), "cm": x.coeffs[e].cm.to_json()}
        for e in sorted(x.coeffs, reverse=True)
    }
    return {"depth": None if x.floor is None else -x.floor, "coeffs": coeffs}


def derive_payload(k, n, rules=""):
    subs = {}
    for line in rules.splitlines():
        lhs, _, rhs = line.partition("=")
        subs[parse_fieldvar(lhs.strip())] = P(rhs.strip())
    system = zero_curvature(build_psi(k, max(k, n)), n)
    evolution = [
        {"field": str(u), "rhs": system.evolution[u].substitute(subs).to_json()} for u in sorted(system.evolution)
    ]
    return {"k": k, "n": n, "evolution": evolution, "auxiliary": []}


def dumped(payload):
    return json.dumps(payload, indent=2) + "\n"


# Rules that bring the constant symbol e and the placeholder field b1s in.
SUB_RULES = "c1 = -3/4*e*b1s\nb1 = 2*b1s' - 1/3*e^2*b1\n"


class TestJson:
    """Every JSON payload is json.dumps(payload, indent=2) byte for byte."""

    @pytest.mark.parametrize("depth", [None, 12], ids=["default", "12"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_psi(self, k, depth):
        flags = () if depth is None else ("--depth", str(depth))
        want = dumped(psi_payload(k, k + 2 if depth is None else depth))
        assert run_cli("psi", "--k", str(k), *flags, "--format", "json") == (0, want, "")

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_psi_lax(self, k):
        want = dumped(lax_payload(k, k + 1))
        assert run_cli("psi", "--k", str(k), "--lax", str(k + 1), "--format", "json") == (0, want, "")

    @pytest.mark.parametrize("k, n", [(1, 2), (2, 4), (3, 1)])
    @pytest.mark.parametrize("rules", ["", SUB_RULES], ids=["plain", "sub"])
    def test_derive(self, tmp_path, k, n, rules):
        flags = ()
        want = dumped(derive_payload(k, n, rules))
        if rules:
            sub = tmp_path / "rules.sub"
            sub.write_text(rules, encoding="utf-8")
            flags = ("--sub", str(sub))
            assert '"b1s"' in want and '"e"' in want
        assert run_cli("derive", "--k", str(k), "--n", str(n), *flags, "--format", "json") == (0, want, "")

    @pytest.mark.parametrize("k, n", [(1, 2), (2, 3), (3, 1)])
    def test_hamiltonian(self, k, n):
        want = dumped({"k": k, "n": n, "density": hamiltonian_density(build_psi(k, k), n).to_json()})
        assert run_cli("hamiltonian", "--k", str(k), "--n", str(n), "--format", "json") == (0, want, "")

    @pytest.mark.parametrize("tamper", [False, True], ids=["pass", "fail"])
    @pytest.mark.parametrize(
        "argv, keys, check",
        [
            (("sklyanin", "--k", "2"), {"k": 2}, lambda build, dual: sklyanin_check(build(2, 2))),
            (("duality", "--n", "1", "--k", "3"), {"n": 1, "k": 3}, lambda build, dual: dual(1, 3).report),
            (("flow", "--k", "2", "--n", "2"), {"k": 2, "n": 2}, lambda build, dual: flow_matches_zc(build(2, 2), 2)),
        ],
        ids=["sklyanin", "duality", "flow"],
    )
    def test_verify(self, monkeypatch, argv, keys, check, tamper):
        if tamper:
            build, dual = cli.build_psi, cli.dual_equivalence
            monkeypatch.setattr(cli, "build_psi", lambda k, depth: tampered(build(k, depth)))

            # dual_equivalence builds its own tables: its report gains a failing
            # item whose label and residual need escaping.
            def failing_dual(n, k):
                report = dual(n, k).report
                report = CheckReport(report.name, list(report.items))
                report.add('tampered "\\" \u03bb\x7f\U0001d53b', False, "b1*c1\u2028")
                return SimpleNamespace(report=report)

            monkeypatch.setattr(cli, "dual_equivalence", failing_dual)
        report = check(cli.build_psi, cli.dual_equivalence)
        assert report.passed is not tamper
        want = dumped({**report.to_json(), **keys})
        assert run_cli("verify", *argv, "--format", "json") == (1 if tamper else 0, want, "")

    def test_out_file(self, tmp_path):
        target = tmp_path / "lax.json"
        assert run_cli("psi", "--k", "2", "--lax", "2", "--format", "json", "--out", str(target)) == (0, "", "")
        assert target.read_text(encoding="utf-8") == dumped(lax_payload(2, 2))

    def test_coefficient_past_the_int_string_limit(self, tmp_path, default_int_digit_limit):
        # As in text: the square the flow takes of 2200 digits does not print.
        sub = tmp_path / "grows.sub"
        sub.write_text("b1 = " + "7" * 2200 + "*b1\n", encoding="utf-8")
        code, out, err = run_cli("derive", "--k", "1", "--n", "2", "--sub", str(sub), "--format", "json")
        assert code == 2 and out == ""
        assert err == "error: ValueError: the coefficient <an integer of 14616 bits> is past the int-string limit\n"

    def test_escapes_as_json(self):
        # Every character of the BMP, surrogates included, and astral ones across their range.
        text = "".join(map(chr, [*range(0x10000), *range(0x10000, 0x110000, 97), 0x10FFFF]))
        assert cli._quoted(text) == json.encoder.encode_basestring_ascii(text)

    @pytest.mark.parametrize(
        "payload",
        [1.5, (1, 2), {1, 2}, {1: "a"}, {None: 1}, {"a": [0.5]}, [{"b": (1,)}], {"c": {True: 1}}],
        ids=["float", "tuple", "set", "int-key", "none-key", "nested-float", "nested-tuple", "bool-key"],
    )
    def test_types_the_cli_never_builds_raise(self, payload):
        with pytest.raises(TypeError):
            cli._json_text(payload)


class TestPlumbing:
    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "laxdual.cfg"
        cfg.write_text("k=1\nn=2\n", encoding="utf-8")
        code, out, _ = run_cli("--config", str(cfg), "derive")
        assert code == 0
        assert "d2(b1)" in out
        # flags still win over config values
        code, out, _ = run_cli("--config", str(cfg), "derive", "--n", "3")
        assert code == 0
        assert "d3(b1)" in out

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("n=3\n", ("psi", "--k", "2")),
            ("depth=7\n", ("hamiltonian", "--k", "1", "--n", "2")),
            ("depth=7\n", ("verify", "sklyanin", "--k", "2")),
            ("depth=7\n", ("derive", "--k", "2", "--n", "4")),
            ("depth=7\n", ("verify", "duality", "--n", "1", "--k", "3")),
            ("depth=7\n", ("verify", "flow", "--k", "1", "--n", "3")),
        ],
    )
    def test_config_keys_of_other_subcommands_are_ignored(self, tmp_path, text, argv):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("--config", str(cfg), *argv) == run_cli(*argv)
        assert run_cli(*argv)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("derive", "--k", "2", "--n", "4"),
            ("verify", "duality", "--n", "1", "--k", "3"),
            ("verify", "flow", "--k", "1", "--n", "3"),
        ],
        ids=["derive", "duality", "flow"],
    )
    def test_only_psi_takes_depth(self, argv):
        code, out, err = run_cli(*argv, "--depth", "5")
        assert code == 2 and out == ""
        assert "--depth" in err

    def test_tables_end_at_the_rows_read(self, fresh_store):
        # both read rows 0..max(k, n) = 4 of each table they build
        assert run_cli("derive", "--k", "2", "--n", "4")[0] == 0
        assert run_cli("verify", "duality", "--n", "2", "--k", "4")[0] == 0
        assert {k: len(store.rows) for k, store in fresh_store.items()} == {2: 5, 4: 5}

    def test_config_rejects_repeated_key(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("depth=3\nk=1\ndepth = 4\n", encoding="utf-8")
        code, out, err = run_cli("--config", str(cfg), "psi")
        assert code == 2 and out == ""
        assert f"{cfg}:3:" in err and "'depth'" in err

    def test_full_flag_beats_config_default(self, tmp_path):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("depth=5\n", encoding="utf-8")
        code, out, _ = run_cli("--config", str(cfg), "psi", "--k", "1", "--depth", "2")
        assert code == 0 and out.startswith("# psi table: k=1 depth=2\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("psi", "--k", "1", "--dep", "2"),
            ("psi", "--k", "1", "--depth=2", "--form", "json"),
            ("verify", "flow", "--k", "1", "--n", "2", "--form", "text"),
            ("--conf", "CFG", "psi", "--k", "1"),
        ],
        ids=["dep", "form", "verify-form", "conf"],
    )
    def test_abbreviated_flag_is_a_usage_error(self, tmp_path, argv):
        # With prefixes allowed, "--dep 2" escaped the config merge, which
        # appended "--depth 5" after it, and the config default won.
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("depth=5\n", encoding="utf-8")
        argv = [str(cfg) if a == "CFG" else a for a in argv]
        for prefix in ([], ["--config", str(cfg)]):
            code, out, err = run_cli(*prefix, *argv)
            assert code == 2 and out == ""
            assert "unrecognized arguments" in err or "invalid choice" in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("psi", "--k", "x"), "argument --k: k must be an integer"),
            (("psi", "--k", "1", "--lax", "-1"), "argument --lax: lax must be >= 0"),
            (
                ("verify", "flow", "--k", "1", "--n", "2", "--format", "latex"),
                "argument --format: invalid choice: 'latex' (choose from 'json', 'text')",
            ),
            (
                ("--config", "{latex}", "verify", "sklyanin", "--k", "1"),
                "argument --format: invalid choice: 'latex' (choose from 'json', 'text')",
            ),
            (("psi", "--k", "1", "--dep", "2"), "unrecognized arguments: --dep 2"),
            (("derive", "--k", "1"), "the following arguments are required: --n"),
            (("derive",), "the following arguments are required: --k, --n"),
            (("psi", "--k", "1", "--out"), "argument --out: expected one argument"),
            (("psi", "--k", "--depth", "2"), "argument --k: expected one argument"),
            (
                ("frobnicate", "--k", "1"),
                "argument command: invalid choice: 'frobnicate' (choose from 'psi', 'derive', 'hamiltonian', 'verify')",
            ),
            ((), "the following arguments are required: command"),
            (("verify", "--k", "1"), "argument check: invalid choice: '--k' (choose from 'sklyanin', 'duality', 'flow')"),
            (("psi", "--k", "1", "--k", "2", "--depth", "2"), "argument --k: given more than once"),
            (("psi", "--k", "1", "--format", "json", "--format=text"), "argument --format: given more than once"),
            (("derive", "--k", "1", "--n", "2", "--sub", ""), "argument --sub: needs a path"),
            (("derive", "--k", "1", "--n", "2", "--sub="), "argument --sub: needs a path"),
            (("--config", "{sub}", "derive", "--k", "1", "--n", "2"), "argument --sub: needs a path"),
            (("psi", "--k", "1", "--out", ""), "argument --out: needs a path"),
            (("psi", "--k", "1", "--out="), "argument --out: needs a path"),
            (("--config", "{out}", "psi", "--k", "1"), "argument --out: needs a path"),
            (("psi", "--k", "1_0"), "argument --k: k must be an integer"),
            (("psi", "--k", "+1"), "argument --k: k must be an integer"),
            (("psi", "--k", "1", "--depth", " 10"), "argument --depth: depth must be an integer"),
            (("psi", "--k", "\u0662"), "argument --k: k must be an integer"),
            (("psi", "--k", "-"), "argument --k: k must be an integer"),
        ],
        ids=[
            "int", "floor", "choice", "config-choice", "unknown-flag", "missing-flag", "missing-flags",
            "no-value-last", "no-value-before-flag", "unknown-command", "missing-command", "unknown-check",
            "repeated-flag", "repeated-flag-equals", "empty-sub", "empty-sub-equals", "empty-sub-config",
            "empty-out", "empty-out-equals", "empty-out-config", "underscore-int", "plus-int",
            "spaced-int", "non-ascii-int", "bare-minus",
        ],
    )
    def test_usage_error_is_one_error_line(self, tmp_path, argv, error):
        # A flag given twice used to let the last value win silently; an empty
        # --sub used to leave the system unsubstituted, and an empty --out to
        # print to stdout.
        paths = {}
        for name, text in (("latex", "format=latex\n"), ("sub", "sub =\n"), ("out", "out =\n")):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(text, encoding="utf-8")
        code, out, err = run_cli(*(a.format(**paths) for a in argv))
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: " + error]

    @pytest.mark.parametrize(
        "argv, names",
        [
            (
                ("--help",),
                ("psi", "derive", "hamiltonian", "verify", "sklyanin", "duality", "flow", "--config",
                 "--k", "--n", "--format", "--out", "--depth", "--lax", "--sub", "--style"),
            ),
            (("psi", "--help"), ("psi", "--config", "--k", "--format", "--out", "--depth", "--lax")),
            (("verify", "flow", "-h"), ("verify", "flow", "--config", "--k", "--n", "--format", "--out")),
        ],
        ids=["top", "psi", "verify-flow"],
    )
    def test_help(self, argv, names):
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: laxdual ")
        words = {word.strip("[]") for word in out.split()}
        assert set(names) <= words
        # and no flag that the chosen command does not take
        assert {w for w in words if w.startswith("--")} == {n for n in names if n.startswith("--")}

    def test_config_key_no_subcommand_defines(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("k=1\ndepht=7\n", encoding="utf-8")
        code, out, err = run_cli("--config", str(cfg), "psi")
        assert code == 2 and out == ""
        assert str(cfg) in err and "'depht'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "sklyanin", "--k", "1"),
            ("verify", "duality", "--n", "1", "--k", "2"),
            ("verify", "flow", "--k", "1", "--n", "2"),
        ],
        ids=["sklyanin", "duality", "flow"],
    )
    def test_verify_has_no_latex_format(self, tmp_path, argv):
        # verify used to print its JSON report under --format latex and exit 0.
        cfg = tmp_path / "latex.cfg"
        cfg.write_text("format=latex\n", encoding="utf-8")
        for full in ([*argv, "--format", "latex"], ["--config", str(cfg), *argv]):
            code, out, err = run_cli(*full)
            assert code == 2 and out == ""
            assert "invalid choice: 'latex'" in err

    def test_config_equals_form(self, tmp_path):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("depth=5\n", encoding="utf-8")
        want = run_cli("--config", str(cfg), "psi", "--k", "1")
        assert want[1].startswith("# psi table: k=1 depth=5\n")
        assert run_cli(f"--config={cfg}", "psi", "--k", "1") == want
        assert run_cli("psi", "--k", "1", f"--config={cfg}") == want

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("--config", "{cfg}", "--config", "{cfg}", "psi", "--k", "1"), "--config given more than once"),
            (("--config", "{cfg}", "psi", "--k", "1", "--config={cfg}"), "--config given more than once"),
            (("--config", "{nested}", "psi", "--k", "1"), "{nested}: unknown config key 'config'"),
            (("--config=", "psi", "--k", "1"), "--config needs a path"),
        ],
        ids=["repeated", "repeated-equals", "config-key", "empty"],
    )
    def test_config_that_cannot_apply_is_an_error(self, tmp_path, argv, error):
        paths = {"cfg": tmp_path / "deep.cfg", "nested": tmp_path / "nested.cfg"}
        paths["cfg"].write_text("depth=5\n", encoding="utf-8")
        paths["nested"].write_text(f"config={paths['cfg']}\n", encoding="utf-8")
        code, out, err = run_cli(*(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: " + error.format(**paths)]

    @pytest.mark.parametrize(
        "argv, text, error",
        [
            (("--config", "{path}", "psi", "--k", "1"), "# defaults\ndepth 5\n", "{path}:2: expected key=value"),
            (("derive", "--k", "1", "--n", "2", "--sub", "{path}"), "c1 e*b1s\n", "{path}:1: expected lhs = rhs"),
            (
                ("--config", "{path}", "psi", "--k", "1"),
                None,
                "cannot read config file: [Errno 2] No such file or directory: {path!r}",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                None,
                "cannot read substitution file: [Errno 2] No such file or directory: {path!r}",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                "b1' = c1\n",
                "{path}:1: substitution target must be underived",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                "b5 = c1\n",
                "{path}:1: substitution target 'b5' is not a field of the system: b1, c1",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                "c1 = b1\n# a constant never occurs in a derived system\ne = 2\n",
                "{path}:3: substitution target 'e' is not a field of the system: b1, c1",
            ),
            (
                ("derive", "--k", "2", "--n", "1", "--sub", "{path}"),
                "b1s = c1\n",
                "{path}:1: substitution target 'b1s' is not a field of the system: b1, b2, c1, c2",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                "\nb1 = 1/0*c1\n",
                "{path}:2: zero denominator in '1/0'",
            ),
            (
                ("--config", "{path}", "psi", "--k", "1"),
                b"depth=\xff\n",
                "cannot read config file: {path}: 'utf-8' codec can't decode byte 0xff in position 6: "
                "invalid start byte",
            ),
            (
                ("derive", "--k", "1", "--n", "2", "--sub", "{path}"),
                b"b1 = c1\n# \xe9t\xe9\n",
                "cannot read substitution file: {path}: 'utf-8' codec can't decode byte 0xe9 in position 10: "
                "invalid continuation byte",
            ),
        ],
        ids=[
            "config-line", "sub-line", "config-missing", "sub-missing", "sub-derived", "sub-no-such-field",
            "sub-constant", "sub-placeholder", "sub-zero-denominator",
            "config-not-utf8", "sub-not-utf8",
        ],
    )
    def test_file_reader_errors(self, tmp_path, argv, text, error):
        path = str(tmp_path / "input.txt")
        if text is not None:
            Path(path).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code, out, err = run_cli(*(a.format(path=path) for a in argv))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: " + error.format(path=path)]

    def test_out_file(self, tmp_path):
        target = tmp_path / "out.txt"
        code, out, _ = run_cli("derive", "--k", "1", "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").startswith("d2(b1)")

    def test_byte_determinism_across_processes(self):
        cmd = [
            sys.executable,
            "-m",
            "laxdual.cli",
            "verify",
            "sklyanin",
            "--k",
            "2",
            "--format",
            "json",
        ]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_import_loads_no_dataclasses_inspect_or_json(self, tmp_path):
        # Nor fractions, decimal, numbers, argparse or gettext: not on import,
        # and not on any subcommand's run either, in any format, substitution
        # files included.
        sub = tmp_path / "sub.txt"
        sub.write_text("c1 = -3/4*e*b1s\n", encoding="utf-8")
        runs = [
            ["psi", "--k", "1", "--format", "json"],
            ["psi", "--k", "2", "--lax", "2", "--format", "json"],
            ["derive", "--k", "1", "--n", "2", "--sub", str(sub)],
            ["derive", "--k", "1", "--n", "2", "--sub", str(sub), "--format", "json"],
            ["hamiltonian", "--k", "2", "--n", "1"],
            ["hamiltonian", "--k", "2", "--n", "1", "--format", "json"],
            ["verify", "duality", "--k", "3", "--n", "1"],
            ["verify", "sklyanin", "--k", "2"],
            ["verify", "flow", "--k", "1", "--n", "2"],
        ]
        probe = (
            "import sys\n"
            "import laxdual, laxdual.cli\n"
            "never = ('dataclasses', 'inspect', 'typing', 'fractions', 'decimal', 'numbers', 'argparse', 'gettext',\n"
            "         'json')\n"
            "def report():\n"
            "    print(sorted(m for m in never if m in sys.modules), file=sys.stderr)\n"
            "report()\n"
            f"for argv in {runs!r}:\n"
            "    assert laxdual.cli.main(argv) == 0, argv\n"
            "    report()\n"
        )
        proc = run_process("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["[]"] * (1 + len(runs))
        assert proc.stdout == "".join(run_cli(*argv)[1] for argv in runs)

    @pytest.mark.parametrize("cap", ["1", "0", "-5", "abc"])
    def test_memory_cap_faults_exit_2_with_one_error_line(self, cap):
        # A 1 MB cap cannot hold a depth-30 table: the MemoryError is reported.
        proc = run_process("-m", "laxdual.cli", "psi", "--k", "1", "--depth", "30", LAXDUAL_MAX_MB=cap)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert ("MemoryError" if cap == "1" else repr(cap)) in proc.stderr

    def test_memory_cap_that_holds_the_run(self):
        proc = run_process("-m", "laxdual.cli", "psi", "--k", "1", LAXDUAL_MAX_MB="4096")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli("psi", "--k", "1")[1]

    def test_closed_stdout_exits_141_without_an_error_line(self):
        # The reader stops after 10 bytes of a 1.1 MB table, as `| head -c 10`
        # does.  That used to print `error: BrokenPipeError: ...` and exit 2.
        src = str(Path(__file__).resolve().parents[1] / "src")
        argv = ["psi", "--k", "3", "--depth", "14", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-S", "-m", "laxdual.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.read(10) == b'{\n  "k": 3'
        proc.stdout.close()
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert proc.wait() == cli.CLOSED_STDOUT == 141


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, fence):
    """The lines of the first `fence` block after a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n") :]
    start = section.index(f"\n{fence}\n") + len(fence) + 2
    return section[start : section.index("\n```\n", start)].splitlines()


# Each line of README's CLI block, its comment dropped.
README_COMMANDS = [line.split("#")[0].split() for line in readme_block("## CLI", "```")]


class TestReadme:
    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_cli_example_exits_0(self, argv):
        assert argv[0] == "laxdual"
        code, out, err = run_cli(*argv[1:])
        assert (code, err) == (0, "") and out

    def test_library_example_runs(self):
        exec("\n".join(readme_block("## Library", "```python")), {})
