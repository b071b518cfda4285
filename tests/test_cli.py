"""Command-line behaviour: formats, exit codes, determinism, substitutions."""

import json
import subprocess
import sys

import pytest

from laxdual.cli import main
from laxdual.diffpoly import DiffPoly
from laxdual.fnr import build_psi
from laxdual.poisson import hamiltonian_density

from conftest import P


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

    def test_config_key_no_subcommand_defines(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("k=1\ndepht=7\n", encoding="utf-8")
        code, out, err = run_cli("--config", str(cfg), "psi")
        assert code == 2 and out == ""
        assert str(cfg) in err and "'depht'" in err

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
