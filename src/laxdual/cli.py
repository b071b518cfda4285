"""Command-line front end.

Commands
--------
  psi          emit the constraint-map table for a time t_k
  derive       emit the PDE system of a Lax pair (V_k^(k), V_k^(n))
  hamiltonian  emit the Hamiltonian density generating the t_n flow
  verify       run a verification (sklyanin | duality | flow) and exit 0/1

Output is deterministic byte-for-byte for a fixed invocation: every table is
emitted in canonical order.  Exit codes: 0 success / all checks pass,
1 verification failure, 2 usage or engine error.

A flat key=value config file (--config) provides defaults that flags
override.  The environment variable LAXDUAL_MAX_MB caps the address space as
a guard against runaway expansions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .diffpoly import DiffPoly, FieldVar, parse_fieldvar, parse_poly
from .fnr import PsiTable, build_psi, lax_matrix
from .loopalg import matrix_to_json, matrix_to_latex, matrix_to_text
from .poisson import flow_matches_zc, hamiltonian_density, sklyanin_check
from .zerocurv import PdeSystem, dual_equivalence, zero_curvature

USAGE_ERROR = 2
VERIFY_FAILURE = 1


class CliError(Exception):
    pass


def _apply_memory_cap() -> None:
    cap = os.environ.get("LAXDUAL_MAX_MB")
    if not cap:
        return
    try:
        import resource

        limit = int(cap) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, ImportError, OSError) as exc:  # pragma: no cover
        print(f"warning: cannot apply LAXDUAL_MAX_MB: {exc}", file=sys.stderr)


def _read_config(path: Optional[str]) -> Dict[str, str]:
    if not path:
        return {}
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in values:
                    raise CliError(f"{path}:{lineno}: repeated key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return values


def _read_substitutions(path: str) -> Dict[FieldVar, DiffPoly]:
    """One `lhs = rhs` per line in the polynomial grammar; lhs a bare field."""
    rules: Dict[FieldVar, DiffPoly] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read substitution file: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected lhs = rhs")
        lhs_text, _, rhs_text = line.partition("=")
        try:
            lhs = parse_fieldvar(lhs_text.strip())
            if lhs.dorder != 0:
                raise CliError(f"{path}:{lineno}: substitution target must be underived")
            if lhs in rules:
                raise CliError(f"{path}:{lineno}: repeated substitution target {lhs_text.strip()!r}")
            rules[lhs] = parse_poly(rhs_text)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
    return rules


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)


def _field_name(v: FieldVar) -> str:
    return f"{v.kind}{v.index if v.kind in ('b', 'c') else ''}"


# -- psi ---------------------------------------------------------------------


def _render_psi(table: PsiTable, fmt: str) -> str:
    if fmt == "json":
        rows = [
            {
                "j": j,
                "a": table.rows[j].a.to_json(),
                "b": table.rows[j].bp.to_json(),
                "c": table.rows[j].cm.to_json(),
            }
            for j in range(table.depth + 1)
        ]
        return json.dumps({"k": table.k, "depth": table.depth, "rows": rows}, indent=2)
    if fmt == "latex":
        lines = [rf"% constraint map for $t_{{{table.k}}}$, depth {table.depth}"]
        for j in range(table.depth + 1):
            row = table.rows[j]
            lines.append(
                rf"a_{{{j}}} = {row.a.to_latex()} ,\quad "
                rf"b_{{{j}}} = {row.bp.to_latex()} ,\quad "
                rf"c_{{{j}}} = {row.cm.to_latex()}"
            )
        return "\n".join(lines)
    lines = [f"# psi table: k={table.k} depth={table.depth}"]
    for j in range(table.depth + 1):
        row = table.rows[j]
        lines.append(f"j={j}: a = {row.a} | b = {row.bp} | c = {row.cm}")
    return "\n".join(lines)


def _cmd_psi(args) -> int:
    if args.lax is not None:
        # V_k^(N) reads rows 0..N; the table must reach row k as well.
        matrix = lax_matrix(build_psi(args.k, max(args.k, args.lax)), args.lax)
        rendered = {
            "text": matrix_to_text,
            "latex": matrix_to_latex,
            "json": lambda m: json.dumps(matrix_to_json(m), indent=2),
        }[args.format](matrix)
    else:
        depth = args.depth if args.depth is not None else args.k + 2
        rendered = _render_psi(build_psi(args.k, depth), args.format)
    _emit(rendered, args.out)
    return 0


# -- derive ---------------------------------------------------------------------


def _render_system(
    system: PdeSystem, fmt: str, subs: Dict[FieldVar, DiffPoly], style: str = "evolution"
) -> str:
    def rewrite(p: DiffPoly) -> DiffPoly:
        return p.substitute(subs) if subs else p

    items = [(u, rewrite(system.evolution[u])) for u in sorted(system.evolution)]
    aux = [(u, rewrite(system.auxiliary[u])) for u in sorted(system.auxiliary)]
    if fmt == "json":
        return json.dumps(
            {
                "k": system.k,
                "n": system.n,
                "evolution": [
                    {"field": _field_name(u), "rhs": rhs.to_json()} for u, rhs in items
                ],
                "auxiliary": [
                    {"field": _field_name(u), "rhs": rhs.to_json()} for u, rhs in aux
                ],
            },
            indent=2,
        )
    if fmt == "latex":
        if style == "zero":
            lines = [
                rf"\partial_{{t_{{{system.n}}}}} {u.kind}_{{{u.index}}} "
                rf"- \left( {rhs.to_latex()} \right) = 0"
                for u, rhs in items
            ]
        else:
            lines = [
                rf"\partial_{{t_{{{system.n}}}}} {u.kind}_{{{u.index}}} = {rhs.to_latex()}"
                for u, rhs in items
            ]
        lines += [
            rf"{u.kind}_{{{u.index}}} = {rhs.to_latex()} \quad\text{{(auxiliary)}}"
            for u, rhs in aux
        ]
        return " \\\\\n".join(lines)
    if style == "zero":
        lines = [
            f"d{system.n}({_lhs_text(u, subs)}) {_negated_tail(rhs)} = 0" for u, rhs in items
        ]
    else:
        lines = [f"d{system.n}({_lhs_text(u, subs)}) = {rhs}" for u, rhs in items]
    lines += [f"{_lhs_text(u, subs)} = {rhs}  [auxiliary]" for u, rhs in aux]
    return "\n".join(lines)


def _negated_tail(rhs: DiffPoly) -> str:
    text = (-rhs).to_text()
    if text == "0":
        return ""
    return f"+ {text}" if not text.startswith("-") else f"- {text[1:]}"


def _lhs_text(u: FieldVar, subs: Dict[FieldVar, DiffPoly]) -> str:
    if subs and u in subs:
        return str(subs[u])
    return _field_name(u)


def _cmd_derive(args) -> int:
    system = zero_curvature(build_psi(args.k, max(args.k, args.n)), args.n)
    subs = _read_substitutions(args.sub) if args.sub else {}
    _emit(_render_system(system, args.format, subs, args.style), args.out)
    return 0


# -- hamiltonian -------------------------------------------------------------------


def _cmd_hamiltonian(args) -> int:
    # The density reads only the table rows 0..k.
    table = build_psi(args.k, args.k)
    density = hamiltonian_density(table, args.n)
    if args.format == "json":
        text = json.dumps(
            {"k": args.k, "n": args.n, "density": density.to_json()}, indent=2
        )
    elif args.format == "latex":
        text = rf"H_{{{args.k}}}^{{({args.n})}} = \int \left( {density.to_latex()} \right) dt_{{{args.k}}}"
    else:
        text = f"density(k={args.k}, n={args.n}) = {density}"
    _emit(text, args.out)
    return 0


# -- verify ---------------------------------------------------------------------------


def _report_out(report_json: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "text":
        lines = [f"{report_json['check']}: {'PASS' if report_json['passed'] else 'FAIL'}"]
        for item in report_json["items"]:
            mark = "ok  " if item["ok"] else "FAIL"
            residual = f"  residual: {item['residual']}" if not item["ok"] else ""
            lines.append(f"  [{mark}] {item['label']}{residual}")
        _emit("\n".join(lines), out)
    else:
        _emit(json.dumps(report_json, indent=2), out)


def _cmd_verify(args) -> int:
    if args.what == "sklyanin":
        table = build_psi(args.k, args.k)
        report = sklyanin_check(table)
        payload = report.to_json()
        payload["k"] = args.k
    elif args.what == "duality":
        result = dual_equivalence(args.n, args.k)
        payload = result.report.to_json()
        payload["n"], payload["k"] = args.n, args.k
    elif args.what == "flow":
        report = flow_matches_zc(build_psi(args.k, max(args.k, args.n)), args.n)
        payload = report.to_json()
        payload["k"], payload["n"] = args.k, args.n
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown verification {args.what!r}")
    _report_out(payload, args.format, args.out)
    return 0 if payload["passed"] else VERIFY_FAILURE


# -- argument plumbing ------------------------------------------------------------------


def _at_least(name: str, low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{name} must be an integer") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return value

    return parse


def _add_common(
    parser: argparse.ArgumentParser, *, n_flag: bool, default_format: str = "text"
) -> None:
    parser.add_argument("--k", type=_at_least("k", 1), required=True, help="distinguished time index")
    if n_flag:
        parser.add_argument("--n", type=_at_least("n", 1), required=True, help="partner time index")
    parser.add_argument(
        "--format", choices=("text", "latex", "json"), default=default_format, help="output format"
    )
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Flags only in full, in every subcommand too: an abbreviation such as
    --dep would escape _merge_config, and the config default would win."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="laxdual",
        description="Integrable-hierarchy engine: constraint maps, Lax pairs, "
        "zero-curvature PDEs, r-matrix and Hamiltonian verification.",
    )
    parser.add_argument("--config", default=None, help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="emit the constraint-map table for t_k")
    _add_common(p_psi, n_flag=False)
    p_psi.add_argument(
        "--depth", type=_at_least("depth", 1), default=None, help="last table row (default k + 2)"
    )
    p_psi.add_argument(
        "--lax",
        type=_at_least("lax", 0),
        default=None,
        metavar="N",
        help="emit the Lax matrix V_k^(N) instead",
    )
    p_psi.set_defaults(func=_cmd_psi)

    p_derive = sub.add_parser("derive", help="derive the PDE system for (k, n)")
    _add_common(p_derive, n_flag=True)
    p_derive.add_argument("--sub", default=None, help="substitution file (lhs = rhs per line)")
    p_derive.add_argument(
        "--style",
        choices=("evolution", "zero"),
        default="evolution",
        help="emit d_n(u) = RHS or the zero-curvature form ... = 0",
    )
    p_derive.set_defaults(func=_cmd_derive)

    p_ham = sub.add_parser("hamiltonian", help="emit the density generating the t_n flow")
    _add_common(p_ham, n_flag=True)
    p_ham.set_defaults(func=_cmd_hamiltonian)

    p_verify = sub.add_parser("verify", help="run a verification and exit 0/1")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    for what, needs_n in (("sklyanin", False), ("duality", True), ("flow", True)):
        p = verify_sub.add_parser(what)
        _add_common(p, n_flag=needs_n, default_format="json")
        p.set_defaults(func=_cmd_verify, what=what)
    return parser


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action.choices, dict):
            return action.choices
    return {}


def _flags(parser: argparse.ArgumentParser) -> set:
    return {flag for action in parser._actions if action.dest != "help" for flag in action.option_strings}


def _all_flags(parser: argparse.ArgumentParser) -> set:
    """Flags of the parser and of every subcommand below it."""
    return _flags(parser).union(*map(_all_flags, _subcommands(parser).values()))


def _merge_config(
    parser: argparse.ArgumentParser, argv: List[str], config: Dict[str, str], path: Optional[str]
) -> List[str]:
    """Config values act as defaults: append them as flags unless given.

    A key is passed on only if the chosen subcommand defines its flag, so one
    file can serve every subcommand; a key no subcommand defines is an error.
    """
    if not config:
        return argv
    chosen = parser
    for token in argv:
        choices = _subcommands(chosen)
        if token not in choices:
            break
        chosen = choices[token]
    known, accepted = _all_flags(parser), _flags(chosen)
    present = {token.split("=", 1)[0] for token in argv if token.startswith("--")}
    extra: List[str] = []
    for key, value in sorted(config.items()):
        flag = f"--{key}"
        if flag not in known:
            raise CliError(f"{path}: unknown config key {key!r}")
        if flag in accepted and flag not in present:
            extra += [flag, value]
    # appended after the subcommand tokens so argparse attaches them correctly
    return argv + extra


def main(argv: Optional[List[str]] = None) -> int:
    _apply_memory_cap()
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config must be peeled off before subcommand parsing so its values can
    # be injected as defaults.
    config_path = None
    if "--config" in argv:
        idx = argv.index("--config")
        if idx + 1 >= len(argv):
            print("error: --config needs a path", file=sys.stderr)
            return USAGE_ERROR
        config_path = argv[idx + 1]
        argv = argv[:idx] + argv[idx + 2 :]
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(_merge_config(parser, argv, _read_config(config_path), config_path))
        except SystemExit as exc:  # argparse reports usage errors via exit(2)
            return int(exc.code or 0)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # engine errors: deterministic message, exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
