"""Command-line front end.

Commands
--------
  psi          emit the constraint-map table for a time t_k
  derive       emit the PDE system of a Lax pair (V_k^(k), V_k^(n))
  hamiltonian  emit the Hamiltonian density generating the t_n flow
  verify       run a verification (sklyanin | duality | flow) and exit 0/1

This module lays out every object in every format; the engine writes only
polynomials (DiffPoly.to_text, to_latex and to_json, and the DiffPoly._walk
they share with the JSON writer here).  Output is deterministic byte-for-byte
for a fixed invocation: every table is emitted in canonical order.  Exit
codes: 0 success / all checks pass, 1 verification failure, 2 usage or engine
error, 141 a reader that closed stdout before the output ended (no `error:`
line).

One table, _COMMANDS, holds every command's flags.  A flag is spelled in full
and given at most once, as --flag value or --flag=value.  A usage error
prints one `error: ...` line and exits 2; -h or --help prints the usage lines
of the table and exits 0.

A flat key=value config file (--config FILE or --config=FILE, given at most
once) provides defaults that flags override; its keys are subcommand flags.
verify renders text or json only.  The environment variable LAXDUAL_MAX_MB
caps the address space as a guard against runaway expansions; a value that
is not a positive integer, and a run that exhausts the cap, exit 2.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .diffpoly import DiffPoly, FieldVar, _ratio_text, _var_json, parse_fieldvar, parse_poly
from .fnr import PsiTable, build_psi, lax_matrix
from .loopalg import LaurentMatrix, entry_polynomials
from .poisson import flow_matches_zc, hamiltonian_density, sklyanin_check
from .zerocurv import PdeSystem, dual_equivalence, zero_curvature

USAGE_ERROR = 2
VERIFY_FAILURE = 1
CLOSED_STDOUT = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left


class CliError(Exception):
    pass


def _apply_memory_cap() -> None:
    cap = os.environ.get("LAXDUAL_MAX_MB")
    if not cap:
        return
    try:
        megabytes = int(cap)
        if megabytes < 1:
            raise ValueError
    except ValueError:
        raise CliError(f"LAXDUAL_MAX_MB must be a positive number of megabytes, got {cap!r}") from None
    try:
        import resource

        limit = megabytes * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, ImportError, OSError) as exc:
        raise CliError(f"cannot apply LAXDUAL_MAX_MB={cap!r}: {exc}") from exc


def _read_pairs(path: str, what: str, form: str):
    """Yield (lineno, key, value) for each `key = value` line of a file.

    Blank lines and `#` comments are skipped; `what` names the file and
    `form` the expected line in error messages."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {what} file: {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected {form}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _read_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    values: dict[str, str] = {}
    for lineno, key, value in _read_pairs(path, "config", "key=value"):
        if key in values:
            raise CliError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    return values


def _read_substitutions(path: str, fields) -> dict[FieldVar, DiffPoly]:
    """One `lhs = rhs` per line in the polynomial grammar; lhs a bare field
    among `fields`, since the rules act once, on polynomials in those alone."""
    rules: dict[FieldVar, DiffPoly] = {}
    for lineno, lhs_text, rhs_text in _read_pairs(path, "substitution", "lhs = rhs"):
        try:
            lhs = parse_fieldvar(lhs_text)
            if lhs.dorder != 0:
                raise ValueError("substitution target must be underived")
            if lhs not in fields:
                names = ", ".join(map(str, sorted(fields)))
                raise ValueError(f"substitution target {lhs_text!r} is not a field of the system: {names}")
            if lhs in rules:
                raise ValueError(f"repeated substitution target {lhs_text!r}")
            rules[lhs] = parse_poly(rhs_text)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
    return rules


# -- JSON ------------------------------------------------------------------------
# json.dumps(payload, indent=2) runs json's pure-Python encoder whatever the
# payload, so the CLI writes the same bytes itself and no run loads json.

_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escaped(c: str) -> str:
    """One character as json.encoder.encode_basestring_ascii writes it."""
    short = _ESCAPES.get(c)
    if short:
        return short
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000  # an astral character as its UTF-16 surrogate pair
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _quoted(s: str) -> str:
    """s as a JSON string literal in ASCII, as json.dumps writes it."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escaped, s)) + '"'


def _json_text(payload, nl: str = "\n") -> str:
    """payload as json.dumps(payload, indent=2) writes it, byte for byte.

    payload is a tree of dict (str keys), list, str, int, bool, None and
    DiffPoly, a DiffPoly written as its to_json list; any other type raises
    TypeError.  nl is the newline and indent of the line payload starts on."""
    out: list[str] = []
    _put(payload, nl, out.append)
    return "".join(out)


def _put(o, nl: str, put) -> None:
    if isinstance(o, str):
        put(_quoted(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, DiffPoly):
        _put_poly(o, nl, put)
    elif isinstance(o, list):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        lead = "[" + inner
        for item in o:
            put(lead)
            _put(item, inner, put)
            lead = "," + inner
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(lead + _quoted(key) + ": ")
            _put(value, inner, put)
            lead = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _put_poly(p: DiffPoly, nl: str, put) -> None:
    """p.to_json() written from p._walk: no term dicts are built, and each
    distinct factor's object is written once per polynomial."""
    if p.is_zero():
        put("[]")
        return
    term, key, field = nl + "  ", nl + "    ", nl + "      "
    head, tail, join = f'{{{key}"coeff": "', f'",{key}"vars": ', ("," + field).join
    lead = "[" + term
    for factors, negative, size in p._walk(lambda v, e: _json_text(_var_json(v, e), field), _ratio_text):
        # A coefficient's text is digits, '-' and '/': nothing to escape.
        put(f"{lead}{head}{'-' if negative else ''}{size}{tail}")
        put(f"[{field}{join(factors)}{key}]{term}}}" if factors else f"[]{term}}}")
        lead = "," + term
    put(nl + "]")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        print(text)


# -- psi ---------------------------------------------------------------------


def _render_psi(table: PsiTable, fmt: str) -> str:
    if fmt == "json":
        rows = [{"j": j, "a": row.a, "b": row.bp, "c": row.cm} for j, row in enumerate(table.rows)]
        return _json_text({"k": table.k, "depth": table.depth, "rows": rows})
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


def _render_lax(x: LaurentMatrix, fmt: str) -> str:
    coeffs = sorted(x.coeffs.items(), reverse=True)
    if fmt == "json":
        entries = {str(e): {"a": m.a, "bp": m.bp, "cm": m.cm} for e, m in coeffs}
        return _json_text({"depth": None if x.floor is None else -x.floor, "coeffs": entries})
    if fmt == "latex":
        # the 2x2 form ((A, B), (C, -A)) as a pmatrix
        a, b, c = entry_polynomials(x)
        minus_a = {e: -p for e, p in a.items()}
        return (
            "\\begin{pmatrix}\n"
            f"{_entry_latex(a)} & {_entry_latex(b)} \\\\\n"
            f"{_entry_latex(c)} & {_entry_latex(minus_a)}\n"
            "\\end{pmatrix}"
        )
    lines = [f"lambda^{e}: a = {m.a} | b = {m.bp} | c = {m.cm}" for e, m in coeffs]
    return "\n".join(lines) or "0"


def _entry_latex(table: dict[int, DiffPoly]) -> str:
    """sum_e p_e lambda^e, highest e first, a unit p_e written as its sign."""
    parts: list[str] = []
    for e in sorted(table, reverse=True):
        p = table[e]
        body = p.to_latex()
        if e != 0:
            lam = r"\lambda" if e == 1 else rf"\lambda^{{{e}}}"
            if len(p.num) > 1:
                body = rf"\left({body}\right){lam}"
            elif body in ("1", "-1"):
                body = body[:-1] + lam
            else:
                body = f"{body} {lam}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return " ".join(parts) or "0"


def _cmd_psi(args) -> int:
    if args.lax is not None:
        # V_k^(N) reads rows 0..N; the table must reach row k as well.
        rendered = _render_lax(lax_matrix(build_psi(args.k, max(args.k, args.lax)), args.lax), args.format)
    else:
        depth = args.depth if args.depth is not None else args.k + 2
        rendered = _render_psi(build_psi(args.k, depth), args.format)
    _emit(rendered, args.out)
    return 0


# -- derive ---------------------------------------------------------------------


def _render_system(
    system: PdeSystem, fmt: str, subs: dict[FieldVar, DiffPoly], style: str = "evolution"
) -> str:
    fields = sorted(system.evolution)
    pairs = [(DiffPoly.from_var(u).substitute(subs), system.evolution[u].substitute(subs)) for u in fields]
    n = system.n
    if fmt == "json":
        evolution = [{"field": str(u), "rhs": rhs} for u, (_, rhs) in zip(fields, pairs)]
        return _json_text({"k": system.k, "n": n, "evolution": evolution, "auxiliary": []})
    if fmt == "latex":
        if style == "zero":
            lines = [
                rf"\partial_{{t_{{{n}}}}} {_latex_lhs(lhs)}"
                + ("" if rhs.is_zero() else rf" - \left( {rhs.to_latex()} \right)")
                + " = 0"
                for lhs, rhs in pairs
            ]
        else:
            lines = [rf"\partial_{{t_{{{n}}}}} {_latex_lhs(lhs)} = {rhs.to_latex()}" for lhs, rhs in pairs]
        return " \\\\\n".join(lines)
    if style == "zero":
        lines = [f"d{n}({lhs}){_negated_tail(rhs)} = 0" for lhs, rhs in pairs]
    else:
        lines = [f"d{n}({lhs}) = {rhs}" for lhs, rhs in pairs]
    return "\n".join(lines)


def _latex_lhs(lhs: DiffPoly) -> str:
    """A bare field as itself; a substituted left side in parentheses."""
    fields = lhs.variables()
    if len(fields) == 1 and lhs == DiffPoly.from_var(fields[0]):
        return lhs.to_latex()
    return rf"\left( {lhs.to_latex()} \right)"


def _negated_tail(rhs: DiffPoly) -> str:
    """` + t` or ` - t` for the text t of -rhs, and nothing when rhs is zero."""
    text = (-rhs).to_text()
    if text == "0":
        return ""
    return f" - {text[1:]}" if text.startswith("-") else f" + {text}"


def _cmd_derive(args) -> int:
    # The rules are checked against the fields of t_k before anything is derived.
    subs = _read_substitutions(args.sub, build_psi(args.k, args.k).free_fields()) if args.sub else {}
    system = zero_curvature(build_psi(args.k, max(args.k, args.n)), args.n)
    _emit(_render_system(system, args.format, subs, args.style), args.out)
    return 0


# -- hamiltonian -------------------------------------------------------------------


def _cmd_hamiltonian(args) -> int:
    # The density reads only the table rows 0..k.
    table = build_psi(args.k, args.k)
    density = hamiltonian_density(table, args.n)
    if args.format == "json":
        text = _json_text({"k": args.k, "n": args.n, "density": density})
    elif args.format == "latex":
        text = rf"H_{{{args.k}}}^{{({args.n})}} = \int \left( {density.to_latex()} \right) dt_{{{args.k}}}"
    else:
        text = f"density(k={args.k}, n={args.n}) = {density}"
    _emit(text, args.out)
    return 0


# -- verify ---------------------------------------------------------------------------


# Verify word -> (report builder on the parsed flags, flags its JSON ends with).
# The builders look build_psi and the checks up in this module when they run,
# so a rebound name (a tampered table, a traced check) is the one called.
_CHECKS = {
    "sklyanin": (lambda args: sklyanin_check(build_psi(args.k, args.k)), ("k",)),
    "duality": (lambda args: dual_equivalence(args.n, args.k).report, ("n", "k")),
    "flow": (lambda args: flow_matches_zc(build_psi(args.k, max(args.k, args.n)), args.n), ("k", "n")),
}


def _cmd_verify(args) -> int:
    build, keys = _CHECKS[args.what]
    report = build(args)
    if args.format == "json":
        payload = report.to_json()
        payload.update((key, getattr(args, key)) for key in keys)
        text = _json_text(payload)
    else:
        rows = (f"  [ok  ] {i.label}" if i.ok else f"  [FAIL] {i.label}  residual: {i.residual}" for i in report.items)
        text = "\n".join([f"{report.name}: {'PASS' if report.passed else 'FAIL'}", *rows])
    _emit(text, args.out)
    return 0 if report.passed else VERIFY_FAILURE


# -- argument plumbing ------------------------------------------------------------------

_FORMATS = ("text", "latex", "json")
# Flags with no default: a command that defines one needs it.
_REQUIRED = ("--k", "--n")
_HELP = ("-h", "--help")


def _flags(n_flag: bool, formats: tuple = _FORMATS, **extra) -> dict:
    """--k, --n if n_flag, --format (one of formats), --out, then the extra flags."""
    kinds = {"k": 1, **({"n": 1} if n_flag else {}), "format": formats, "out": None, **extra}
    return {f"--{name}": kind for name, kind in kinds.items()}


# Command words -> (handler, flags).  A flag's kind is an int, the least value
# of an integer; a tuple, its choices, the first being the default; or None,
# a path, any text but the empty one.  Parsing, config defaults and --help all
# read this table; the verify entries come from _CHECKS.
_COMMANDS = {
    ("psi",): (_cmd_psi, _flags(False, depth=1, lax=0)),
    ("derive",): (_cmd_derive, _flags(True, sub=None, style=("evolution", "zero"))),
    ("hamiltonian",): (_cmd_hamiltonian, _flags(True)),
    **{("verify", what): (_cmd_verify, _flags("n" in keys, ("json", "text"))) for what, (_, keys) in _CHECKS.items()},
}


def _value(flag: str, kind, text: str):
    """The value of a flag read from text, from the command line or a config file."""
    if kind is None:
        if not text:
            raise CliError(f"argument {flag}: needs a path")
        return text
    if isinstance(kind, tuple):
        if text not in kind:
            raise CliError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
        return text
    digits = text.removeprefix("-")  # int() alone also takes '+1', ' 1', '1_0' and non-ASCII digits
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        value = int(text)
    except ValueError:
        raise CliError(f"argument {flag}: {flag[2:]} must be an integer") from None
    if value < kind:
        raise CliError(f"argument {flag}: {flag[2:]} must be >= {kind}")
    return value


def _is_value(token: str) -> bool:
    """Whether the token after a flag is its value and not another flag.  A
    negative number is a value, so that `--lax -1` is told it is below 0."""
    flag_like = token.startswith("-") and token != "-" and " " not in token
    return not flag_like or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None


def _cmd_help(args) -> int:
    """Print the usage line of each command whose words start with args.words."""
    lines = []
    for words, (_, flags) in _COMMANDS.items():
        if words[: len(args.words)] == args.words:
            parts = ["laxdual [--config FILE]", *words]
            for flag, kind in flags.items():
                shown = f"{flag} {{{','.join(kind)}}}" if isinstance(kind, tuple) else f"{flag} {flag[2:].upper()}"
                parts.append(shown if flag in _REQUIRED else f"[{shown}]")
            lines.append(" ".join(parts))
    print("usage: " + "\n       ".join(lines))
    return 0


def _parse(argv: list[str], config: dict[str, str], path: str | None):
    """(handler, args) for a command line whose --config is taken off.

    The command words come first.  Each flag is given once, as `--flag value`
    or `--flag=value`; a config value fills a flag the command defines and
    the command line does not give.  args holds each flag's value under its
    name and `what`, the last command word.  A usage error raises CliError."""
    known = {flag for _, flags in _COMMANDS.values() for flag in flags}
    for key in sorted(config):
        if f"--{key}" not in known:
            raise CliError(f"{path}: unknown config key {key!r}")
    words: tuple = ()
    while words not in _COMMANDS:
        choices = list(dict.fromkeys(c[len(words)] for c in _COMMANDS if c[: len(words)] == words))
        token = argv[len(words)] if len(argv) > len(words) else None
        if token in _HELP:
            return _cmd_help, SimpleNamespace(words=words)
        name = "check" if words else "command"
        if token is None:
            raise CliError(f"the following arguments are required: {name}")
        if token not in choices:
            raise CliError(f"argument {name}: invalid choice: {token!r} (choose from {', '.join(map(repr, choices))})")
        words += (token,)
    handler, flags = _COMMANDS[words]
    values, extra = {}, []
    tokens = iter(argv[len(words) :])
    for token in tokens:
        if token in _HELP:
            return _cmd_help, SimpleNamespace(words=words)
        flag, equals, text = token.partition("=")
        if flag not in flags:
            extra.append(token)
            continue
        if flag in values:
            raise CliError(f"argument {flag}: given more than once")
        if not equals:
            text = next(tokens, None)
            if text is None or not _is_value(text):
                raise CliError(f"argument {flag}: expected one argument")
        values[flag] = _value(flag, flags[flag], text)
    for key, text in sorted(config.items()):
        flag = f"--{key}"
        if flag in flags and flag not in values:
            values[flag] = _value(flag, flags[flag], text)
    missing = [flag for flag in _REQUIRED if flag in flags and flag not in values]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    if extra:
        raise CliError(f"unrecognized arguments: {' '.join(extra)}")
    args = SimpleNamespace(what=words[-1])
    for flag, kind in flags.items():
        setattr(args, flag[2:], values.get(flag, kind[0] if isinstance(kind, tuple) else None))
    return handler, args


def _take_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The --config path, in either form, and the rest of argv.

    --config may stand anywhere, before or after the command words, and may
    be given at most once; its values are defaults for _parse."""
    path, rest, tokens = None, [], iter(argv)
    for token in tokens:
        if token != "--config" and not token.startswith("--config="):
            rest.append(token)
            continue
        if path is not None:
            raise CliError("--config given more than once")
        path = token.partition("=")[2] if "=" in token else next(tokens, "")
        if not path:
            raise CliError("--config needs a path")
    return path, rest


def main(argv: list[str] | None = None) -> int:
    # Everything runs under the handler, so that a bad or exhausted memory
    # cap ends in one error line and exit 2 like any other engine error.
    try:
        _apply_memory_cap()
        argv = list(sys.argv[1:] if argv is None else argv)
        config_path, argv = _take_config(argv)
        handler, args = _parse(argv, _read_config(config_path), config_path)
        status = handler(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # engine errors: deterministic message, exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
