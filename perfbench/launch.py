"""Run `laxdual.cli.main(argv)` with benchmark hooks installed in this process.

    python3 perfbench/launch.py [--trace] [--tamper] -- CLI-ARGS...

--trace   install the span wrappers first, and after main returns write
          one line `PERFBENCH-TRACE {json}` to stderr.
--tamper  hand the CLI a perturbed table (jobs.tamper_table) in place of
          each build_psi result, so a `verify` must report FAIL (exit 1).

Exits with main's return code.  Untraced, untampered CLI jobs do not use
this launcher; they run `python -m laxdual.cli` directly.
"""

from __future__ import annotations

import json
import sys


def main():
    args = sys.argv[1:]
    if "--" not in args:
        sys.stderr.write(__doc__)
        return 2
    split = args.index("--")
    opts, cli_args = args[:split], args[split + 1 :]
    unknown = set(opts) - {"--trace", "--tamper"}
    if unknown:
        sys.stderr.write(f"launch.py: unknown options {sorted(unknown)}\n")
        return 2
    tracer = None
    if "--trace" in opts:
        import spans

        tracer = spans.install()
    import laxdual.cli as cli

    if "--tamper" in opts:
        import jobs

        build = cli.build_psi
        cli.build_psi = lambda k, depth: jobs.tamper_table(build(k, depth))
    code = cli.main(cli_args)
    sys.stdout.flush()
    if tracer is not None:
        sys.stderr.write("PERFBENCH-TRACE " + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
