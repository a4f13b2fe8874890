"""Run the capkit command line with spans recorded.

    python3 perfbench/traced_cli.py SPANS.json -- <capkit arguments>

Behaves like ``python3 -m capkit.cli <capkit arguments>`` (same output and
exit code) and writes the recorded spans to SPANS.json.
"""

import sys

import capkit.cli

from tracer import run_traced


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: traced_cli.py SPANS.json -- <capkit arguments>")
    try:
        # look main up after the tracer has replaced it
        code = run_traced(sys.argv[1], lambda: capkit.cli.main(sys.argv[3:]))
    except SystemExit as exc:   # argparse exits for --help and bad input
        code = exc.code
    sys.exit(code)


if __name__ == "__main__":
    main()
