"""The CLI's fixed text: usage, help and argument errors, byte for byte.

Each case is (argv, exit code, stdout, stderr) as ``oscint`` prints it on
CPython 3.11 at 80 columns: with no arguments, ``--help``, each subcommand's
``--help``, an unknown subcommand and ``eval`` without ``--family``.  argparse
ends a help request and an argument error with ``SystemExit``; its code is
the exit code here.
"""

import os
import subprocess
import sys

import pytest

from oscint.cli import main

TEXT = {
    "no-arguments": ([], 2, "",
        """\
usage: oscint [-h] {eval,compare,table,oracle,selfcheck} ...
oscint: error: the following arguments are required: command
"""),
    "help": (["--help"], 0, """\
usage: oscint [-h] {eval,compare,table,oracle,selfcheck} ...

Fourier sine/cosine transforms of irrational integrands

positional arguments:
  {eval,compare,table,oracle,selfcheck}
    eval                evaluate one point
    compare             all methods side by side
    table               parameter sweep (comma-separated values)
    oracle              direct quadrature
    selfcheck           run the invariant suite

options:
  -h, --help            show this help message and exit
""",
        ""),
    "eval-help": (["eval", "--help"], 0, """\
usage: oscint eval [-h] --family
                   {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
                   [--kernel {sin,cos}] [--rel-tol REL_TOL]
                   [--max-terms MAX_TERMS] [--timing] [--alpha ALPHA] [--n N]
                   [--m M] [--plus-one] [--x X] [--a A] [--b B] [--c3 C3]
                   [--zeta ZETA]
                   [--method {closed-form,series,approximation,oracle,as-printed}]
                   [--as-printed] [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --family {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
  --kernel {sin,cos}
  --rel-tol REL_TOL     series tolerance (default: OSCINT_REL_TOL or 1e-12)
  --max-terms MAX_TERMS
  --timing              include elapsed_us (breaks byte-reproducibility)
  --alpha ALPHA
  --n N
  --m M
  --plus-one
  --x X
  --a A
  --b B
  --c3 C3
  --zeta ZETA
  --method {closed-form,series,approximation,oracle,as-printed}
  --as-printed          shorthand for --method as-printed
  --format {json,csv}
""",
        ""),
    "compare-help": (["compare", "--help"], 0, """\
usage: oscint compare [-h] --family
                      {half-power,two-radical,radical-pole,lommel,log-half-power}
                      [--kernel {sin,cos}] [--rel-tol REL_TOL]
                      [--max-terms MAX_TERMS] [--timing] [--alpha ALPHA]
                      [--n N] [--m M] [--plus-one] [--x X] [--a A] [--b B]
                      [--c3 C3] [--zeta ZETA] [--tol TOL] [--as-printed]
                      [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --family {half-power,two-radical,radical-pole,lommel,log-half-power}
  --kernel {sin,cos}
  --rel-tol REL_TOL     series tolerance (default: OSCINT_REL_TOL or 1e-12)
  --max-terms MAX_TERMS
  --timing              include elapsed_us (breaks byte-reproducibility)
  --alpha ALPHA
  --n N
  --m M
  --plus-one
  --x X
  --a A
  --b B
  --c3 C3
  --zeta ZETA
  --tol TOL             gate on deviations among exact methods
  --as-printed          add the verbatim-formula column
  --format {json,csv}
""",
        ""),
    "table-help": (["table", "--help"], 0, """\
usage: oscint table [-h] --family
                    {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
                    [--kernel {sin,cos}] [--rel-tol REL_TOL]
                    [--max-terms MAX_TERMS] [--timing] [--alpha ALPHA] [--n N]
                    [--m M] [--plus-one] [--x X] [--a A] [--b B] [--c3 C3]
                    [--zeta ZETA]
                    [--method {closed-form,series,approximation,oracle,as-printed}]
                    [--as-printed] [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --family {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
  --kernel {sin,cos}
  --rel-tol REL_TOL     series tolerance (default: OSCINT_REL_TOL or 1e-12)
  --max-terms MAX_TERMS
  --timing              include elapsed_us (breaks byte-reproducibility)
  --alpha ALPHA
  --n N
  --m M
  --plus-one
  --x X
  --a A
  --b B
  --c3 C3
  --zeta ZETA
  --method {closed-form,series,approximation,oracle,as-printed}
  --as-printed          shorthand for --method as-printed
  --format {json,csv}
""",
        ""),
    "oracle-help": (["oracle", "--help"], 0, """\
usage: oscint oracle [-h] --family
                     {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
                     [--kernel {sin,cos}] [--rel-tol REL_TOL]
                     [--max-terms MAX_TERMS] [--timing] [--alpha ALPHA]
                     [--n N] [--m M] [--plus-one] [--x X] [--a A] [--b B]
                     [--c3 C3] [--zeta ZETA] [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --family {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
  --kernel {sin,cos}
  --rel-tol REL_TOL     series tolerance (default: OSCINT_REL_TOL or 1e-12)
  --max-terms MAX_TERMS
  --timing              include elapsed_us (breaks byte-reproducibility)
  --alpha ALPHA
  --n N
  --m M
  --plus-one
  --x X
  --a A
  --b B
  --c3 C3
  --zeta ZETA
  --format {json,csv}
""",
        ""),
    "selfcheck-help": (["selfcheck", "--help"], 0, """\
usage: oscint selfcheck [-h] [--only GROUP] [--json] [--list] [--seed SEED]

options:
  -h, --help    show this help message and exit
  --only GROUP  run only the named group(s)
  --json
  --list        list group names
  --seed SEED   accepted for interface parity; the suite is deterministic and
                ignores it
""",
        ""),
    "unknown-command": (["frobnicate"], 2, "",
        """\
usage: oscint [-h] {eval,compare,table,oracle,selfcheck} ...
oscint: error: argument command: invalid choice: 'frobnicate' (choose from 'eval', 'compare', 'table', 'oracle', 'selfcheck')
"""),
    "eval-without-family": (["eval"], 2, "",
        """\
usage: oscint eval [-h] --family
                   {half-power,two-radical,radical-pole,lommel,log-half-power,three-radical}
                   [--kernel {sin,cos}] [--rel-tol REL_TOL]
                   [--max-terms MAX_TERMS] [--timing] [--alpha ALPHA] [--n N]
                   [--m M] [--plus-one] [--x X] [--a A] [--b B] [--c3 C3]
                   [--zeta ZETA]
                   [--method {closed-form,series,approximation,oracle,as-printed}]
                   [--as-printed] [--format {json,csv}]
oscint eval: error: the following arguments are required: --family
"""),
}


def _run(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("case", sorted(TEXT))
def test_cli_text_is_pinned(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    argv, *want = TEXT[case]
    assert _run(capsys, argv) == tuple(want)


@pytest.mark.parametrize("case", ["eval-help", "unknown-command"])
def test_console_text_is_pinned(case):
    # argv from the command line, as the console script reads it
    argv, *want = TEXT[case]
    proc = subprocess.run([sys.executable, "-m", "oscint.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == tuple(want)
