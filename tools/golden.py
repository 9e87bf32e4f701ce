"""Hash every report of the golden set, run against the bca package at SRC.

Usage, from the repository root::

    python3 tools/golden.py SRC OUT

SRC is the directory that holds the ``bca`` package, such as a checkout's
``src``.  The reports run in this process, through ``bca.cli.main``:

* ``check``, ``dissipative``, ``selfadjoint``, ``regular``,
  ``to-contraction`` and ``normalize``, in json and text, on every input
  of ``build_corpus(1..3)`` (``benchmark/corpus.py`` of this checkout);
* ``check --seed 7 --samples 40`` on the same inputs;
* ``from-contraction``, in json and text, on each V that
  ``to-contraction`` writes;
* ``verify --samples 3`` at m = 1..16 with seeds 0, 7 and 1001, in json
  and text;
* ``example`` at n = 0..9, in json and text.

OUT gets one line per run: the argv, the exit code, and the SHA-256 of
stdout and of stderr.  Inputs are written to a temporary directory and
named relative to it, so no path reaches a report.  Run it on two trees
and ``diff`` the two files: the lines that differ are the runs that moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

FORMATS = ("json", "text")
FILE_COMMANDS = ("check", "dissipative", "selfadjoint", "regular", "to-contraction", "normalize")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(main, argv: list[str]) -> tuple[list[str], int, str, str]:
    """argv, exit code, stdout and stderr of ``bca argv``; a parser error exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return argv, code, out.getvalue(), err.getvalue()


def golden_runs(main, corpus):
    """Each run of the golden set as ``(argv, code, stdout, stderr)``, in a
    fixed order; input files are written to the current directory."""
    for seed in (1, 2, 3):
        for index, case in enumerate(corpus.build_corpus(seed)):
            path = f"s{seed}-{index:03d}-{case.name}.json"
            Path(path).write_text(case.document_text())
            for command in FILE_COMMANDS:
                for fmt in FORMATS:
                    yield run(main, [command, path, "--format", fmt])
            yield run(main, ["check", path, "--seed", "7", "--samples", "40"])
            _, code, out, _ = run(main, ["to-contraction", path])
            if code == 0 and json.loads(out)["V"] is not None:
                Path(f"v-{path}").write_text(out)
                for fmt in FORMATS:
                    yield run(main, ["from-contraction", f"v-{path}", "--format", fmt])
    for m in range(1, 17):
        for seed in (0, 7, 1001):
            for fmt in FORMATS:
                yield run(main, ["verify", "--m", str(m), "--samples", "3", "--seed", str(seed), "--format", fmt])
    for n in range(10):
        for fmt in FORMATS:
            yield run(main, ["example", "--name", "odd-irregular", "--n", str(n), "--format", fmt])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out_path = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1] / "benchmark")]
    import bca.cli
    import corpus

    if not Path(bca.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bca was imported from {bca.cli.__file__}, not from {src}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            lines = [
                f"{json.dumps(run_argv)}\t{code}\t{sha256(out)}\t{sha256(err)}\n"
                for run_argv, code, out, err in golden_runs(bca.cli.main, corpus)
            ]
        finally:
            os.chdir(cwd)
    out_path.write_text("".join(lines))
    print(f"{len(lines)} runs written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
