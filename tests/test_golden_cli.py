"""Every command's output, byte for byte, against committed transcripts.

tests/golden/cli_transcripts.json holds one record per run: its argv, exit
code, stdout and stderr.  The runs cover all five commands at b2 = 1, 2, 3
and 5 in the table, json and csv formats, plus seven error cases; each goes
through main(argv) in process, with FOURFOLD_BUDGET unset.  A change to any
byte of output fails this test.

To change output on purpose, record the change in CHANGES.md and rewrite the
file from the current code:

    PYTHONPATH=src python tests/test_golden_cli.py

then review the diff of tests/golden/cli_transcripts.json before committing.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fourfold.cli import BUDGET_ENV_VAR, main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcripts.json"

COMMANDS = (
    ("ranks",),
    ("ranks", "--max-degree", "6"),
    ("growth",),
    ("verify",),
    ("verify", "--max-degree", "3"),
    ("stable", "--n", "5"),
    ("stable", "--n", "8", "--pi1-order", "3"),
    *(("series", "--kind", kind) for kind in ("tensor", "quotient", "pbw", "free-comm")),
)

ERRORS = (
    ("verify", "--betti", "3", "--max-degree", "9"),  # past the default budget
    ("verify", "--betti", "2", "--max-degree", "3", "--budget", "5"),
    ("ranks", "--betti", "0"),
    ("series", "--kind", "pbw", "--betti", "2", "--dims", "1:2"),
    ("stable", "--betti", "2", "--n", "22"),
    # 10**30 - 1 copies of stem 0 (Z) and of stem 1 (Z/2): the torsion-free
    # sum is a result, the other has more summands than a tuple holds
    ("stable", "--betti", "2", "--n", "1", "--pi1-order", str(10**30)),
    ("stable", "--betti", "2", "--n", "2", "--pi1-order", str(10**30)),
)

RUNS = [
    [cmd[0], "--betti", str(betti), *cmd[1:], "--format", fmt]
    for betti in (1, 2, 3, 5)
    for cmd in COMMANDS
    for fmt in ("table", "json", "csv")
] + [list(argv) for argv in ERRORS]


def transcript(argv) -> dict:
    """argv, exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def test_cli_output_matches_golden_transcripts(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [run["argv"] for run in golden] == RUNS
    for run in golden:
        assert transcript(run["argv"]) == run


if __name__ == "__main__":
    os.environ.pop(BUDGET_ENV_VAR, None)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps([transcript(argv) for argv in RUNS], indent=1, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(RUNS)} transcripts to {GOLDEN}", file=sys.stderr)
