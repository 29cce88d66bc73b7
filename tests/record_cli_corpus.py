"""Re-record ``tests/data/cli_corpus.json``, the golden CLI corpus.

Each entry is ``{label: {"argv", "code", "stdout", "stderr"}}``.  The argv
live only in that file: to add an entry, add ``"label": {"argv": [...]}``
to it and run

    PYTHONPATH=src python tests/record_cli_corpus.py

which reruns every argv through ``cli.main`` in this process and rewrites
the file with its labels sorted.  An exit-0 entry must pass
``--no-timestamp``, and no entry may write a file with ``-o``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from radsum import cli

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"


def run(argv: list) -> dict:
    """The entry of ``argv``: exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> None:
    corpus = {}
    for label, entry in json.loads(CORPUS.read_text(encoding="utf-8")).items():
        argv = entry["argv"]
        if any(arg.startswith(("-o", "--output")) for arg in argv):
            sys.exit(f"{label}: the corpus records stdout; drop -o")
        corpus[label] = run(argv)
        if corpus[label]["code"] == 0 and "--no-timestamp" not in argv:
            sys.exit(f"{label}: an exit-0 entry needs --no-timestamp")
    CORPUS.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
