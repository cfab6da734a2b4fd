"""Write ``tests/fixtures/cli_digests.json`` and print the keys that changed.

The fixture maps each command line (its argv joined by spaces) to the
sha256 of the exit code, standard output and standard error that
``polygonspaces.cli.main`` gives for it.  It covers:

* ``realize`` and ``chain`` on every nonempty code with m <= 6;
* ``poset`` as DOT and JSON, plain and ``--bar``, on the realizable codes
  with m <= 6;
* ``poset "<1678>" --bar --format json``, the largest intersection poset.

Run it from the repository root, on a change that alters output on
purpose::

    PYTHONPATH=src python tests/make_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Iterator

from polygonspaces.cli import main
from polygonspaces.genetics import enumerate_codes, format_code, realize

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_digests.json"


def invocations() -> Iterator[list[str]]:
    """Every argv of the manifest, in a fixed order."""
    codes = [
        code
        for m in range(1, 7)
        for code in enumerate_codes(m)
        if not code.is_empty_space()
    ]
    for code in codes:
        yield ["realize", format_code(code)]
        yield ["chain", format_code(code)]
    for code in codes:
        if realize(code) is None:
            continue
        for bar in ([], ["--bar"]):
            for fmt in ("dot", "json"):
                yield ["poset", format_code(code), *bar, "--format", fmt]
    yield ["poset", "<1678>", "--bar", "--format", "json"]


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    record = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in invocations()}


if __name__ == "__main__":
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = digests()
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)
    FIXTURE.write_text(json.dumps(new, indent=0) + "\n")
