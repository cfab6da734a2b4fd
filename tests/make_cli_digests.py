"""Write ``tests/fixtures/cli_digests.json`` and print the keys that changed.

The fixture maps each command line (its argv joined by spaces) to the
sha256 of the exit code, standard output and standard error that
``polygonspaces.cli.main`` gives for it, and each file a ``--dump-cells``
run writes (the command line, ``>`` and the file's relative path) to the
sha256 of its bytes.  Every command line runs in a fresh empty directory,
so dump paths are the same relative paths on every run.  It covers:

* ``realize`` and ``chain`` on every nonempty code with m <= 6;
* ``poset`` as DOT and JSON, plain and ``--bar``, on the realizable codes
  with m <= 6;
* ``poset "<1678>" --bar --format json``, the largest intersection poset;
* ``run`` on the realizable codes with m = 5, attach and collapse, plain
  and ``--projective``, JSON and ``--figures``;
* the ``--dump-cells`` files of a few runs;
* ``homology`` on the fixture dumps ``theta.json``, ``torus_ball.json``
  and ``two_cycles.json``;
* ``run --mode collapse`` on the realizable codes with m = 6, plain and
  ``--projective`` (the slow group, about 6 s, which tier-1 leaves to CI).

Run it from the repository root, on a change that alters output on
purpose::

    PYTHONPATH=src python tests/make_cli_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import tempfile
from typing import Iterator

from polygonspaces.cli import main
from polygonspaces.genetics import enumerate_codes, format_code, realize

TESTS = pathlib.Path(__file__).parent
FIXTURE = TESTS / "fixtures" / "cli_digests.json"

# dumps the ``homology`` group reads, by their path from the repository root
HOMOLOGY_DUMPS = (
    "tests/fixtures/theta.json",
    "tests/fixtures/torus_ball.json",
    "tests/fixtures/two_cycles.json",
)


def _codes(m: int) -> list:
    return [code for code in enumerate_codes(m) if not code.is_empty_space()]


def _realizable(m: int) -> list[str]:
    return [format_code(c) for c in _codes(m) if realize(c) is not None]


def _text_verbs() -> Iterator[list[str]]:
    codes = [code for m in range(1, 7) for code in _codes(m)]
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


def _run_m5() -> Iterator[list[str]]:
    for name in _realizable(5):
        for mode in ("attach", "collapse"):
            for projective in ([], ["--projective"]):
                for figures in ([], ["--figures"]):
                    yield ["run", name, "--mode", mode, *projective, *figures]


def _dumps() -> Iterator[list[str]]:
    yield ["run", "<15>", "--mode", "collapse", "--dump-cells", "D"]
    yield ["run", "<125>", "--mode", "attach", "--dump-cells", "D"]
    yield ["run", "<45>", "--projective", "--dump-cells", "D"]
    yield ["run", "<26>", "--mode", "collapse", "--dump-cells", "D"]
    yield ["run", "<14>", "--mode", "model", "--dump-cells", "D"]


def _homology() -> Iterator[list[str]]:
    for path in HOMOLOGY_DUMPS:
        yield ["homology", path]


def _collapse_m6() -> Iterator[list[str]]:
    for name in _realizable(6):
        for projective in ([], ["--projective"]):
            yield ["run", name, "--mode", "collapse", *projective]


# group name -> command lines, in a fixed order
GROUPS = {
    "text": _text_verbs,
    "run-m5": _run_m5,
    "dumps": _dumps,
    "homology": _homology,
    "collapse-m6": _collapse_m6,
}
# the groups tier-1 checks; CI regenerates every group
FAST = ("text", "run-m5", "dumps", "homology")


@contextlib.contextmanager
def _fresh_directory() -> Iterator[pathlib.Path]:
    """Run in an empty directory that holds the fixture dumps at their
    repository paths."""
    before = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        root = pathlib.Path(scratch)
        for path in HOMOLOGY_DUMPS:
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(TESTS.parent / path, root / path)
        os.chdir(root)
        try:
            yield root
        finally:
            os.chdir(before)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(argv: list[str]) -> dict[str, str]:
    """sha256 of the exit code, stdout and stderr of one command line, and
    of each file it writes, by key."""
    key = " ".join(argv)
    out, err = io.StringIO(), io.StringIO()
    with _fresh_directory() as root:
        given = set(root.rglob("*"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        written = sorted(
            p for p in root.rglob("*") if p.is_file() and p not in given
        )
        record = json.dumps([status, out.getvalue(), err.getvalue()])
        found = {key: _sha256(record.encode())}
        for path in written:
            name = path.relative_to(root).as_posix()
            found[f"{key} > {name}"] = _sha256(path.read_bytes())
    return found


def digests(groups=tuple(GROUPS)) -> dict[str, str]:
    found: dict[str, str] = {}
    for group in groups:
        for argv in GROUPS[group]():
            found.update(digest(argv))
    return found


if __name__ == "__main__":
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    new = digests()
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)
    FIXTURE.write_text(json.dumps(new, indent=0) + "\n")
