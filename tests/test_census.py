"""``docs/CENSUS.md`` against the tree, without re-running the trace.

The census itself is ``make census`` (~20 min).  Between runs this keeps
the committed file from rotting: a name it lists that has left ``src/repro``,
or a top-level ``def``/``class`` that arrived without a row, fails here —
regenerate the file (and, for something only tests reach, say in
``benchmarks/census_keep.txt`` why it stays).
"""

import functools
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import census  # noqa: E402

HINT = "docs/CENSUS.md is stale: run `make census`"


@functools.cache
def _tree() -> set[tuple[str, str]]:
    return {(module, qual) for module, qual, _lines in census.inventory().values()}


def _section(title: str) -> str:
    return census.DOC.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_every_unreached_function_has_a_reason():
    assert "UNJUSTIFIED" not in census.DOC.read_text()


def test_functions_listed_as_kept_still_exist():
    listed = set()
    for title in ("Reached by nobody", "Reached by tier-1 alone"):
        for module, quals in re.findall(r"^- `([\w.]+)`: (.+)$", _section(title), re.M):
            listed |= {(module, q) for q in re.findall(r"`([^`]+)`", quals)}
    assert listed, "the census lists nothing as kept"
    assert listed - _tree() == set(), f"gone from src/repro; {HINT}"


def test_index_has_exactly_the_top_level_names_of_the_tree():
    index, module = set(), None
    for line in _section("Index").splitlines():
        if line.startswith("### "):
            module = line[4:]
        elif line.startswith("- `"):
            index.add((module, line.split("`")[1]))
    tops = {(module, qual.split(".")[0]) for module, qual in _tree()}
    assert index - tops == set(), f"gone from src/repro; {HINT}"
    assert tops - index == set(), f"no row in the census; {HINT}"


def test_a_failing_consumer_writes_nothing(tmp_path, monkeypatch, capsys):
    """A consumer that exits non-zero reaches less than it should: the tool
    names it, exits non-zero and leaves the committed file as it was."""
    doc = tmp_path / "CENSUS.md"
    doc.write_text("committed\n")
    fail = [sys.executable, "-c", "raise SystemExit(3)"]
    monkeypatch.setattr(census, "DOC", doc)
    monkeypatch.setattr(census, "consumers", lambda tmp: {"T": ("a failing suite", [fail])})
    assert census.main() != 0
    assert doc.read_text() == "committed\n"
    assert f"exit 3: {' '.join(fail)}" in capsys.readouterr().err
