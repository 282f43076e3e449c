"""Golden-output gate: `verify` and `graph` print exactly the pinned bytes.

tests/golden_outputs.json holds the exit code, byte length and sha256 of
each invocation's stdout.  The `verify` and `graph --format json` entries
were captured at `commit`; the `graph --format dot` and `--component`
entries at `dot_and_component_commit`.  The rank-1 `verify` entries of `a1`
and `d2` were added, each an all-PASS report, when the CLI began to accept
rank 1.  An intended change of output edits that file by hand, so the edit
shows in review.
"""

import hashlib
import json
from pathlib import Path

import pytest

from adjcrys.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())["outputs"]

CATEGORIES = {
    "a1": ("axioms", "embedding", "commute", "boundary", "multiplicity",
           "f0-landing", "promotion", "alpha"),
    "c1": ("axioms", "embedding", "commute", "boundary", "multiplicity", "f0-landing"),
    "d2": ("axioms", "embedding", "commute", "boundary", "multiplicity", "f0-landing"),
}


def _invocations():
    for family in ("a1", "c1", "d2"):
        for n in (2, 3):
            for l in range(4):
                yield f"verify --family {family} --rank {n} --level {l} --check all"
                yield f"graph --family {family} --rank {n} --level {l} --format json"
                yield f"graph --family {family} --rank {n} --level {l} --format dot"
            for k in range(4):
                yield f"graph --family {family} --rank {n} --level 3 --format json --component {k}"
    for family, categories in CATEGORIES.items():
        for category in categories:
            yield f"verify --family {family} --rank 3 --level 3 --check {category}"
    for family in ("a1", "d2"):  # C needs rank 2
        for l in range(4):
            yield f"verify --family {family} --rank 1 --level {l} --check all"


def test_golden_file_covers_every_invocation():
    assert sorted(GOLDEN) == sorted(_invocations())


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_output_matches_golden(invocation, capsys):
    code = main(invocation.split())
    data = capsys.readouterr().out.encode("utf-8")
    want = GOLDEN[invocation]
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (
        want["exit"], want["bytes"], want["sha256"]
    )
