"""Every pinned text output, byte for byte, against golden.json.

``make_golden.py`` beside this file regenerates the file; a mismatch names
each output file whose bytes moved and each hit count that changed.
"""

import json

import pytest

import make_golden


def _moved(expected, actual):
    """One line per output file whose sha256 moved and per row whose hit counts changed."""
    lines = []
    for command in sorted(set(expected) | set(actual)):
        want = expected.get(command, {"files": {}, "hits": {}})
        got = actual.get(command, {"files": {}, "hits": {}})
        for name in sorted(set(want["files"]) | set(got["files"])):
            if want["files"].get(name) != got["files"].get(name):
                lines.append(f"`{command}`: {name} changed bytes")
        for method in sorted(set(want["hits"]) | set(got["hits"])):
            want_rows, got_rows = want["hits"].get(method, {}), got["hits"].get(method, {})
            for row in sorted(set(want_rows) | set(got_rows)):
                if want_rows.get(row) != got_rows.get(row):
                    lines.append(
                        f"`{command}`: {method} {row} hits {want_rows.get(row)} -> {got_rows.get(row)}"
                        f" ({', '.join(make_golden.ACCURACIES)})"
                    )
    return lines


@pytest.fixture(scope="module")
def golden():
    with open(make_golden.GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", make_golden.SEEDS)
def test_pinned_outputs_match_golden(golden, seed, tmp_path):
    moved = _moved(golden["seeds"][str(seed)], make_golden.seed_outputs(seed, str(tmp_path)))
    assert not moved, f"seed {seed}:\n" + "\n".join(moved)
