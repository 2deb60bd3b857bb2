"""Every number of the golden set (``golden.py``) is recomputed and compared repr for repr."""

import json

import golden


def test_golden_numbers_are_unchanged():
    expected = [json.loads(line) for line in golden.PATH.read_text(encoding="utf-8").splitlines()]
    got = golden.compute()
    assert [r["case"] for r in got] == [r["case"] for r in expected]
    moved = [(e["case"], e, g) for e, g in zip(expected, got) if e != g]
    assert not moved, f"{len(moved)} cases moved; the first: {moved[0]}"
