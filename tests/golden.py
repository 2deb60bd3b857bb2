"""Golden numbers: every optimized bound of a fixed set of cases, as reprs.

``golden_bounds.jsonl`` holds one JSON object per case: its label, and the
repr of ``bound_bits``, ``gamma_star``, ``error_budget`` and every term
value of the result.  The cases are single ``optimize_bound`` solves of all
four bounds (the printed deleted-run form included) and the rows of three
sweeps, the ones ``delinscap sweep`` writes for

    --channel deletion --d 0:0.99:0.01
    --channel insertion --i 0.05:0.9:0.05 --alpha 0.8,1.0
    --channel delins --d 0:0.8:0.1 --i 0:0.15:0.05 --alpha 0.5,0.9

``tests/test_golden.py`` recomputes them and compares repr for repr.  A
change that moves a number on purpose regenerates the file and commits it,
so the move shows as a reviewed diff:

    PYTHONPATH=src python tests/golden.py

and ``--diff`` prints, without writing, how far the numbers moved from the
committed file: the largest |move| of each column and how many cases moved,
and in how many ``gamma_star`` did (the summary a failing test gives too).
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from delinscap.cli import _parse_grid
from delinscap.gamma_optimizer import optimize_bound, sweep

PATH = Path(__file__).resolve().parent / "golden_bounds.jsonl"

_DELETION = sorted({round(0.03 * k, 2) for k in range(34)} | {0.8, 0.85, 0.9, 0.93, 0.947, 0.95, 0.96, 0.97, 0.99})
_INSERTION = [(0.1, 0.8), (0.3, 1.0), (0.5, 0.5)]
_DELINS = [
    (0.5, 0.3, 0.8), (0.3, 0.7, 0.5), (0.45, 0.55, 0.5),  # gamma* near 1, d + i = 1
    (0.5, 0.1, 0.8), (0.7, 0.05, 0.8), (0.7, 0.1, 0.9),  # the benchmark's high-gamma points
    (0.1, 0.1, 0.8), (0.05, 0.1, 0.5), (0.12, 0.01, 1.0),  # low gamma*
]
_PRINTED = [0.0, 0.2, 0.9]

SOLVES = (
    [("deletion", {"d": d}) for d in _DELETION]
    + [(name, {"i": i, "alpha": a}) for name in ("insertion_lb1", "insertion_lb2") for i, a in _INSERTION]
    + [("delins", {"d": d, "i": i, "alpha": a}) for d, i, a in _DELINS]
    + [("deletion", {"d": d, "use_printed_hs2": True}) for d in _PRINTED]
)

SWEEPS = [
    ("deletion", "0:0.99:0.01", "0", "1"),
    ("insertion", "0", "0.05:0.9:0.05", "0.8,1.0"),
    ("delins", "0:0.8:0.1", "0:0.15:0.05", "0.5,0.9"),
]


def _record(label: str, res, extra: dict | None = None) -> dict:
    out = {"case": label, "bound_bits": repr(res.bound_bits), "gamma_star": repr(res.gamma_star),
           "error_budget": repr(res.error_budget)}
    out.update({key: repr(value) for key, value in (extra or {}).items()})
    out["terms"] = {t.name: repr(t.value) for t in res.terms}
    return out


def compute() -> list[dict]:
    """Every case, in the file's order."""
    records = []
    for name, params in SOLVES:
        label = f"optimize_bound {name} " + " ".join(f"{k}={v!r}" for k, v in params.items())
        records.append(_record(label, optimize_bound(name, **params)))
    for channel, d, i, alpha in SWEEPS:
        points = [{"d": dv, "i": iv, "alpha": av}
                  for dv in _parse_grid(d) for iv in _parse_grid(i) for av in _parse_grid(alpha)]
        for row in sweep(channel, points):
            label = f"sweep {channel} d={row['d']!r} i={row['i']!r} alpha={row['alpha']!r}"
            extra = {key: row[key] for key in ("lb1", "lb2") if key in row}
            records.append(_record(label, row["result"], extra))
    return records


def load() -> list[dict]:
    """The committed records."""
    return [json.loads(line) for line in PATH.read_text(encoding="utf-8").splitlines()]


def dump(records: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _columns(record: dict) -> dict[str, float]:
    """Every number of a record by column, its terms under their names."""
    out = {key: float(value) for key, value in record.items() if key not in ("case", "terms")}
    out.update((name, float(value)) for name, value in record["terms"].items())
    return out


def summary(expected: list[dict], got: list[dict]) -> str:
    """How ``got`` moved from ``expected``, case by case: how many cases
    moved, in how many ``gamma_star`` did, and the largest |move| of each
    column that moved (inf where a column is on one side only)."""
    if [r["case"] for r in got] != [r["case"] for r in expected]:
        return f"the cases differ: {len(expected)} expected, {len(got)} computed"
    largest: dict[str, float] = {}
    moved = gamma_moved = 0
    for e, g in zip(expected, got):
        if e == g:
            continue
        moved += 1
        gamma_moved += e["gamma_star"] != g["gamma_star"]
        ce, cg = _columns(e), _columns(g)
        for key in ce.keys() | cg.keys():
            move = abs(cg[key] - ce[key]) if key in ce and key in cg else math.inf
            if move > 0.0:
                largest[key] = max(largest.get(key, 0.0), move)
    lines = [f"{moved} of {len(expected)} cases moved; gamma_star moved in {gamma_moved}"]
    lines += [f"  {key}: largest |move| {move!r}" for key, move in sorted(largest.items())]
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden numbers, or show how far they moved.")
    parser.add_argument("--diff", action="store_true", help="print the moves against the committed file; write nothing")
    if parser.parse_args().diff:
        print(summary(load(), compute()))
    else:
        PATH.write_text(dump(compute()), encoding="utf-8")
        print(f"wrote {PATH}")
