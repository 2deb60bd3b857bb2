"""Golden numbers: every optimized bound of a fixed set of cases, as reprs.

``golden_bounds.jsonl`` holds one JSON object per case: its label, and the
repr of ``bound_bits``, ``gamma_star``, ``error_budget`` and every term
value of the result.  The cases are single ``optimize_bound`` solves of all
four bounds and of the deletion bound's printed deleted-run form (the
``deletion_printed`` entry, through ``use_printed_hs2``) and the rows of three
sweeps, the ones ``delinscap sweep`` writes for

    --channel deletion --d 0:0.99:0.01
    --channel insertion --i 0.05:0.9:0.05 --alpha 0.8,1.0
    --channel delins --d 0:0.8:0.1 --i 0:0.15:0.05 --alpha 0.5,0.9

``tests/test_golden.py`` recomputes them and compares repr for repr.  A
change that moves a number on purpose regenerates the file and commits it,
so the move shows as a reviewed diff:

    PYTHONPATH=src python tests/golden.py

The same run rewrites README's figures table, every figure README quotes:
for each of the ``FIGURE_CASES``, its record's ``bound_bits``,
``gamma_star`` and ``error_budget``, and the rows the row table holds after
a solve from an empty table and the exact probes of that solve, both read
from the fields of the search's DEBUG record (:func:`cold_search`).
``tests/test_golden.py`` fails when README's copy is stale.

``--diff`` prints, without writing, how far the numbers moved from the
committed file: the largest |move| of each column, in how many cases it
moved up and in how many down (and for ``bound_bits`` its most negative
move), how many cases moved, and in how many ``gamma_star`` did (the
summary a failing test gives too), and one line for each case whose
``gamma_star`` moved or whose
``bound_bits`` moved by more than its committed ``error_budget``: its old
and new ``gamma_star`` and ``bound_bits``, and its old ``error_budget``.
It exits 1 when such a line appears: a regeneration meant to move numbers
by rounding alone must pass it.  A last line says whether README's figures
table is current; it does not change the exit code.

``golden_sim.jsonl`` is the simulator's contract: for each of a fixed set of
(d, i, alpha, gamma, n, seed) cases, the sha256 of every array of one
``apply_delins`` and one ``apply_cascade`` realization (y, I, T, S and the
pattern, each hashed with its dtype, and the augmented run lengths of the
flipped output) and the reprs of two Monte Carlo estimates (or the error an
estimate raises).  A change that moves a simulated bit on purpose
regenerates it:

    PYTHONPATH=src python tests/golden.py --sim

``golden_cli.jsonl`` is the CLI's contract: for each ``delinscap`` command of
README's CLI section, in README's order, its exit code, stdout and stderr
and the files it writes, run through ``cli.main`` in an empty directory.
The ``"seconds"`` lines of a verification report are dropped, as they are
wall-clock times.  ``tests/test_cli.py`` runs each command and compares
byte for byte; a change to the CLI's output regenerates the file:

    PYTHONPATH=src python tests/golden.py --cli
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import logging.handlers
import math
import os
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np

from delinscap import channel_sim, cli, mc_estimator, run_length
from delinscap.cli import _parse_grid
from delinscap.core import ChannelParams, MarkovSourceParams, generate_markov_sequence
from delinscap.gamma_optimizer import optimize_bound, sweep

PATH = Path(__file__).resolve().parent / "golden_bounds.jsonl"
SIM_PATH = Path(__file__).resolve().parent / "golden_sim.jsonl"
CLI_PATH = Path(__file__).resolve().parent / "golden_cli.jsonl"
README = Path(__file__).resolve().parents[1] / "README.md"

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

# the SOLVES cases of README's figures table
FIGURE_CASES = [
    ("deletion", {"d": 0.3}), ("deletion", {"d": 0.9}), ("deletion", {"d": 0.95}), ("deletion", {"d": 0.99}),
    ("insertion_lb2", {"i": 0.1, "alpha": 0.8}), ("delins", {"d": 0.1, "i": 0.1, "alpha": 0.8}),
    ("delins", {"d": 0.5, "i": 0.3, "alpha": 0.8}), ("delins", {"d": 0.3, "i": 0.7, "alpha": 0.5}),
]

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


def _label(name: str, params: dict) -> str:
    return f"optimize_bound {name} " + " ".join(f"{k}={v!r}" for k, v in params.items())


def compute() -> list[dict]:
    """Every case, in the file's order."""
    records = [_record(_label(name, params), optimize_bound(name, **params)) for name, params in SOLVES]
    for channel, d, i, alpha in SWEEPS:
        points = [{"d": dv, "i": iv, "alpha": av}
                  for dv in _parse_grid(d) for iv in _parse_grid(i) for av in _parse_grid(alpha)]
        for row in sweep(channel, points):
            label = f"sweep {channel} d={row['d']!r} i={row['i']!r} alpha={row['alpha']!r}"
            extra = {key: row[key] for key in ("lb1", "lb2") if key in row}
            records.append(_record(label, row["result"], extra))
    return records


def cold_search(name: str, params: dict) -> dict:
    """The fields of the one DEBUG record of ``optimize_bound(name,
    **params)`` from an empty row table, by name
    (``gamma_optimizer.maximize_over_gamma``)."""
    run_length.ROWS.reset()
    logger, handler = logging.getLogger("delinscap"), logging.handlers.BufferingHandler(2)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        optimize_bound(name, **params)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    (record,) = handler.buffer
    return record.args


_FIGURES = re.compile(r"<!-- figures: .*? -->\n(.*?)<!-- end of figures -->", re.S)


def figures_table(records: list[dict]) -> str:
    """README's figures table: for each of the ``FIGURE_CASES``, its
    record's bound, gamma* and budget, and the rows held and exact probes
    of a cold solve (:func:`cold_search`)."""
    by_case = {r["case"]: r for r in records}
    lines = ["| case | bound_bits | gamma* | error_budget | rows after a cold solve | exact probes |",
             "|---|---:|---:|---:|---:|---:|"]
    for name, params in FIGURE_CASES:
        label = _label(name, params)
        record, search = by_case[label], cold_search(name, params)
        bits, gamma, budget = (float(record[key]) for key in ("bound_bits", "gamma_star", "error_budget"))
        lines.append(f"| {label.removeprefix('optimize_bound ')} | {bits:.7g} | {gamma:.7g} | {budget:.1e} | "
                     f"{search['rows']:,} | {search['probes']} |")
    return "\n".join(lines) + "\n"


def with_figures(text: str, table: str) -> str:
    """README's ``text`` with ``table`` between its figures markers."""
    if (found := _FIGURES.search(text)) is None:
        raise ValueError("README has no figures table between its markers")
    return text[:found.start(1)] + table + text[found.end(1):]


# (d, i, alpha, gamma, n, seed): d = 0, i = 0, alpha in {0, 1}, d + i = 1
# (where i/(1 - d) rounds above 1 too), nearly every bit deleted, and the
# empty and tiny inputs
SIM_CASES = [
    (0.15, 0.15, 0.6, 0.5, 200_000, 1),
    (0.0, 0.0, 1.0, 0.5, 1_000, 2),
    (0.3, 0.0, 1.0, 0.7, 50_000, 3),
    (0.0, 0.3, 0.0, 0.4, 50_000, 4),
    (0.0, 0.2, 1.0, 0.6, 50_000, 5),
    (0.6, 0.4, 0.5, 0.5, 20_000, 6),
    (0.8, 0.2, 0.9, 0.3, 20_000, 7),
    (0.9, 0.05, 0.8, 0.9, 100_000, 8),
    (0.05, 0.3, 0.2, 0.3, 100_000, 9),
    (0.25, 0.2, 0.6, 0.95, 200_000, 10),
    (0.99, 0.0, 1.0, 0.2, 10_000, 11),
    (0.5, 0.3, 0.5, 0.5, 7, 12),
    (0.2, 0.1, 0.5, 0.5, 0, 13),
]
# steps of each Monte Carlo estimate
SIM_MC_STEPS = 20_000


def _digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(arr.dtype.str.encode() + arr.tobytes()).hexdigest()


def _realization(out) -> dict:
    flipped = channel_sim.flip_complementary(out.y, out.aux.t_flags)
    augmented = channel_sim.augment_with_deleted_runs(flipped, out.aux.s_counts)
    return {"y": _digest(out.y), "i_flags": _digest(out.aux.i_flags), "t_flags": _digest(out.aux.t_flags),
            "s_counts": _digest(out.aux.s_counts), "pattern": _digest(out.pattern),
            "augmented": [augmented.first_bit, _digest(np.array(augmented.lengths, dtype=np.int64))]}


def _estimate(estimator, *args, **kwargs) -> str:
    """The repr of an estimate, or the ``ValueError`` it raises."""
    try:
        return repr(estimator(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


def compute_sim() -> list[dict]:
    """Every simulator case, in the file's order."""
    records = []
    for d, i, alpha, gamma, n, seed in SIM_CASES:
        params = ChannelParams(d=d, i=i, alpha=alpha)
        x = generate_markov_sequence(MarkovSourceParams(gamma), n, seed)
        records.append({
            "case": f"d={d!r} i={i!r} alpha={alpha!r} gamma={gamma!r} n={n} seed={seed}",
            "x": _digest(x),
            "delins": _realization(channel_sim.apply_delins(x, params, seed + 1)),
            "cascade": _realization(channel_sim.apply_cascade(x, params, seed + 2)),
            "hT": _estimate(mc_estimator.estimate_hT, i, alpha, gamma, SIM_MC_STEPS, seed=seed + 3),
            "S": _estimate(mc_estimator.estimate_delins_S_term, gamma, d, i, alpha, SIM_MC_STEPS, seed=seed + 4),
        })
    return records


def readme_commands() -> list[str]:
    """The ``delinscap`` commands of README's CLI section, in order."""
    block = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("delinscap ")]


def run_cli(command: str) -> dict:
    """Run one ``delinscap`` command through ``cli.main`` in an empty
    directory: its exit code, stdout, stderr and the files it wrote."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(shlex.split(command)[1:])
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_bytes().decode("utf-8") for p in sorted(Path(tmp).iterdir())}
    return {"command": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


_SECONDS = re.compile(r'^ *"seconds": .*\n', re.MULTILINE)


def cli_record(run: dict) -> dict:
    """A :func:`run_cli` result as the contract keeps it: without the
    wall-clock ``"seconds"`` lines of a verification report."""
    return {**run, "stdout": _SECONDS.sub("", run["stdout"])}


def compute_cli() -> list[dict]:
    """Every README command's record, in README's order."""
    return [cli_record(run_cli(command)) for command in readme_commands()]


def load(path: Path = PATH) -> list[dict]:
    """The committed records."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def dump(records: list[dict]) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _columns(record: dict) -> dict[str, float]:
    """Every number of a record by column, its terms under their names."""
    out = {key: float(value) for key, value in record.items() if key not in ("case", "terms")}
    out.update((name, float(value)) for name, value in record["terms"].items())
    return out


def _moves(expected: list[dict], got: list[dict]) -> tuple[int, int, dict[str, list[float]], list[str]]:
    """(cases moved, cases whose ``gamma_star`` moved, each moved column's
    signed moves, nan where the column is on one side only, a line for each
    case whose ``gamma_star`` moved or whose ``bound_bits`` moved by more
    than its committed ``error_budget``), for the same cases in order."""
    columns: dict[str, list[float]] = {}
    moved = gamma_moved = 0
    flagged = []
    for e, g in zip(expected, got):
        if e == g:
            continue
        moved += 1
        gamma_moved += e["gamma_star"] != g["gamma_star"]
        ce, cg = _columns(e), _columns(g)
        for key in ce.keys() | cg.keys():
            move = cg[key] - ce[key] if key in ce and key in cg else math.nan
            if move != 0.0:
                columns.setdefault(key, []).append(move)
        if e["gamma_star"] != g["gamma_star"] or not abs(cg["bound_bits"] - ce["bound_bits"]) <= ce["error_budget"]:
            flagged.append(f"  {e['case']}: gamma_star {e['gamma_star']} -> {g['gamma_star']}; "
                           f"bound_bits {e['bound_bits']} -> {g['bound_bits']}; error_budget {e['error_budget']}")
    return moved, gamma_moved, columns, flagged


def summary(expected: list[dict], got: list[dict]) -> str:
    """How ``got`` moved from ``expected``, case by case: how many cases
    moved, in how many ``gamma_star`` did, the largest |move| of each
    column that moved (inf where a column is on one side only) and in how
    many cases it moved up and down, ``bound_bits``' most negative move if
    one fell, and one line for each case whose ``gamma_star`` moved or whose
    ``bound_bits`` moved by more than its committed ``error_budget``."""
    if [r["case"] for r in got] != [r["case"] for r in expected]:
        return f"the cases differ: {len(expected)} expected, {len(got)} computed"
    moved, gamma_moved, columns, flagged = _moves(expected, got)
    lines = [f"{moved} of {len(expected)} cases moved; gamma_star moved in {gamma_moved}"]
    for key, moves in sorted(columns.items()):
        largest = max(math.inf if math.isnan(m) else abs(m) for m in moves)
        falls = [m for m in moves if m < 0.0]
        lines.append(f"  {key}: largest |move| {largest!r}; {sum(m > 0.0 for m in moves)} up, {len(falls)} down"
                     + (f"; most negative move {min(falls)!r}" if key == "bound_bits" and falls else ""))
    return "\n".join(lines + flagged)


def moved_by_rounding(expected: list[dict], got: list[dict]) -> bool:
    """Whether ``got`` has the same cases as ``expected``, no ``gamma_star``
    moved and no ``bound_bits`` moved past its committed ``error_budget``:
    when ``--diff`` exits 0."""
    return [r["case"] for r in got] == [r["case"] for r in expected] and not _moves(expected, got)[3]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Regenerate the golden numbers and README's figures table, or show how far the numbers moved.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--diff", action="store_true", help="print the moves against the committed file; write nothing")
    mode.add_argument("--sim", action="store_true", help="regenerate the simulator hashes instead")
    mode.add_argument("--cli", action="store_true", help="regenerate the CLI outputs of README's examples instead")
    args = parser.parse_args()
    if args.cli:
        CLI_PATH.write_text(dump(compute_cli()), encoding="utf-8")
        print(f"wrote {CLI_PATH}")
    elif args.sim:
        SIM_PATH.write_text(dump(compute_sim()), encoding="utf-8")
        print(f"wrote {SIM_PATH}")
    elif args.diff:
        expected, got = load(), compute()
        print(summary(expected, got))
        text = README.read_text(encoding="utf-8")
        print("README's figures table is " + ("current" if with_figures(text, figures_table(got)) == text
                                               else "stale; the default run rewrites it"))
        raise SystemExit(0 if moved_by_rounding(expected, got) else 1)
    else:
        records = compute()
        PATH.write_text(dump(records), encoding="utf-8")
        print(f"wrote {PATH}")
        README.write_text(with_figures(README.read_text(encoding="utf-8"), figures_table(records)), encoding="utf-8")
        print(f"wrote {README}")
