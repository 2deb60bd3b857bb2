"""Command-line front end.

Subcommands:

* ``bound``    - compute one capacity lower bound (optimizing gamma unless fixed)
* ``sweep``    - optimize bounds over a parameter grid and write CSV
* ``simulate`` - one seeded channel realization with full bookkeeping, as JSON
* ``verify``   - run a verification suite and emit a machine-readable verdict

Every command is deterministic given its flags (seeds included).  CSV output
uses RFC 4180 quoting with CRLF line endings; JSON is UTF-8 with sorted keys.
The environment variable ``DELINSCAP_SERIES_CONFIG`` may point to a
``key=value`` text file overriding the series defaults (``tail_epsilon``,
``r_max_cap``).

Test surface: ``_parse_grid``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

from .core import ChannelParams, MarkovSourceParams, _check_gamma, bits_to_str
from .channel_sim import Action, augment_with_deleted_runs, flip_complementary
from .exact_oracle import MAX_CASCADE_BITS
from . import analytic_bounds as ab, mc_estimator as mc
from .gamma_optimizer import CHANNELS, best_key, channel_bounds, sweep
from .verification import SUITES, run_suite

ENV_CONFIG = "DELINSCAP_SERIES_CONFIG"
_GRID_MAX = 10_000  # most values one grid spec may expand to

def load_series_config() -> ab.SeriesConfig:
    """Series configuration from the environment-pointed file, else defaults."""
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return ab.SeriesConfig()
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad line in {path!r}: {line!r} (expected key=value)")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    parse = {"tail_epsilon": float, "r_max_cap": _number}
    unknown = set(values) - set(parse)
    if unknown:
        raise ValueError(f"unknown series-config keys in {path!r}: {sorted(unknown)}")
    return ab.SeriesConfig(**{key: parse[key](text) for key, text in values.items()})


def _number(text: str) -> int | float:
    """An integer literal as an int, any other number as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_grid(spec: str) -> list[float]:
    """Grid spec: a single value, a comma list, or start:stop:step (inclusive).
    Every number must be finite, and a range may hold at most _GRID_MAX values."""
    vals = [float(p) for p in spec.split(":" if ":" in spec else ",")]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"grid spec {spec!r} holds a non-finite number")
    if ":" not in spec:
        return vals
    if len(vals) != 3:
        raise ValueError(f"grid spec {spec!r} must be start:stop:step")
    start, stop, step = vals
    if step <= 0:
        raise ValueError("grid step must be positive")
    if (stop + 1e-12 - start) / step >= _GRID_MAX:  # checked before the grid is built
        raise ValueError(f"grid spec {spec!r} expands to more than {_GRID_MAX} values")
    vals = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        vals.append(v)
        k += 1
    if not vals:
        raise ValueError(f"grid spec {spec!r} expands to no values (start > stop)")
    return vals


def positive_int(text: str) -> int:
    """A whole number of at least 1, also written like 1e6."""
    val = float(text)
    if not (math.isfinite(val) and val >= 1 and val == int(val)):
        raise ValueError(text)
    return int(val)


def cascade_length(text: str) -> int:
    """An input length the cascade equivalence check takes, 0..MAX_CASCADE_BITS."""
    val = int(text)
    if not 0 <= val <= MAX_CASCADE_BITS:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..{MAX_CASCADE_BITS}, got {text}")
    return val


def _seed(text: str) -> int:
    """A seed of numpy's generators: a whole number of at least 0."""
    try:
        val = int(text)
    except ValueError:
        val = None
    if val is None or val < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return val


def _tol(text: str) -> float:
    """A gamma search tolerance; an infinity, which would return the raw grid
    point, is a usage error.  The library checks the rest (:func:`channel_bounds`)."""
    val = float(text)
    if math.isinf(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return val


def _out_path(text: str) -> str:
    """A file path to write; an empty one is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("must be a file path, got an empty string")
    return text


def _channel_flags(parser: argparse.ArgumentParser, args) -> dict:
    """The channel's own flags, its ChannelParams keywords; a usage error for a missing or foreign one."""
    needed = CHANNELS[args.channel].flags
    for flag in ("d", "i", "alpha"):
        val = getattr(args, flag)
        if flag in needed and val is None:
            parser.error(f"--{flag} is required for channel {args.channel!r}")
        if flag not in needed and val is not None:
            parser.error(f"--{flag} does not apply to channel {args.channel!r}")
    return {flag: getattr(args, flag) for flag in needed}


def _result_dict(res: ab.BoundResult) -> dict:
    return {
        "bound_bits": res.bound_bits,
        "gamma_star": res.gamma_star,
        "error_budget": res.error_budget,
        "terms": [
            {"name": t.name, "value": t.value, "truncation_error": t.truncation_error}
            for t in res.terms
        ],
    }


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_bound(parser: argparse.ArgumentParser, args) -> int:
    flags = _channel_flags(parser, args)
    if args.paper_closed_forms and args.channel != "deletion":
        parser.error("--paper-closed-forms applies only to the deletion channel")
    try:
        params = ChannelParams(**flags)
        if args.gamma is not None:
            _check_gamma(args.gamma)
    except ValueError as exc:
        parser.error(str(exc))
    cfg = load_series_config()

    bounds = channel_bounds(args.channel, **asdict(params), gamma=args.gamma, cfg=cfg, tol=args.tol,
                            use_printed_hs2=args.paper_closed_forms)
    if args.paper_closed_forms:
        print("note: --paper-closed-forms subtracts the printed deleted-run term, which can be "
              "negative; the figure is not a certified lower bound", file=sys.stderr)
    winner = best_key(bounds)
    best = bounds[winner]
    payload = {
        "channel": args.channel,
        "params": asdict(params),
        "gamma": args.gamma,
        "series_config": asdict(cfg),
        "bounds": {k: _result_dict(v) for k, v in bounds.items()},
        "bound_bits": best.bound_bits,
        "gamma_star": best.gamma_star,
    }
    if args.json or args.out:
        _emit(payload, args.out)
    else:
        print(f"channel={args.channel} d={params.d} i={params.i} alpha={params.alpha}")
        for key in sorted(bounds):
            res = bounds[key]
            where = f"at gamma*={res.gamma_star:.6f}" if res.bound_bits > 0.0 else "(no positive rate is certified)"
            print(f"  {key}: {res.bound_bits:.9f} bits/use {where} (error budget {res.error_budget:.2e})")
            for t in res.terms:
                print(f"      {t.name:42s} {t.value: .9f}  (trunc {t.truncation_error:.2e})")
        if len(bounds) > 1:
            print(f"  max: {best.bound_bits:.9f} bits/use ({winner})")
    return 0


def _cmd_sweep(parser: argparse.ArgumentParser, args) -> int:
    flags = _channel_flags(parser, args)
    cfg = load_series_config()
    try:
        grids = {flag: _parse_grid(spec) for flag, spec in flags.items()}
    except ValueError as exc:
        parser.error(str(exc))
    points = [dict(zip(grids, values)) for values in itertools.product(*grids.values())]

    spec = CHANNELS[args.channel]
    totals = [*spec.bounds, "lb_max"] if len(spec.bounds) > 1 else []
    columns = ["d", "i", "alpha", "gamma_star", "bound", *totals]
    header = ["channel", *columns, *(f"term:{n}" for n in spec.term_columns)]

    # opened before the first solve, so that a path that cannot be written costs no solve;
    # removed again if anything stops the sweep, so that no partial file is left
    fh = open(args.out, "w", newline="", encoding="utf-8")
    try:
        with fh:
            rows = sweep(args.channel, points, cfg=cfg, tol=args.tol)
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                res: ab.BoundResult = row["result"]
                terms = {t.name: t.value for t in res.terms}
                record = [row["channel"], *(repr(row[k]) for k in columns)]
                record += [repr(terms[n]) if n in terms else "" for n in spec.term_columns]
                writer.writerow(record)
    except BaseException:
        os.remove(args.out)
        raise
    print(f"wrote {len(rows)} rows to {args.out}")
    if uncertified := sum(row["bound"] <= 0.0 for row in rows):
        print(f"no positive rate is certified at {uncertified} of the {len(rows)} points (bound <= 0)")
    return 0


def _cmd_simulate(parser: argparse.ArgumentParser, args) -> int:
    flags = _channel_flags(parser, args)
    if args.n < 1:
        parser.error("--n must be at least 1")
    try:
        params = ChannelParams(**flags)
        MarkovSourceParams(args.gamma)
    except ValueError as exc:
        parser.error(str(exc))

    x, out = mc._simulate(params, args.gamma, args.n, args.seed)
    flipped = flip_complementary(out.y, out.aux.t_flags)
    augmented = augment_with_deleted_runs(flipped, out.aux.s_counts)

    payload = {
        "channel": args.channel,
        "params": asdict(params),
        "gamma": args.gamma,
        "n": args.n,
        "seed": args.seed,
        "x": bits_to_str(x),
        "y": bits_to_str(out.y),
        "m": out.m,
        "pattern": [Action(a).name.lower() for a in out.pattern],
        "i_flags": out.aux.i_flags.tolist(),
        "t_flags": out.aux.t_flags.tolist(),
        "s_counts": out.aux.s_counts.tolist(),
        "y_flipped": bits_to_str(flipped),
        "augmented_runs": {"first_bit": augmented.first_bit, "lengths": list(augmented.lengths)},
    }
    _emit(payload, args.out)
    return 0


def _cmd_verify(parser: argparse.ArgumentParser, args) -> int:
    report = run_suite(args.suite, steps=args.steps, seed=args.seed, n_max=args.n_max, cfg=load_series_config())
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="delinscap",
                                     description="Capacity lower bounds for deletion/insertion channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel_flags(p: argparse.ArgumentParser, grids: bool = False) -> None:
        kind = str if grids else float
        p.add_argument("--channel", required=True, choices=tuple(CHANNELS))
        p.add_argument("--d", type=kind, default=None, help="deletion probability" + (" or grid" if grids else ""))
        p.add_argument("--i", type=kind, default=None, help="insertion probability" + (" or grid" if grids else ""))
        p.add_argument("--alpha", type=kind, default=None,
                       help="duplication fraction" + (" or grid" if grids else ""))

    p = sub.add_parser("bound", help="compute a capacity lower bound")
    add_channel_flags(p)
    p.add_argument("--gamma", type=float, default=None, help="fix gamma instead of optimizing")
    p.add_argument("--tol", type=_tol, default=1e-5, help="gamma optimization tolerance")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", type=_out_path, default=None, help="write JSON to this path")
    p.add_argument("--paper-closed-forms", action="store_true",
                   help="use the as-published closed form for the deleted-run-count term")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="optimize bounds over a parameter grid, write CSV")
    add_channel_flags(p, grids=True)
    p.add_argument("--tol", type=_tol, default=1e-5)
    p.add_argument("--out", type=_out_path, required=True, help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="one seeded channel realization as JSON")
    add_channel_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="input length")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=tuple(SUITES))
    p.add_argument("--steps", type=positive_int, default="1e6", help="Monte Carlo chain length (mc suite)")
    p.add_argument("--seed", type=_seed, default=20240501)
    p.add_argument("--n-max", type=cascade_length, default=8,
                   help="input length for the cascade check (oracle suite)")
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, MemoryError, OSError) as exc:
        # bad input, a size too large to allocate, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
