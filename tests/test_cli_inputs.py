"""Every CLI input reaches the library: the channel flags, --gamma, --seed,
and the series configuration of every verify suite."""

import argparse
import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from delinscap import exact_oracle
from delinscap import verification as ver
from delinscap.core import ChannelParams
from delinscap.cli import build_parser, main
from delinscap.gamma_optimizer import CHANNELS

SCHEMA = Path(__file__).resolve().parents[1] / "src" / "delinscap" / "schemas" / "verification.schema.json"


@pytest.mark.parametrize("args", [
    ["--channel", "deletion", "--d", "0", "--gamma", "1e-200"],  # ZeroDivisionError tracebacks once
    ["--channel", "insertion", "--i", "0.5", "--alpha", "0.8", "--gamma", "1e-300"],
    ["--channel", "deletion", "--d", "0.5", "--gamma", "5e-324"],
    ["--channel", "delins", "--d", "0.3", "--i", "0.2", "--alpha", "0.5", "--gamma", str(1 - 1e-10)],  # exit 0 once
])
def test_gamma_outside_the_search_range_is_a_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", *args])
    assert exc.value.code == 2
    assert "gamma=" in capsys.readouterr().err


def test_suite_names_agree_with_the_schema_and_the_parser():
    (command,) = [a for a in build_parser()._actions if a.dest == "command"]
    (suite,) = [a for a in command.choices["verify"]._actions if a.dest == "suite"]
    schema = json.loads(SCHEMA.read_text())["properties"]["suite"]["enum"]
    assert set(schema) == set(suite.choices) == set(ver.SUITES)


def test_seed_reaches_the_sampled_cascade_check(monkeypatch):
    # past 8 bits the cascade check samples 64 inputs from its seed
    seeds = []

    def cascade(n, params, seed=0):
        seeds.append((n, seed))
        return 0.0

    monkeypatch.setattr(exact_oracle, "cascade_equivalence_check", cascade)
    for seed in ("5", "6"):
        assert main(["verify", "oracle", "--n-max", "9", "--seed", seed]) == 0
    assert seeds == [(9, 5)] * len(ver.CASCADE_PARAMS) + [(9, 6)] * len(ver.CASCADE_PARAMS)


def test_series_config_reaches_the_truncation_suite(tmp_path, monkeypatch, capsys, readme_run):
    default = json.loads(readme_run("delinscap verify truncation")["stdout"])
    cfg_file = tmp_path / "series.cfg"
    cfg_file.write_text("r_max_cap=8\ntail_epsilon=0.5\n")
    monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
    assert main(["verify", "truncation"]) == 1
    capped = json.loads(capsys.readouterr().out)
    # every value is certified, so the cap shows in the band's slack, not in the budget
    slacks = [[float(c["detail"].split("band slack ")[1]) for c in report["checks"] if "band slack" in c["detail"]]
              for report in (default, capped)]
    assert len(slacks[0]) == len(slacks[1]) == 7
    assert max(slacks[0]) < 1e-9 and max(slacks[1]) > 1e-3


@pytest.mark.parametrize("n_max", [11, -1])
def test_n_max_outside_the_cascade_check_is_a_usage_error(n_max, capsys):
    # these exited 1 with the library's ValueError once
    with pytest.raises(SystemExit) as exc:
        main(["verify", "oracle", "--n-max", str(n_max)])
    assert exc.value.code == 2
    assert "--n-max" in capsys.readouterr().err
    with pytest.raises(ValueError, match="supports 0 <= n <= 10"):
        exact_oracle.cascade_equivalence_check(n_max, ChannelParams(d=0.1))


@pytest.mark.parametrize("flag,value,message", [("--n", "0", "--n must be at least 1"),
                                                 ("--gamma", "1.0", "gamma=1.0 must lie strictly inside (0, 1)")])
def test_simulate_input_out_of_range_is_a_usage_error(flag, value, message, capsys):
    args = {"--gamma": "0.5", "--n": "10", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--channel", "deletion", "--d", "0.1", *[x for kv in args.items() for x in kv]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--channel", "deletion", "--d", "0.1", "--gamma", "0.5", "--n", "10"],
    ["verify", "mc"],
])
@pytest.mark.parametrize("seed", ["-1", "-3", "1.5", "x"])
def test_seed_that_is_no_non_negative_integer_is_a_usage_error(command, seed, capsys):
    # a negative seed exited 1 with numpy's "expected non-negative integer", naming no flag
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", seed])
    assert exc.value.code == 2
    assert f"argument --seed: must be a non-negative integer, got {seed}" in capsys.readouterr().err


def test_series_config_line_without_equals_is_an_error(tmp_path, monkeypatch, capsys):
    cfg_file = tmp_path / "series.cfg"
    cfg_file.write_text("tail_epsilon 1e-10\n")
    monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
    assert main(["bound", "--channel", "deletion", "--d", "0.1", "--gamma", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad line") and "expected key=value" in err


def test_unknown_suite_lists_the_suites():
    with pytest.raises(ValueError) as err:
        ver.run_suite("bogus")
    assert str(err.value) == "unknown suite 'bogus'; expected oracle/mc/reductions/truncation"


# the values of the flags that take one: plain values that the flag's type reads, and at most
# one hostile value per command line.  The hostile ones are non-finite numbers, a signed zero, a
# subnormal, underscores and Arabic-Indic digits (which float() and int() read), blanks, a float
# overflow and grids that are reversed, zero- or negative-step or malformed; no grid expands to
# more than 3 points.  The draws favour the first plain value a flag's type reads: one it takes
_PLAIN = ["0.5", "3", "0.1", "0.3", "0.9", "0", "0.1,0.3", "0.3,0.1,0", "0:0.2:0.1", "0.1:0.1:1"]
_HOSTILE = ["nan", "inf", "-inf", "-0", "5e-324", "1e-300", "1e400", "1", "1_0", "٠.٥", "٣", "", " ", "0x1p-2",
            "0.2:0:0.1", "0:0.2:0", "0:0.2:-0.1", "0::0.1", ",", "0.1,", "0:1:nan", "0:1:1e-9", "٠:٠.٢:٠.١"]
_FUZZED = ("bound", "sweep", "simulate")
_OUT = "<out>"  # the test's output file


def _reads(kind, text: str) -> bool:
    try:
        kind(text)
    except (ValueError, argparse.ArgumentTypeError):
        return False
    return True


def _subparser(command: str):
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return sub.choices[command]


@st.composite
def _hostile_argv(draw) -> list[str]:
    """A command's argv, its flags read from the parser: a choice, a plain value, ``--out`` the
    test's file; then one value, if any is drawn, replaced by a hostile one (a stray choice, an
    empty path).  The drawn channel's flags are given more often than the other channels'."""
    command = draw(st.sampled_from(_FUZZED))
    channel_flags = {flag for spec in CHANNELS.values() for flag in spec.flags}
    channel, pairs = None, []
    for action in _subparser(command)._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.dest in channel_flags:
            tenths = 9 if channel is not None and action.dest in CHANNELS[channel].flags else 1
        else:
            tenths = 9 if action.required else 5
        if draw(st.integers(0, 9)) >= tenths:  # given in tenths of the draws
            continue
        if action.nargs == 0:
            pairs.append([action.option_strings[0]])
            continue
        if action.choices is not None:
            value = draw(st.sampled_from(list(action.choices)))
            channel = value if action.dest == "channel" else channel
            hostile = ["", "nan"]
        elif action.dest == "out":
            value, hostile = _OUT, [""]
        else:
            value = draw(st.sampled_from([text for text in _PLAIN if _reads(action.type or str, text)]))
            hostile = _HOSTILE
        pairs.append([action.option_strings[0], value, hostile])
    valued = [pair for pair in pairs if len(pair) == 3]
    if valued and (pair := draw(st.sampled_from([None, *valued]))) is not None:
        pair[1] = draw(st.sampled_from(pair[2]))
    return [command, *(word for pair in draw(st.permutations(pairs)) for word in pair[:2])]


def _strict_json(text: str) -> dict:
    """JSON with no NaN or infinity, which strict JSON readers refuse."""
    def refuse(constant):
        raise ValueError(f"{constant} in the JSON output")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_hostile_argv())
@example(argv=["bound", "--channel", "deletion", "--d", "0.2", "--gamma", "0"])  # a ZeroDivisionError once
@example(argv=["sweep", "--channel", "deletion", "--d", "0.2:0:0.1", "--out", _OUT])  # an empty CSV, exit 0, once
def test_hostile_input_exits_cleanly_with_a_valid_report(argv, tmp_path):
    # every run exits 0 with output its contract accepts, or 1 or 2 with one error line; any
    # other exception, a traceback, fails
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    argv = [str(out) if word == _OUT else word for word in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if "error:" in line]
    notes = [line for line in lines if line.startswith("note: ")]  # --paper-closed-forms' one note
    if code == 2:  # a usage error
        assert lines[0].startswith("usage: ") and errors == lines[-1:]
    elif code == 1:  # a value the library refused
        assert len(errors) == 1 and errors[0].startswith("error: ") and lines == notes + errors
    if code:
        assert code in (1, 2) and not out.exists()
        return
    assert notes == lines
    command, written = argv[0], out.exists()
    if command == "sweep":
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert rows[0][0] == "channel" and all(len(row) == len(rows[0]) for row in rows)
        assert len(rows) > 1 and stdout.getvalue().startswith(f"wrote {len(rows) - 1} rows to ")
    elif command == "bound" and not written and "--json" not in argv:
        assert stdout.getvalue().startswith("channel=")
    else:
        payload = _strict_json(out.read_text(encoding="utf-8") if written else stdout.getvalue())
        schema = "bound_report" if command == "bound" else "simulation"
        jsonschema.validate(payload, json.loads((SCHEMA.parent / f"{schema}.schema.json").read_text()))
