"""Every CLI input reaches the library: the channel flags, --gamma, --seed,
and the series configuration of every verify suite."""

import json
from pathlib import Path

import pytest

from delinscap import exact_oracle
from delinscap import verification as ver
from delinscap.core import ChannelParams
from delinscap.cli import build_parser, main

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
