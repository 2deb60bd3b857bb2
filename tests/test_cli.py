import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

import delinscap
import golden
from delinscap import verification
from delinscap.cli import build_parser, main, load_series_config, _parse_grid

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "delinscap" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def _validate(payload, schema_name):
    jsonschema.validate(payload, _schema(schema_name))


class TestReadmeContract:
    """README's CLI examples print what ``golden_cli.jsonl`` holds, byte for byte."""

    @pytest.mark.parametrize("expected", golden.load(golden.CLI_PATH), ids=lambda r: r["command"])
    def test_example_output_is_unchanged(self, expected, readme_run):
        assert golden.cli_record(readme_run(expected["command"])) == expected

    def test_contract_lists_the_readme_commands(self):
        assert [r["command"] for r in golden.load(golden.CLI_PATH)] == golden.readme_commands()


class TestBoundCommand:
    def test_deletion_identity(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bound", "--channel", "deletion", "--d", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _validate(payload, "bound_report.schema.json")
        assert payload["bound_bits"] == pytest.approx(1.0, abs=1e-6)
        assert payload["gamma_star"] == pytest.approx(0.5, abs=1e-3)

    def test_insertion_reports_both_bounds(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bound", "--channel", "insertion", "--i", "0.1", "--alpha", "1",
                     "--tol", "1e-4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _validate(payload, "bound_report.schema.json")
        assert set(payload["bounds"]) == {"lb1", "lb2"}
        assert payload["bound_bits"] == max(b["bound_bits"] for b in payload["bounds"].values())

    def test_delins_full_term_table(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bound", "--channel", "delins", "--d", "0.1", "--i", "0.1",
                     "--alpha", "0.8", "--tol", "1e-4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _validate(payload, "bound_report.schema.json")
        assert 0.0 < payload["bound_bits"] < 1.0
        names = {t["name"] for t in payload["bounds"]["lb"]["terms"]}
        assert {"source_entropy", "comp_insertion_penalty", "deleted_runs_penalty",
                "run_length_penalty", "insertion_ambiguity_credit"} <= names

    def test_incoherent_flags_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--channel", "deletion", "--i", "0.1", "--d", "0.2"])
        assert exc.value.code == 2

    def test_missing_required_param(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--channel", "insertion", "--i", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma", ["0", "1", "1.5", "-0.1"])
    def test_gamma_outside_unit_interval_usage_error(self, gamma, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--channel", "deletion", "--d", "0.2", "--gamma", gamma])
        assert exc.value.code == 2
        assert "gamma" in capsys.readouterr().err

    def test_paper_closed_forms_flag(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        common = ["bound", "--channel", "deletion", "--d", "0.2", "--gamma", "0.6"]
        assert main(common + ["--out", str(out_a)]) == 0
        assert main(common + ["--paper-closed-forms", "--out", str(out_b)]) == 0
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["bound_bits"] != b["bound_bits"]
        names = {t["name"] for t in b["bounds"]["lb"]["terms"]}
        assert "deleted_runs_penalty_printed_form" in names

    @pytest.mark.parametrize("gamma", [[], ["--gamma", "0.6"]])
    def test_paper_closed_forms_note_on_stderr(self, gamma, capsys):
        common = ["bound", "--channel", "deletion", "--d", "0.2", "--json", *gamma]
        assert main(common) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(common + ["--paper-closed-forms"]) == 0
        printed = capsys.readouterr()
        assert printed.err.count("\n") == 1 and "not a certified lower bound" in printed.err
        names = {t["name"] for t in json.loads(printed.out)["bounds"]["lb"]["terms"]}
        assert "deleted_runs_penalty_printed_form" in names

    @pytest.mark.parametrize("tol", ["nan", "1e-12"])
    def test_bad_tol_is_an_error(self, tol, capsys):
        assert main(["bound", "--channel", "deletion", "--d", "0.2", "--tol", tol]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("d", ["5e-324", "1e-315", "1e-300"])
    def test_subnormal_deletion_rate_prints_valid_json(self, d, capsys):
        # gamma d underflowed to 0 in the printed run-length form (a ZeroDivisionError once), and
        # 1 / theta overflowed in the printed deleted-run form (-Infinity in both diagnostics once)
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert main(["bound", "--channel", "deletion", "--d", d, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        _validate(payload, "bound_report.schema.json")

    def test_text_report_matches_json(self, capsys):
        args = ["bound", "--channel", "insertion", "--i", "0.1", "--alpha", "0.8"]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "channel=insertion d=0.0 i=0.1 alpha=0.8"
        expected = []
        for key in ("lb1", "lb2"):
            res = payload["bounds"][key]
            expected.append(f"  {key}: {res['bound_bits']:.9f} bits/use at gamma*={res['gamma_star']:.6f} "
                            f"(error budget {res['error_budget']:.2e})")
            expected += [f"      {t['name']:42s} {t['value']: .9f}  (trunc {t['truncation_error']:.2e})"
                         for t in res["terms"]]
        assert lines[1:-1] == expected
        assert lines[-1] == f"  max: {payload['bound_bits']:.9f} bits/use (lb2)"

    def test_flag_rejected_off_deletion(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--channel", "delins", "--d", "0.1", "--i", "0.1",
                  "--alpha", "0.5", "--paper-closed-forms"])
        assert exc.value.code == 2


class TestSweepCommand:
    def test_deletion_grid_has_19_rows(self, tmp_path):
        out = tmp_path / "del.csv"
        assert main(["sweep", "--channel", "deletion", "--d", "0:0.9:0.05",
                     "--tol", "1e-3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 19
        header = lines[0].split(",")
        assert header[:6] == ["channel", "d", "i", "alpha", "gamma_star", "bound"]
        first = lines[1].split(",")
        assert float(first[5]) == pytest.approx(1.0, abs=1e-6)

    def test_insertion_columns(self, tmp_path):
        out = tmp_path / "ins.csv"
        assert main(["sweep", "--channel", "insertion", "--i", "0.1,0.2",
                     "--alpha", "0.8", "--tol", "1e-3", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        for col in ("lb1", "lb2", "lb_max"):
            assert col in header.split(",")

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["sweep", "--channel", "delins", "--d", "0.1", "--i", "0.05,0.1",
                "--alpha", "0.8", "--tol", "1e-3"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_delins_grid_reaching_d_plus_i_one(self, tmp_path):
        # i / (1 - d) = 0.2 / (1 - 0.8) rounds to 1.0000000000000002 unless capped at 1
        out = tmp_path / "edge.csv"
        assert main(["sweep", "--channel", "delins", "--d", "0.7,0.8", "--i", "0.2", "--alpha", "0.5",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 2

    def test_empty_grid_rejected_without_writing(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel", "deletion", "--d", "0.1:0.05:0.01", "--out", str(out)])
        assert exc.value.code == 2
        assert "no values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,spec", [("--i", "0:0.9:1e-300"), ("--alpha", "")])
    def test_grid_spec_errors_are_usage_errors(self, flag, spec, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        args = {"--d": "0.1", "--i": "0.1", "--alpha": "0.8", flag: spec}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--channel", "delins", *[x for kv in args.items() for x in kv], "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "error: " in err
        assert not out.exists()

    def test_rfc4180_line_endings(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["sweep", "--channel", "deletion", "--d", "0.1", "--tol", "1e-3", "--out", str(out)])
        assert b"\r\n" in out.read_bytes()


class TestSimulateCommand:
    def test_structure_and_schema(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--channel", "delins", "--d", "0.15", "--i", "0.15",
                     "--alpha", "0.8", "--gamma", "0.5", "--n", "9", "--seed", "7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        _validate(payload, "simulation.schema.json")
        assert len(payload["x"]) == 9
        assert len(payload["y"]) == payload["m"]
        assert len(payload["s_counts"]) == payload["m"] + 1
        assert len(payload["i_flags"]) == payload["m"]
        assert len(payload["pattern"]) == 9

    def test_identity_channel_round_trip(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--channel", "delins", "--d", "0", "--i", "0",
                     "--alpha", "1", "--gamma", "0.6", "--n", "20", "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["y"] == payload["x"]
        assert payload["y_flipped"] == payload["x"]

    def test_determinism(self, tmp_path):
        args = ["simulate", "--channel", "deletion", "--d", "0.3", "--gamma", "0.5",
                "--n", "40", "--seed", "11"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    @pytest.mark.parametrize("suite", ["oracle --n-max 8", "reductions", "truncation"])
    def test_readme_suite_passes_and_times_each_check(self, suite, readme_run):
        run = readme_run(f"delinscap verify {suite}")
        assert run["exit"] == 0
        payload = json.loads(run["stdout"])
        _validate(payload, "verification.schema.json")
        assert payload["passed"] is True
        assert all(c["seconds"] >= 0.0 for c in payload["checks"])

    def test_mc_suite_report_shape(self, tmp_path):
        # short chains may miss the full-length tolerances; only the report
        # contract is asserted here (the acceptance suite runs 1e6 steps)
        out = tmp_path / "v.json"
        code = main(["verify", "mc", "--steps", "5e4", "--seed", "7", "--out", str(out)])
        payload = json.loads(out.read_text())
        _validate(payload, "verification.schema.json")
        assert code == (0 if payload["passed"] else 1)
        assert {c["name"] for c in payload["checks"]} >= {"hI_vs_limit", "hT_vs_limit",
                                                          "HS2_vs_series", "stationary_iy_tv"}

    def test_oracle_detail_names_the_sampled_inputs(self):
        # up to 8 bits every input is checked; past that, 64 sampled with the seed
        assert verification._cascade_detail(2, 5) == "max pointwise law gap over all 2-bit inputs"
        assert verification._cascade_detail(8, 5) == "max pointwise law gap over all 8-bit inputs"
        assert verification._cascade_detail(9, 5) == \
            "max pointwise law gap over 64 of the 9-bit inputs, sampled with seed 5"
        assert verification._cascade_detail(10, 0) == \
            "max pointwise law gap over 64 of the 10-bit inputs, sampled with seed 0"


class TestSeriesConfigEnv:
    def test_round_trip(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "series.cfg"
        cfg_file.write_text("tail_epsilon = 1e-10\nr_max_cap=2000\n# comment\n")
        monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
        cfg = load_series_config()
        assert cfg.tail_epsilon == 1e-10
        assert cfg.r_max_cap == 2000

    def test_retired_k_max_cap_key_rejected(self, tmp_path, monkeypatch):
        # the deleted-run term is a closed form, so it has no truncation index to cap
        cfg_file = tmp_path / "series.cfg"
        cfg_file.write_text("k_max_cap=3000\n")
        monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
        with pytest.raises(ValueError, match="k_max_cap"):
            load_series_config()

    def test_unknown_key_rejected(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "series.cfg"
        cfg_file.write_text("bogus=1\n")
        monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
        with pytest.raises(ValueError):
            load_series_config()

    def test_cli_uses_env_config(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "series.cfg"
        cfg_file.write_text("tail_epsilon=1e-9\n")
        monkeypatch.setenv("DELINSCAP_SERIES_CONFIG", str(cfg_file))
        out = tmp_path / "b.json"
        assert main(["bound", "--channel", "deletion", "--d", "0.1", "--gamma", "0.6",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["series_config"]["tail_epsilon"] == 1e-9


def test_grid_spec_parsing():
    assert _parse_grid("0.3") == [0.3]
    assert _parse_grid("0.8,1.0") == [0.8, 1.0]
    vals = _parse_grid("0:0.9:0.05")
    assert len(vals) == 19
    assert vals[0] == 0.0 and vals[-1] == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError):
        _parse_grid("0:1:0:9")
    with pytest.raises(ValueError):
        _parse_grid("0:1:-0.1")
    with pytest.raises(ValueError):
        _parse_grid("0.1:0.05:0.01")


@pytest.mark.parametrize("spec", ["0:0.9:nan", "nan:0.9:0.1", "0:inf:0.1", "-inf:0.9:0.1", "0.1,nan", "inf"])
def test_parse_grid_rejects_non_finite(spec):
    with pytest.raises(ValueError, match="non-finite"):
        _parse_grid(spec)


@pytest.mark.parametrize("spec", ["0:0.9:1e-300", "0:10000:1", "-1e308:1e308:1"])
def test_parse_grid_rejects_oversized(spec):
    with pytest.raises(ValueError, match="more than"):
        _parse_grid(spec)


def test_parse_grid_largest_range():
    vals = _parse_grid("0:9999:1")
    assert len(vals) == 10_000 and vals[-1] == 9999.0


def test_sweep_non_finite_grid_rejected_without_writing(tmp_path, capsys):
    out = tmp_path / "nan.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--channel", "deletion", "--d", "0:0.9:nan", "--out", str(out)])
    assert exc.value.code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("steps", ["inf", "nan", "0", "-3", "1.5", "abc"])
def test_verify_steps_usage_error(steps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "mc", "--steps", steps])
    assert exc.value.code == 2
    assert "--steps" in capsys.readouterr().err


def test_verify_mc_too_short_for_its_burn_in_is_an_error(capsys):
    # ten steps leave no observation after the 1000-step burn-in; the suite
    # wrote a report of five failed checks instead
    assert main(["verify", "mc", "--steps", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: burn_in=1000 must be at least 0")


def test_verify_steps_accepts_float_notation():
    parser = build_parser()
    assert parser.parse_args(["verify", "mc", "--steps", "5e4"]).steps == 50_000
    assert parser.parse_args(["verify", "mc"]).steps == 1_000_000


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the thread count from /proc")
class TestOpenBlasThreads:
    """Importing the package pins OpenBLAS to one thread unless told otherwise."""

    CODE = ("import os, delinscap; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')))")

    def _env_and_threads(self, **extra):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env.update(extra, PYTHONPATH=str(Path(delinscap.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", self.CODE], env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        return out.stdout.split()

    def test_unset_variable_pins_one_thread(self):
        assert self._env_and_threads() == ["1", "1"]

    def test_explicit_value_left_alone(self):
        assert self._env_and_threads(OPENBLAS_NUM_THREADS="2")[0] == "2"
