"""End-to-end command tests driven through cli.main with in-process argv."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import m2msim
from m2msim import cli, engine


def read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(argv):
    return cli.main(argv)


SMALL = ["--config", "two-slice", "--set", "timebase.periods=2"]


class TestRun:
    def test_writes_golden_tables(self, tmp_path, capsys):
        code = run_cli(["run", *SMALL, "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        header, rows = read_csv(tmp_path / "periods.csv")
        assert header == cli.PERIOD_HEADER
        assert len(rows) == 2 * 2  # periods x slices
        assert [int(r[0]) for r in rows] == [1, 1, 2, 2]
        header, rows = read_csv(tmp_path / "summary.csv")
        assert header == cli.SUMMARY_HEADER
        assert len(rows) == 1
        rid, seed, axis_value = rows[0][:3]
        assert seed == "1" and axis_value == ""
        out = capsys.readouterr().out
        assert rid in out and str(tmp_path) in out
        assert not (tmp_path / "slots.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["run", *SMALL, "--seed", "7", "--out", str(a)]) == 0
        assert run_cli(["run", *SMALL, "--seed", "7", "--out", str(b)]) == 0
        for name in ("periods.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_the_table(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["run", *SMALL, "--seed", "7", "--out", str(a)])
        run_cli(["run", *SMALL, "--seed", "8", "--out", str(b)])
        assert (a / "periods.csv").read_bytes() != (b / "periods.csv").read_bytes()

    def test_disabled_controller_freezes_allocation(self, tmp_path):
        code = run_cli(["run", "--config", "two-slice",
                        "--set", "timebase.periods=4",
                        "--set", "controller_enabled=false",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _, rows = read_csv(tmp_path / "periods.csv")
        col = cli.PERIOD_HEADER.index("R_l")
        per_slice = {}
        for row in rows:
            per_slice.setdefault(row[1], set()).add(row[col])
        assert all(len(values) == 1 for values in per_slice.values())

    def test_slots_csv_on_request(self, tmp_path):
        code = run_cli(["run", *SMALL, "--slots", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        header, rows = read_csv(tmp_path / "slots.csv")
        assert header == cli.SLOT_HEADER
        assert len(rows) == 2 * 20 * 40  # periods x slots x devices
        actions = {int(r[4]) for r in rows}
        assert actions <= set(range(0, 11))
        rate, reward = cli.SLOT_HEADER.index("rate"), cli.SLOT_HEADER.index("reward")
        assert all(r[reward] == r[rate] for r in rows)

    def test_failed_run_leaves_no_slots_file(self, tmp_path, monkeypatch, capsys):
        """Period 1's records are written before period 2 raises; the partial
        file is removed and nothing else is left."""
        run_period = engine.Simulation.run_period

        def fail_in_period_2(sim):
            if sim.period_index == 1:
                raise RuntimeError("period 2 failed")
            return run_period(sim)

        monkeypatch.setattr(engine.Simulation, "run_period", fail_in_period_2)
        code = run_cli(["run", *SMALL, "--slots", "--out", str(tmp_path)])
        assert code == cli.EXIT_RUNTIME
        assert "period 2 failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_log_level_info_prints_the_trim_line(self, tmp_path, capsys):
        # two-slice asks for more RBs than the pool holds by period 3
        args = ["run", "--config", "two-slice", "--set", "timebase.periods=3"]
        assert run_cli([*args, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
        assert "trimming" not in capsys.readouterr().err
        assert run_cli([*args, "--log-level", "info",
                        "--out", str(tmp_path / "b")]) == cli.EXIT_OK
        assert ("INFO m2msim.controller: access pool full: trimming"
                in capsys.readouterr().err)

    def test_log_level_leaves_the_tables_alone(self, tmp_path):
        args = ["run", "--config", "two-slice", "--set", "timebase.periods=3",
                "--slots"]
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert run_cli([*args, "--out", str(quiet)]) == cli.EXIT_OK
        assert run_cli([*args, "--log-level", "debug", "--out", str(loud)]) == cli.EXIT_OK
        for name in ("periods.csv", "summary.csv", "slots.csv"):
            assert (quiet / name).read_bytes() == (loud / name).read_bytes()

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "from_env"))
        assert run_cli(["run", *SMALL]) == cli.EXIT_OK
        assert (tmp_path / "from_env" / "periods.csv").exists()

    def test_bad_override_names_the_key(self, tmp_path, capsys):
        code = run_cli(["run", *SMALL, "--set", "observation.epsilon=1.5",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "observation.epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ("observation.sleep_sensing=false",),
        ("observation.force_equal_noise=false", "observation.phi=0.3")])
    def test_myopic_outside_its_regime_names_the_solver(self, overrides, tmp_path, capsys):
        """Neither action-independent nor certified: refused before the run."""
        argv = ["run", *SMALL, "--set", "policy.solver=myopic", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert run_cli(argv) == cli.EXIT_CONFIG
        assert "policy.solver" in capsys.readouterr().err
        assert not (tmp_path / "periods.csv").exists()

    def test_unknown_profile_lists_the_shipped_ones(self, tmp_path, capsys):
        code = run_cli(["run", "--config", "missing-profile",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "five-slice" in err and "two-slice" in err


def _reference_slots(path, records):
    """slots.csv as csv.writer writes it, one row per record."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cli.SLOT_HEADER)
        for *fields, rate in records.tolist():
            writer.writerow([*fields, format(rate, ".9g"), format(rate, ".9g")])


@pytest.mark.parametrize("size", [0, 1, cli.SLOT_BLOCK, cli.SLOT_BLOCK + 1])
def test_slot_writer_matches_csv_writer(tmp_path, size):
    rng = np.random.default_rng(size)
    records = np.zeros(size, dtype=engine.SLOT_RECORD)
    for name in engine.SLOT_RECORD.names[:-1]:
        records[name] = rng.integers(0, 10 ** 6, size)
    rates = np.array([0.0, -0.0, 5e-324, 1e-05, 123456789.0, 1.5e300])
    records["rate"] = rates[np.arange(size) % rates.size]
    records["rate"][1::7] = rng.random(len(records[1::7])) * 1e7
    sleepers = records[::3]    # a view: a sleeper reads -1 in block, state and reading
    sleepers["action"] = 0
    for name in ("rb_global", "rb_state", "observation"):
        sleepers[name] = -1
    with cli._slots_csv(tmp_path / "fast.csv") as sink:
        sink(0, records)
    _reference_slots(tmp_path / "reference.csv", records)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestSweep:
    def test_axis_sweep_tables(self, tmp_path):
        code = run_cli(["sweep", *SMALL, "--axis", "epsilon",
                        "--values", "0.1,0.2", "--seeds", "2",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert header == cli.SUMMARY_HEADER
        assert [(r[2], r[1]) for r in rows] == [("0.1", "1"), ("0.1", "2"),
                                                ("0.2", "1"), ("0.2", "2")]
        header, agg = read_csv(tmp_path / "sweep_agg.csv")
        assert header == cli.AGG_HEADER
        assert [r[0] for r in agg] == ["0.1", "0.2"]
        for value, mean, _ in agg:
            sample = [float(r[3]) for r in rows if r[2] == value]
            assert float(mean) == pytest.approx(sum(sample) / len(sample), rel=1e-6)

    def test_range_values_for_integer_axis(self, tmp_path):
        code = run_cli(["sweep", *SMALL, "--axis", "rbs",
                        "--values", "1..3:1", "--seeds", "1",
                        "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _, rows = read_csv(tmp_path / "sweep.csv")
        assert [r[2] for r in rows] == ["1", "2", "3"]
        _, agg = read_csv(tmp_path / "sweep_agg.csv")
        assert len(agg) == 3

    def test_unknown_axis_is_a_usage_error(self, tmp_path, capsys):
        code = run_cli(["sweep", *SMALL, "--axis", "bogus",
                        "--values", "1", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "epsilon" in err and "rbs" in err

    def test_fractional_value_on_integer_axis(self, tmp_path, capsys):
        code = run_cli(["sweep", *SMALL, "--axis", "rbs",
                        "--values", "1.5", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "integer" in capsys.readouterr().err

    def test_malformed_range(self, tmp_path, capsys):
        code = run_cli(["sweep", *SMALL, "--axis", "epsilon",
                        "--values", "0.3..0.1:0.1", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "range" in capsys.readouterr().err

    def test_axis_value_that_breaks_a_rule_names_the_key(self, tmp_path, capsys):
        # two slices of 6 RBs overfill the 10-RB pool: a scenario rule, so a
        # config error under the key it names, not a runtime failure; so is
        # a value a dataclass guard refuses, under the axis's document key
        for axis, value, message in [
                ("rbs", "6", "slices: initial slice access RBs exceed"),
                ("epsilon", "1.5", "observation.epsilon: epsilon must lie in [0, 1]"),
                ("omega", "1.0", "controller.omega: omega must lie strictly inside"),
                ("mu", "-1", "controller.mu: mu must be positive"),
                ("devices", "1", "topology.devices: devices axis value must cover"),
                ("rbs", "0", "slices: a slice needs at least one access RB")]:
            code = run_cli(["sweep", *SMALL, "--axis", axis, "--values", value,
                            "--seeds", "2", "--out", str(tmp_path)])
            assert code == cli.EXIT_CONFIG, (axis, value)
            assert f"config error: {message}" in capsys.readouterr().err


class TestVerify:
    def test_single_check(self, capsys):
        assert run_cli(["verify", "--only", "discount"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS discount:")
        assert out.count("\n") == 1

    def test_full_battery(self, capsys):
        assert run_cli(["verify"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        for name in cli.VERIFY_CHECKS:
            assert f"PASS {name}:" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.VERIFY_CHECKS, "discount",
                            lambda: (False, "forced"))
        assert run_cli(["verify", "--only", "discount"]) == cli.EXIT_VERIFY
        assert "FAIL discount: forced" in capsys.readouterr().out


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert run_cli([]) == cli.EXIT_CONFIG
        capsys.readouterr()

    def test_parse_values_list_and_range(self):
        assert cli._parse_values("epsilon", "0.1, 0.2,0.3") == [0.1, 0.2, 0.3]
        assert cli._parse_values("epsilon", "0.1..0.4:0.1") == [0.1, 0.2, 0.3, 0.4]
        assert cli._parse_values("rbs", "2..4:2") == [2, 4]
        assert cli._parse_values("devices", "10") == [10]

    def test_parse_values_rejects_junk(self):
        from m2msim.config import ConfigError
        with pytest.raises(ConfigError):
            cli._parse_values("epsilon", "a,b")
        with pytest.raises(ConfigError):
            cli._parse_values("epsilon", "")
        with pytest.raises(ConfigError):
            cli._parse_values("epsilon", "0.1..0.4:-0.1")


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(m2msim.__file__).parents[1]))
    probe = "import sys, m2msim.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
