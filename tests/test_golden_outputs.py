"""Byte-level pins on `m2msim run` output for the shipped profiles.

The periods.csv and summary.csv digests were recorded after the slice access
rule (with its faded expected rates) and the measured controller.mu changed
every run's tables on purpose; the slots.csv digests were recorded before
the slot records became one structured array, and the watts-random case
before one schema table replaced the per-section config readers.  A change
that alters any simulated number, its formatting or the serialized scenario
behind a run id shows up here, not only in the benchmark.
"""

import hashlib

import pytest

from m2msim import cli

# the benchmark's exact-solver scenario: epsilon != phi, off the greedy fast path
EXACT_SOLVER = ("observation.force_equal_noise=false", "observation.phi=0.2",
                "controller_enabled=false", "timebase.periods=1",
                "timebase.slots_per_period=8", "slices.0.access_rbs=2",
                "slices.1.access_rbs=2")
# the power in watts with a busy-source power, the random arm, hard collisions
WATTS_RANDOM = ("radio.tx_power_dbm=null", "radio.tx_power=0.1",
                "radio.busy_power=0.25", "policy.mode=random", "hard_collision=true")

# (profile, seed, overrides) -> sha256 of (periods.csv, summary.csv, slots.csv);
# a case with a slots.csv digest runs with --slots
GOLDEN = {
    ("five-slice", 1, ()): (
        "9a363f4137faccb5ee9f66e983b6bba6ac63060ade4dfec80784e909e2fab448",
        "90d06b57826f95c59532d8f3b0297be108212059ccf345daf97fc7489a3cc6fb",
        "e2148149dc89154fa7cf5e0d85c8d3d9e8eb7855e03581c7f5a9e5cd534ab370"),
    ("five-slice", 2, ()): (
        "8097792a07172cca40b9ef8c325915c9a9d757b4f05199f9f65cc561d91f42d1",
        "fa1d82c28d4d3b38665b586fb577b837ba29ea5418e32e032739cc4bd1ec2988",
        None),
    ("five-slice", 3, ()): (
        "73002f1f090b6a4ccfc9eba6b8eaca7c5ef06a8a3a4df8d79e3921e160db5582",
        "99d585dc9794ed5d9bcf7fce47dc548ffdf4de478ed3149e55afd6a33c4588c6",
        None),
    ("two-slice", 1, ()): (
        "0a22689bea5a05135d69dc4ae1caac47834c3ad14bbb51d117aa5545e366f12e",
        "63af5da9574a799a80c7f44173fe6fa7519d59c64db7101356d47d1009f41ee5",
        "84b35732c6621feaeba77bb422a4d7b51ab887590f0189c3fa2dd6401be24439"),
    ("two-slice", 2, ()): (
        "586ed8e32f60698b8c490a06e34cafb0034af23da6182b16f30ffa749f68b5c8",
        "bc599e789232d6ea329e92649510b399fe8e6cd09bb2922c7d974e4ee9a69d4e",
        None),
    ("two-slice", 3, ()): (
        "3ef1a09793a11516a6cb9831d3e8850068ef03b96fc9658585fdef5071fdc89e",
        "130677e2f00c44d1d92375dd4f8322adf3a71f76c65940dd1c0b3b8085bf2859",
        None),
    # discount 0 puts no weight on early slots, so sleepers write -1 columns
    ("two-slice", 1, ("policy.discount=0",)): (
        "c424e75ff9b70e0c1ec208118d2d295ea1957553174f2585f310aa9ff8a79f5b",
        "f050efb2db2f25c9513e77f038a41ae8cde5fd16725635820ab45f1fc4ad9241",
        "6d5704d36fb91d9bd963b0ed078032c9a9f046d0976ca912cb71a1d5aa074f67"),
    ("two-slice", 1, ("hard_collision=true",)): (
        "19955a88d19d9c54c4faa7bc923ca1a8d234e8f1aec6202b88ee600b486fa170",
        "5a7cf202bed2c86a650eb6baae8bbcb46b222230ccabc2ed315c71ca89b18865",
        "0503a15f9914447145b094070f80cf6d57ebfd6b516606562c5f5584e7180d33"),
    ("two-slice", 1, EXACT_SOLVER): (
        "2c07515c6e37750476b00db8b40d3272af4a85c0bff6193b2eb753aa5d1cfbf4",
        "571b25bffd4f20bcd212a7441d8610a8bb13643bc8c349db2ee5a07532b85485",
        "ea71379fed3c4860cff50db6c48cd028e0e07688108717a9351b66c8743637c7"),
    # the run id in summary.csv hashes the serialized scenario, so this pins
    # the watts power form, busy_power and the top-level flags as written
    ("two-slice", 1, WATTS_RANDOM): (
        "5666ba364fcfbfd1f629f914dbed3b0b2deb6cfaf2592452e6f1a1530692636c",
        "386263317b3940b488159bac64d1f9e42ec001141475a361caa8bda05b6b42db",
        "a4517bf1d55708d53ddfe3f80e4d224e0aed13471e2d1bac0a08eacc177dfde9"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _case_id(case) -> str:
    profile, seed, overrides = case
    names = {EXACT_SOLVER: ["exact-solver"],
             WATTS_RANDOM: ["watts-random"]}.get(overrides, overrides)
    return "-".join([profile, str(seed), *names])


@pytest.mark.parametrize("profile,seed,overrides", sorted(GOLDEN),
                         ids=[_case_id(case) for case in sorted(GOLDEN)])
def test_run_tables_match_recorded_digests(profile, seed, overrides, tmp_path, capsys):
    periods, summary, slots = GOLDEN[(profile, seed, overrides)]
    argv = ["run", "--config", profile, "--seed", str(seed), "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    code = cli.main(argv + (["--slots"] if slots else []))
    assert code == cli.EXIT_OK
    assert _sha256(tmp_path / "periods.csv") == periods
    assert _sha256(tmp_path / "summary.csv") == summary
    if slots:
        assert _sha256(tmp_path / "slots.csv") == slots
