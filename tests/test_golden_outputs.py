"""Byte-level pins on `m2msim run` output for the shipped profiles.

The digests were recorded from the program as it stood before the policy
interface was unified; a change that alters any simulated number or its
formatting shows up here, not only in the benchmark.
"""

import hashlib

import pytest

from m2msim import cli

GOLDEN = {
    ("five-slice", 1): (
        "6791b4c15a24fa87eee9d0bbf9d0ae39e630b9a0ba783440a593b9aff5bb15e5",
        "b96e6019824a71b269a8d131ffccc07ba6440152abc224a3433c9e0082ceb88e"),
    ("five-slice", 2): (
        "650dcd46188cf4e1e01d50b26998cdaba7a8f11dd40c5e71a55f8de27bd6adc7",
        "5116d55a8c181effca11fbf49a9715d3ab34be0bdcbeca2685b2bbfbeb16b1aa"),
    ("five-slice", 3): (
        "0fe053cf6e9501c24b6be4c152eb57b5d0554a7b57f405f2582f0991a10195d9",
        "8cf27ff81b8e6bbeb550132a74b2ab1a502fec0629212b072422ff6e676c4a33"),
    ("two-slice", 1): (
        "dbcd367e905c9d9ed089a9a38ba9e41631d576bbeb1ef6cc5a56841a3ec5209d",
        "fc2745d86ba4315bcc4a59748ddd0b8b6a10dd8512ab0bd23569c3f96e8fde9c"),
    ("two-slice", 2): (
        "215063c7388197394cfc1232b3e761d36646909485168abce8323dea08358545",
        "35c511c2d655639273240250e38ba58993cbbb37077fc98de6166af146e0863d"),
    ("two-slice", 3): (
        "e47390c1e51a1f7ea88ee29e273b8e00f02e2a9c43fe112a8fff577703a74038",
        "8b8cf993c0f766fa3757e2550e31628932da0eeb4925d942d5d21006f7c2b0db"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("profile,seed", sorted(GOLDEN))
def test_run_tables_match_recorded_digests(profile, seed, tmp_path, capsys):
    code = cli.main(["run", "--config", profile, "--seed", str(seed),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    periods, summary = GOLDEN[(profile, seed)]
    assert _sha256(tmp_path / "periods.csv") == periods
    assert _sha256(tmp_path / "summary.csv") == summary
