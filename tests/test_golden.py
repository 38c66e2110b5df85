"""Golden CSV bytes: the sha256 of ``generate`` output is fixed by (config, seed).

Any change to these digests is a change of the output stream and must come
with an explicit stream-version bump (``fbmwalk.aggregate.STREAM_VERSION``,
recorded in every sidecar), never a silent edit of the table.
"""

import hashlib

import pytest

from fbmwalk.cli import main

WALK_DIGESTS = {
    "paper": "212303f8f74d4c7d5519917aa16b09506d4710bd34df32564f7579e95b02dfaa",
    "matched": "4524cc6384ebe27088a3c46b36cce9589437c6692d2da25b760fbd6ad2e2127b",
    "enriquez": "a608122bc50d732588ea1967b701c9021fa82663df3dc73256fd869b52c33879",
}
ORACLE_DIGEST = "db571975bb7b0d7f5fbe56bd81d432b436b72142f2bd815d7e60c79747a9a2d1"
# H=0.98 puts delta1 above 0.925, the range stream version 2 changed
PAPER_H098_DIGEST = "672056c1a1afdab6eb9b3a7d56c9ef5780b1ba7bd64b8c6799cacb661e983b3c"


def _digest(tmp_path, argv, hurst: str = "0.7") -> str:
    out = tmp_path / "golden.csv"
    assert main(["generate", "--hurst", hurst, "--seed", "5", *argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", sorted(WALK_DIGESTS))
def test_walk_csv_bytes(tmp_path, mode, workers):
    argv = ["--steps", "257", "--paths", "37", "--mode", mode, "--workers", str(workers)]
    assert _digest(tmp_path, argv) == WALK_DIGESTS[mode]


def test_gaussian_oracle_csv_bytes(tmp_path):
    assert _digest(tmp_path, ["--steps", "64", "--mode", "gaussian-oracle"]) == ORACLE_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_paper_high_hurst_csv_bytes(tmp_path, workers):
    argv = ["--steps", "257", "--paths", "37", "--mode", "paper", "--workers", str(workers)]
    assert _digest(tmp_path, argv, hurst="0.98") == PAPER_H098_DIGEST
