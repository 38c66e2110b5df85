"""Golden CSV bytes: the sha256 of ``generate`` output is fixed by (config, seed).

Any change to these digests is a change of the output stream and must come
with an explicit stream-version bump (``fbmwalk.aggregate.STREAM_VERSION``,
recorded in every sidecar), never a silent edit of the table.
"""

import hashlib

import pytest

from fbmwalk.aggregate import STREAM_VERSION
from fbmwalk.cli import main

# the stream version the digests below were taken at
DIGEST_STREAM_VERSION = 7
WALK_DIGESTS = {
    "paper": "1bb980bce14b42eef6d82db2adb595b4727223df375987e90b23f5d252c74892",
    "enriquez": "6674f3b14af5b374a33a19d55da436afe74a082370d5f945c9db22c1113abf47",
}
ORACLE_DIGEST = "c92df1f2cce1a1332a8e25db9a0968334e1c75aaf5496d5edd8f9d59de8c199b"
# H=0.98 puts delta1 above 0.925, the range stream version 2 changed
PAPER_H098_DIGEST = "114f3486d8a74cb770b8b94a8b154a428ba7c19b35d6bf66c50f0425a15d3080"
# M = 4000 is 63 blocks of 64 walks, so this digest pins the order the blocks are summed in
PAPER_63_BLOCKS_DIGEST = "b540a740d8b08714c630025106b1a6ed4ef9b0a0c7a0efd2a3be0993ffbedfc7"


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


def test_paper_block_sum_csv_bytes(tmp_path):
    assert _digest(tmp_path, ["--steps", "64", "--paths", "4000", "--mode", "paper"]) == PAPER_63_BLOCKS_DIGEST


def test_digests_match_stream_version():
    # a stream-version bump must come with digests taken at that version
    assert STREAM_VERSION == DIGEST_STREAM_VERSION
