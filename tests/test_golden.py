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
DIGEST_STREAM_VERSION = 9
WALK_DIGESTS = {
    "paper": "6beff52606f2e733e182d2e83b80c720699aaef5973e489cae93110277a1884f",
    "enriquez": "37a25af0424d346e68e305af5d3f787ca8ade131120d9bb7226a3c82750ad2d3",
}
ORACLE_DIGEST = "c92df1f2cce1a1332a8e25db9a0968334e1c75aaf5496d5edd8f9d59de8c199b"
# H=0.98 puts delta1 above 0.925, the range stream version 2 changed
PAPER_H098_DIGEST = "0af14a4a65a7fdc9896081075d0ca4474a3da1c3daa137ec10d84beab2cb0b45"
# M = 4000 is 63 blocks of 64 walks, so this digest pins the order the walks are summed in
PAPER_63_BLOCKS_DIGEST = "9c6b93c2ede364e517d817b74e45250c6b7c079f2f6b9f3d069c5f87116165d5"
# enriquez terms are +-1 and +-2, so its sums are exact and its bytes never depend on that order
ENRIQUEZ_63_BLOCKS_DIGEST = "bded8e3a4fc57cca4991c4ad3915c759351002381be356cdd803c26acf0f026a"


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


def test_enriquez_block_sum_csv_bytes(tmp_path):
    argv = ["--steps", "64", "--paths", "4000", "--mode", "enriquez"]
    assert _digest(tmp_path, argv) == ENRIQUEZ_63_BLOCKS_DIGEST


def test_digests_match_stream_version():
    # a stream-version bump must come with digests taken at that version
    assert STREAM_VERSION == DIGEST_STREAM_VERSION
