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
DIGEST_STREAM_VERSION = 3
WALK_DIGESTS = {
    "paper": "e2eb8e1913daa00ea42fc4f425a8cff1f5ef4bd890b2738c1a29f65c1c348d07",
    "matched": "028bb5c5233907defddc61954cdc5468b51f899e501d6516d190888354376ef8",
    "enriquez": "e41b5d94f0818258cd2f92ed61f871942100ade86403a5405c40825ad1223883",
}
ORACLE_DIGEST = "db571975bb7b0d7f5fbe56bd81d432b436b72142f2bd815d7e60c79747a9a2d1"
# H=0.98 puts delta1 above 0.925, the range stream version 2 changed
PAPER_H098_DIGEST = "6fa823106f5cc2043007401b79db9aa924f1bd76c9f47344890cad303ab98327"


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


def test_digests_match_stream_version():
    # a stream-version bump must come with digests taken at that version
    assert STREAM_VERSION == DIGEST_STREAM_VERSION
