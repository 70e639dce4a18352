"""Golden outputs: `gaitassist run` artifacts must stay byte-identical.

Each case runs the CLI in-process on a simulated 30 s noisy trial and
compares the SHA-256 of every scored artifact with the digest recorded
when the case was added. A change that alters any output byte, even one
that still passes every behavioural test, fails here. If an output is
changed on purpose, re-record the digests in the same change and say so.
"""
from __future__ import annotations

import hashlib

import pytest

from gaitassist.cli import main

_COMMON = ("--simulate", "--duration", "30", "--noise-sigma", "0.05")

# case id -> (seed, mode, extra flags, {artifact: sha256})
GOLDEN = {
    "seed0-foot-sensors": (
        "0",
        "foot-sensors",
        (),
        {
            "torque.csv": "abe1e9bf62645db974d26b10004656df1eb7e5199fda01407efd1532605b701f",
            "events.csv": "359be4bfe0c7eea322f998a402287e65f65277f66802680d64636ed27ce49da1",
            "labels.csv": "ce9a7517806d0374fc09fc35071e5a002e83d96c5f829992455116b23de5b60d",
            "score.txt": "9af4582eb16c399a83f12a2b6cc9ecbefea55ccc425c531bb48cbcefce44765d",
        },
    ),
    "seed0-actuators-velocity": (
        "0",
        "actuators-velocity",
        (),
        {
            "torque.csv": "53eae3784f0406f0e900bc472023df4ac8a88ff12c8405787858ef22d2948351",
            "events.csv": "3055e254e3a1f9e970e3a9e3404c315c796a3ece5a0347f228969787b097513c",
            "labels.csv": "abf150d5bb67cf6f6510b62459c5d7a718adfe761c4ad47ef628237ff34010d6",
            "score.txt": "a929287efa1a1a609f92ef54475aec83aa301b2f318e8c12542b74373124b5f4",
        },
    ),
    "seed42-foot-sensors": (
        "42",
        "foot-sensors",
        (),
        {
            "torque.csv": "e217842acfa6e29115c25c75b4b8ff96d60259c76066951aa1e5fadb10bf3686",
            "events.csv": "359be4bfe0c7eea322f998a402287e65f65277f66802680d64636ed27ce49da1",
            "labels.csv": "ce9a7517806d0374fc09fc35071e5a002e83d96c5f829992455116b23de5b60d",
            "score.txt": "9af4582eb16c399a83f12a2b6cc9ecbefea55ccc425c531bb48cbcefce44765d",
        },
    ),
    "seed42-actuators-velocity": (
        "42",
        "actuators-velocity",
        (),
        {
            "torque.csv": "f1571bddf17f826f591faa8d0998de38e05c25d71daf78fe50496ebee0e2ef01",
            "events.csv": "273c7562a10cb7d6fe27d9e127aa90236ef017378954aa9eab207af7c26a4a9c",
            "labels.csv": "ee22eb9ce2fcec7f7d67e73d7500b1131948f15c92397271d3bb24a7daf3d9cb",
            "score.txt": "c35edf9810bd9b2453b6917996e29dbebd16f2658d1349896c8e66ee2c86eee5",
        },
    ),
    "seed42-foot-sensors-ramp50": (
        "42",
        "foot-sensors",
        ("--ramp-rate", "50"),
        {
            "torque.csv": "46d7407930a7a6b1a41d5d12d0f279a946683fd5b9004645ed7b71232040c7d8",
            "events.csv": "359be4bfe0c7eea322f998a402287e65f65277f66802680d64636ed27ce49da1",
            "labels.csv": "ce9a7517806d0374fc09fc35071e5a002e83d96c5f829992455116b23de5b60d",
            "score.txt": "9af4582eb16c399a83f12a2b6cc9ecbefea55ccc425c531bb48cbcefce44765d",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_artifacts_match_golden_digests(case, tmp_path):
    seed, mode, extra, expected = GOLDEN[case]
    out = tmp_path / case
    argv = ["run", *_COMMON, "--seed", seed, "--mode", mode, "--out", str(out), *extra]
    assert main(argv) == 0
    actual = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert actual == expected
