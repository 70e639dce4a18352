"""Golden outputs: `gaitassist run` and `analyze` artifacts must stay byte-identical.

Each case runs the CLI in-process on a simulated 30 s noisy trial and
compares the SHA-256 of every artifact, the run manifest included, with
the digest recorded when the case was added. A change that alters any
output byte, even one that still passes every behavioural test, fails
here. If an output is changed on purpose, re-record the digests in the
same change and say so.
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
            "run_manifest.txt": "66b242cddfc4d271d7b2672c2a53a7643a1a792de08106798c3f61fbe26dddac",
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
            "run_manifest.txt": "cf6d7e3ea2c43cbdcdb7079ad7b4ea0858760cfc1f6831e1359f056037470287",
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
            "run_manifest.txt": "88f45e8801b416e50d799285facd65804a617b70ef6e59181e1572da4c672b88",
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
            "run_manifest.txt": "28f52625ad17638dfcbbc5e94f6ba2fbf9f86e96c6b17b275d2f49577c816644",
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
            "run_manifest.txt": "151b794cfb310f84d836c1a0dee0dd386bb3a6e2195de4817f5193e216d099e6",
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


# `analyze` of one saved trial; the directory name is the metrics row's label
ANALYZE_SEED42_METRICS = "695fa8fccf3d02dcd699bad18a419d9a22704d02cedf92c1ded087d1244e56ee"


def test_analyze_metrics_match_golden_digest(tmp_path):
    trial = tmp_path / "seed42"
    simulate = ["simulate", "--duration", "30", "--noise-sigma", "0.05", "--seed", "42"]
    assert main([*simulate, "--out", str(trial)]) == 0
    metrics = tmp_path / "metrics.csv"
    assert main(["analyze", str(trial), "--out", str(metrics)]) == 0
    assert hashlib.sha256(metrics.read_bytes()).hexdigest() == ANALYZE_SEED42_METRICS
