"""The behavioural contract, pinned: sha256 of `stress --format json` stdout
and its exit code for every profile in both precisions (seed 5, count 300).

A change that alters these bits on purpose must say which plans changed
and why, and update the digests here.
"""

import hashlib

import pytest

from crscl.cli import main

STRESS_DIGESTS = {
    ("safe", "binary32"): (0, "e6f5b0273383a1ffb3345dda7160a245fd6e31721a7e25aeb1515da5f6b2dfee"),
    ("huge", "binary32"): (0, "95622eb7c490bfc3e4dc71f1e9beca1cfe95c3ad84e1913d1c4c0807032f3699"),
    ("tiny", "binary32"): (0, "073617ac4c8d5b2b7f1506fd1ddc0d4995020f1177899276e7cefeb68259aeee"),
    ("mixed", "binary32"): (0, "4f23b2b0c16c2b2a61e6e1307694537133eabb14fbad4f8b2ed9f019eca72fa6"),
    ("subnormal", "binary32"): (0, "7cfafe86bddc52d45a5d595e0c76bd9ea6c341a18b493654f585b8d18e2ca83d"),
    ("special", "binary32"): (0, "e340cb8e9c2f58746ebfecbacea0d6f996d079ef23e432c3ee5be51576ecd53a"),
    ("safe", "binary64"): (0, "21a7b4249867e270e39dc0cac01af7a86335121a68d5b637424fa06d627bbd24"),
    ("huge", "binary64"): (0, "7c5159d1218c7c62663ee76287745b2411b124292c85445dd49e13159c55c40c"),
    ("tiny", "binary64"): (0, "70084b05d7d5d5226474b5fd1ad60af48d5ddc29cf94080c76a1f37f42e2413a"),
    ("mixed", "binary64"): (0, "74dfa96a7da37344f87487661d80babe7e0a4bd30afd7030e0e4f9aab2669960"),
    ("subnormal", "binary64"): (0, "2a4dc24bf0e01238a349f98356fe00622746cbd16b9b05f6cf95cec6ed3326f7"),
    ("special", "binary64"): (0, "1bbbe9e829086b7412c4f6e2661761d5d9c682f5900e818ad43491d5b522fcc6"),
}


@pytest.mark.parametrize(
    "profile,precision", list(STRESS_DIGESTS), ids=[f"{p}-{q}" for p, q in STRESS_DIGESTS]
)
def test_stress_json_digest(capsys, profile, precision):
    code = main([
        "stress", "--format", "json", "--precision", precision,
        "--profile", profile, "--seed", "5", "--count", "300",
    ])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STRESS_DIGESTS[profile, precision]
