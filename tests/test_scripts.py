"""The scripts under ``scripts`` run to completion against the package in
``src``, so the checks they serve cannot rot unnoticed."""

import json
import re
import subprocess
import sys
from pathlib import Path

from morphnn.train import VARIANTS

ROOT = Path(__file__).resolve().parents[1]


def test_param_hash_prints_one_hash_per_variant(tmp_path):
    # the bit-exactness check run on both sides of a change
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "param_hash.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    hashes = json.loads(lines[0])["params"]
    assert list(hashes) == list(VARIANTS)
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes.values())
