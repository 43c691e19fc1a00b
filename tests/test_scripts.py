"""The scripts under ``scripts`` run to completion against the package in
``src``, so the checks they serve cannot rot unnoticed."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from morphnn.gradcheck import run_gradcheck
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
    doc = json.loads(lines[0])
    hashes = doc["params"]
    assert list(hashes) == list(VARIANTS)
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in hashes.values())
    # one step at the benchmark's 128 filters, where conv2 runs in slices
    steps = doc["step128"]
    assert list(steps) == ["relu-maxpool", "morpho1"]
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in steps.values())
    assert doc["config"]["step_filters"] == 128
    assert set(doc["config"]["blas"]) == {"name", "version", "config"}
    assert {"cpu", "cores", "openblas_core", "pool_workers"} <= set(
        doc["config"])
    assert doc["config"]["openblas_num_threads"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    # and the hash of the seed-0 gradcheck report, as run in process
    report = json.dumps(run_gradcheck(seed=0)).encode()
    assert doc["gradcheck"] == hashlib.sha256(report).hexdigest()


def test_step_memory_reports_every_variant(tmp_path):
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "step_memory.py"),
                           "--batch", "4", "--eval-batch", "6",
                           "--filters", "3"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120,
                          env=os.environ | {"OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["config"]["batch"] == 4
    assert report["config"]["eval_batch"] == 6
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert report["config"]["blas"]["version"] == blas["version"]
    assert report["config"]["openblas_num_threads"] == "1"
    assert report["config"]["pool_workers"] == 1  # one thread, no pool
    assert {"cpu", "cores", "openblas_core", "pool_workers"} <= set(
        report["config"])
    assert list(report["variants"]) == list(VARIANTS)
    for row in report["variants"].values():
        assert set(row) == {"train_step_mb", "forward_mb", "backward_mb",
                            "eval_batch_mb"}
        assert all(v > 0 for v in row.values())
        # each half counted from the step's start; the step is the larger
        assert row["train_step_mb"] == max(row["forward_mb"],
                                           row["backward_mb"])


def test_criterion9_timing_writes_its_bench_file(tmp_path):
    out = tmp_path / "BENCH_criterion9.json"
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "criterion9_timing.py"),
                           "--epochs", "2", "--n-train", "20", "--n-test",
                           "6", "--filters", "3", "--out", str(out)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    doc = json.loads(out.read_text())
    assert json.loads(lines[0]) == doc
    assert doc["config"]["variant"] == "morpho1"
    assert set(doc["config"]["blas"]) == {"name", "version", "config"}
    assert {"cpu", "cores", "openblas_core", "pool_workers"} <= set(
        doc["config"])
    assert doc["config"]["openblas_num_threads"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    assert (doc["config"]["n_train"], doc["config"]["n_test"]) == (20, 6)
    assert 0 < doc["wall_seconds"] < doc["gate_seconds"] == 900.0
    assert [row["epoch"] for row in doc["epochs"]] == [0, 1]
    assert all(row["peak_rss_mb"] > 0 for row in doc["epochs"])


def test_line_count_counts_every_src_file(tmp_path):
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "line_count.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert "config" in report
    files = report["files"]
    trees = ("src", "perfbench")
    assert sorted(files) == sorted(p.relative_to(ROOT).as_posix()
                                   for tree in trees
                                   for p in (ROOT / tree).rglob("*.py"))
    for name, counts in files.items():
        physical = len((ROOT / name).read_text().splitlines())
        assert counts["lines"] == physical
        assert 0 < counts["code"] < physical
    # each tree's totals, perfbench's next to src's
    assert report["total"] == {
        tree: {key: sum(c[key] for name, c in files.items()
                        if name.startswith(tree + "/"))
               for key in ("lines", "code")}
        for tree in trees}


def test_code_lines_skip_comments_docstrings_and_blanks():
    spec = importlib.util.spec_from_file_location(
        "line_count", ROOT / "scripts" / "line_count.py")
    line_count = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(line_count)
    source = '''"""Module
docstring."""

# a comment
def f(x):  # counted: code before the comment
    """Docstring."""
    s = """a string
    that is data"""
    return s

class C:
    """Class docstring."""
'''
    # def, the two lines of s, return, class
    assert line_count.code_lines(source) == 5
