"""End-to-end runs of every subcommand against synthetic IDX files."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from morphnn.autodiff import make_rng
from morphnn.cli import main
from morphnn.data import write_idx
from morphnn.train import build_model, load_model, ModelSpec

from _oracles import synth_classification


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("idx")
    rng = make_rng(11)
    imgs, labels = synth_classification(rng, n=192, side=28)
    write_idx(root / "train-images-idx3-ubyte", imgs)
    write_idx(root / "train-labels-idx1-ubyte", labels)
    imgs, labels = synth_classification(rng, n=64, side=28)
    # one split compressed, to exercise the .gz fallback lookup
    write_idx(root / "t10k-images-idx3-ubyte.gz", imgs, compress=True)
    write_idx(root / "t10k-labels-idx1-ubyte.gz", labels, compress=True)
    return root


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _train_args(data_dir, out, extra=()):
    return ["train", "--data-dir", str(data_dir), "--out", str(out),
            "--filters", "4", "--epochs", "2", "--batch-size", "64",
            "--seed", "3", "--quiet", *extra]


def test_train_runs_and_writes_everything(data_dir, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(_train_args(data_dir, out))
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["spec"]["variant"] == "relu-maxpool"
    assert doc["config"]["data"]["train"]["examples"] == 192
    # echoed paths are the resolved ones, including the .gz fallback
    assert doc["config"]["data"]["test"]["images"].endswith(".gz")
    assert doc["result"]["epochs_run"] == 2
    assert 0.0 <= doc["result"]["best_test_acc"] <= 1.0
    with open(out / "metrics.jsonl") as fh:
        assert len(fh.readlines()) == 2
    assert (out / "summary.csv").is_file()
    assert (out / "run.json").is_file()
    model = load_model(out / "model.npz")
    assert model.spec.filters == 4


def test_train_missing_file_exits_2(tmp_path, capsys):
    code = main(_train_args(tmp_path / "nowhere", tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "train-images-idx3-ubyte" in err


def test_unknown_flag_rejected(data_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(_train_args(data_dir, tmp_path / "o", ["--bogus", "1"]))
    assert exc.value.code == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_activations_only_leaves_conv_untouched(data_dir, tmp_path, capsys):
    out = tmp_path / "frozen"
    code = main(_train_args(
        data_dir, out,
        ["--variant", "morpho2", "--trainable-scope", "activations_only",
         "--epochs", "1", "--subset", "96"]))
    assert code == 0
    capsys.readouterr()
    trained = load_model(out / "model.npz")
    fresh = build_model(ModelSpec(variant="morpho2", filters=4),
                        make_rng(3))
    assert np.array_equal(trained.conv1.w.data, fresh.conv1.w.data)
    assert np.array_equal(trained.dense.w.data, fresh.dense.w.data)
    # the activation parameters did move
    moved = [a.data for a in trained.stage_parameters()]
    init = [a.data for a in fresh.stage_parameters()]
    assert any(not np.array_equal(a, b) for a, b in zip(moved, init))


def test_gradcheck_cli_pass_and_fail(tmp_path, capsys):
    code = main(["gradcheck", "--sizes", "1", "--out", str(tmp_path / "g")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["pass"] is True
    assert doc["config"]["sizes"] == [1]

    code = main(["gradcheck", "--sizes", "1", "--corrupt", "selfdual_pool",
                 "--out", str(tmp_path / "g2")])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["failures"] == ["selfdual_pool"]
    detail = doc["report"]["failure_detail"][0]
    assert detail["layer"] == "selfdual_pool"
    assert detail["parameter"] is not None

    # a zero term count or probe step is a usage error, not a crash or a
    # failed check
    for bad in (["--sizes", "0"], ["--step", "0"]):
        out = tmp_path / "g3"
        assert main(["gradcheck", "--out", str(out), *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_basis_cli_median_cross5(tmp_path, capsys):
    code = main(["basis", "--op", "median", "--window", "cross5",
                 "--out", str(tmp_path / "b")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["basis_size"] == 10
    assert doc["report"]["verdict"] == "PASS"
    assert doc["report"]["sup_erosions_exact"] is True
    assert doc["report"]["inf_dilations_exact"] is True
    assert doc["report"]["truncated_bounds_hold"] is True


def test_basis_cli_erosion_and_dilation(tmp_path, capsys):
    code = main(["basis", "--op", "erosion", "--se", "horiz2",
                 "--window", "1x3", "--out", str(tmp_path / "b")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["basis"] == [[[0, 0], [0, 1]]]

    code = main(["basis", "--op", "dilation", "--se", "horiz2",
                 "--window", "1x3", "--out", str(tmp_path / "b")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(len(b) == 1 for b in doc["report"]["basis"])


def test_basis_cli_rejects_bad_input(tmp_path, capsys):
    code = main(["basis", "--op", "median", "--window", "2x2",
                 "--out", str(tmp_path / "b")])
    assert code == 2  # even extents have no centered origin
    capsys.readouterr()
    code = main(["basis", "--op", "median", "--se", "horiz2",
                 "--out", str(tmp_path / "b")])
    assert code == 2  # median takes no structuring element
    capsys.readouterr()


def test_export_activation_init_curve(tmp_path, capsys):
    out = tmp_path / "e"
    code = main(["export-activation", "--init", "--m-terms", "3",
                 "--n-terms", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = _csv_rows(out / "activation_init.csv")
    assert rows[0] == ["x", "c0"]
    assert len(rows) == 2002
    curve = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert curve[10.0] == 6.0
    assert curve[-3.0] == 0.0
    assert curve[2.0] == 2.0


def test_export_activation_many_terms(tmp_path, capsys):
    # more pieces than int8 indices can name
    code = main(["export-activation", "--init", "--n-terms", "200",
                 "--out", str(tmp_path / "e")])
    assert code == 0
    capsys.readouterr()
    rows = _csv_rows(tmp_path / "e" / "activation_init.csv")
    curve = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert (curve[10.0], curve[-3.0], curve[2.0]) == (6.0, 0.0, 2.0)


def test_export_activation_from_model(data_dir, tmp_path, capsys):
    run = tmp_path / "m2"
    code = main(_train_args(data_dir, run,
                            ["--variant", "morpho1", "--epochs", "1",
                             "--subset", "96"]))
    assert code == 0
    capsys.readouterr()
    out = tmp_path / "exp"
    argv = ["export-activation", "--model", str(run / "model.npz"),
            "--stage", "1", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["columns"] == 4 + 1  # one column per channel plus x
    first = (out / "activation_stage1.csv").read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert (out / "activation_stage1.csv").read_bytes() == first


def test_export_activation_usage_errors(data_dir, tmp_path, capsys):
    assert main(["export-activation", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["export-activation", "--model", str(tmp_path / "no.npz"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no.npz" in err

    # a non-positive step or an empty range would divide by zero or write
    # an empty curve
    for bad in (["--step", "0"], ["--step", "-1"], ["--lo", "5", "--hi", "-5"]):
        out = tmp_path / "bad"
        assert main(["export-activation", "--init", "--out", str(out),
                     *bad]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    # baseline models carry no activation parameters
    run = tmp_path / "base"
    assert main(_train_args(data_dir, run,
                            ["--epochs", "1", "--subset", "96"])) == 0
    capsys.readouterr()
    assert main(["export-activation", "--model", str(run / "model.npz"),
                 "--out", str(tmp_path / "x")]) == 2
    assert "relu-maxpool" in capsys.readouterr().err


def test_table1_cli(data_dir, tmp_path, capsys):
    out = tmp_path / "t1"
    code = main(["table1", "--data-dir", str(data_dir), "--out", str(out),
                 "--variants", "relu-maxpool,morpho2", "--seeds", "0,1",
                 "--filters", "4", "--epochs", "1", "--batch-size", "64",
                 "--subset", "96", "--quiet"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rep = doc["report"]
    assert rep["baseline"] == "relu-maxpool"
    assert rep["variants"]["relu-maxpool"]["delta_vs_baseline"] == 0.0
    assert len(rep["variants"]["morpho2"]["accuracies"]) == 2
    rows = _csv_rows(out / "table1.csv")
    assert rows[0] == ["variant", "seed0", "seed1", "mean_accuracy",
                       "delta_vs_baseline"]
    assert len(rows) == 3
    assert (out / "table1.json").is_file()


def test_table1_requires_baseline(data_dir, tmp_path, capsys):
    code = main(["table1", "--data-dir", str(data_dir),
                 "--out", str(tmp_path / "t"), "--variants", "morpho2",
                 "--seeds", "0", "--filters", "4", "--epochs", "1",
                 "--subset", "96", "--quiet"])
    assert code == 2
    assert "baseline" in capsys.readouterr().err
