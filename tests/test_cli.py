"""End-to-end runs of every subcommand against synthetic IDX files."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from morphnn import cli, representation as rep
from morphnn.autodiff import make_rng
from morphnn.cli import _emit, main
from morphnn.data import write_idx
from morphnn.train import build_model, load_model, ModelSpec

from _oracles import add_wrong_backward_case, synth_classification


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
    # each split's count of images, but 16x16: not the model's size
    for split, n in (("train", 192), ("t10k", 64)):
        write_idx(root / f"{split}-images-16x16", np.zeros((n, 16, 16),
                                                           np.uint8))
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
    # the BLAS build and thread count, on which a GEMM's last bits may depend
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert doc["config"]["blas"] == {
        "name": blas["name"], "version": blas["version"],
        "config": blas.get("openblas configuration")}
    assert doc["config"]["openblas_num_threads"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    # and the host: its CPU, its cores and the kernel OpenBLAS picked
    assert doc["config"]["cpu"] and doc["config"]["cores"] >= 1
    assert doc["config"]["openblas_core"] == cli.blas_config()[
        "openblas_core"]
    # and the workers of train()'s pool: its OpenBLAS thread count
    assert doc["config"]["pool_workers"] == cli.blas_config()[
        "pool_workers"] >= 1
    assert doc["result"]["epochs_run"] == 2
    assert 0.0 <= doc["result"]["best_test_acc"] <= 1.0
    with open(out / "metrics.jsonl") as fh:
        assert len(fh.readlines()) == 2
    assert (out / "summary.csv").is_file()
    assert (out / "run.json").is_file()
    model = load_model(out / "model.npz")
    assert model.spec.filters == 4


def test_blas_config_names_the_openblas_kernel(monkeypatch, tmp_path):
    # the kernel numpy's bundled OpenBLAS picked at run time, or None
    # where numpy bundles no such library
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if any(libs.glob("*scipy_openblas*")):
        assert cli.blas_config()["openblas_core"]
    monkeypatch.setattr(np, "__file__",
                        str(tmp_path / "numpy" / "__init__.py"))
    assert cli.blas_config()["openblas_core"] is None
    # nor can train() set its thread count: no pool
    assert cli.blas_config()["pool_workers"] == 1


def test_train_missing_file_exits_2(tmp_path, capsys):
    code = main(_train_args(tmp_path / "nowhere", tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "train-images-idx3-ubyte" in err


def test_train_divergence_exits_1(data_dir, tmp_path, capsys):
    # a huge learning rate overflows the second forward pass
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(_train_args(data_dir, tmp_path / "run",
                                ["--lr", "1e308"]))
    assert code == 1
    assert capsys.readouterr().err == ("error: training diverged at epoch 0, "
                                       "step 1\n")


@pytest.mark.parametrize("flag,value,message", [
    ("--filters", "0", "filters must be >= 1"),
    ("--dropout", "1.5", "dropout must be in [0, 1), got 1.5"),
    ("--dropout", "-0.1", "dropout must be in [0, 1), got -0.1"),
    ("--pool-size", "0", "pool_extent must be >= 1"),
    ("--pool-size", "20", "image_size (28, 28) leaves conv2 a 2x2 output, "
     "smaller than the 20x20 pool window"),
    ("--stride", "0", "pool_stride must be >= 1"),
    ("--batch-size", "0", "batch_size must be >= 1"),
    ("--lr", "nan", "lr must be finite and >= 0, got nan"),
    ("--lr", "inf", "lr must be finite and >= 0, got inf"),
    ("--lr", "-0.1", "lr must be finite and >= 0, got -0.1"),
    ("--epochs", "0", "max_epochs must be >= 1, got 0"),
    ("--patience", "0", "patience must be >= 1, got 0"),
    ("--patience", "-5", "patience must be >= 1, got -5"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--train-images", "<data>/train-images-16x16", "<data>/train-images-"
     "16x16: the train images are 16x16, the model takes 28x28"),
    ("--test-images", "<data>/t10k-images-16x16", "<data>/t10k-images-"
     "16x16: the test images are 16x16, the model takes 28x28")],
    ids=["filters", "dropout-high", "dropout-negative", "pool-size",
         "pool-size-no-room", "stride",
         "batch-size", "lr-nan", "lr-inf", "lr-negative", "epochs",
         "patience-zero", "patience-negative", "seed-negative",
         "train-16x16", "test-16x16"])
def test_train_and_table1_usage_errors_write_nothing(data_dir, tmp_path,
                                                     capsys, flag, value,
                                                     message):
    # a usage error exits 2 with a message, not a traceback or a failed
    # run, and is caught before anything is written
    value, message = (s.replace("<data>", str(data_dir))
                      for s in (value, message))
    table1 = ["table1", "--data-dir", str(data_dir), "--seeds", "0",
              "--variants", "relu-maxpool", "--epochs", "1", "--quiet"]
    for argv in (_train_args(data_dir, tmp_path / "t"),
                 table1 + ["--out", str(tmp_path / "t")]):
        assert main(argv + [f"{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t").exists()


def test_table1_without_its_baseline_writes_nothing(tmp_path, capsys):
    # refused before the data are looked for or --out is made
    out = tmp_path / "t"
    assert main(["table1", "--data-dir", str(tmp_path / "nowhere"),
                 "--variants", "morpho1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: --variants must include the "
                                       "baseline 'relu-maxpool'\n")
    assert not out.exists()


def test_table1_negative_seed_writes_nothing(tmp_path, capsys):
    # numpy would refuse it only after --out is made, naming no flag
    out = tmp_path / "t"
    for seeds in ("-1", "0,-1"):
        assert main(["table1", "--data-dir", str(tmp_path / "nowhere"),
                     f"--seeds={seeds}", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: --seeds must be >= 0, "
                                           f"got {seeds}\n")
        assert not out.exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_empty_split_is_an_input_error(data_dir, tmp_path, capsys, split):
    # a valid IDX file with zero images would divide by zero in training
    empty = tmp_path / "empty"
    empty.mkdir()
    write_idx(empty / "images", np.zeros((0, 28, 28), np.uint8))
    write_idx(empty / "labels", np.zeros(0, np.uint8))
    files = [f"--{split}-images", str(empty / "images"),
             f"--{split}-labels", str(empty / "labels")]
    table1 = ["table1", "--data-dir", str(data_dir), "--seeds", "0",
              "--variants", "relu-maxpool", "--epochs", "1", "--quiet",
              "--out", str(tmp_path / "t")]
    for argv in (_train_args(data_dir, tmp_path / "t"), table1):
        assert main(argv + files) == 2
        assert capsys.readouterr().err == (
            f"error: {empty / 'images'}: the {split} split holds no images\n")
        assert not (tmp_path / "t").exists()


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


def test_gradcheck_cli_pass_and_fail(tmp_path, capsys, monkeypatch):
    code = main(["gradcheck", "--sizes", "1", "--out", str(tmp_path / "g")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["pass"] is True
    assert doc["config"]["sizes"] == [1]

    add_wrong_backward_case(monkeypatch)
    code = main(["gradcheck", "--sizes", "1", "--out", str(tmp_path / "g2")])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["failures"] == ["wrong_backward"]
    detail = doc["report"]["failure_detail"][0]
    assert detail["layer"] == "wrong_backward"
    assert detail["parameter"] == "x"

    # a zero term count, a zero or infinite probe step, a tolerance that
    # is not a finite number >= 0 (inf passes even a wrong gradient), or a
    # negative seed is a usage error, not a crash, a failed check or a
    # vacuous pass
    for bad in (["--sizes", "0"], ["--step", "0"], ["--step", "inf"],
                ["--tolerance", "nan"], ["--tolerance=-1e-4"],
                ["--tolerance", "inf"], ["--seed=-1"]):
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


def test_basis_cli_median_3x5(tmp_path, capsys):
    code = main(["basis", "--op", "median", "--window", "3x5",
                 "--out", str(tmp_path / "b")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["basis_size"] == report["dual_basis_size"] == 6435
    assert report["sup_erosions_exact"] is True
    assert report["inf_dilations_exact"] is True
    assert report["truncated_bounds_hold"] is True


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
    for window in ("-1x3", "3x-1"):  # odd, but no window
        code = main(["basis", "--op", "identity", f"--window={window}",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        assert "odd and positive" in capsys.readouterr().err


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


def test_export_activation_x_column_is_the_grid(tmp_path, capsys):
    # a step finer than two decimals still gives distinct rows, each the
    # grid point lo + k * step exactly
    out = tmp_path / "e"
    assert main(["export-activation", "--init", "--lo", "0", "--hi", "0.01",
                 "--step", "0.002", "--out", str(out)]) == 0
    capsys.readouterr()
    xs = [float(r[0]) for r in _csv_rows(out / "activation_init.csv")[1:]]
    assert xs == [0.0 + 0.002 * k for k in range(6)]


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
    # an empty curve, and a non-finite bound or step has no grid
    for bad in (["--step", "0"], ["--step", "-1"], ["--lo", "5", "--hi", "-5"],
                ["--hi", "inf"], ["--lo=-inf"], ["--lo", "nan"],
                ["--step", "inf"], ["--hi", "1e14"],
                ["--lo=-1e308", "--hi", "1e308"]):
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

    # an .npz without the spec, or without one parameter, names the key
    with np.load(run / "model.npz") as blob:
        arrays = {k: blob[k] for k in blob.files}
    assert "conv1.b" in arrays and arrays["format_version"] == 1

    def export_error(name, entries):
        path = tmp_path / f"{name}.npz"
        np.savez(path, **entries)
        assert main(["export-activation", "--model", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        return err

    for missing in ("spec_json", "conv1.b"):
        err = export_error(f"no_{missing}", {k: v for k, v in arrays.items()
                                             if k != missing})
        assert repr(missing) in err
    # an older file's positional keys, another format version, or an
    # entry the spec has no parameter for are each named
    params = [v for k, v in arrays.items()
              if k not in ("spec_json", "format_version")]
    positional = {f"param_{i}": v for i, v in enumerate(params)}
    err = export_error("positional", positional | {
        "spec_json": arrays["spec_json"]})
    assert "positional" in err and "param_" in err
    err = export_error("v2", arrays | {"format_version": np.asarray(2)})
    assert "format version 2" in err
    err = export_error("extra", arrays | {"stage1.beta": params[0]})
    assert "'stage1.beta'" in err
    # valid JSON that is not a model spec: an unknown key, a missing
    # image_size, a list, and a size that is not an int of at least 1
    spec = json.loads(arrays["spec_json"].tobytes())
    sizes = ("n_terms", "m_terms", "filters", "kernel_size", "pool_extent",
             "pool_stride", "n_classes", "in_channels")
    bad_sizes = [(f"{key}_{value}", spec | {key: value}) for key in sizes
                 for value in (0, 2.5, 3.0, True)]
    bad_sizes += [(f"image_size_{size}", spec | {"image_size": size})
                  for size in ([0, 28], [28, 2.5], [28, True], [28],
                               [28, 28, 1])]
    for name, bad in (("unknown_key", spec | {"colour": 1}),
                      ("no_image_size", {k: v for k, v in spec.items()
                                         if k != "image_size"}),
                      ("list", [spec]), *bad_sizes):
        path = tmp_path / f"{name}.npz"
        err = export_error(name, arrays | {"spec_json": np.frombuffer(
            json.dumps(bad).encode(), np.uint8)})
        assert err.startswith(f"error: {path}: spec_json is not a model spec")
    # a parameter stored in another dtype is refused, not loaded as it is
    for dtype in (np.float32, np.complex128, np.int64):
        path = tmp_path / f"{np.dtype(dtype).name}.npz"
        err = export_error(path.stem, arrays | {
            "conv1.b": arrays["conv1.b"].astype(dtype)})
        assert err == (f"error: {path}: conv1.b is {np.dtype(dtype)}, not "
                       "float64\n")

    # an empty or a truncated file is an input error naming the file
    whole = (run / "model.npz").read_bytes()
    for name, content in (("empty", b""),
                          ("truncated", whole[:len(whole) // 2])):
        path = tmp_path / f"{name}.npz"
        path.write_bytes(content)
        assert main(["export-activation", "--model", str(path),
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: damaged model file")


def test_emit_document_parses_back_unchanged(tmp_path, capsys):
    doc = {"config": {"command": "basis", "window": [3, 5], "op": "médian"},
           "result": {"basis": [[0, 1], [], [2, 3, 4]], "ok": True,
                      "none": None, "tenth": 0.1 + 0.2, "tiny": -1e-300,
                      "big": 2 ** 70}}
    _emit(doc, tmp_path / "o", "doc.json")
    text = (tmp_path / "o" / "doc.json").read_text()
    assert capsys.readouterr().out == text
    assert json.loads(text) == json.loads(json.dumps(doc, indent=2)) == doc


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


@pytest.mark.parametrize("command", [
    "train", "gradcheck", "basis", "export-activation", "table1"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_exits_2(command, under, data_dir, tmp_path,
                                   capsys, monkeypatch):
    # --out names a file (mkdir raises FileExistsError) or a path under one
    # (NotADirectoryError): an input error, not a traceback or exit 1, and
    # reported before the check runs
    def not_reached(*args, **kwargs):
        pytest.fail("the check ran before --out was created")

    monkeypatch.setattr(cli, "run_gradcheck", not_reached)
    monkeypatch.setattr(rep, "minimal_basis", not_reached)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    args = {
        "train": _train_args(data_dir, out),
        "gradcheck": ["gradcheck", "--sizes", "1", "--out", str(out)],
        "basis": ["basis", "--op", "median", "--window", "3x3",
                  "--out", str(out)],
        "export-activation": ["export-activation", "--init",
                              "--out", str(out)],
        "table1": ["table1", "--data-dir", str(data_dir), "--out", str(out),
                   "--variants", "relu-maxpool", "--seeds", "0",
                   "--filters", "4", "--epochs", "1", "--subset", "96",
                   "--quiet"],
    }[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out if under else afile) in err
    assert afile.read_text() == "kept\n"
