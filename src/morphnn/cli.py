"""Command-line front end.

Subcommands: ``train`` (one run, metrics + saved model), ``gradcheck``
(finite-difference audit), ``basis`` (minimal-kernel extraction and
reconstruction verdicts for tabulated set operators), ``export-activation``
(sampled activation curves as CSV), and ``table1`` (multi-variant,
multi-seed accuracy comparison).

Every subcommand prints a JSON document whose ``config`` block contains the
fully resolved settings, so a run can be reproduced from its output alone.
Exit codes: 0 success, 1 failed check or diverged run, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import representation as rep
from .activations import MorphoActivationParams, activation_curve
from .autodiff import make_rng
from .data import Dataset, load_dataset, subset
from .gradcheck import build_cases, run_gradcheck
from .train import (DivergenceError, ModelSpec, TrainConfig, VARIANTS,
                    build_model, load_model, run_table1_protocol, save_model,
                    train)

IMAGE_FILES = {"train": "train-images-idx3-ubyte",
               "test": "t10k-images-idx3-ubyte"}
LABEL_FILES = {"train": "train-labels-idx1-ubyte",
               "test": "t10k-labels-idx1-ubyte"}


def default_data_dir() -> str:
    return os.environ.get("MORPHNN_DATA_DIR", "data")


def _resolve_idx(explicit: str | None, data_dir: str, stem: str) -> str:
    """Explicit path wins; otherwise look for stem and stem.gz in data_dir."""
    if explicit:
        if not Path(explicit).is_file():
            raise FileNotFoundError(f"dataset file not found: {explicit}")
        return explicit
    for name in (stem, stem + ".gz"):
        cand = Path(data_dir) / name
        if cand.is_file():
            return str(cand)
    raise FileNotFoundError(
        f"dataset file not found: {Path(data_dir) / stem}[.gz] "
        f"(set --data-dir or MORPHNN_DATA_DIR, or pass the path explicitly)")


def _load_split(args, split: str,
                size: tuple[int, int]) -> tuple[Dataset, dict]:
    img = _resolve_idx(getattr(args, f"{split}_images"), args.data_dir,
                       IMAGE_FILES[split])
    lbl = _resolve_idx(getattr(args, f"{split}_labels"), args.data_dir,
                       LABEL_FILES[split])
    ds = load_dataset(img, lbl)
    want = getattr(args, "subset" if split == "train" else "test_subset")
    if want:
        ds = subset(ds, want, make_rng(args.subset_seed))
    if not len(ds):
        raise ValueError(f"{img}: the {split} split holds no images")
    if ds.images.shape[1:] != size:
        raise ValueError(f"{img}: the {split} images are "
                         f"{'x'.join(map(str, ds.images.shape[1:]))}, the "
                         f"model takes {size[0]}x{size[1]}")
    return ds, {"images": img, "labels": lbl, "examples": len(ds)}


def _prepare_run(args, variants) -> tuple:
    """Resolve a training command's model spec per variant, its config and
    both data splits, then create ``--out``: a usage or input error leaves
    nothing on disk."""
    specs = {v: ModelSpec(variant=v, n_terms=args.n_terms,
                          m_terms=args.m_terms, filters=args.filters,
                          pool_extent=args.pool_size, pool_stride=args.stride,
                          dropout=args.dropout) for v in variants}
    cfg = TrainConfig(lr=args.lr, batch_size=args.batch_size,
                      max_epochs=args.epochs, patience=args.patience,
                      seed=args.seed, trainable_scope=args.trainable_scope)
    size = specs[variants[0]].image_size  # every variant's
    train_ds, train_info = _load_split(args, "train", size)
    test_ds, test_info = _load_split(args, "test", size)
    data = {"train": train_info, "test": test_info,
            "subset_seed": args.subset_seed}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return specs, cfg, train_ds, test_ds, data, out


def blas_config() -> dict:
    """The BLAS numpy was built with, as ``np.show_config`` names it (its
    version, and its build configuration, which names the OpenBLAS core),
    and ``OPENBLAS_NUM_THREADS`` (None when unset): a GEMM's last bits may
    depend on both.  The configuration string names the build host's core,
    not the kernel OpenBLAS picks at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration")},
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _emit(doc: dict, out_dir: Path, name: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # no indent: an indented dump runs the pure-Python encoder, about 8x
    # slower than the C one on the 5 MB median 3x5 basis document
    text = json.dumps(doc)
    (out_dir / name).write_text(text + "\n")
    print(text)


# -- train ---------------------------------------------------------------


def cmd_train(args) -> int:
    specs, cfg, train_ds, test_ds, data, out = _prepare_run(args,
                                                            [args.variant])
    spec = specs[args.variant]
    config = {"command": "train", "spec": asdict(spec), "train": asdict(cfg),
              "data": data, "out": str(out), **blas_config()}
    model = build_model(spec, make_rng(args.seed))
    metrics_path = args.metrics or str(out / "metrics.jsonl")
    verbose = None if args.quiet else (lambda s: print(s, file=sys.stderr))
    metrics = train(model, train_ds, test_ds, cfg,
                    metrics_jsonl=metrics_path,
                    summary_csv=str(out / "summary.csv"), log=verbose)
    model_path = out / "model.npz"
    save_model(model, model_path)
    doc = {"config": config,
           "result": {"best_test_acc": metrics.best_test_acc,
                      "best_epoch": metrics.best_epoch,
                      "final_top1_error": metrics.final_top1_error,
                      "epochs_run": len(metrics.epochs),
                      "n_parameters": metrics.n_parameters,
                      "wall_seconds": metrics.wall_seconds,
                      "model": str(model_path),
                      "metrics": metrics_path,
                      "summary": str(out / "summary.csv")}}
    _emit(doc, out, "run.json")
    return 0


# -- gradcheck -----------------------------------------------------------


def cmd_gradcheck(args) -> int:
    if not 0 < args.step < np.inf:
        raise ValueError(f"--step must be finite and positive, got "
                         f"{args.step}")
    if not 0 <= args.tolerance < np.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got "
                         f"{args.tolerance}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    sizes = tuple(int(s) for s in args.sizes.split(","))
    build_cases(sizes)  # refuses a size below 1 before --out is made
    Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_gradcheck(seed=args.seed, tolerance=args.tolerance,
                           h=args.step, sizes=sizes)
    doc = {"config": {"command": "gradcheck", "seed": args.seed,
                      "tolerance": args.tolerance, "step": args.step,
                      "sizes": list(sizes)},
           "report": report}
    _emit(doc, Path(args.out), "gradcheck.json")
    return 0 if report["pass"] else 1


# -- basis ---------------------------------------------------------------

WINDOWS = {"cross5": rep.window_cross}
SE_NAMES = {
    "origin": ((0, 0),),
    "horiz2": ((0, 0), (0, 1)),
    "vert2": ((0, 0), (1, 0)),
    "square2": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "cross5": ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)),
}


def _parse_window(spec: str):
    if spec in WINDOWS:
        return WINDOWS[spec]()
    try:
        h, w = (int(s) for s in spec.lower().split("x"))
    except ValueError:
        raise ValueError(f"unknown window {spec!r}: use HxW (odd extents) "
                         f"or one of {sorted(WINDOWS)}")
    if h * w > 16:
        raise ValueError("window too large; enumeration is exponential "
                         "(max 16 points)")
    return rep.window_grid(h, w)


def _parse_se(spec: str):
    if spec in SE_NAMES:
        return SE_NAMES[spec]
    try:
        return tuple(tuple(int(c) for c in pair.split(","))
                     for pair in spec.split(";"))
    except ValueError:
        raise ValueError(f"unknown structuring element {spec!r}: use "
                         f"'dy,dx;dy,dx' or one of {sorted(SE_NAMES)}")


def cmd_basis(args) -> int:
    window = _parse_window(args.window)
    if args.op in ("erosion", "dilation", "opening"):
        se_spec = args.se or "horiz2"
        se = _parse_se(se_spec)
        table = {"erosion": rep.erosion_table, "dilation": rep.dilation_table,
                 "opening": rep.opening_table}[args.op](window, se)
    else:
        if args.se is not None:
            raise ValueError(f"--se does not apply to {args.op!r}")
        se_spec = None
        table = {"median": rep.median_table,
                 "identity": rep.identity_table}[args.op](window)
    Path(args.out).mkdir(parents=True, exist_ok=True)

    kernel = rep.kernel_enumerate(table)
    basis = rep.minimal_basis(table)
    dual_basis = rep.minimal_basis(rep.dual_table(table))
    sup_ok = rep.reconstruct_sup_erosions(table, basis.masks).equals(table)
    inf_ok = rep.reconstruct_inf_dilations(table,
                                           dual_basis.masks).equals(table)
    try:
        rep.truncated_bounds(table, basis.masks[:max(1, len(basis) // 2)],
                             dual_basis.masks[:max(1, len(dual_basis) // 2)])
        trunc_ok = True
    except AssertionError:
        trunc_ok = False
    ok = sup_ok and inf_ok and trunc_ok

    doc = {"config": {"command": "basis", "op": args.op,
                      "window": args.window, "se": se_spec},
           "report": {
               "window_points": [list(p) for p in window],
               "kernel_size": len(kernel),
               "basis_size": len(basis),
               "dual_basis_size": len(dual_basis),
               "basis": [sorted(list(p) for p in s)
                         for s in basis.point_sets()],
               "dual_basis": [sorted(list(p) for p in s)
                              for s in dual_basis.point_sets()],
               "sup_erosions_exact": sup_ok,
               "inf_dilations_exact": inf_ok,
               "truncated_bounds_hold": trunc_ok,
               "verdict": "PASS" if ok else "FAIL"}}
    _emit(doc, Path(args.out), "basis.json")
    return 0 if ok else 1


# -- export-activation ---------------------------------------------------

# a curve holds one float64 per channel and grid point
MAX_GRID_STEPS = 100_000


def cmd_export_activation(args) -> int:
    if args.init == (args.model is not None):
        raise ValueError("choose exactly one of --model PATH or --init")
    if not np.isfinite([args.lo, args.hi, args.step]).all():
        raise ValueError("--lo, --hi and --step must be finite")
    if not args.step > 0:
        raise ValueError(f"--step must be positive, got {args.step}")
    if not args.hi >= args.lo:
        raise ValueError(f"--hi {args.hi} is below --lo {args.lo}")
    intervals = (args.hi - args.lo) / args.step  # inf when it overflows
    if not intervals < MAX_GRID_STEPS:
        raise ValueError(f"the grid has {MAX_GRID_STEPS} steps or more")
    n = int(round(intervals)) + 1
    grid = args.lo + args.step * np.arange(n)

    if args.init:
        params = MorphoActivationParams.clamp(args.m_terms, args.n_terms,
                                              args.orientation)
        source = {"init": True, "m_terms": args.m_terms,
                  "n_terms": args.n_terms, "orientation": args.orientation}
        csv_name = "activation_init.csv"
    else:
        if not Path(args.model).is_file():
            raise FileNotFoundError(f"model file not found: {args.model}")
        model = load_model(args.model)
        if model.spec.variant not in ("morpho1", "morpho2"):
            raise ValueError(f"variant {model.spec.variant!r} has no "
                             f"activation parameters to export")
        stage = model.stage1 if args.stage == 1 else model.stage2
        params = stage.layer.activation
        source = {"model": args.model, "stage": args.stage,
                  "variant": model.spec.variant}
        csv_name = f"activation_stage{args.stage}.csv"

    curve = activation_curve(params, grid)
    if curve.ndim == 1:
        curve = curve[None, :]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / csv_name
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"c{i}" for i in range(curve.shape[0])])
        for k in range(len(grid)):
            writer.writerow([repr(float(grid[k]))]
                            + [repr(float(v)) for v in curve[:, k]])
    doc = {"config": {"command": "export-activation", "source": source,
                      "lo": args.lo, "hi": args.hi, "step": args.step},
           "result": {"csv": str(csv_path), "points": len(grid),
                      "columns": int(curve.shape[0]) + 1}}
    _emit(doc, out, "export.json")
    return 0


# -- table1 --------------------------------------------------------------


def cmd_table1(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    seeds = tuple(int(s) for s in args.seeds.split(","))
    if args.baseline not in variants:
        raise ValueError(f"--variants must include the baseline "
                         f"{args.baseline!r}")
    if min(seeds) < 0:
        raise ValueError(f"--seeds must be >= 0, got {args.seeds}")
    specs, cfg, train_ds, test_ds, data, out = _prepare_run(args, variants)
    config = {"command": "table1", "variants": variants, "seeds": list(seeds),
              "spec": {v: asdict(s) for v, s in specs.items()},
              "train": asdict(cfg), "data": data, "out": str(out)}
    verbose = None if args.quiet else (lambda s: print(s, file=sys.stderr))
    report = run_table1_protocol(specs, cfg, train_ds, test_ds, seeds=seeds,
                                 baseline=args.baseline, log=verbose)
    with open(out / "table1.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant"] + [f"seed{s}" for s in seeds]
                        + ["mean_accuracy", "delta_vs_baseline"])
        for name, row in report["variants"].items():
            writer.writerow([name] + [repr(a) for a in row["accuracies"]]
                            + [repr(row["mean_accuracy"]),
                               repr(row["delta_vs_baseline"])])
    doc = {"config": config, "report": report,
           "files": {"csv": str(out / "table1.csv")}}
    _emit(doc, out, "table1.json")
    return 0


# -- parser --------------------------------------------------------------


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data-dir", default=default_data_dir(),
                   help="directory holding the IDX files "
                        "(default: $MORPHNN_DATA_DIR or ./data)")
    p.add_argument("--train-images")
    p.add_argument("--train-labels")
    p.add_argument("--test-images")
    p.add_argument("--test-labels")
    p.add_argument("--subset", type=int, default=0,
                   help="stratified training subset size (0 = all)")
    p.add_argument("--test-subset", type=int, default=0,
                   help="stratified test subset size (0 = all)")
    p.add_argument("--subset-seed", type=int, default=0)


def _add_model_flags(p: argparse.ArgumentParser,
                     with_variant: bool = True) -> None:
    if with_variant:
        p.add_argument("--variant", default="relu-maxpool", choices=VARIANTS)
    p.add_argument("--n-terms", type=int, default=2)
    p.add_argument("--m-terms", type=int, default=2)
    p.add_argument("--filters", type=int, default=128)
    p.add_argument("--pool-size", type=int, default=2)
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--dropout", type=float, default=0.5)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trainable-scope", default="all",
                   choices=("all", "activations_only"))
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-epoch progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphnn",
        description="morphological activation layers: training and "
                    "verification tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model and save metrics")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default="out/train")
    p.add_argument("--metrics", help="metrics JSONL path "
                                     "(default: <out>/metrics.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck",
                       help="compare analytic and numeric gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--sizes", default="1,2,3,4",
                   help="comma list of term counts for the size grid")
    p.add_argument("--out", default="out/gradcheck")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("basis",
                       help="extract and verify a minimal operator basis")
    p.add_argument("--op", required=True,
                   choices=("erosion", "dilation", "opening", "median",
                            "identity"))
    p.add_argument("--window", default="3x3",
                   help="HxW (odd extents, up to 16 points) or 'cross5'")
    p.add_argument("--se", default=None,
                   help="structuring element: named "
                        f"({', '.join(sorted(SE_NAMES))}) or 'dy,dx;dy,dx' "
                        "(default horiz2 for ops that need one)")
    p.add_argument("--out", default="out/basis")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("export-activation",
                       help="sample activation curves to CSV")
    p.add_argument("--model", help="saved model (.npz) to read")
    p.add_argument("--init", action="store_true",
                   help="export the initialization curve instead of a model")
    p.add_argument("--stage", type=int, default=1, choices=(1, 2))
    p.add_argument("--m-terms", type=int, default=2)
    p.add_argument("--n-terms", type=int, default=2)
    p.add_argument("--orientation", default="rows", choices=("rows", "cols"))
    p.add_argument("--lo", type=float, default=-10.0)
    p.add_argument("--hi", type=float, default=10.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", default="out/export")
    p.set_defaults(func=cmd_export_activation)

    p = sub.add_parser("table1",
                       help="multi-variant, multi-seed accuracy comparison")
    _add_data_flags(p)
    _add_model_flags(p, with_variant=False)
    _add_train_flags(p)
    p.add_argument("--variants", default="relu-maxpool,morpho1,morpho2")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--baseline", default="relu-maxpool")
    p.add_argument("--out", default="out/table1")
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a bad IDX file (IdxFormatError) or an --out naming a file exits 2
    try:
        return args.func(args)
    except (OSError, ValueError, DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if isinstance(e, DivergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
