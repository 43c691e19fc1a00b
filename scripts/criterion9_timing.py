#!/usr/bin/env python3
"""Time one criterion-9 training run on synthetic MNIST-shaped IDX files.

    python3 scripts/criterion9_timing.py [--epochs 4] [--n-train 10000]
                                         [--n-test 2000] [--filters 128]
                                         [--out BENCH_criterion9.json]

Acceptance criterion 9 trains morpho1 (n = 3, m = 2, all parameters) on a
10k MNIST subset for 4 epochs and asks each run to finish in under 900 s.
This script runs that protocol without the MNIST files: it writes seeded
28x28 IDX files with ``data.write_idx`` (ten random binary class templates
plus uniform noise, 10k training and 2k test images) to a temporary
directory, reads them back with ``data.load_dataset``, builds the seed-0
model and trains it with ``train()``.  It writes one JSON document to
``--out``: ``config`` (sizes, seed, numpy and ``cli.blas_config()``: the
BLAS, ``OPENBLAS_NUM_THREADS`` and the host), ``wall_seconds``
(``Metrics.wall_seconds``) against ``gate_seconds``, and per epoch the row
``train()`` records (``seconds``, ``step_seconds``, ``peak_rss_mb``, ...).
The same document is printed as one line.  It exits 0 when the run
finishes inside the gate and 1 otherwise.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from morphnn import data, train as tr  # noqa: E402
from morphnn.autodiff import make_rng  # noqa: E402
from morphnn.cli import blas_config  # noqa: E402

SEED = 0
GATE_SECONDS = 900.0
SIDE = 28


def write_split(rng, templates, n: int, directory: Path, stem: str) -> None:
    """n seeded images, each its class template plus uniform noise, and
    their labels, as ``<stem>-images`` and ``<stem>-labels`` IDX files."""
    labels = rng.integers(0, len(templates), n)
    images = 0.6 * templates[labels] + 0.4 * rng.random((n, SIDE, SIDE))
    data.write_idx(directory / f"{stem}-images", np.round(images * 255))
    data.write_idx(directory / f"{stem}-labels", labels)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--n-train", type=int, default=10000)
    p.add_argument("--n-test", type=int, default=2000)
    p.add_argument("--filters", type=int, default=128)
    p.add_argument("--out", default=str(ROOT / "BENCH_criterion9.json"))
    args = p.parse_args(argv)
    if min(args.epochs, args.n_train, args.n_test, args.filters) < 1:
        p.error("--epochs, --n-train, --n-test and --filters must be >= 1")
    rng = make_rng(SEED)
    templates = (rng.random((10, SIDE, SIDE)) < 0.3).astype(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_split(rng, templates, args.n_train, tmp, "train")
        write_split(rng, templates, args.n_test, tmp, "test")
        train_ds, test_ds = (data.load_dataset(tmp / f"{stem}-images",
                                               tmp / f"{stem}-labels")
                             for stem in ("train", "test"))
    spec = tr.ModelSpec(variant="morpho1", n_terms=3, m_terms=2,
                        filters=args.filters)
    cfg = tr.TrainConfig(max_epochs=args.epochs, patience=args.epochs,
                         seed=SEED)
    metrics = tr.train(tr.build_model(spec, make_rng(SEED)), train_ds,
                       test_ds, cfg)
    config = {"variant": spec.variant, "n_terms": spec.n_terms,
              "m_terms": spec.m_terms, "filters": spec.filters,
              "epochs": args.epochs, "n_train": args.n_train,
              "n_test": args.n_test, "batch": cfg.batch_size,
              "seed": SEED, "numpy": np.__version__, **blas_config()}
    doc = {"config": config, "wall_seconds": metrics.wall_seconds,
           "gate_seconds": GATE_SECONDS, "epochs": metrics.epochs}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc))
    return 0 if metrics.wall_seconds < GATE_SECONDS else 1


if __name__ == "__main__":
    sys.exit(main())
