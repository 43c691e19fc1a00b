#!/usr/bin/env python3
"""Train every stage variant briefly and print a hash of its parameters,
and of the gradcheck report.

    python3 scripts/param_hash.py

Each variant of ``train.STAGES`` is built and trained with seed 0 for two
epochs on the benchmark's seeded synthetic MNIST-shaped data (no files needed).
The output is one JSON line: ``config`` (with the BLAS build and
``OPENBLAS_NUM_THREADS``, on which the hashes may depend), per variant the
SHA-256 of its trained parameters' shapes and bytes (``params``), and the
SHA-256 of ``run_gradcheck(seed=0)``'s report as JSON (``gradcheck``).
``step128`` hashes
relu-maxpool and morpho1 after one training step at the benchmark's shape (128
filters, batch 256), where conv2's GEMMs run on several batch slices; the
16-filter runs fit each in one.  It hashes the step's gradients with the
parameters: Adam's first step moves each parameter by about lr * sign(g), which
hides a last-bit change in g.  Two checkouts that print the same line train
bit for bit alike on it and check every gradient alike; run it on both sides of
a change that must not move a bit.  It runs in seconds; at batch 256 a stage-1
channel is bigger than a block and is a block of its own, while stage 2's
blocks are runs of 4 channels, so both block shapes run.
"""

import hashlib
import json
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from morphnn import data, train as tr  # noqa: E402
from morphnn.autodiff import make_rng  # noqa: E402
from morphnn.cli import blas_config  # noqa: E402
from morphnn.gradcheck import run_gradcheck  # noqa: E402
from workloads import make_split  # noqa: E402

SEED = 0
EPOCHS = 2
FILTERS = 16
N_TRAIN = 512
N_TEST = 64
BATCH = 256
STEP_FILTERS = 128
STEP_VARIANTS = ("relu-maxpool", "morpho1")


def param_hash(model: tr.Model, grads: bool = False) -> str:
    digest = hashlib.sha256()
    for p in model.parameters():
        for a in (p.data, p.grad) if grads else (p.data,):
            digest.update(repr(a.shape).encode())
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def main() -> int:
    mods = types.SimpleNamespace(data=data)
    rng = make_rng(SEED)
    templates = (rng.random((10, 28, 28)) < 0.3).astype(np.float64)
    train_ds = make_split(mods, rng, templates, N_TRAIN)
    test_ds = make_split(mods, rng, templates, N_TEST)
    cfg = tr.TrainConfig(batch_size=BATCH, max_epochs=EPOCHS,
                         patience=EPOCHS, seed=SEED)
    hashes = {}
    for variant in tr.VARIANTS:
        spec = tr.ModelSpec(variant=variant, filters=FILTERS)
        model = tr.build_model(spec, make_rng(SEED))
        tr.train(model, train_ds, test_ds, cfg)
        hashes[variant] = param_hash(model)
    # one epoch of one batch: a single step, with the benchmark's spec
    one_batch = data.Dataset(train_ds.images[:BATCH], train_ds.labels[:BATCH])
    step_cfg = tr.TrainConfig(batch_size=BATCH, max_epochs=1, seed=SEED)
    step_hashes = {}
    for variant in STEP_VARIANTS:
        spec = tr.ModelSpec(variant=variant, n_terms=3, m_terms=2,
                            filters=STEP_FILTERS)
        model = tr.build_model(spec, make_rng(SEED))
        tr.train(model, one_batch, test_ds, step_cfg)
        # train() leaves each parameter's last gradient in its .grad
        step_hashes[variant] = param_hash(model, grads=True)
    config = {"seed": SEED, "epochs": EPOCHS, "filters": FILTERS,
              "n_train": N_TRAIN, "n_test": N_TEST, "batch": BATCH,
              "step_filters": STEP_FILTERS, "numpy": np.__version__,
              **blas_config()}
    report = json.dumps(run_gradcheck(seed=SEED)).encode()
    print(json.dumps({"config": config, "params": hashes,
                      "step128": step_hashes,
                      "gradcheck": hashlib.sha256(report).hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
