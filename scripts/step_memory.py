#!/usr/bin/env python3
"""Measure the memory one training step and one eval batch allocate.

    python3 scripts/step_memory.py [--batch 256] [--eval-batch 512]
                                   [--filters 128]

For each variant of ``train.STAGES`` a seeded model (28x28 images) runs one
training step (forward, cross-entropy, ``backward()``, Adam) on ``--batch``
seeded images, then one ``evaluate()``-style forward under ``no_grad`` on
``--eval-batch`` images.  Each figure is the tracemalloc peak of that call
in MiB, counted from what was allocated when it started, so the model, its
optimizer state and the inputs do not count.  The output is one JSON line:
``config`` (with the BLAS build and ``OPENBLAS_NUM_THREADS``) and, per
variant, ``train_step_mb`` and ``eval_batch_mb``, and the step's two
halves, each counted from the step's start: ``forward_mb`` (the forward
pass and the loss) and ``backward_mb`` (``backward()`` and Adam).
``train_step_mb`` is the larger of the two.
numpy reports its array buffers to tracemalloc, so the figures count every
array a step holds at once; they leave out the interpreter and the
allocator's own overhead, which ``peak_rss_mb`` sees.
"""

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from morphnn import autodiff as ad, train as tr  # noqa: E402
from morphnn.cli import blas_config  # noqa: E402

SEED = 0
MB = float(1 << 20)


def peak_mb(*calls) -> list[float]:
    """tracemalloc peak of each of ``calls``, run in turn, above what was
    allocated before the first."""
    gc.collect()
    tracemalloc.start()
    peaks = []
    try:
        base, _ = tracemalloc.get_traced_memory()
        for call in calls:
            tracemalloc.reset_peak()
            call()
            peaks.append(round((tracemalloc.get_traced_memory()[1] - base)
                               / MB, 1))
    finally:
        tracemalloc.stop()
    return peaks


def measure(variant: str, args) -> dict:
    spec = tr.ModelSpec(variant=variant, filters=args.filters)
    model = tr.build_model(spec, ad.make_rng(SEED))
    opt = tr.Adam(model.parameters())
    rng = ad.make_rng(SEED + 1)
    images = rng.random((max(args.batch, args.eval_batch), 1, 28, 28))
    labels = rng.integers(0, spec.n_classes, args.batch)
    step = []

    def forward():
        x = ad.Tensor(images[:args.batch])
        step.append(tr.cross_entropy(model.forward(x, train=True, rng=rng),
                                     labels))

    def backward():
        opt.zero_grad()
        step.pop().backward()
        opt.step()

    def eval_batch():
        with ad.no_grad():
            model.forward(ad.Tensor(images[:args.eval_batch]))

    forward_mb, backward_mb = peak_mb(forward, backward)
    return {"train_step_mb": max(forward_mb, backward_mb),
            "forward_mb": forward_mb, "backward_mb": backward_mb,
            "eval_batch_mb": peak_mb(eval_batch)[0]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--eval-batch", type=int, default=512)
    p.add_argument("--filters", type=int, default=128)
    args = p.parse_args(argv)
    if min(args.batch, args.eval_batch, args.filters) < 1:
        p.error("--batch, --eval-batch and --filters must be >= 1")
    config = {"seed": SEED, "batch": args.batch,
              "eval_batch": args.eval_batch, "filters": args.filters,
              "numpy": np.__version__, **blas_config()}
    variants = {v: measure(v, args) for v in tr.VARIANTS}
    print(json.dumps({"config": config, "variants": variants}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
