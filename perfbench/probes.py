"""Per-op probes: each op alone, on seeded leaves, at the shapes one
training step (or one eval batch) of a workload calls it with.

An op's figures sum over every call the model makes in one step: the two
convolutions, both stages, and one call per structuring function where a
layer form calls an op once per branch.  ``fwd_s`` times the call that
builds the node, ``bwd_s`` times ``backward()`` from a scalar node whose
rule hands the op a fixed seeded gradient (so no reduction is timed with
it), and ``out_mb`` is the size of the op's output.  ``nograd_s`` times the
same forward under ``no_grad``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from tracing import MB


IMAGE, KERNEL = 28, 3  # the model's input side and conv kernel


@dataclass(frozen=True)
class ProbeShape:
    batch: int
    filters: int
    variant: str
    m_terms: int
    n_terms: int

    def stage_inputs(self) -> list[tuple[int, ...]]:
        """Input shapes of stage 1 and stage 2 (the conv outputs)."""
        h1 = IMAGE - KERNEL + 1
        h2 = (h1 - 2) // 2 + 1 - KERNEL + 1
        return [(self.batch, self.filters, h1, h1),
                (self.batch, self.filters, h2, h2)]

    def conv_inputs(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        h = (IMAGE - KERNEL + 1 - 2) // 2 + 1
        k = KERNEL
        return [((self.batch, 1, IMAGE, IMAGE), (self.filters, 1, k, k)),
                ((self.batch, self.filters, h, h),
                 (self.filters, self.filters, k, k))]


# ops each workload's step calls; the rest of the table reads 0 there
WORKLOAD_OPS = {
    "train-morpho1": ("train.conv2d", "activations.pl_activation",
                      "morphops.dilate_pool",
                      "activations.morpho_act1_forward",
                      "train.cross_entropy", "train.Adam.step"),
    "train-relu-maxpool": ("train.conv2d", "morphops.relu",
                           "morphops.max_pool", "train.cross_entropy",
                           "train.Adam.step"),
    "eval-morpho2": ("morphops.dilate_pool", "activations.pl_activation",
                     "activations.morpho_act2_forward"),
}

ALL_OPS = ("train.conv2d", "morphops.relu", "morphops.max_pool",
           "morphops.dilate_pool", "activations.pl_activation",
           "activations.morpho_act1_forward",
           "activations.morpho_act2_forward", "train.cross_entropy",
           "train.Adam.step")


def metric_names() -> list[str]:
    names = []
    for op in ALL_OPS:
        if op == "train.Adam.step":
            fields = ("fwd_s", "out_mb")
        elif op == "activations.morpho_act2_forward":
            fields = ("fwd_s", "bwd_s", "out_mb", "nograd_s")
        else:
            fields = ("fwd_s", "bwd_s", "out_mb")
        names += [f"op.{op}.{f}" for f in fields]
    return names


class Prober:
    def __init__(self, mods, shape: ProbeShape, rng: np.random.Generator):
        self.ad, self.mo = mods.autodiff, mods.morphops
        self.act, self.T = mods.activations, mods.train
        self.shape = shape
        self.rng = rng
        self.pool = self.mo.PoolSpec((2, 2), (2, 2))

    # -- leaves -----------------------------------------------------------

    def leaf(self, shape, scale: float = 1.0, grad: bool = True):
        return self.ad.Tensor(self.rng.normal(size=shape) * scale,
                              requires_grad=grad)

    def structuring(self):
        window = self.mo.StructuringFunction.pool_window(self.pool.extent)
        # non-zero weights: the trained-model path of the sup-convolution
        return self.mo.StructuringFunction(
            window.offsets, weights=self.leaf(len(window.offsets), 0.05))

    def act_params(self, outer: int, inner: int):
        return self.act.MorphoActivationParams(
            self.leaf((self.shape.filters, outer, inner)),
            self.leaf((self.shape.filters, outer, inner)))

    # -- timing -----------------------------------------------------------

    def fwd_bwd(self, build) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        out = build()
        fwd = time.perf_counter() - t0
        g = self.rng.normal(size=out.data.shape)
        head = self.ad.make_node(np.zeros(()), [(out, lambda _: g)])
        t0 = time.perf_counter()
        head.backward()
        bwd = time.perf_counter() - t0
        return fwd, bwd, out.data.nbytes / MB

    def nograd(self, build) -> float:
        with self.ad.no_grad():
            t0 = time.perf_counter()
            build()
            return time.perf_counter() - t0

    # -- per-op call lists (one step's calls) ------------------------------

    def calls(self, op: str):
        """Yield one closure per call; leaves are made just before it runs,
        so only one call's arrays are alive at a time."""
        s = self.shape
        stages = s.stage_inputs()
        m, n = s.m_terms, s.n_terms
        layer = 1 if s.variant == "morpho1" else 2
        bank = m if layer == 1 else n
        if op == "train.conv2d":
            bias = s.variant not in ("morpho1", "morpho2")
            for i, (xs, ws) in enumerate(s.conv_inputs()):
                x = self.leaf(xs, grad=i > 0)
                w = self.leaf(ws, 0.1)
                b = self.leaf(ws[0]) if bias else None
                yield lambda x=x, w=w, b=b: self.T.conv2d(x, w, b)
        elif op in ("morphops.relu", "morphops.max_pool"):
            fn = self.mo.relu if op == "morphops.relu" else (
                lambda x: self.mo.max_pool(x, self.pool))
            for xs in stages:
                x = self.leaf(xs)
                yield lambda x=x: fn(x)
        elif op == "morphops.dilate_pool":
            for xs in stages:
                for _ in range(bank):
                    x, sf = self.leaf(xs), self.structuring()
                    yield (lambda x=x, sf=sf:
                           self.mo.dilate_pool(x, sf, self.pool))
        elif op == "activations.pl_activation":
            for xs in stages:
                if layer == 2:  # applied to the pooled branch
                    xs = xs[:2] + tuple((h - 2) // 2 + 1 for h in xs[2:])
                for _ in range(bank):
                    x = self.leaf(xs)
                    p = self.act_params(1, n if layer == 1 else m)
                    yield (lambda x=x, p=p:
                           self.act.pl_activation(x, p, channel_axis=1))
        elif op in ("activations.morpho_act1_forward",
                    "activations.morpho_act2_forward"):
            fn = (self.act.morpho_act1_forward if layer == 1
                  else self.act.morpho_act2_forward)
            for xs in stages:
                x, p = self.leaf(xs), self.act_params(m, n)
                sfs = [self.structuring() for _ in range(bank)]
                yield (lambda x=x, p=p, sfs=sfs:
                       fn(x, p, sfs, self.pool, channel_axis=1))
        elif op == "train.cross_entropy":
            logits = self.leaf((s.batch, 10))
            labels = self.rng.integers(0, 10, s.batch)
            yield lambda: self.T.cross_entropy(logits, labels)
        else:
            raise ValueError(f"no probe for {op!r}")

    def run(self, op: str, model=None) -> dict[str, float]:
        if op == "train.Adam.step":
            params = [self.ad.Tensor(p.data.copy(), requires_grad=True)
                      for p in model.parameters()]
            for p in params:
                p.grad = self.rng.normal(size=p.data.shape)
            opt = self.T.Adam(params)
            t0 = time.perf_counter()
            opt.step()
            return {"fwd_s": time.perf_counter() - t0,
                    "out_mb": sum(p.data.nbytes for p in params) / MB}
        fwd = bwd = out_mb = nograd = 0.0
        for build in self.calls(op):
            f, b, o = self.fwd_bwd(build)
            fwd, bwd, out_mb = fwd + f, bwd + b, out_mb + o
            if op == "activations.morpho_act2_forward":
                nograd += self.nograd(build)
        row = {"fwd_s": fwd, "bwd_s": bwd, "out_mb": out_mb}
        if op == "activations.morpho_act2_forward":
            row["nograd_s"] = nograd
        return row


def run_probes(mods, workload: str, shape: ProbeShape, seed: int,
               model=None) -> dict[str, float]:
    """Every probe metric name; ops the workload does not call read 0."""
    metrics = {name: 0.0 for name in metric_names()}
    prober = Prober(mods, shape, np.random.Generator(np.random.PCG64(seed)))
    for op in WORKLOAD_OPS.get(workload, ()):
        for field, value in prober.run(op, model).items():
            metrics[f"op.{op}.{field}"] = value
    return metrics
