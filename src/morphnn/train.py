"""Training harness: a small convnet whose nonlinearity/pooling stage is
swappable between the baseline and the morphological variants.

Architecture (image classification): conv 3x3 -> stage 1 -> conv 3x3 ->
stage 2 -> flatten -> dropout -> dense.  Stages pool with stride 2.  The
morphological variants drop the conv biases (the activation intercepts
absorb them) and train slopes, intercepts and structuring weights by
reverse mode like any other parameter.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from . import morphops as mo
from .activations import MorphoLayerParams, morpho_act1_forward, morpho_act2_forward
from .autodiff import Array, Tensor, make_rng
from .data import Dataset, batches
from .morphops import PoolSpec

class DivergenceError(RuntimeError):
    """Raised when the loss stops being finite; carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


# -- graph ops used only by the net ------------------------------------------


def _im2col(x: Array, kh: int, kw: int) -> Array:
    b, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    s = x.strides
    win = as_strided(x, shape=(b, c, kh, kw, oh, ow),
                     strides=(s[0], s[1], s[2], s[3], s[2], s[3]))
    return win.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, b * oh * ow)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """Valid-mode cross-correlation, [B,C,H,W] x [F,C,kh,kw] -> [B,F,.,.]."""
    bsz, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError("channel mismatch")
    oh, ow = h - kh + 1, wd - kw + 1
    cols = _im2col(x.data, kh, kw)  # [C*kh*kw, B*OH*OW]
    wmat = w.data.reshape(f, -1)
    out = (wmat @ cols).reshape(f, bsz, oh, ow).transpose(1, 0, 2, 3)
    if b is not None:
        out = out + b.data.reshape(1, f, 1, 1)

    x_shape = x.data.shape

    def back_x(g: Array) -> Array:
        gmat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        dcols = wmat.T @ gmat
        d6 = dcols.reshape(c, kh, kw, bsz, oh, ow)
        dx = np.zeros(x_shape)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + oh, j:j + ow] += d6[:, i, j].transpose(1, 0, 2, 3)
        return dx

    def back_w(g: Array) -> Array:
        gmat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        return (gmat @ cols.T).reshape(w.data.shape)

    parents = [(x, back_x), (w, back_w)]
    if b is not None:
        parents.append((b, lambda g: g.sum(axis=(0, 2, 3))))
    return ad.make_node(out, parents)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    mask = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    return ad.make_node(x.data * mask, [(x, lambda g: g * mask)])


def cross_entropy(logits: Tensor, labels: Array) -> Tensor:
    """Mean categorical cross-entropy from raw logits (fused log-softmax)."""
    z = logits.data
    n = z.shape[0]
    shift = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shift)
    sumexp = expz.sum(axis=1, keepdims=True)
    log_probs = shift - np.log(sumexp)
    nll = -log_probs[np.arange(n), labels].mean()
    softmax = expz / sumexp

    def back(g: Array) -> Array:
        d = softmax.copy()
        d[np.arange(n), labels] -= 1.0
        return d * (float(g) / n)

    return ad.make_node(np.asarray(nll), [(logits, back)])


# -- layers -------------------------------------------------------------------


class Conv2dLayer:
    def __init__(self, in_ch: int, out_ch: int, ksize: int,
                 rng: np.random.Generator, bias: bool = True):
        bound = 1.0 / np.sqrt(in_ch * ksize * ksize)
        self.w = Tensor(rng.uniform(-bound, bound, (out_ch, in_ch, ksize, ksize)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(out_ch), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b)

    def params(self) -> list[Tensor]:
        return [self.w] + ([self.b] if self.b is not None else [])


class DenseLayer:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.w = Tensor(rng.uniform(-bound, bound, (n_in, n_out)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add_rowvec(ad.matmul(x, self.w), self.b)

    def params(self) -> list[Tensor]:
        return [self.w, self.b]


def _morpho_stage(forward):
    return lambda x, pool, layer: forward(x, layer.activation,
                                          layer.structuring, pool,
                                          channel_axis=1)


def _morpho_layer(variant: int):
    # per-channel clamp-initialized max-min activation and a flat bank
    return lambda spec, pool: MorphoLayerParams.init(
        variant, spec.m_terms, spec.n_terms, pool, channels=spec.filters)


def _no_params(spec, pool) -> tuple:
    return ()


def _posneg_slopes(spec, pool) -> tuple[Tensor, Tensor]:
    # (beta_pos, beta_neg), both initialized to 1
    return (Tensor(1.0, requires_grad=True), Tensor(1.0, requires_grad=True))


# variant -> (forward(x, pool, layer), layer initializer(spec, pool), conv
# bias); the morpho variants drop the bias, the activation intercepts absorb it
STAGES = {
    "relu-maxpool": (lambda x, pool, _: mo.max_pool(mo.relu(x), pool),
                     _no_params, True),
    "relu6-maxpool": (lambda x, pool, _: mo.max_pool(
        ad.minimum(mo.relu(x), 6.0), pool), _no_params, True),
    "selfdual": (lambda x, pool, _: mo.selfdual_pool(x, pool),
                 _no_params, True),
    "posneg": (lambda x, pool, slopes: mo.posneg_pool_param(x, pool, *slopes),
               _posneg_slopes, True),
    "morpho1": (_morpho_stage(morpho_act1_forward), _morpho_layer(1), False),
    "morpho2": (_morpho_stage(morpho_act2_forward), _morpho_layer(2), False),
}
VARIANTS = tuple(STAGES)


class Stage:
    """Activation fused with stride pooling, looked up in ``STAGES``.

    ``layer`` holds the stage's trainable state: a ``MorphoLayerParams`` for
    the morpho variants, a tuple of tensors otherwise.
    """

    def __init__(self, spec: ModelSpec, pool: PoolSpec):
        self.pool = pool
        self._forward, init, _ = STAGES[spec.variant]
        self.layer = init(spec, pool)

    def __call__(self, x: Tensor) -> Tensor:
        return self._forward(x, self.pool, self.layer)

    def params(self) -> list[Tensor]:
        if isinstance(self.layer, MorphoLayerParams):
            return self.layer.tensors()
        return list(self.layer)


# -- model --------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    variant: str = "relu-maxpool"
    n_terms: int = 2
    m_terms: int = 2
    filters: int = 128
    kernel_size: int = 3
    pool_extent: int = 2
    pool_stride: int = 2
    dropout: float = 0.5
    n_classes: int = 10
    in_channels: int = 1
    image_size: tuple[int, int] = (28, 28)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {VARIANTS}")
        if self.n_terms < 1 or self.m_terms < 1:
            raise ValueError("n_terms and m_terms must be >= 1")


class Model:
    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        pool = PoolSpec((spec.pool_extent,) * 2, (spec.pool_stride,) * 2)
        k, f = spec.kernel_size, spec.filters
        bias = STAGES[spec.variant][2]
        self.conv1 = Conv2dLayer(spec.in_channels, f, k, rng, bias)
        self.stage1 = Stage(spec, pool)
        self.conv2 = Conv2dLayer(f, f, k, rng, bias)
        self.stage2 = Stage(spec, pool)
        h, w = spec.image_size
        for _ in range(2):  # valid conv, then pool
            h, w = pool.out_extent((h - k + 1, w - k + 1))
        self.feature_dim = f * h * w
        self.dense = DenseLayer(self.feature_dim, spec.n_classes, rng)

    def features(self, x: Tensor) -> Tensor:
        h = self.stage1(self.conv1(x))
        h = self.stage2(self.conv2(h))
        return ad.reshape(h, (h.data.shape[0], self.feature_dim))

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h = self.features(x)
        if train and self.spec.dropout > 0.0:
            if rng is None:
                raise ValueError("training forward needs an rng for dropout")
            h = dropout(h, self.spec.dropout, rng)
        return self.dense(h)

    def parameters(self) -> list[Tensor]:
        out = self.conv1.params() + self.stage1.params()
        out += self.conv2.params() + self.stage2.params()
        out += self.dense.params()
        return out

    def stage_parameters(self) -> list[Tensor]:
        return self.stage1.params() + self.stage2.params()

    def trainable(self, scope: str = "all") -> list[Tensor]:
        if scope == "all":
            return self.parameters()
        if scope == "activations_only":
            return self.stage_parameters()
        raise ValueError(f"unknown trainable scope {scope!r}")

    def set_trainable_scope(self, scope: str) -> list[Tensor]:
        """Freeze everything outside the scope so backward skips their
        gradient work entirely; returns the live parameters."""
        live = self.trainable(scope)
        live_ids = {id(p) for p in live}
        for p in self.parameters():
            p.requires_grad = id(p) in live_ids
        return live

    def n_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))


def build_model(spec: ModelSpec, rng: np.random.Generator) -> Model:
    return Model(spec, rng)


def save_model(model: Model, path) -> None:
    arrays = {f"param_{i}": p.data for i, p in enumerate(model.parameters())}
    arrays["spec_json"] = np.frombuffer(
        json.dumps(asdict(model.spec)).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_model(path) -> Model:
    with np.load(path) as blob:
        raw = bytes(blob["spec_json"].tobytes())
        cfg = json.loads(raw)
        cfg["image_size"] = tuple(cfg["image_size"])
        spec = ModelSpec(**cfg)
        model = Model(spec, make_rng(0))
        for i, p in enumerate(model.parameters()):
            stored = blob[f"param_{i}"]
            if stored.shape != p.data.shape:
                raise ValueError(f"param_{i} shape {stored.shape} does not "
                                 f"match the spec ({p.data.shape})")
            p.data = stored.copy()
    return model


# -- optimizer ----------------------------------------------------------------


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


# -- training loop -------------------------------------------------------------


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 256
    max_epochs: int = 20
    patience: int = 10
    seed: int = 0
    trainable_scope: str = "all"
    shuffle: bool = True
    eval_batch_size: int = 512


@dataclass
class Metrics:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_test_acc: float = 0.0
    final_top1_error: float = 1.0
    seed: int = 0
    n_parameters: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(model: Model, ds: Dataset, batch_size: int = 512) -> float:
    """Top-1 accuracy under no_grad."""
    correct = 0
    with ad.no_grad():
        for images, labels in batches(ds, batch_size):
            x = Tensor(images[:, None, :, :])
            logits = model.forward(x, train=False)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    return correct / len(ds)


def train(model: Model, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
          metrics_jsonl=None, summary_csv=None,
          log=None) -> Metrics:
    """Adam + cross-entropy with early stopping on test accuracy.

    One rng stream (from cfg.seed) drives shuffling and dropout, so a fixed
    seed reproduces the run exactly.  Raises DivergenceError when the loss
    leaves the reals.
    """
    rng = make_rng(cfg.seed)
    live = model.set_trainable_scope(cfg.trainable_scope)
    opt = Adam(live, lr=cfg.lr)
    metrics = Metrics(seed=cfg.seed, n_parameters=model.n_parameters())
    jsonl = open(metrics_jsonl, "w") if metrics_jsonl else None
    started = time.perf_counter()
    stale = 0
    try:
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            loss_sum = 0.0
            correct = 0
            seen = 0
            for images, labels in batches(train_ds, cfg.batch_size, rng,
                                          shuffle=cfg.shuffle):
                x = Tensor(images[:, None, :, :])
                logits = model.forward(x, train=True, rng=rng)
                loss = cross_entropy(logits, labels)
                if not np.isfinite(loss.data):
                    raise DivergenceError(epoch)
                opt.zero_grad()
                loss.backward()
                opt.step()
                n = len(labels)
                loss_sum += float(loss.data) * n
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                seen += n
                # free this step's graph before the next forward builds one
                del logits, loss
            test_acc = evaluate(model, test_ds, cfg.eval_batch_size)
            row = {
                "epoch": epoch,
                "train_loss": loss_sum / seen,
                "train_acc": correct / seen,
                "test_acc": test_acc,
                "seconds": time.perf_counter() - t0,
            }
            metrics.epochs.append(row)
            if jsonl:
                jsonl.write(json.dumps(row) + "\n")
                jsonl.flush()
            if log:
                log(f"epoch {epoch}: loss {row['train_loss']:.4f} "
                    f"train {row['train_acc']:.4f} test {test_acc:.4f} "
                    f"({row['seconds']:.1f}s)")
            if test_acc > metrics.best_test_acc:
                metrics.best_test_acc = test_acc
                metrics.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    finally:
        if jsonl:
            jsonl.close()
    metrics.final_top1_error = 1.0 - metrics.best_test_acc
    metrics.wall_seconds = time.perf_counter() - started
    if summary_csv:
        with open(summary_csv, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["seed", "best_epoch", "best_test_acc",
                         "final_top1_error", "epochs_run", "wall_seconds",
                         "n_parameters"])
            wr.writerow([metrics.seed, metrics.best_epoch,
                         f"{metrics.best_test_acc:.6f}",
                         f"{metrics.final_top1_error:.6f}",
                         len(metrics.epochs), f"{metrics.wall_seconds:.2f}",
                         metrics.n_parameters])
    return metrics


# -- experiment protocols -------------------------------------------------------


def run_table1_protocol(variant_specs: dict[str, ModelSpec], cfg: TrainConfig,
                        train_ds: Dataset, test_ds: Dataset,
                        seeds=(0, 1, 2), baseline: str = "relu-maxpool",
                        log=None) -> dict:
    """Train every variant over the seed list and report accuracy deltas
    against the baseline variant (which must be included)."""
    if baseline not in variant_specs:
        raise ValueError(f"variant table must include the baseline "
                         f"{baseline!r}")
    results: dict[str, dict] = {}
    for name, spec in variant_specs.items():
        accs = []
        for seed in seeds:
            model = build_model(spec, make_rng(seed))
            run_cfg = replace(cfg, seed=seed)
            if log:
                log(f"[{name}] seed {seed}")
            m = train(model, train_ds, test_ds, run_cfg, log=log)
            accs.append(m.best_test_acc)
        results[name] = {
            "accuracies": accs,
            "mean_accuracy": float(np.mean(accs)),
        }
    base = results[baseline]["mean_accuracy"]
    for name, row in results.items():
        row["delta_vs_baseline"] = row["mean_accuracy"] - base
    return {"baseline": baseline, "seeds": list(seeds), "variants": results}

