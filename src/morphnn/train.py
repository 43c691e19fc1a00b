"""Training harness: a small convnet whose nonlinearity/pooling stage is
swappable between the baseline and the morphological variants.

Architecture (image classification): conv 3x3 -> stage 1 -> conv 3x3 ->
stage 2 -> flatten -> dropout -> dense.  Stages pool with stride 2.  The
morphological variants drop the conv biases (the activation intercepts
absorb them) and train slopes, intercepts and structuring weights by
reverse mode like any other parameter.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import math
import resource
import time
import zipfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from . import morphops as mo
from .activations import MorphoLayerParams, morpho_act1_forward, morpho_act2_forward
from .autodiff import Array, Tensor, make_rng
from .data import Dataset, batches
from .morphops import PoolSpec

class DivergenceError(RuntimeError):
    """Raised when training leaves the reals.  Carries the epoch, the step
    (counted from the start of the run) and ``tensor``, the name of the
    first parameter or gradient that is not finite, or None when every
    one is (the loss overflowed on its own)."""

    def __init__(self, epoch: int, step: int | None = None,
                 tensor: str | None = None):
        where = f"epoch {epoch}" + ("" if step is None else f", step {step}")
        what = "" if tensor is None else f": {tensor} is not finite"
        super().__init__(f"training diverged at {where}{what}")
        self.epoch, self.step, self.tensor = epoch, step, tensor


# -- graph ops used only by the net ------------------------------------------


# bytes of the largest per-image array in one _batch_slices slice: conv2d
# and Model.features' no-grad pass hold one slice's im2col, x gradient or
# stack, and conv_feed one group of filters, not the whole batch's.  16 MiB,
# by measurement: at the paper's shapes it cuts slices of 8 images and
# groups of 8 filters; 32 MiB raised an eval batch's peak RSS by half
_SLICE_BYTES = ad._SLICE_BYTES

# a GEMM over a slice of columns gives the whole GEMM's columns bit for bit
# when the slice starts and ends on a multiple of this many columns, the
# group that OpenBLAS's run-time dgemm kernel (``cli.blas_config``'s
# ``openblas_core``) computes together; a slice of a multiple of this many
# images starts both convs on such a multiple.
_GEMM_COLUMN_GROUP = 8


def _batch_slices(n: int, image_bytes: int) -> list[slice]:
    """Consecutive slices of n images (or filters), each as many as
    ``_SLICE_BYTES`` holds of ``image_bytes`` an image, rounded down to a
    multiple of ``_GEMM_COLUMN_GROUP`` (one group at least); the last may be
    shorter."""
    fits = _SLICE_BYTES // max(image_bytes, 1)  # an empty batch fits
    step = max(_GEMM_COLUMN_GROUP, fits - fits % _GEMM_COLUMN_GROUP)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _parts(n: int) -> list[slice]:
    """n columns (or channels) cut into one run per pool worker, each but
    the last a multiple of ``_GEMM_COLUMN_GROUP``: a GEMM over each run of
    columns gives the whole GEMM's bytes."""
    step = max(1, -(-n // mo._workers()))
    step += -step % _GEMM_COLUMN_GROUP
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _gemm(a: Array, b: Array, out: Array) -> Array:
    """``np.matmul(a, b, out=out)``, b's and out's columns cut into
    ``_parts`` that run on the pool (``morphops._imap``)."""
    mo._each(lambda cs: np.matmul(a, b[:, cs], out=out[:, cs]),
             _parts(b.shape[1]))
    return out


def _windows(x: Array, kh: int, kw: int) -> Array:
    """Every kh x kw window of x [B,C,H,W] as a [C,kh,kw,B,OH,OW] view."""
    b, c, h, w = x.shape
    s = x.strides
    win = as_strided(x, shape=(b, c, kh, kw, h - kh + 1, w - kw + 1),
                     strides=(s[0], s[1], s[2], s[3], s[2], s[3]))
    return win.transpose(1, 2, 3, 0, 4, 5)


def _im2col(x: Array, kh: int, kw: int) -> Array:
    """x's [C*kh*kw, B*OH*OW] im2col, its channels copied on the pool."""
    win = _windows(x, kh, kw)
    cols = np.empty(win.shape)
    mo._each(lambda cs: np.copyto(cols[cs], win[cs]), _parts(len(win)))
    return cols.reshape(math.prod(win.shape[:3]), -1)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """Valid-mode cross-correlation, [B,C,H,W] x [F,C,kh,kw] -> [B,F,.,.]:
    conv2, plus conv1 when the images take a gradient (``Model._stack``).

    The output is the transposed view of an [F, B*OH*OW] GEMM result, so
    its memory is channel-major, as is the x gradient; a channel-major
    output gradient, as every stage returns, reaches both backward GEMMs as
    a view.  The rules never keep the output.  The forward GEMM and the x
    gradient's GEMM run on ``_batch_slices`` of the batch.  With one
    channel the rules keep x's im2col and the forward slices are column
    views of it (tap GEMMs would be matrix-vector products); with more they
    keep x, and the w gradient is one GEMM per kernel tap.  On the pool
    (``train()``) each GEMM runs in column parts (``_gemm``; a tap's in
    runs of channels, each worker copying its own), as do the im2col copy
    and ``back_x``'s scatter.  Every result is the unsliced GEMM's bytes,
    an OpenBLAS property that ``TestConv2d`` pins at the shapes the hashes
    and the benchmark run; at (37, 24, 16) on 2 BLAS threads the taps
    differ in the last bit.
    """
    bsz, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError("channel mismatch")
    oh, ow = h - kh + 1, wd - kw + 1
    n = oh * ow
    wmat = w.data.reshape(f, -1)
    w_shape, xd = w.data.shape, x.data
    slices = _batch_slices(bsz, wmat.nbytes // f * n)  # one image's im2col
    cols = _im2col(xd, kh, kw) if c == 1 else None  # [C*kh*kw, B*OH*OW]
    out = np.empty((f, bsz * n))
    for s in slices:
        cs = slice(s.start * n, s.stop * n)
        _gemm(wmat, _im2col(xd[s], kh, kw) if cols is None else cols[:, cs],
              out[:, cs])
    out = out.reshape(f, bsz, oh, ow).transpose(1, 0, 2, 3)
    if b is not None:
        out += b.data.reshape(1, f, 1, 1)

    def back_w(g: Array) -> Array:
        gmat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        if cols is not None:
            return (gmat @ cols.T).reshape(w_shape)
        win = _windows(xd, kh, kw)
        dw, tap = np.empty(w_shape), np.empty((c, bsz, oh, ow))

        def run(cs):  # one run of channels: its part of the tap, its columns
            np.copyto(tap[cs], win[cs, i, j])
            dw[:, cs, i, j] = gmat @ tap[cs].reshape(len(tap[cs]), -1).T

        for i in range(kh):
            for j in range(kw):
                mo._each(run, _parts(c))
        return dw

    def back_x(g: Array) -> Array:
        dx = np.zeros((c, bsz, h, wd))
        # weight rows in (kh, kw, C) order, so each tap's slice of the GEMM
        # result is contiguous; each entry is the same dot product
        wtap = wmat.reshape(f, c, kh, kw).transpose(2, 3, 1, 0).reshape(-1, f)

        def scatter(cs):  # one run of channels, every tap in order
            for i in range(kh):
                for j in range(kw):
                    dxs[cs, :, i:i + oh, j:j + ow] += d6[i, j, cs]

        for s in slices:
            dxs = dx[:, s]
            gmat = g[s].transpose(1, 0, 2, 3).reshape(f, -1)
            d6 = _gemm(wtap, gmat, np.empty((len(wtap), gmat.shape[1])))
            d6 = d6.reshape(kh, kw, *dxs.shape[:2], oh, ow)
            mo._each(scatter, _parts(c))
            del d6  # not held while the next slice's GEMM runs
        return dx.transpose(1, 0, 2, 3)

    # back_w runs first: backward drops it, and cols or x with it, before
    # back_x runs (back_x must not hold them)
    parents = [(w, back_w), (x, back_x)]
    if b is not None:
        parents.append((b, lambda g: np.ascontiguousarray(
            g.sum(axis=(2, 3))).sum(axis=0)))
    return ad.make_node(out, parents)


def conv_feed(x: Tensor, w: Tensor, b: Tensor | None = None) -> mo.Feed:
    """``conv2d(x, w, b)`` as a ``morphops.Feed``: the conv fused with the
    blockwise stage after it, which takes its output, channel-major, one
    group of whole filters (``_batch_slices``) at a time and hands back
    their gradient the same way, so neither is ever whole (177 MB for conv1
    at batch 256).  The op keeps x's im2col and copies of w's rows and of
    b, taken when it runs, so a backward pass that rebuilds a group sees
    the forward pass's bytes even if w changes in place in between.  Each
    backward pass makes its own w and b gradient arrays at its first group,
    so a feed may have two readers (a split stage's two ``act_pool``s).  x
    takes no gradient: an x that takes one is refused.

    A group's output is ``wmat[g] @ cols`` plus its rows of b (in column
    parts on the pool, ``_parts``), its share of the w gradient
    ``gx.reshape(G, -1) @ cols.T`` (one GEMM, in the caller) and of b's its
    images summed in batch order: the whole GEMM's rows to the bit at the
    shapes ``TestConvFeed`` pins, an OpenBLAS property.  From 25 to 256
    images at 128 filters, the forward rows of odd batches differed in the
    last bit on 2 BLAS threads (most on 1 too), as did the w gradient at
    most even batches that are no multiple of 8, so such a batch may train
    differently from ``conv2d``.
    """
    if x.requires_grad:
        raise ValueError("conv_feed gives x no gradient; its x must take "
                         "none")
    bsz, c, h, wd = x.data.shape
    f, c2, kh, kw = w.data.shape
    if c != c2:
        raise ValueError("channel mismatch")
    oh, ow = h - kh + 1, wd - kw + 1
    # copies, so a group rebuilt in the backward pass is the forward's
    wmat, w_shape = w.data.reshape(f, -1).copy(), w.data.shape
    bias = None if b is None else b.data.copy()
    cols = _im2col(x.data, kh, kw)  # [C*kh*kw, B*OH*OW]
    groups = _batch_slices(f, 8 * bsz * oh * ow)
    tensors = (w,) if b is None else (w, b)
    takes_w, takes_b = w.requires_grad, b is not None and b.requires_grad
    grads = []  # this backward pass's dw and db

    def take(sl: slice) -> Array:
        xg = np.empty((sl.stop - sl.start, cols.shape[1]))

        def run(cs):
            np.matmul(wmat[sl], cols[:, cs], out=xg[:, cs])
            if bias is not None:
                xg[:, cs] += bias[sl, None]

        mo._each(run, _parts(cols.shape[1]))
        return xg.reshape(len(xg), bsz, oh, ow)

    def give(sl: slice, gx: Array) -> tuple:
        if sl.start == 0:  # new arrays per pass: a Feed may have two readers
            grads[:] = [np.empty(w_shape) if takes_w else None,
                        np.empty(f) if takes_b else None]
        dw, db = grads
        if dw is not None:
            np.matmul(gx.reshape(len(gx), -1), cols.T,
                      out=dw.reshape(f, -1)[sl])
        if db is not None:
            db[sl] = np.ascontiguousarray(gx.sum(axis=(2, 3)).T).sum(axis=0)
        return tuple(grads[:len(tensors)])

    return mo.Feed(tensors, (bsz, f, oh, ow), groups, take, give)


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
    if n == 0:  # the mean of no rows is undefined
        raise ValueError(f"cross_entropy got logits with no rows: {z.shape}")
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

    def named_params(self) -> dict[str, Tensor]:
        return {"w": self.w} | ({} if self.b is None else {"b": self.b})


class DenseLayer:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(n_in)
        self.w = Tensor(rng.uniform(-bound, bound, (n_in, n_out)),
                        requires_grad=True)
        self.b = Tensor(np.zeros(n_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add_rowvec(ad.matmul(x, self.w), self.b)

    def named_params(self) -> dict[str, Tensor]:
        return {"w": self.w, "b": self.b}


def _morpho_stage(forward):
    return lambda x, pool, layer: forward(x, layer.activation,
                                          layer.structuring, pool,
                                          channel_axis=1)


def _morpho_layer(variant: int):
    # per-channel clamp-initialized max-min activation and a flat bank
    return lambda spec, pool: MorphoLayerParams.init(
        variant, spec.m_terms, spec.n_terms, pool, channels=spec.filters)


def _no_params(spec, pool) -> dict:
    return {}


def _posneg_slopes(spec, pool) -> dict[str, Tensor]:
    # both initialized to 1
    return {"beta_pos": Tensor(1.0, requires_grad=True),
            "beta_neg": Tensor(1.0, requires_grad=True)}


# variant -> (forward(x, pool, layer), layer initializer(spec, pool), conv
# bias); the morpho variants drop the bias, the activation intercepts absorb it
STAGES = {
    "relu-maxpool": (lambda x, pool, _: mo.act_pool(x, pool),
                     _no_params, True),
    "relu6-maxpool": (lambda x, pool, _: mo.act_pool(x, pool, cap=6.0),
                      _no_params, True),
    "selfdual": (lambda x, pool, _: mo.selfdual_pool(x, pool),
                 _no_params, True),
    "posneg": (lambda x, pool, slopes: mo.posneg_pool_param(
        x, pool, slopes["beta_pos"], slopes["beta_neg"]),
               _posneg_slopes, True),
    "morpho1": (_morpho_stage(morpho_act1_forward), _morpho_layer(1), False),
    "morpho2": (_morpho_stage(morpho_act2_forward), _morpho_layer(2), False),
}
VARIANTS = tuple(STAGES)


class Stage:
    """Activation fused with stride pooling, looked up in ``STAGES``.

    ``layer`` holds the stage's trainable state: a ``MorphoLayerParams`` for
    the morpho variants, a dict of named tensors otherwise.
    """

    def __init__(self, spec: ModelSpec, pool: PoolSpec):
        self.pool = pool
        self._forward, init, _ = STAGES[spec.variant]
        self.layer = init(spec, pool)

    def __call__(self, x: Tensor) -> Tensor:
        return self._forward(x, self.pool, self.layer)

    def named_params(self) -> dict[str, Tensor]:
        if isinstance(self.layer, MorphoLayerParams):
            return self.layer.named_tensors()
        return dict(self.layer)


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
        if len(self.image_size) != 2:
            raise ValueError(f"image_size must be (height, width), got "
                             f"{self.image_size!r}")
        sizes = {name: getattr(self, name) for name in (
            "n_terms", "m_terms", "filters", "kernel_size", "pool_extent",
            "pool_stride", "n_classes", "in_channels")}
        sizes |= {"image_size[0]": self.image_size[0],
                  "image_size[1]": self.image_size[1]}
        for name, value in sizes.items():
            # a float or a bool would build a model that fails later
            if type(value) is bool or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        h, w = self.image_size
        c, k, f, largest = self.in_channels, self.kernel_size, self.filters, 0
        for stage in (1, 2):  # valid conv (im2col and output), then pool
            h, w = h - k + 1, w - k + 1
            if min(h, w) < self.pool_extent:
                raise ValueError(
                    f"image_size {self.image_size} leaves conv{stage} a "
                    f"{max(h, 0)}x{max(w, 0)} output, smaller than the "
                    f"{self.pool_extent}x{self.pool_extent} pool window")
            largest = max(largest, c * k * k * h * w, f * h * w)
            h = (h - self.pool_extent) // self.pool_stride + 1
            w = (w - self.pool_extent) // self.pool_stride + 1
            c = f
        # derived, not fields: asdict() and the saved spec leave them out
        object.__setattr__(self, "feature_dim", c * h * w)
        # bytes of the largest per-image array of the stack, float64
        object.__setattr__(self, "image_bytes", 8 * largest)


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
        self.feature_dim = spec.feature_dim
        self.dense = DenseLayer(self.feature_dim, spec.n_classes, rng)

    def _stack(self, x: Tensor) -> Tensor:
        # nested, so each stage's input dies as soon as its consumer has
        # run unless a backward rule keeps it; every stage takes conv1 fused
        # (a Feed), unless x takes a gradient: a Feed gives x none
        return self.stage2(self.conv2(self.stage1(
            self.conv1(x) if x.requires_grad
            else conv_feed(x, self.conv1.w, self.conv1.b))))

    def features(self, x: Tensor) -> Tensor:
        """conv1 -> stage 1 -> conv2 -> stage 2, flattened: [B, feature_dim].

        Under no_grad the stack runs on consecutive ``_batch_slices`` of
        whole images (8 at 128 filters, sized by conv2's 1.1 MB im2col an
        image), so conv1's output is never whole.  The stages work on each
        image alone, so the features are the whole batch's to the bit.
        """
        if ad.is_grad_enabled():
            h = self._stack(x)
            return ad.reshape(h, (h.data.shape[0], self.feature_dim))
        out = np.empty((len(x.data), self.feature_dim))
        for s in _batch_slices(len(out), self.spec.image_bytes):
            h = self._stack(Tensor(x.data[s])).data
            np.copyto(out[s].reshape(h.shape), h)
            del h  # not held while the next slice runs
        return Tensor(out)

    def forward(self, x: Tensor, train: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h = self.features(x)
        if train and self.spec.dropout > 0.0:
            if rng is None:
                raise ValueError("training forward needs an rng for dropout")
            h = dropout(h, self.spec.dropout, rng)
        return self.dense(h)

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter by name, ``conv1.w``, ``stage1.beta``, ...,
        ``dense.b``, in ``parameters()`` order."""
        return {f"{layer}.{name}": t
                for layer in ("conv1", "stage1", "conv2", "stage2", "dense")
                for name, t in getattr(self, layer).named_params().items()}

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def stage_parameters(self) -> list[Tensor]:
        return [t for name, t in self.named_parameters().items()
                if name.startswith("stage")]

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


# layout of the files save_model writes; load_model reads this one only
MODEL_FORMAT = 1


def save_model(model: Model, path) -> None:
    """Write the spec, ``format_version`` and each parameter under its
    name in ``named_parameters()`` (``conv1.w``, ..., ``dense.b``)."""
    arrays = {name: p.data for name, p in model.named_parameters().items()}
    arrays["spec_json"] = np.frombuffer(
        json.dumps(asdict(model.spec)).encode(), dtype=np.uint8)
    arrays["format_version"] = np.asarray(MODEL_FORMAT)
    np.savez(path, **arrays)


def load_model(path) -> Model:
    """The model ``save_model`` wrote to ``path``, parameters matched by
    name.  Raises ValueError, naming the problem, on a file of another
    format version (an older file's positional ``param_{i}`` keys
    included), on a spec that ``ModelSpec`` refuses, on a missing or
    unexpected entry, on a parameter whose shape does not match the spec
    or that is not float64, and on a damaged file (empty or truncated)."""
    try:  # from memory: a failed np.load(path) leaves the file open
        blob = np.load(io.BytesIO(Path(path).read_bytes()))
    except (EOFError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path}: damaged model file ({e})") from e
    with blob:
        def read(key: str) -> Array:
            if key not in blob.files:
                raise ValueError(f"{path}: no {key!r} entry; not a model "
                                 "file written by save_model")
            return blob[key]

        if "format_version" not in blob.files and "param_0" in blob.files:
            raise ValueError(f"{path}: positional 'param_{{i}}' keys from "
                             "an older save_model; this version loads "
                             f"parameters by name (format {MODEL_FORMAT})")
        version = read("format_version").tolist()
        if version != MODEL_FORMAT:
            raise ValueError(f"{path}: model format version {version}; "
                             f"this version reads {MODEL_FORMAT}")
        cfg = json.loads(bytes(read("spec_json").tobytes()))
        try:
            cfg["image_size"] = tuple(cfg["image_size"])
            spec = ModelSpec(**cfg)
        except (TypeError, KeyError, ValueError) as e:
            raise ValueError(f"{path}: spec_json is not a model spec ({e!r})"
                             ) from e
        model = Model(spec, make_rng(0))
        named = model.named_parameters()
        extra = sorted(set(blob.files) - set(named)
                       - {"spec_json", "format_version"})
        if extra:
            raise ValueError(f"{path}: entries {extra} are not parameters "
                             f"of a {spec.variant} model")
        for name, p in named.items():
            stored = read(name)
            if stored.shape != p.data.shape:
                raise ValueError(f"{name} shape {stored.shape} does not "
                                 f"match the spec ({p.data.shape})")
            if stored.dtype != np.float64:
                raise ValueError(f"{path}: {name} is {stored.dtype}, not "
                                 "float64")
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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # else make_rng fails after the CLI has made --out
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a NaN or infinite rate makes Adam's last update NaN everywhere
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        # else patience 0 acts as 1, eval_batch_size 0 fails after an epoch
        for name in ("max_epochs", "patience", "eval_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")


@dataclass
class Metrics:
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_test_acc: float = 0.0
    final_top1_error: float = 1.0
    seed: int = 0
    n_parameters: int = 0
    wall_seconds: float = 0.0


def evaluate(model: Model, ds: Dataset, batch_size: int = 512) -> float:
    """Top-1 accuracy under no_grad, serially (no pool, also inside
    ``train()``); ValueError on an empty dataset."""
    if len(ds) == 0:
        raise ValueError("evaluate() needs images; the dataset is empty")
    correct = 0
    with ad.no_grad(), mo._pooled(1):
        for images, labels in batches(ds, batch_size):
            x = Tensor(images[:, None, :, :])
            logits = model.forward(x, train=False)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    return correct / len(ds)


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _non_finite(model: Model, grads: bool) -> str | None:
    """The first parameter (or, with ``grads``, trained parameter's
    gradient) in ``parameters()`` order that is not finite, by name; None if
    all are.  A frozen parameter's ``.grad`` may be left from an earlier run
    and is not looked at."""
    for name, p in model.named_parameters().items():
        if grads and not p.requires_grad:
            continue
        arr = p.grad if grads else p.data
        if arr is not None and not np.isfinite(arr).all():
            return f"gradient of {name}" if grads else f"parameter {name}"
    return None


def _openblas(symbol: str, restype, *argtypes):
    """The function ``symbol`` of the OpenBLAS that numpy bundles, through
    ctypes, typed ``restype(*argtypes)``, or None where numpy bundles no
    library exporting it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*scipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(path)), symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


def _blas_threads():
    """OpenBLAS's thread count getter and setter, or None where numpy
    bundles no OpenBLAS exporting both."""
    get = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    put = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    return None if get is None or put is None else (get, put)


def _pool_workers() -> int:
    """The workers ``train()``'s pool would have now: the threads numpy's
    OpenBLAS runs (which OpenBLAS caps at the cores), 1 where its thread
    count cannot be set."""
    calls = _blas_threads()
    return 1 if calls is None else max(1, calls[0]())


@contextlib.contextmanager
def _blas_held():
    """For the span of the block, hold numpy's OpenBLAS at one thread and
    run the pooled loops (``morphops._pooled``) on as many workers as it
    ran threads; then give OpenBLAS its thread count back, also when the
    block raises.  Where the count cannot be set, nothing changes."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    threads = get()
    put(1)
    try:
        with mo._pooled(threads):
            yield
    finally:
        put(threads)


def train(model: Model, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
          metrics_jsonl=None, summary_csv=None,
          log=None) -> Metrics:
    """Adam + cross-entropy with early stopping on test accuracy.

    One rng stream (from cfg.seed) drives shuffling and dropout, so a fixed
    seed reproduces the run exactly.  Raises DivergenceError when the loss
    or a gradient leaves the reals, naming the step and the first
    parameter or gradient that is not finite.

    Each epoch appends one row to ``metrics.epochs`` and to the JSONL file:
    loss, accuracies, the epoch's ``seconds``, the mean ``step_seconds``
    and the ``examples_per_second`` of its training steps (evaluation
    excluded), and the process's ``peak_rss_mb`` so far.  ValueError on an
    empty training set, before any file is opened.

    For its span it holds numpy's OpenBLAS at one thread and runs the
    pooled loops on as many workers as OpenBLAS had threads
    (``_blas_held``): the blocks of each stage group and of its backward
    pass, and the column parts of each conv GEMM.  The order-dependent
    sums (the route parts, ``Feed.give``, the bias sums), the dense head
    and Adam stay in the caller, so the parameters are the same bytes on
    any thread count (``OPENBLAS_NUM_THREADS=1`` is a pool of one).
    ``evaluate()`` runs serially, inside it too, as do ``run_gradcheck()``
    and direct ``Model`` calls.
    """
    if len(train_ds) == 0:
        raise ValueError("train() needs images; the training set is empty")
    rng = make_rng(cfg.seed)
    live = model.set_trainable_scope(cfg.trainable_scope)
    opt = Adam(live, lr=cfg.lr)
    metrics = Metrics(seed=cfg.seed, n_parameters=model.n_parameters())
    jsonl = open(metrics_jsonl, "w") if metrics_jsonl else None
    started = time.perf_counter()
    stale = step = 0
    with _blas_held(), jsonl or contextlib.nullcontext():
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            loss_sum = 0.0
            correct = seen = steps = 0
            for images, labels in batches(train_ds, cfg.batch_size, rng,
                                          shuffle=cfg.shuffle):
                x = Tensor(images[:, None, :, :])
                logits = model.forward(x, train=True, rng=rng)
                loss = cross_entropy(logits, labels)
                if not np.isfinite(loss.data):
                    raise DivergenceError(epoch, step,
                                          _non_finite(model, grads=False))
                opt.zero_grad()
                loss.backward()
                # caught before Adam spreads it into every later step
                bad = _non_finite(model, grads=True)
                if bad is not None:
                    raise DivergenceError(epoch, step, bad)
                opt.step()
                step += 1
                n = len(labels)
                loss_sum += float(loss.data) * n
                correct += int((logits.data.argmax(axis=1) == labels).sum())
                seen += n
                steps += 1
                # backward() freed the graph; drop the step's outputs too,
                # so nothing of this step lives while the next one runs
                del logits, loss
            train_seconds = time.perf_counter() - t0
            test_acc = evaluate(model, test_ds, cfg.eval_batch_size)
            row = {
                "epoch": epoch,
                "train_loss": loss_sum / seen,
                "train_acc": correct / seen,
                "test_acc": test_acc,
                "seconds": time.perf_counter() - t0,
                "step_seconds": train_seconds / steps,
                "examples_per_second": seen / train_seconds,
                "peak_rss_mb": _peak_rss_mb(),
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

