"""Piecewise-linear max-min activations and the two combined
activation-pooling layers.

The universal activation is a min of maxes of affine pieces,

    act(x) = min_j max_i (beta[j, i] * x + alpha[j, i]),

evaluated elementwise with trainable slope/intercept matrices.  Layer
variant 1 applies one weighted dilation-pool per max-row and takes the min
across rows; variant 2 pools first, one weighted dilation-pool per outer
index, then applies the affine max-min on the pooled values.  Both reduce
to ReLU6 + max-pooling under the clamp initialization, and both expose
every parameter (slopes, intercepts, structuring weights) to reverse mode.
The bare activation ``pl_activation`` is variant 1 on a unit window (one
frozen zero-weight offset at stride 1), so one code path computes the
values, the winner record and the backward of all three.

Parameter layout: ``beta[..., j, i]`` where ``j`` indexes the outer min and
``i`` the inner max.  A leading channel axis is allowed; it must line up
with a channel axis of the input (``channel_axis``).

Both layer forms run one driver, ``_layer``; each is one graph node and works
in a channel-first frame: ``x.swapaxes(0, channel_axis)``, or x itself for
shared parameters.  A conv2d output is channel-major in memory ([C, B, H, W]
seen as [B, C, H, W]), so its frame is C-contiguous and no pass reorders it.
The forward pass computes the values with in-place ``np.maximum``/
``np.minimum`` on blocks of whole channels, or of one channel cut along its
next axis, small enough to stay in cache; each block takes its channels' slopes
and intercepts as pieces shaped (channels, 1, ...), which for one channel is a
scalar over one flat inner loop.  The output, the winner record, the backward's
indices and the x gradient are C-contiguous in the frame, and the output and x
gradient are returned as swapped views: a conv2d input or output gradient in
channel-major layout again.  Summed gradients of parameters shared across
channels (the structuring weights) accumulate channel by channel.  Every output
cell has exactly one subgradient winner, and under grad (only then) the forward
pass records it compactly: the outer branch (which is also the structuring
function), the window offset and the inner index, each in the smallest signed
integer dtype that holds its count; form 1's pool carries the inner index from
each cell's winning source with the offset.  The backward pass is one
``morphops.routed_node``, as for the pools, run on the forward pass's blocks:
per block it turns the record into the block's source and parameter indices,
scatters the x gradient into the block's slice of a frame-contiguous buffer
with a block-local ``np.bincount``, and adds the parameter gradients into
running sums in cell order with ``np.add.at``, the same sums to the bit as one
``bincount`` over every cell.  So beside the gradients only a few blocks'
temporaries live.  Tie rules, as for the pools: the inner max keeps the lowest
index, the window keeps its first offset in row-major order, and the outer min
keeps the lowest branch.  A cell whose window lies wholly outside the input
holds -inf and takes no gradient, nor does a NaN cell (``morphops._live``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import morphops as mo
from .autodiff import Array, Tensor
from .morphops import PoolSpec, StructuringFunction


def clamp_init(m_terms: int, n_terms: int, outer: str = "rows") -> tuple[Array, Array]:
    """Slope/intercept matrices that make the activation equal
    ``max(min(relu(x), 6), -6) = min(max(x, 0), 6)`` at initialization.

    The four clamp pieces (slope, intercept) are (1, 0) and (0, 0) inside
    the max stage plus a constant 6 row in the min stage; remaining slots
    are filled with (0, -6), inactive inside a max, or (0, 6), inactive
    inside a min.  ``outer`` says which matrix axis carries the outer min:
    "rows" (axis -2, layer variant 1) or "cols" (axis -1, variant 2).

    Degenerate sizes truncate the clamp: m_terms == 1 drops the upper bound,
    n_terms == 1 (with outer="rows") drops the lower rectification.
    """
    if m_terms < 1 or n_terms < 1:
        raise ValueError("need at least one term per stage")
    if outer == "rows":
        n_outer, n_inner = m_terms, n_terms
    elif outer == "cols":
        n_outer, n_inner = n_terms, m_terms
    else:
        raise ValueError("outer must be 'rows' or 'cols'")
    beta = np.zeros((n_outer, n_inner))
    alpha = np.full((n_outer, n_inner), -6.0)
    beta[0, 0] = 1.0
    alpha[0, 0] = 0.0
    if n_inner >= 2:
        alpha[0, 1] = 0.0  # the rectifying piece max(x, 0)
    if n_outer >= 2:
        alpha[1, :] = -6.0
        alpha[1, 0] = 6.0  # the saturating row min(., 6)
    for j in range(2, n_outer):
        alpha[j, 0] = 6.0  # extra min rows stay inactive as constant 6
    if outer == "cols":
        beta, alpha = beta.T.copy(), alpha.T.copy()
    return beta, alpha


@dataclass
class MorphoActivationParams:
    """Trainable (beta, alpha) for one activation; shape [m, n] or [c, m, n]."""

    beta: Tensor
    alpha: Tensor

    def __post_init__(self):
        if self.beta.data.shape != self.alpha.data.shape:
            raise ValueError("beta and alpha must share a shape")
        if self.beta.data.ndim not in (2, 3):
            raise ValueError("expected [m, n] or [c, m, n] parameters")
        if 0 in self.beta.data.shape[-2:]:
            raise ValueError("need at least one term on each axis, got "
                             f"[m, n] = {list(self.beta.data.shape[-2:])}")

    @property
    def m_terms(self) -> int:
        return self.beta.data.shape[-2]

    @property
    def n_terms(self) -> int:
        return self.beta.data.shape[-1]

    @classmethod
    def clamp(cls, m_terms: int, n_terms: int, outer: str = "rows",
              channels: int | None = None) -> "MorphoActivationParams":
        b, a = clamp_init(m_terms, n_terms, outer)
        if channels is not None:
            b = np.broadcast_to(b, (channels,) + b.shape).copy()
            a = np.broadcast_to(a, (channels,) + a.shape).copy()
        return cls(Tensor(b, requires_grad=True),
                   Tensor(a, requires_grad=True))


def _pieces(mat: Array, bsh) -> list[list[Array]]:
    """``mat[..., j, i]`` reshaped to ``bsh``, as a nested [j][i] list."""
    return [[mat[..., j, i].reshape(bsh) for i in range(mat.shape[-1])]
            for j in range(mat.shape[-2])]


def _affine_max(x: Array, slopes, intercepts,
                arg_dtype=None) -> tuple[Array, Array | None]:
    """Elementwise max over k of ``slopes[k] * x + intercepts[k]``.

    With ``arg_dtype`` it also returns the first maximising k (ties keep
    the lower k); otherwise the index is None.
    """
    val = np.multiply(slopes[0], x)
    val += intercepts[0]
    arg = None if arg_dtype is None else np.zeros(val.shape, arg_dtype)
    cand = np.empty_like(val) if len(slopes) > 1 else None
    for k in range(1, len(slopes)):
        np.multiply(slopes[k], x, out=cand)
        cand += intercepts[k]
        if arg is not None:
            mo._record(cand > val, [(arg, k)])
        np.maximum(val, cand, out=val)
    return val, arg


def _outer_min(branches, dtypes=None) -> tuple[Array, list[Array] | None]:
    """Elementwise min over the values of ``branches``, each a tuple
    ``(value, *extras)``.

    With ``dtypes`` it also returns each element's winner record: the index
    of the winning branch (strict ``<``, so ties keep the lower index) and
    that branch's extras, in ``dtypes``; otherwise the record is None.
    """
    out = record = None
    for k, (val, *extras) in enumerate(branches):
        if out is None:
            out = val
            if dtypes:
                record = [np.zeros(val.shape, dtypes[0])] + [
                    e.astype(dt) for e, dt in zip(extras, dtypes[1:])]
        else:
            if dtypes:
                mo._record(val < out, zip(record, (k, *extras)))
            np.minimum(out, val, out=out)
    return out, record


def pl_activation(x, params: MorphoActivationParams,
                  channel_axis: int | None = None) -> Tensor:
    """Elementwise min over j of max over i of beta[j,i] * x + alpha[j,i].

    With 3-d parameters [c, m, n] each channel along ``channel_axis`` of x
    uses its own matrix.  Ties route to the lowest (j, i) in row-major
    order.  This is layer form 1 on a unit window: x gains a trailing axis
    of extent 1, pooled by one frozen zero-weight offset at stride 1, so
    the values, the winner record and the backward are the layer form's.
    The values equal the direct evaluation's to the bit.  Two gradient
    details follow from the layer form: a zero x gradient is +0.0 (it is
    a ``bincount``), and per-channel beta/alpha gradients with
    ``channel_axis % x.ndim >= 2`` sum in the frame's cell order.  A NaN
    output cell takes no gradient.
    """
    x = ad.lift(x)
    if channel_axis is not None:
        channel_axis %= x.ndim
    unit = StructuringFunction([(0,)])
    out = morpho_act1_forward(ad.reshape(x, x.shape + (1,)), params,
                              [unit] * params.m_terms, PoolSpec((1,), (1,)),
                              channel_axis)
    return ad.reshape(out, x.shape)


# -- the two layer forms ---------------------------------------------------


def _frame(x: Array, params: MorphoActivationParams, pool: PoolSpec,
           channel_axis: int | None) -> tuple[int, Array, Array]:
    """A layer form's frame: the axis of x it swaps to the front, and beta,
    alpha as [k, m, n] along that axis.  Per-channel parameters swap the
    channel axis, which must not be pooled; shared ones keep x as it is
    (axis 0) and get a unit leading axis (k = 1)."""
    beta, alpha = params.beta.data, params.alpha.data
    if beta.ndim == 2:
        return 0, beta[None], alpha[None]
    if channel_axis is None:
        raise ValueError("channel_axis required for per-channel parameters")
    axis = channel_axis % x.ndim
    if x.shape[axis] != len(beta):
        raise ValueError("channel extent mismatch")
    if axis >= x.ndim - pool.rank:
        raise ValueError("channel_axis must not be a pooled axis")
    return axis, beta, alpha


def _layer_node(out: Array, x: Tensor, axis: int,
                params: MorphoActivationParams,
                structuring: list[StructuringFunction], pool: PoolSpec,
                rows: Array, cols: Array, offs: Array,
                pool_first: bool) -> Tensor:
    """One graph node for a layer form, from its winner record: per output
    cell the row j and column i of the winning affine piece and the window
    offset of the winning branch (the row for variant 1, the column for
    variant 2, ``pool_first``).  ``out`` and the record are C-contiguous
    in the frame that swaps ``axis`` of x to the front.  The backward pass
    runs on the forward pass's blocks (``_blocks``): per block it builds
    the sources, cells and bank positions of the block's cells from the
    record, so no array spans every cell but the gradients themselves.
    A NaN output cell takes no gradient (``morphops._live``).
    """
    xf = x.data.swapaxes(0, axis)
    # every offset of the bank, and where each member's first one sits
    offsets = [y for sf in structuring for y in sf.offsets]
    starts = np.cumsum([0] + [len(sf.offsets) for sf in structuring[:-1]])
    beta = params.beta.data.reshape(-1)
    m, n = params.m_terms, params.n_terms
    channels = np.arange(len(xf)).reshape((-1,) + (1,) * (xf.ndim - 1))
    weights = np.concatenate([sf.weights.data for sf in structuring])

    def route(block):
        rb, cb, ob = rows[block], cols[block], offs[block]
        live = mo._live(ob, out[block])
        bank = starts[cb if pool_first else rb] + ob
        xb = xf[block]
        src = mo._sources(xb.shape, pool.stride, offsets, bank).ravel()[live]
        bank = bank.ravel()[live]
        # flat (channel, j, i) parameter index; shared ones have no channel
        cell = rb.astype(np.int64) * n + cb
        if params.beta.data.ndim == 3:
            cell += channels[block[0]] * (m * n)
        cell = cell.ravel()[live]
        # d out / d beta is the winning piece's input: x at the source, or
        # for variant 2 the pooled value x + w there
        piece_input = xb.ravel()[src]
        if pool_first:
            piece_input += weights[bank]
        return live, {"src": src, "cell": cell, "bank": bank,
                      "input": piece_input, "slope": beta[cell]}

    edges = [(x, ("src", 0), "slope"), (params.beta, ("cell", 0), "input"),
             (params.alpha, ("cell", 0), None)]
    edges += [(sf.weights, ("bank", start), "slope" if pool_first else None)
              for start, sf in zip(starts, structuring)]
    return mo.routed_node(out, _blocks(xf, pool.rank), route, edges, axis)


# input bytes per block: the block's working set (its input, two scratch
# arrays of the same size and the pooled outputs) stays in a core's L2 cache
# across the chain of elementwise passes instead of streaming each pass
# through memory
_BLOCK_BYTES = 1 << 20


def _blocks(xf: Array, rank: int) -> list[tuple]:
    """The blocks both passes of a layer form run on, over the frame
    ``xf`` whose leading axis holds the channels and whose last ``rank``
    axes are pooled: runs of whole channels of at most ``_BLOCK_BYTES``,
    or, for a channel bigger than that, even cuts of the channel along its
    next axis, unless that axis is pooled.  No block cuts a pooled axis,
    so each output block's winners lie in the same block of the input.
    ``[WHOLE]`` when that gives fewer than two blocks.
    """
    lead = xf.ndim - rank
    size = xf[0].nbytes if lead and len(xf) else 0
    if size > _BLOCK_BYTES and lead > 1:
        rows = xf.shape[1]
        cuts = -(-size // _BLOCK_BYTES)
        step = -(-rows // cuts)
        blocks = [(slice(c, c + 1), slice(s, s + step))
                  for c in range(len(xf)) for s in range(0, rows, step)]
    elif lead:
        step = max(1, _BLOCK_BYTES // max(size, 1))
        blocks = [(slice(c, c + step),) for c in range(0, len(xf), step)]
    else:
        blocks = []
    return blocks if len(blocks) > 1 else [mo.WHOLE]


def _layer(x, params: MorphoActivationParams,
           structuring: list[StructuringFunction], pool: PoolSpec,
           channel_axis: int | None, pool_first: bool) -> Tensor:
    """Both layer forms, on the frame's blocks (``_blocks``): per branch
    k, an affine max and a dilation-pool by structuring function k, the
    pool after the max (form 1) or before it (``pool_first``), then the
    min over the branches.  Under grad each branch also yields its window
    offset and inner index; form 1's pool carries the inner index from
    each cell's winning source.  A block's pieces ``b[j][i]`` are
    ``beta[c, j, i]`` shaped (channels, 1, ...): a scalar for one channel.
    """
    x = ad.lift(x)
    out_ext = pool.out_extent(x.data.shape[-pool.rank:])
    axis, beta, alpha = _frame(x.data, params, pool, channel_axis)
    xf = x.data.swapaxes(0, axis)
    track = ad.is_grad_enabled()
    inner_dtype = mo._index_dtype(
        params.m_terms if pool_first else params.n_terms) if track else None
    dtypes = (mo._index_dtype(len(structuring)),
              mo._index_dtype(max(len(sf.offsets) for sf in structuring)),
              inner_dtype) if track else None

    def run(block):
        pb, pa = ((beta, alpha) if len(beta) == 1
                  else (beta[block[0]], alpha[block[0]]))
        shape = (len(pb),) + (1,) * (xf.ndim - 1)
        xb, b, a = xf[block], _pieces(pb, shape), _pieces(pa, shape)

        def branches():
            for k, sf in enumerate(structuring):
                w = sf.weights.data
                if pool_first:
                    pooled, off = mo._sup_max(xb, sf.offsets, w, pool.stride,
                                              out_ext, track)
                    val, arg = _affine_max(pooled, [bj[k] for bj in b],
                                           [aj[k] for aj in a], inner_dtype)
                    yield val, off, arg
                else:
                    inner, arg = _affine_max(xb, b[k], a[k], inner_dtype)
                    yield mo._sup_max(inner, sf.offsets, w, pool.stride,
                                      out_ext, track, (arg,) if track else ())

        out, record = _outer_min(branches(), dtypes)
        return (out, *record) if track else (out,)

    parts = mo._join(xf.shape, _blocks(xf, pool.rank), run)
    if not track:
        return Tensor(parts[0].swapaxes(0, axis))
    out, outer, offs, inner = parts
    rows, cols = (inner, outer) if pool_first else (outer, inner)
    return _layer_node(out, x, axis, params, structuring, pool, rows, cols,
                       offs, pool_first)


def morpho_act1_forward(x, params: MorphoActivationParams,
                        structuring: list[StructuringFunction],
                        pool: PoolSpec,
                        channel_axis: int | None = None) -> Tensor:
    """Activation-then-pool layer:

        out = min_j dilate_pool( max_i (beta[j,i] x + alpha[j,i]), b_j )

    One structuring function per outer row j (len(structuring) == m).
    """
    if len(structuring) != params.m_terms:
        raise ValueError("need one structuring function per max row")
    return _layer(x, params, structuring, pool, channel_axis,
                  pool_first=False)


def morpho_act2_forward(x, params: MorphoActivationParams,
                        structuring: list[StructuringFunction],
                        pool: PoolSpec,
                        channel_axis: int | None = None) -> Tensor:
    """Pool-then-activation layer:

        out = min_i max_j (beta[j,i] * dilate_pool(x, b_i) + alpha[j,i])

    The outer min runs over the column index i, which also selects the
    structuring function (len(structuring) == n).
    """
    if len(structuring) != params.n_terms:
        raise ValueError("need one structuring function per outer column")
    return _layer(x, params, structuring, pool, channel_axis,
                  pool_first=True)


@dataclass
class MorphoLayerParams:
    """Everything one morphological layer trains: the affine matrices plus
    the structuring-function bank."""

    activation: MorphoActivationParams
    structuring: list[StructuringFunction] = field(default_factory=list)

    def named_tensors(self) -> dict[str, Tensor]:
        """``beta``, ``alpha`` and each trainable bank member's weights as
        ``w{j}``, a tensor shared by several members under its first name."""
        named = {"beta": self.activation.beta, "alpha": self.activation.alpha}
        for j, sf in enumerate(self.structuring):
            if sf.weights.requires_grad and all(
                    sf.weights is not t for t in named.values()):
                named[f"w{j}"] = sf.weights
        return named

    @classmethod
    def init(cls, variant: int, m_terms: int, n_terms: int, pool: PoolSpec,
             channels: int | None = None) -> "MorphoLayerParams":
        """Clamp-initialized parameters with flat pool-window structuring.

        ``variant`` 1 gives m structuring functions (outer = rows), 2 gives
        n (outer = cols).
        """
        if variant == 1:
            outer, bank = "rows", m_terms
        elif variant == 2:
            outer, bank = "cols", n_terms
        else:
            raise ValueError("variant must be 1 or 2")
        act = MorphoActivationParams.clamp(m_terms, n_terms, outer, channels)
        sfs = [StructuringFunction.pool_window(pool.extent, learnable=True)
               for _ in range(bank)]
        return cls(act, sfs)


def activation_curve(params: MorphoActivationParams, x: Array) -> Array:
    """Sample the scalar activation on a grid; [len(x)] or [c, len(x)]."""
    with ad.no_grad():
        if params.beta.data.ndim == 3:
            out = pl_activation(Tensor(np.broadcast_to(
                x, (params.beta.data.shape[0], len(x))).copy()),
                params, channel_axis=0)
        else:
            out = pl_activation(Tensor(np.asarray(x, dtype=np.float64)), params)
    return out.data
