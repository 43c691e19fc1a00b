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

Parameter layout: ``beta[..., j, i]`` where ``j`` indexes the outer min and
``i`` the inner max.  A leading channel axis is allowed; it must line up
with a channel axis of the input (``channel_axis``).

Each layer form is one graph node.  Its forward pass computes the values
with in-place ``np.maximum``/``np.minimum`` on blocks of the input's first
axis small enough to stay in cache.  Every output cell has exactly one
subgradient winner, and under grad (only then) the forward pass records it
compactly: the outer branch (which is also the structuring function), the
window offset and the inner index, each in the smallest signed integer
dtype that holds its count.  The backward pass turns the record into flat
source and parameter indices once and scatters through
``morphops.routed_node``, as ``pl_activation`` and the pools do.  Tie
rules, as for ``pl_activation`` and the pools: the inner max keeps the
lowest index, the window keeps its first offset in row-major order, and
the outer min keeps the lowest branch.  A cell whose window lies wholly
outside the input holds -inf and takes no gradient.
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


def _bshape(x: Array, params: MorphoActivationParams,
            channel_axis: int | None) -> tuple[int, ...]:
    """Broadcast shape placing per-channel parameters on ``channel_axis``
    of x (all ones for shared [m, n] parameters)."""
    shape = [1] * x.ndim
    if params.beta.data.ndim == 3:
        if channel_axis is None:
            raise ValueError(
                "channel_axis required for per-channel parameters")
        channel_axis %= x.ndim
        if x.shape[channel_axis] != params.beta.data.shape[0]:
            raise ValueError("channel extent mismatch")
        shape[channel_axis] = params.beta.data.shape[0]
    return tuple(shape)


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


def _cells(rows: Array, cols: Array, params: MorphoActivationParams,
           bsh) -> Array:
    """Flat (channel, j, i) parameter index of each element's winner."""
    m, n = params.m_terms, params.n_terms
    cell = rows.astype(np.int64) * n + cols
    if params.beta.data.ndim == 3:
        channels = params.beta.data.shape[0]
        cell += np.arange(channels).reshape(bsh) * (m * n)
    return cell


def pl_activation(x, params: MorphoActivationParams,
                  channel_axis: int | None = None) -> Tensor:
    """Elementwise min over j of max over i of beta[j,i] * x + alpha[j,i].

    With 3-d parameters [c, m, n] each channel along ``channel_axis`` of x
    uses its own matrix.  Ties route to the lowest (j, i) in row-major
    order.  Fused: under grad, forward keeps only the winning (j, i) per
    element, in the smallest integer dtypes that hold m and n.
    """
    x = ad._lift(x)
    beta, alpha = params.beta, params.alpha
    bsh = _bshape(x.data, params, channel_axis)
    b, a = _pieces(beta.data, bsh), _pieces(alpha.data, bsh)
    track = ad.is_grad_enabled()
    i_dtype = mo._index_dtype(params.n_terms) if track else None
    out, record = _outer_min(
        (_affine_max(x.data, b[j], a[j], i_dtype)
         for j in range(params.m_terms)),
        (mo._index_dtype(params.m_terms), i_dtype) if track else None)

    def routes():  # runs only under grad, where the record exists
        cell = _cells(*record, params, bsh).ravel()
        return slice(None), {"cell": cell, "input": x.data.ravel(),
                             "slope": beta.data.reshape(-1)[cell]}

    return mo.routed_node(out, routes, [(x, None, "slope"),
                                        (beta, ("cell", 0), "input"),
                                        (alpha, ("cell", 0), None)])


# -- the two layer forms ---------------------------------------------------


def _layer_bshape(x: Array, params: MorphoActivationParams, pool: PoolSpec,
                  channel_axis: int | None) -> tuple[int, ...]:
    """``_bshape`` for a layer form, whose channel axis must not be pooled."""
    bsh = _bshape(x, params, channel_axis)
    if max(bsh[x.ndim - pool.rank:]) > 1:
        raise ValueError("channel_axis must not be a pooled axis")
    return bsh


def _bank(structuring: list[StructuringFunction]) -> tuple[Array, list]:
    """The bank's offsets listed in bank order, and the position of each
    structuring function's first offset in that list."""
    starts = np.cumsum([0] + [len(sf.offsets) for sf in structuring[:-1]])
    return starts, [y for sf in structuring for y in sf.offsets]


def _layer_node(out: Array, x: Tensor, params: MorphoActivationParams,
                structuring: list[StructuringFunction], pool: PoolSpec,
                bsh, rows: Array, cols: Array, offs: Array,
                pool_first: bool) -> Tensor:
    """One graph node for a layer form, from its winner record: per output
    cell the row j and column i of the winning affine piece and the window
    offset of the winning branch (the row for variant 1, the column for
    variant 2, ``pool_first``).
    """
    xd = x.data
    starts, offsets = _bank(structuring)

    def routes():
        live = mo._live(offs)
        bank = starts[cols if pool_first else rows] + offs
        src = mo._sources(xd.shape, pool.stride, offsets, bank).ravel()[live]
        bank = bank.ravel()[live]
        cell = _cells(rows, cols, params, bsh).ravel()[live]
        # d out / d beta is the winning piece's input: x at the source, or
        # for variant 2 the pooled value x + w there
        piece_input = xd.ravel()[src]
        if pool_first:
            piece_input += np.concatenate(
                [sf.weights.data for sf in structuring])[bank]
        return live, {"src": src, "cell": cell, "bank": bank,
                      "input": piece_input,
                      "slope": params.beta.data.reshape(-1)[cell]}

    edges = [(x, ("src", 0), "slope"), (params.beta, ("cell", 0), "input"),
             (params.alpha, ("cell", 0), None)]
    edges += [(sf.weights, ("bank", start), "slope" if pool_first else None)
              for start, sf in zip(starts, structuring)]
    return mo.routed_node(out, routes, edges)


# input bytes per block: the block's working set (its input, two scratch
# arrays of the same size and the pooled outputs) stays in a core's L2 cache
# across the chain of elementwise passes instead of streaming each pass
# through memory
_BLOCK_BYTES = 1 << 20


def _blockwise(x: Array, bsh, pool: PoolSpec, forward) -> list[Array]:
    """Run ``forward`` on consecutive slices of x's first axis, each about
    ``_BLOCK_BYTES``, and join the arrays it returns along that axis.  One
    slice when the first axis is pooled, carries the parameter channels or
    is empty."""
    if x.ndim == pool.rank or bsh[0] > 1 or len(x) == 0:
        return list(forward(x))
    step = max(1, _BLOCK_BYTES // max(x[0].nbytes, 1))
    joined = None
    for s in range(0, len(x), step):
        parts = forward(x[s:s + step])
        if joined is None:
            joined = [np.empty((len(x),) + p.shape[1:], p.dtype)
                      for p in parts]
        for whole, part in zip(joined, parts):
            whole[s:s + step] = part
    return joined


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
    x = ad._lift(x)
    out_ext = pool.out_extent(x.data.shape[-pool.rank:])
    bsh = _layer_bshape(x.data, params, pool, channel_axis)
    b, a = _pieces(params.beta.data, bsh), _pieces(params.alpha.data, bsh)
    track = ad.is_grad_enabled()
    j_dtype = mo._index_dtype(len(structuring))
    i_dtype = mo._index_dtype(params.n_terms)
    o_dtype = mo._index_dtype(max(len(sf.offsets) for sf in structuring))
    starts, offsets = _bank(structuring)

    def forward(xb: Array):
        def branches():
            for j, sf in enumerate(structuring):
                inner, _ = _affine_max(xb, b[j], a[j])
                yield mo._sup_max(inner, sf.offsets, sf.weights.data,
                                  pool.stride, out_ext, track)

        out, record = _outer_min(branches(),
                                 (j_dtype, o_dtype) if track else None)
        if not track:
            return (out,)
        rows, offs = record
        # the inner index matters only at each cell's winning source, so it
        # is recomputed there from x rather than tracked at full resolution
        src = mo._sources(xb.shape, pool.stride, offsets, starts[rows] + offs)
        xs = np.take(xb, src, mode="clip")
        cols = np.zeros(out.shape, i_dtype)
        for j in range(params.m_terms):
            _, arg = _affine_max(xs, b[j], a[j], i_dtype)
            mo._record(rows == j, [(cols, arg)])
        return out, rows, cols, offs

    if not track:
        return Tensor(_blockwise(x.data, bsh, pool, forward)[0])
    out, rows, cols, offs = _blockwise(x.data, bsh, pool, forward)
    return _layer_node(out, x, params, structuring, pool, bsh, rows, cols,
                       offs, pool_first=False)


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
    x = ad._lift(x)
    out_ext = pool.out_extent(x.data.shape[-pool.rank:])
    bsh = _layer_bshape(x.data, params, pool, channel_axis)
    b, a = _pieces(params.beta.data, bsh), _pieces(params.alpha.data, bsh)
    track = ad.is_grad_enabled()
    j_dtype = mo._index_dtype(params.m_terms) if track else None
    i_dtype = mo._index_dtype(len(structuring))
    o_dtype = mo._index_dtype(max(len(sf.offsets) for sf in structuring))

    def forward(xb: Array):
        def branches():
            for i, sf in enumerate(structuring):
                pooled, off = mo._sup_max(xb, sf.offsets, sf.weights.data,
                                          pool.stride, out_ext, track)
                val, arg = _affine_max(pooled, [bj[i] for bj in b],
                                       [aj[i] for aj in a], j_dtype)
                yield val, off, arg

        out, record = _outer_min(
            branches(), (i_dtype, o_dtype, j_dtype) if track else None)
        return (out, *record) if track else (out,)

    if not track:
        return Tensor(_blockwise(x.data, bsh, pool, forward)[0])
    out, cols, offs, rows = _blockwise(x.data, bsh, pool, forward)
    return _layer_node(out, x, params, structuring, pool, bsh, rows, cols,
                       offs, pool_first=True)


@dataclass
class MorphoLayerParams:
    """Everything one morphological layer trains: the affine matrices plus
    the structuring-function bank."""

    activation: MorphoActivationParams
    structuring: list[StructuringFunction] = field(default_factory=list)

    def tensors(self) -> list[Tensor]:
        seen: list[Tensor] = [self.activation.beta, self.activation.alpha]
        for sf in self.structuring:
            if sf.weights.requires_grad and sf.weights not in seen:
                seen.append(sf.weights)
        return seen

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
