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

Both layer forms run one driver, ``_layer``, as one graph node in a
channel-first frame, ``x.swapaxes(0, channel_axis)`` (x itself for shared
parameters), in which a conv2d output, channel-major in memory, is
C-contiguous.  The forward pass is a kernel of ``morphops._blockwise`` on
``morphops._blocks``; each block takes its channels' slopes and intercepts
as pieces shaped (channels, 1, ...), a scalar for one channel.  Every
output cell has exactly one subgradient winner, an affine piece at a window
offset, which under grad (only then) the forward pass records as one
integer code in the smallest signed dtype that holds it: ``inner *
len(bank offsets) + bank position``, the bank position naming both the
offset and its member, the outer branch; -1 where no offset lands.  Form
1's pool carries each source's code from the cell's winning source.  When
beta takes a gradient, a tensor x's blocks also write each cell's winning
piece input into one output-sized array, which the graph keeps instead of
the input; a ``morphops.Feed`` x (conv1, ``train.conv_feed``) records none,
and the backward pass rebuilds each group once (``_layer_node``).  The
backward pass is one ``morphops.routed_node`` on the forward pass's blocks:
g times the winning slope for x (and form 2's weights), g times the piece
input for beta (plus the winning weight for form 2, whose piece input is
the pooled value), g for alpha, summed in cell order, the same to the bit
as one ``bincount`` over every cell; the structuring weights, shared
across channels, accumulate channel by channel.  The output and x gradient
are swapped views: channel-major again for a conv2d.  Tie rules, as for
the pools: the inner max keeps the lowest index, the window its first
offset in row-major order, and the outer min the lowest branch.  A cell
whose winning window lies wholly outside the input, or holds only -inf
candidates, has no winner and takes no gradient, nor does a NaN cell: the
forward pass marks both dead in the code (``morphops._mark_dead``).
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
                codes: Array | None = None) -> tuple[Array, Array | None]:
    """Elementwise max over k of ``slopes[k] * x + intercepts[k]``.

    With ``codes`` it also returns, in their dtype, ``codes[k]`` of the
    first maximising k (ties keep the lower k); otherwise None.
    """
    val = np.multiply(slopes[0], x)
    val += intercepts[0]
    arg = None if codes is None else np.full(val.shape, codes[0])
    cand = np.empty_like(val) if len(slopes) > 1 else None
    for k in range(1, len(slopes)):
        np.multiply(slopes[k], x, out=cand)
        cand += intercepts[k]
        if arg is not None:
            mo._record(cand > val, arg, codes[k])
        np.maximum(val, cand, out=val)
    return val, arg


def _outer_min(branches) -> tuple[Array, Array | None]:
    """Elementwise min over the values of ``branches``, each a pair
    ``(value, code)``, and the code of each element's winning branch
    (strict ``<``, so ties keep the lower branch), or None where the
    branches have no code."""
    out = record = None
    for val, code in branches:
        if out is None:
            out, record = val, code
        else:
            if record is not None:
                mo._record(val < out, record, code)
            np.minimum(out, val, out=out)
    return out, record


# pl_activation's unit window: one frozen zero-weight offset at stride 1
_UNIT = StructuringFunction([(0,)])
_UNIT_POOL = PoolSpec((1,), (1,))


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
    out = morpho_act1_forward(ad.reshape(x, x.shape + (1,)), params,
                              [_UNIT] * params.m_terms, _UNIT_POOL,
                              channel_axis)
    return ad.reshape(out, x.shape)


# -- the two layer forms ---------------------------------------------------


def _frame(shape, params: MorphoActivationParams, pool: PoolSpec,
           channel_axis: int | None) -> tuple[int, Array, Array]:
    """A layer form's frame for an input of ``shape``: the axis it swaps
    to the front, and beta, alpha as [k, m, n] along that axis.
    Per-channel parameters swap the channel axis, which must not be
    pooled; shared ones keep x as it is (axis 0) and get a unit leading
    axis (k = 1)."""
    beta, alpha = params.beta.data, params.alpha.data
    if beta.ndim == 2:
        return 0, beta[None], alpha[None]
    if channel_axis is None:
        raise ValueError("channel_axis required for per-channel parameters")
    axis = channel_axis % len(shape)
    if shape[axis] != len(beta):
        raise ValueError("channel extent mismatch")
    if axis >= len(shape) - pool.rank:
        raise ValueError("channel_axis must not be a pooled axis")
    return axis, beta, alpha


def _layer_node(out: Array, code: Array, piece: Array | None, sources,
                blocks, x: Tensor | mo.Feed, axis: int,
                params: MorphoActivationParams,
                structuring: list[StructuringFunction], pool: PoolSpec,
                pool_first: bool) -> Tensor:
    """One graph node for a layer form, from its winner code (see the
    module docstring), C-contiguous like ``out`` in the frame that swaps
    ``axis`` of x to the front, and ``piece``, each live cell's winning
    piece input x(src) in that frame, or None: for a frozen beta, and for a
    trainable one on a ``Feed`` x, whose node rebuilds each group with
    ``take`` before its blocks are routed and drops it after them.  The route
    decodes a block's codes into sources (``sources``) and, through two
    lookup tables built once, bank positions and flat (j, i) indices.  A
    dead code, -1, takes no gradient (``morphops._live``).  The node holds
    neither the input's array nor ``out``; a Feed's route holds what its
    ``take`` reads, not a group of its output.
    """
    x_shape = mo._swap(x.shape, axis)
    m, n = params.m_terms, params.n_terms
    n_inner = m if pool_first else n
    offsets = [y for sf in structuring for y in sf.offsets]
    # code -> bank position; a dead cell's -1 reads the last entry, which
    # its liveness then drops
    bank_of = np.tile(np.arange(len(offsets)), n_inner)
    beta = params.beta.data.reshape(-1)
    per_channel = params.beta.data.ndim == 3
    channels = np.arange(x_shape[0]).reshape(
        (-1,) + (1,) * (len(x_shape) - 1))
    weights = np.concatenate([sf.weights.data for sf in structuring])
    # code -> flat (j, i), from the inner index and the bank member
    inner = np.arange(n_inner)[:, None]
    member = np.repeat(np.arange(len(structuring)),
                       [len(sf.offsets) for sf in structuring])
    cell_of = (inner * n + member if pool_first
               else member * n + inner).ravel()

    takes_x, takes_beta, takes_alpha = (
        t.requires_grad for t in (x, params.beta, params.alpha))
    takes_w = any(sf.weights.requires_grad for sf in structuring)
    rebuild = takes_beta and piece is None  # a Feed: no piece recorded
    # not x itself: the route would keep a tensor's array alive
    take = x.take if rebuild else None
    held = []  # the Feed group being routed and its input, rebuilt once

    def each_group(sl):  # before a group's blocks are routed, and after
        held[:] = () if sl is None else (sl, take(sl))

    def route(block, g):
        cb = code[block]
        live = mo._live(cb)
        bank = bank_of[cb]
        src = sources(cb).ravel()[live] if takes_x or rebuild else None
        bank = bank.ravel()[live]
        # flat (channel, j, i) parameter index; shared ones have no channel
        cell = cell_of[cb]
        if per_channel:
            cell += channels[block] * (m * n)
        cell = cell.ravel()[live]
        gb = g.ravel()[live]
        # d out / d x (and, for variant 2, d out / d w) is the winning slope
        gs = gb * beta[cell] if takes_x or takes_w and pool_first else None
        parts = []
        if takes_beta:
            # d out / d beta is the winning piece's input: x at the source,
            # or for variant 2 the pooled value x + w there
            if rebuild:
                sl, xg = held
                piece_input = xg[mo._shift(block, -sl.start)].reshape(-1)[src]
            else:
                piece_input = piece[block].ravel()[live]
            if pool_first:
                piece_input = piece_input + weights[bank]
            parts.append((0, cell, gb * piece_input))
        if takes_alpha:
            parts.append((1, cell, gb))
        if takes_w:
            parts.append((2, bank, gs if pool_first else gb))
        return src, gs if takes_x else None, None, parts

    return mo.routed_node(out, blocks, route, x,
                          [params.beta, params.alpha]
                          + [sf.weights for sf in structuring], axis,
                          each_group if rebuild else None)


def _layer(x, params: MorphoActivationParams,
           structuring: list[StructuringFunction], pool: PoolSpec,
           channel_axis: int | None, pool_first: bool) -> Tensor:
    """Both layer forms, on the frame's blocks: per branch k, an affine
    max and a dilation-pool by structuring function k, the pool after the
    max (form 1) or before it (``pool_first``), then the min over the
    branches.  Under grad each branch also yields its winner code: form 1's
    pool carries the code of each source's inner index and member and adds
    the offset; form 2 adds the pooled offset to the code of the inner
    index and member.  A block's pieces ``b[j][i]`` are ``beta[c, j, i]``
    shaped (channels, 1, ...): a scalar for one channel.  ``x`` may be a
    ``Feed`` (per-channel parameters, ``channel_axis`` 1), which
    ``morphops._blockwise`` runs group by group in channel order; for a
    Feed no block writes the winning piece inputs, which the backward pass
    reads from each group rebuilt.
    """
    x = x if isinstance(x, mo.Feed) else ad.lift(x)
    out_ext = pool.out_extent(x.shape[-pool.rank:])
    axis, beta, alpha = _frame(x.shape, params, pool, channel_axis)
    if isinstance(x, mo.Feed) and axis != 1:
        raise ValueError("a Feed takes per-channel parameters on axis 1")
    frame = mo._swap(x.shape, axis)
    track = ad.is_grad_enabled()
    codes = [None] * len(structuring)
    dtype = piece = sources = None
    if track:
        n_inner = params.m_terms if pool_first else params.n_terms
        # member k's piece codes: inner * len(bank offsets) + k's start
        sizes = [len(sf.offsets) for sf in structuring]
        dtype = mo._index_dtype(n_inner * sum(sizes))
        codes = [(np.arange(n_inner) * sum(sizes) + start).astype(dtype)
                 for start in np.cumsum([0] + sizes[:-1])]
        sources = mo._decoder(frame, pool.stride, [
            y for sf in structuring for y in sf.offsets] * n_inner)
        if params.beta.requires_grad and not isinstance(x, mo.Feed):
            piece = np.empty(frame[:-pool.rank] + out_ext)

    def kernel(block, xb):
        pb, pa = ((beta, alpha) if len(beta) == 1
                  else (beta[block], alpha[block]))
        shape = (len(pb),) + (1,) * (len(frame) - 1)
        b, a = _pieces(pb, shape), _pieces(pa, shape)

        def branches():
            for k, sf in enumerate(structuring):
                w = sf.weights.data
                if pool_first:
                    pooled, off = mo._sup_max(xb, sf.offsets, w, pool.stride,
                                              out_ext, track)
                    val, win = _affine_max(pooled, [bj[k] for bj in b],
                                           [aj[k] for aj in a], codes[k])
                    # in the code's dtype, not the offset's, which may wrap
                    yield val, off if off is None else np.where(
                        off < 0, -1, win + off)
                else:
                    inner, win = _affine_max(xb, b[k], a[k], codes[k])
                    yield mo._sup_max(inner, sf.offsets, w, pool.stride,
                                      out_ext, track, win)

        val, win = _outer_min(branches())
        if piece is not None:
            # x at each cell's winning source; a dead cell's source may lie
            # outside x, so it is clipped, and its entry is never read
            np.take(xb.reshape(-1), sources(win), out=piece[block],
                    mode="clip")
        return val, win

    out, code, blocks = mo._blockwise(x, axis, out_ext, pool.rank, kernel,
                                      dtype)
    if not track:
        return Tensor(out.swapaxes(0, axis))
    return _layer_node(out, code, piece, sources, blocks, x, axis, params,
                       structuring, pool, pool_first)


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
