"""Morphological operators with exact subgradients.

Dilation is the sup-convolution ``out(x) = max_y f(x - y) + g(y)`` over the
finite support of a structuring function ``g``; erosion is its adjoint
``inf_y f(x + y) - g(y)``.  Pooling is a strided dilation on corner-anchored
windows ``[K*x, K*x + R - 1]`` with output extent ``(n - R) // K + 1``.

Conventions shared by every op here:

* spatial axes are the trailing axes; leading axes (batch, channel) are
  carried through untouched;
* offsets falling outside the input are ignored (-inf padding in the sup,
  +inf in the inf); a cell whose window lies wholly outside, or whose
  every candidate is -inf, evaluates to the lattice bottom -inf and takes
  no gradient, since a winner must beat the -inf it starts at;
* on ties the subgradient routes to the lowest offset index, which for pool
  windows is the first position in row-major window order;
* a NaN output cell takes no gradient, wherever the NaN sits in its
  window: the forward pass marks it dead in the winner record
  (``_mark_dead``), and ``_live``, which every route calls, drops it;
* each output cell copies one winner, recorded as one integer code (the
  offset, plus what ``_sup_max`` carries from the winning source); every
  windowed op (the pools, ``dilate``, ``act_pool``, both layer forms) runs
  its forward pass in one loop, ``_blockwise``, over runs of whole
  channels (``_blocks``), decodes its codes with one ``_decoder``, and
  routes its backward on the same blocks through one ``routed_node``
  (``relu``, elementwise, is a plain node);
* a backward rule reads the winner record and the input's shape (a layer
  form also reads the winning piece inputs it recorded, or rebuilds a
  ``Feed``'s groups), never the input or the output, so a stage holds
  neither alive;
* within ``train()`` a group's blocks run on a pool of threads
  (``_pooled``, ``_imap``), forward and backward: each block writes only
  its own part of the output, the code and the x gradient, and the caller
  adds the parameter parts in block order, so the bytes are the serial
  pass's.

The rectifier stages of the baseline nets are built from ``act_pool``, the
chain ReLU (or ReLU6) then max-pooling as one node: it clamps and pools one
block of the channel-first frame (``_blocks``), in which a conv2d output is
contiguous, at a time, and its code flags a closed rectifier.  Min-pooling
is the negation dual of max-pooling, so ``selfdual_pool`` and
``posneg_pool_param`` are each a difference of two ``act_pool``s that read
one ``Feed``, scaled (``Feed.scaled``).  Like the layer forms, every stage
takes conv1 fused, as a ``Feed`` (``train.conv_feed``).  No stage calls
``relu``, ``max_pool`` or ``min_pool``; the chain references in
``tests/_oracles.py`` are built from them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor, lift


def _as_offset_tuple(o) -> tuple[int, ...]:
    if isinstance(o, (tuple, list)):
        return tuple(int(c) for c in o)
    return (int(o),)


class StructuringFunction:
    """Finite-support structuring function: offsets plus additive weights.

    ``weights`` is a 1-d tensor aligned with ``offsets``; a flat structuring
    element has zero weights.  ``learnable=True`` marks the weights as
    trainable leaves.
    """

    def __init__(self, offsets, weights=None, learnable: bool = False):
        offs = tuple(_as_offset_tuple(o) for o in offsets)
        if not offs:
            raise ValueError("structuring function needs at least one offset")
        rank = len(offs[0])
        if any(len(o) != rank for o in offs):
            raise ValueError("offsets must share one rank")
        if len(set(offs)) != len(offs):
            raise ValueError("duplicate offsets")
        if weights is None:
            weights = np.zeros(len(offs))
        if isinstance(weights, Tensor):
            wt = weights
        else:
            wt = Tensor(np.asarray(weights, dtype=np.float64),
                        requires_grad=learnable)
        if wt.data.shape != (len(offs),):
            raise ValueError("weights must be 1-d, one per offset")
        self.offsets = offs
        self.weights = wt

    @property
    def rank(self) -> int:
        return len(self.offsets[0])

    def transpose(self) -> "StructuringFunction":
        """Reflection through the origin; the weights tensor is shared."""
        return StructuringFunction(tuple(tuple(-c for c in o) for o in self.offsets),
                                   weights=self.weights)

    @classmethod
    def pool_window(cls, extent, learnable: bool = False) -> "StructuringFunction":
        """Offsets covering the corner-anchored window, row-major.

        With these offsets ``dilate`` at stride K reads ``f`` on
        ``[K*x, K*x + R - 1]`` per axis.
        """
        ext = _as_offset_tuple(extent)
        if any(r < 1 for r in ext):
            raise ValueError("window extent must be positive")
        offs = list(itertools.product(*[range(0, -r, -1) for r in ext]))
        return cls(offs, learnable=learnable)

    def __repr__(self) -> str:
        return f"StructuringFunction({len(self.offsets)} offsets, rank {self.rank})"


@dataclass(frozen=True)
class PoolSpec:
    """Window extent R and stride K per spatial axis."""

    extent: tuple[int, ...]
    stride: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "extent", _as_offset_tuple(self.extent))
        object.__setattr__(self, "stride", _as_offset_tuple(self.stride))
        if len(self.extent) != len(self.stride):
            raise ValueError("extent and stride must share one rank")
        if any(r < 1 for r in self.extent) or any(k < 1 for k in self.stride):
            raise ValueError("extent and stride must be >= 1")

    @property
    def rank(self) -> int:
        return len(self.extent)

    def out_extent(self, in_extent) -> tuple[int, ...]:
        ext = _as_offset_tuple(in_extent)
        if len(ext) != self.rank:
            raise ValueError("input rank mismatch")
        out = []
        for n, r, k in zip(ext, self.extent, self.stride):
            if n < r:
                raise ValueError(f"pool window {r} exceeds input extent {n}")
            out.append((n - r) // k + 1)
        return tuple(out)


@functools.lru_cache(maxsize=None)
def _offset_slices(y, stride, n_in, n_out):
    """Output/source slice pair where offset y lands inside the input.
    Cached: it depends on shapes only, so its arguments are tuples."""
    outs, srcs = [], []
    for ya, ka, na, ma in zip(y, stride, n_in, n_out):
        lo = max(0, -((-ya) // ka))
        hi = min(ma - 1, (na - 1 + ya) // ka)
        if lo > hi:
            return None
        outs.append(slice(lo, hi + 1))
        srcs.append(slice(ka * lo - ya, ka * hi - ya + 1, ka))
    return tuple(outs), tuple(srcs)


def _index_dtype(count: int) -> np.dtype:
    """Smallest signed integer dtype holding every index -1 .. count - 1."""
    return np.min_scalar_type(-max(count, 1))


def _record(better: Array, dst: Array, value) -> None:
    """Where ``better`` holds, overwrite the integer record ``dst`` with
    ``value`` (an array or a scalar), in place.

    Integer arithmetic rather than a masked copy, which branches per
    element and runs several times slower; a wrapped difference still
    lands on the value, since the arithmetic is modular.
    """
    dst += (value - dst) * better


def _sup_max(fdat: Array, offsets, wdat: Array | None, stride, out_extent,
             track: bool, carry: Array | None = None) -> tuple:
    """Strided sup-convolution of a plain array:
    ``out(x) = max_y f(K*x - y) + w(y)`` over the trailing axes.

    Returns ``(out, index)``.  With ``track`` the index is each output
    position's first attaining offset index (ties keep the earliest), or
    -1 where no offset lands; without it, None.  An integer ``carry``
    shaped like ``fdat`` makes the index ``offset + carry[source]`` at the
    winning source, in the carry's dtype, which must hold it.
    """
    rank = len(offsets[0])
    if fdat.ndim < rank:
        raise ValueError("input rank below offset rank")
    n_in = fdat.shape[-rank:]
    out = np.full(fdat.shape[:-rank] + tuple(out_extent), -np.inf)
    idx = np.full(out.shape, -1, _index_dtype(len(offsets)) if carry is None
                  else carry.dtype) if track else None
    shifted = None  # reused buffer for f + w(y)
    for o, y in enumerate(offsets):
        sl = _offset_slices(y, stride, n_in, out_extent)
        if sl is None:
            continue
        out_sl, src_sl = sl
        cand = fdat[(..., *src_sl)]
        region = out[(..., *out_sl)]
        if wdat is not None and wdat[o] != 0.0:
            if shifted is None:
                shifted = np.empty(out.shape)
            cand = np.add(cand, wdat[o], out=shifted[(..., *out_sl)])
        if track:  # strict: ties keep the earlier offset
            _record(cand > region, idx[(..., *out_sl)],
                    o if carry is None else o + carry[(..., *src_sl)])
        np.maximum(region, cand, out=region)
    # positions whose window lies entirely outside the input keep the
    # lattice bottom -inf and receive no gradient (idx stays -1); pool
    # windows can never produce them (out_extent guarantees overlap)
    return out, idx


def _mark_dead(index: Array, out: Array) -> None:
    """Set the winner ``index`` to -1, in place, at the NaN cells of
    ``out``, wherever the NaN sits in the window: such a cell takes no
    gradient."""
    nan = np.isnan(out)
    if nan.any():
        index[nan] = -1


def _live(index: Array):
    """Flat output cells that take gradient: every cell but those whose
    winner ``index`` is -1 (a window wholly outside the input, or a NaN
    cell that ``_mark_dead`` marked)."""
    dead = index < 0
    return np.flatnonzero(~dead) if dead.any() else slice(None)


def _element_strides(shape) -> list:
    """Element strides of a C-contiguous array of ``shape``."""
    return list(np.cumprod((1,) + tuple(shape[:0:-1]))[::-1])


def _anchors(x_shape, stride, out_shape) -> Array:
    """Flat index into a C-contiguous array of ``x_shape`` of the window
    anchor ``K*p`` of each cell p of an output of ``out_shape`` in the same
    frame, summed from per-axis grids."""
    lead = len(x_shape) - len(stride)
    strides = _element_strides(x_shape)
    steps = strides[:lead] + [s * k for s, k in zip(strides[lead:], stride)]
    return sum((np.arange(size, dtype=np.int64) * step).reshape(
        (size,) + (1,) * (len(out_shape) - ax - 1))
        for ax, (size, step) in enumerate(zip(out_shape, steps)))


def _decoder(x_shape, stride, offsets):
    """The one decoder of winner codes: ``sources(code)``, the flat index
    of each output cell's winning source ``K*p - y`` in its block of a
    C-contiguous frame with ``x_shape``'s trailing axes, where ``code``, one
    block of the output in that frame, picks y among ``offsets``.  A code
    that carries more than its offset indexes the offsets repeated (an
    op's ``offsets * 2`` for a flag, a layer form's ``offsets * n_inner``).
    The block's window anchors are built once per block shape.  A dead
    code's source (-1 reads the last offset) is meaningless and may lie
    outside the block."""
    rank = len(stride)
    trail = tuple(x_shape[-rank:])
    strides = _element_strides(trail)
    shift_of = np.array([np.dot(y, strides) for y in offsets], dtype=np.int64)
    anchors = {}

    def sources(code: Array) -> Array:
        anchor = anchors.get(code.shape)
        if anchor is None:
            anchor = anchors[code.shape] = _anchors(
                code.shape[:-rank] + trail, stride, code.shape)
        src = np.take(shift_of, code)
        return np.subtract(anchor, src, out=src)

    return sources


# input bytes per block: a run of channels of at most this size keeps its
# working set (its input, two scratch arrays of the same size and the pooled
# outputs) in a core's L2 cache across the chain of elementwise passes; a
# bigger channel is one block of its own and streams through memory
_BLOCK_BYTES = 1 << 20


def _blocks(xf: Array, rank: int, start: int = 0) -> list[slice]:
    """The blocks a blockwise op runs on, over the frame ``xf`` whose
    leading axis holds the channels and whose last ``rank`` axes are
    pooled: slices of runs of whole channels, as many as fit
    ``_BLOCK_BYTES`` (one channel at least), in order.  No block cuts a
    channel, so each output block's winners lie in the same block of the
    input.  Channels are numbered from ``start``, for a group of a larger
    frame's channels (``Feed``).  One block of every cell, ``slice(None)``,
    for a frame with no leading axis or no channels.
    """
    stop = start + (len(xf) if xf.ndim > rank else 0)
    size = xf[0].nbytes if stop > start else 0
    step = max(1, _BLOCK_BYTES // max(size, 1))
    return [slice(c, min(c + step, stop))
            for c in range(start, stop, step)] or [slice(None)]


def _shift(block: slice, by: int) -> slice:
    """``block`` with its channels moved by ``by``."""
    return slice(block.start + by, block.stop + by) if by else block


# -- the worker pool ----------------------------------------------------------


class _Job:
    """One map on a pool: its items, the next to hand out, the first the
    caller has not taken (``base``), the results by index and the items
    running."""

    __slots__ = ("fn", "items", "ahead", "context", "next", "base", "done",
                 "running")

    def __init__(self, fn, items, ahead: int, context):
        self.fn, self.items, self.ahead = fn, items, ahead
        self.context = context
        self.next = self.base = self.running = 0
        self.done = {}

    def claim(self) -> int | None:
        """The next item to run, or None: none is left, or it lies
        ``ahead`` items or more past the one the caller waits for."""
        i = self.next
        if i >= min(len(self.items), self.base + self.ahead):
            return None
        self.next, self.running = i + 1, self.running + 1
        return i


class _Pool:
    """The caller of a map plus ``size - 1`` helper threads, which take the
    map's items in turn, one each at a time; the caller takes the results
    in order.  Idle helpers wait on a condition and take no core.  A helper
    runs its item in a copy of the caller's ``contextvars`` context (numpy's
    ``errstate`` lives there).  While the caller runs a map, any map it or
    a helper starts runs serially."""

    def __init__(self, size: int):
        import contextvars
        import threading
        self.size, self.copy_context = size, contextvars.copy_context
        self.cv, self.local = threading.Condition(), threading.local()
        self.job = None
        for _ in range(size - 1):
            threading.Thread(target=self._serve, daemon=True).start()

    def _run(self, job: _Job, i: int, run) -> None:
        try:
            result = True, run(job.fn, job.items[i])
        except BaseException as e:  # raised in the caller, in its turn
            result = False, e
        with self.cv:
            job.done[i] = result
            job.running -= 1
            self.cv.notify_all()

    def _serve(self) -> None:
        self.local.busy = True
        while True:
            with self.cv:
                while (job := self.job) is None or (i := job.claim()) is None:
                    job = None  # an idle helper holds no map's arrays
                    self.cv.wait()
            self._run(job, i, job.context.copy().run)

    def imap(self, fn, items: list, ahead: int):
        job = _Job(fn, items, ahead, self.copy_context())
        self.local.busy = True
        with self.cv:
            self.job = job
            self.cv.notify_all()
        try:
            for k in range(len(items)):
                with self.cv:
                    job.base = k
                    self.cv.notify_all()
                while True:
                    with self.cv:
                        while k not in job.done and (i := job.claim()) is None:
                            self.cv.wait()
                        if k in job.done:
                            break
                    self._run(job, i, lambda fn, item: fn(item))
                ok, value = job.done.pop(k)
                if not ok:
                    raise value
                yield value
        finally:  # no item runs on once the caller has left
            self.local.busy = False
            with self.cv:
                job.next, self.job = len(items), None
                while job.running:
                    self.cv.wait()


_pools: dict[int, _Pool] = {}  # by size, each started at its first use
_active: _Pool | None = None  # the pool the maps use now, or None


@contextlib.contextmanager
def _pooled(workers: int):
    """For the span of the block, run the maps (``_imap``) on ``workers``
    threads, the caller included; 1 runs them serially."""
    global _active
    prev = _active
    if workers > 1 and workers not in _pools:
        _pools[workers] = _Pool(workers)
    _active = _pools[workers] if workers > 1 else None
    try:
        yield
    finally:
        _active = prev


def _workers() -> int:
    """The threads a map called here would run on: 1 when no pool is on,
    and inside a pool's item."""
    pool = _active
    if pool is None or getattr(pool.local, "busy", False):
        return 1
    return pool.size


def _imap(fn, items: list, ahead: int | None = None):
    """``fn(item)`` for each of ``items``, yielded in order; on the pool,
    at most ``ahead`` items (all, for None) are run or held at once,
    counted from the one the caller takes next.  Each item runs alone on
    one thread, so it must write only its own part of any shared array."""
    if _workers() < 2 or len(items) < 2:
        return map(fn, items)
    return _active.imap(fn, items, ahead or len(items))


def _each(fn, items: list) -> None:
    """``fn(item)`` for each of ``items``, on the pool, for its effects."""
    for _ in _imap(fn, items):
        pass


class Feed:
    """The input of a blockwise op, made by the op before it one group of
    whole channels at a time and differentiated the same way, so neither
    the input nor its gradient is ever whole (conv1 fused with its stage,
    ``train.conv_feed``).  ``tensors`` are the leaves the input is made
    from, ``shape`` the shape it would have, ``groups`` consecutive slices
    of its channels, axis 1, which the op's frame swaps to the front.
    ``take(sl)`` returns channels ``sl`` in that frame: the same bytes on
    every call, in no buffer it reuses, so a backward pass may rebuild a
    group rather than keep it.  ``give(sl, gx)`` takes their gradient in a
    buffer that the next group reuses (and may scale it in place), and
    returns each tensor's gradient so far, None for a frozen one, whole
    once every group is given; each reader gives every group in order,
    once per backward pass.  ``Feed.of`` makes any tensor one group.
    """

    __slots__ = ("tensors", "shape", "groups", "take", "give")

    def __init__(self, tensors: tuple[Tensor, ...], shape: tuple[int, ...],
                 groups: list[slice], take, give):
        self.tensors, self.shape, self.groups = tensors, shape, groups
        self.take, self.give = take, give

    @property
    def requires_grad(self) -> bool:
        return any(t.requires_grad for t in self.tensors)

    @classmethod
    def of(cls, x: Tensor, axis: int) -> "Feed":
        """A plain tensor as one group: its frame swaps ``axis`` to the
        front."""
        xf = x.data.swapaxes(0, axis)
        return cls((x,), x.shape, [slice(0, len(xf))], lambda sl: xf,
                   lambda sl, gx: (gx.swapaxes(0, axis),))

    def scaled(self, s) -> "Feed":
        """This input times ``s``, a number or a scalar tensor, read once,
        now.  ``give`` scales gx in place and passes it on; a trainable s
        joins ``tensors``, its gradient ``sum(gx * x)`` over the groups,
        with x rebuilt by ``take``."""
        s = lift(s)
        if s.data.ndim:
            raise ValueError(f"Feed.scaled needs a scalar, got {s.shape}")
        value, take, give = float(s.data), self.take, self.give
        if not s.requires_grad:
            # captures give alone: Feed.of's take holds its input
            return Feed(self.tensors, self.shape, self.groups,
                        lambda sl: take(sl) * value,
                        lambda sl, gx: give(sl, np.multiply(gx, value, gx)))
        total = [0.0]

        def give_scaled(sl: slice, gx: Array) -> tuple:
            total[0] = (0.0 if sl.start == 0 else total[0]) + np.sum(
                gx * take(sl))
            return give(sl, np.multiply(gx, value, gx)) + (
                np.asarray(total[0]),)

        return Feed((*self.tensors, s), self.shape, self.groups,
                    lambda sl: take(sl) * value, give_scaled)


def _swap(shape, axis: int) -> tuple[int, ...]:
    """``shape`` with axes 0 and ``axis`` swapped."""
    shape = list(shape)
    shape[0], shape[axis] = shape[axis], shape[0]
    return tuple(shape)


def _blockwise(x: Tensor | Feed, axis: int, out_ext, rank: int, kernel,
               dtype) -> tuple[Array, Array | None, list[list[slice]]]:
    """The one forward loop of the routed ops.  It works in the frame that
    swaps ``axis`` of x to the front: a ``Feed``'s groups in channel order,
    a tensor as one group, each cut into ``_blocks``, which run on the pool
    (``_imap``).  ``kernel(block, xb)`` gets a block's index in the frame
    and its input and returns the block's output and winner code (None
    without a ``dtype``), which go in place into the frame's output, its
    leading axes and ``out_ext``, and one code array of ``dtype``; the
    block's NaN cells are then marked dead (``_mark_dead``).  Returns
    ``(out, code, blocks)``, code None without a ``dtype`` and ``blocks``
    each group's blocks.
    """
    feed = x if isinstance(x, Feed) else Feed.of(x, axis)
    out = np.empty(_swap(feed.shape, axis)[:-rank] + tuple(out_ext))
    code = None if dtype is None else np.empty(out.shape, dtype)
    blocks = []

    def run(block):
        out[block], win = kernel(block, xg[_shift(block, -sl.start)])
        if code is not None:
            code[block] = win
            _mark_dead(code[block], out[block])

    for sl in feed.groups:
        xg = feed.take(sl)
        blocks.append(_blocks(xg, rank, sl.start))
        _each(run, blocks[-1])
    return out, code, blocks


def routed_node(out: Array, blocks, route, x: Tensor | Feed, params=(),
                axis: int = 0, each_group=None) -> Tensor:
    """Graph node for an op whose every output cell copies one winning
    candidate (a source, an affine piece, a window offset).

    The node works in one frame: ``out`` is C-contiguous with ``axis`` of
    the node's output swapped to the front, the node holds the swapped-back
    view, and it sees ``x`` and returns x's gradient in that frame.
    ``blocks`` are the forward pass's (``_blockwise``), one list per group
    of a ``Feed`` x (a tensor is one group), runs of whole channels.

    ``route(block, g)`` gets the block's output gradient in the frame and
    returns ``(src, gx, closed, parts)``: each live cell's (``_live``)
    source in the frame's input block and x gradient (None for a frozen
    x); sources whose summed gradient is then times 0, signed zero included
    (a closed rectifier), or None; and parts ``(k, index, values)``, added
    at ``index`` into ``params`` laid end to end from ``params[k]`` on.  A
    route captures what it reads; the node keeps no tensor.  The first
    backward rule runs the blocks, group by group, each group's on the pool
    (``_imap``), ``each_group(sl)`` (if given) called before them and
    ``each_group(None)`` after: a block-local ``np.bincount`` fills the
    block's slice of the group's x gradient, one buffer in the frame that
    every group reuses, which ``Feed.give`` takes once the group is done
    (each of the feed's tensors has its own edge); the caller adds the
    parts with ``np.add.at`` into one running sum in cell order, the same
    to the bit as one ``bincount`` over every cell.  Later rules hand out
    the stored gradients.
    """
    feed = x if isinstance(x, Feed) else Feed.of(x, axis)
    x_shape, groups = _swap(feed.shape, axis), feed.groups
    shapes = [p.data.shape for p in params]
    starts = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    takes = [t.requires_grad for t in (feed, *params)]
    leaves, lead = (*feed.tensors, *params), len(feed.tensors)
    # a frozen x keeps no give, nor what it holds (conv1's im2col)
    give = feed.give if takes[0] else None
    grads: dict[int, Array] = {}

    def backward_pass(g: Array) -> None:
        gf = g.swapaxes(0, axis)
        total = np.zeros(starts[-1])
        buf = None  # the first group's x gradient, reused by the others

        def run(block):  # a block's x gradient, in place, and its parts
            src, gx, closed, parts = route(block, gf[block])
            if takes[0]:
                dst = gxg[_shift(block, -sl.start)]
                # float64 even with no live cell, where bincount is int64
                gl = np.bincount(src, gx, dst.size).astype(float, copy=False)
                if closed is not None:
                    gl[closed] *= 0.0
                dst[...] = gl.reshape(dst.shape)
            return parts

        for sl, group_blocks in zip(groups, blocks):
            if takes[0]:
                if buf is None:
                    buf = np.empty((sl.stop - sl.start,) + x_shape[1:])
                gxg = buf[:sl.stop - sl.start]
            if each_group is not None:
                each_group(sl)
            # the parts of at most one block per worker are held at once
            for parts in _imap(run, group_blocks, _workers()):
                for k, index, values in parts:
                    np.add.at(total[starts[k]:], index, values)
            if each_group is not None:
                each_group(None)
            if takes[0]:
                grads.update((k, gk) for k, gk in enumerate(give(sl, gxg))
                             if gk is not None)
        for k, shape in enumerate(shapes):
            if takes[k + 1]:
                grads[lead + k] = total[starts[k]:starts[k + 1]].reshape(shape)

    def rule(k: int):
        def back(g: Array) -> Array:
            if not grads:
                backward_pass(g)
            return grads.pop(k)
        return back

    return ad.make_node(out.swapaxes(0, axis), [
        (t, rule(k)) for k, t in enumerate(leaves)])


def _sup_conv(f: Tensor, offsets, weights: Tensor | None, stride,
              out_extent) -> Tensor:
    """Strided sup-convolution op over ``_sup_max``, routing each cell's
    gradient to its first attaining offset."""
    track = ad.is_grad_enabled()
    wdat = None if weights is None else weights.data
    out, idx, blocks = _blockwise(
        f, 0, out_extent, len(offsets[0]),
        lambda block, xb: _sup_max(xb, offsets, wdat, stride, out_extent,
                                   track),
        _index_dtype(len(offsets)) if track else None)
    if not track:
        return Tensor(out)
    sources = _decoder(f.data.shape, stride, offsets)
    params = () if weights is None else (weights,)
    takes_f = f.requires_grad
    takes_w = weights is not None and weights.requires_grad

    def route(block, g):
        ib = idx[block]
        live = _live(ib)
        src = sources(ib).ravel()[live] if takes_f else None
        gb = g.ravel()[live]
        return (src, gb if takes_f else None, None,
                [(0, ib.ravel()[live], gb)] if takes_w else [])

    return routed_node(out, blocks, route, f, params)


# -- stride-1 operators ----------------------------------------------------


def dilate(f, g: StructuringFunction) -> Tensor:
    """(f (+) g)(x) = max_y f(x - y) + g(y), same spatial extent as f."""
    f = lift(f)
    ones = (1,) * g.rank
    return _sup_conv(f, g.offsets, g.weights, ones, f.data.shape[-g.rank:])


def erode(f, g: StructuringFunction) -> Tensor:
    """(f (-) g)(x) = min_y f(x + y) - g(y), via the dilation duality."""
    f = lift(f)
    return ad.neg(dilate(ad.neg(f), g.transpose()))


def relu(f) -> Tensor:
    """max(f, 0); the gradient passes where f >= 0, at 0 too."""
    f = lift(f)
    mask = f.data >= 0
    return ad.make_node(np.maximum(f.data, 0.0), [(f, lambda g: g * mask)])


# -- pooling ----------------------------------------------------------------


def dilate_pool(f, g: StructuringFunction, pool: PoolSpec) -> Tensor:
    """Strided dilation: out(x) = max_y f(K*x - y) + g(y)."""
    f = lift(f)
    out_ext = pool.out_extent(f.data.shape[-pool.rank:])
    return _sup_conv(f, g.offsets, g.weights, pool.stride, out_ext)


def max_pool(f, pool: PoolSpec) -> Tensor:
    """Flat max over corner-anchored windows."""
    f = lift(f)
    out_ext = pool.out_extent(f.data.shape[-pool.rank:])
    offs = StructuringFunction.pool_window(pool.extent).offsets
    return _sup_conv(f, offs, None, pool.stride, out_ext)


def min_pool(f, pool: PoolSpec) -> Tensor:
    """Flat min over windows; dual of max_pool, same tie rule."""
    return ad.neg(max_pool(ad.neg(lift(f)), pool))


def act_pool(f, pool: PoolSpec, alpha=0.0, cap=None) -> Tensor:
    """Max over the window of min(max(0, f + alpha), cap) (no upper bound
    when ``cap`` is None): ReLU, or ReLU6 with cap 6, then max-pooling, as
    one graph node with the chain's values and winners.

    It runs on ``_blocks`` of the channel-first frame (axis 1 of an input
    with batch and channel axes), clamping each block into a copy that
    stays in cache and pooling it with ``_sup_max``.  Under no_grad it
    pools the raw block and clamps the pooled cells: the clamp is monotone
    and makes every zero +0, so the bytes are the chain's.  Under grad each
    source whose rectifier is closed carries ``len(offsets)`` into its
    cell's winner code, and a closed winner's summed gradient is times 0,
    signed zero included, as in the chain.  A NaN cell takes no gradient
    and closes no source.  A ``Tensor`` alpha on batch-and-channel input
    sums its gradient in the frame's order: the chain's value, not always
    its bits.  A cap below 0 is refused.  f may be a ``Feed`` (alpha 0).
    """
    if cap is not None and not cap >= 0.0:
        raise ValueError(f"act_pool needs cap >= 0, got {cap}")
    f = f if isinstance(f, Feed) else lift(f)
    if isinstance(alpha, Tensor) or alpha != 0.0:
        if isinstance(f, Feed):
            raise ValueError("act_pool takes no alpha with a Feed")
        f = ad.add(f, alpha)
    axis = 1 if len(f.shape) >= pool.rank + 2 else 0
    out_ext = pool.out_extent(f.shape[-pool.rank:])
    offsets = StructuringFunction.pool_window(pool.extent).offsets
    track = ad.is_grad_enabled()
    flag = len(offsets)
    dtype = _index_dtype(2 * flag) if track else None

    def clamp(a: Array, out: Array | None = None) -> Array:
        a = np.maximum(a, 0.0, out=out)
        return a if cap is None else np.minimum(a, cap, out=a)

    def kernel(block, xb):
        if not track:
            pooled, _ = _sup_max(xb, offsets, None, pool.stride, out_ext,
                                 False)
            return clamp(pooled, pooled), None
        clamped = clamp(xb)
        carry = np.multiply(clamped != xb, flag, dtype=dtype)
        return _sup_max(clamped, offsets, None, pool.stride, out_ext, True,
                        carry)

    out, idx, blocks = _blockwise(f, axis, out_ext, pool.rank, kernel, dtype)
    if not track:
        return Tensor(out.swapaxes(0, axis))
    sources = _decoder(f.shape, pool.stride, offsets * 2)

    def route(block, g):
        ib = idx[block]
        live = _live(ib)
        src = sources(ib).ravel()[live]
        closed = src[ib.ravel()[live] >= flag]
        return src, g.ravel()[live], closed, []

    return routed_node(out, blocks, route, f, axis=axis)


# -- two-slope activations and self-dual pooling -----------------------------


def prelu2(f, beta_pos, beta_neg) -> Tensor:
    """Two-slope rectifier max(beta_neg * f, beta_pos * f).

    Valid as written only when beta_pos >= beta_neg (otherwise the max picks
    the wrong branch); (1, 0) is ReLU, (1, 0.01) the usual leaky variant.
    """
    beta_pos, beta_neg = lift(beta_pos), lift(beta_neg)
    if float(beta_pos.data) < float(beta_neg.data):
        raise ValueError("prelu2 requires beta_pos >= beta_neg")
    f = lift(f)
    return ad.maximum(ad.mul(f, beta_neg), ad.mul(f, beta_pos))


def _feed(f, pool: PoolSpec) -> Feed:
    """f, or a tensor f as one group in ``act_pool``'s frame."""
    if isinstance(f, Feed):
        return f
    f = lift(f)
    return Feed.of(f, 1 if f.data.ndim >= pool.rank + 2 else 0)


def selfdual_pool(f, pool: PoolSpec) -> Tensor:
    """act_pool(f) - act_pool(-f): max-pools the positive and the negative
    part; commutes with negation.  f may be a ``Feed``; both halves read
    it, the second ``scaled(-1)``."""
    f = _feed(f, pool)
    return ad.sub(act_pool(f, pool), act_pool(f.scaled(-1.0), pool))


def posneg_pool_param(f, pool: PoolSpec, beta_pos, beta_neg) -> Tensor:
    """Parametric split pooling:
    max_pool(max(0, beta_neg * f)) + min_pool(min(0, beta_pos * f)).

    Built as act_pool(beta_neg * f) - act_pool(-beta_pos * f), two readers
    of one ``Feed`` (``Feed.scaled``).  The slope pairing follows the
    printed formula; with beta_pos = beta_neg = 1 it is selfdual_pool.
    """
    f = _feed(f, pool)
    return ad.sub(act_pool(f.scaled(beta_neg), pool),
                  act_pool(f.scaled(ad.neg(beta_pos)), pool))
