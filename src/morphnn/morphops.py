"""Morphological operators with exact subgradients.

Dilation is the sup-convolution ``out(x) = max_y f(x - y) + g(y)`` over the
finite support of a structuring function ``g``; erosion is its adjoint
``inf_y f(x + y) - g(y)``.  Pooling is a strided dilation on corner-anchored
windows ``[K*x, K*x + R - 1]`` with output extent ``(n - R) // K + 1``.

Conventions shared by every op here:

* spatial axes are the trailing axes; leading axes (batch, channel) are
  carried through untouched;
* offsets falling outside the input are ignored (-inf padding in the sup,
  +inf in the inf); a position whose window lies entirely outside evaluates
  to the lattice bottom -inf and carries zero gradient;
* on ties the subgradient routes to the lowest offset index, which for pool
  windows is the first position in row-major window order;
* each output cell copies one winner, so every backward here is one
  ``routed_node``, which sends the cell's gradient to that winner alone.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor, _lift


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
    def flat(cls, offsets, learnable: bool = False) -> "StructuringFunction":
        return cls(offsets, learnable=learnable)

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


def _offset_slices(y, stride, n_in, n_out):
    """Output/source slice pair where offset y lands inside the input."""
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


def _record(better: Array, records) -> None:
    """Where ``better`` holds, overwrite each integer record with its value
    (an array or a scalar), in place.

    Integer arithmetic rather than a masked copy, which branches per
    element and runs several times slower; a wrapped difference still
    lands on the value, since the arithmetic is modular.
    """
    for dst, value in records:
        dst += (value - dst) * better


def _sup_max(fdat: Array, offsets, wdat: Array | None, stride, out_extent,
             track: bool) -> tuple[Array, Array | None]:
    """Strided sup-convolution of a plain array:
    ``out(x) = max_y f(K*x - y) + w(y)`` over the trailing axes.

    With ``track`` it also returns the first attaining offset index per
    output position (ties keep the earliest offset); without it, None.
    """
    rank = len(offsets[0])
    if fdat.ndim < rank:
        raise ValueError("input rank below offset rank")
    n_in = fdat.shape[-rank:]
    out = np.full(fdat.shape[:-rank] + tuple(out_extent), -np.inf)
    idx = np.full(out.shape, -1, _index_dtype(len(offsets))) if track else None
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
            _record(cand > region, [(idx[(..., *out_sl)], o)])
        np.maximum(region, cand, out=region)
    # positions whose window lies entirely outside the input keep the
    # lattice bottom -inf and receive no gradient (idx stays -1); pool
    # windows can never produce them (out_extent guarantees overlap)
    return out, idx


def _live(index: Array):
    """Flat output cells that take gradient: every cell but those whose
    winner ``index`` is -1 (a window wholly outside the input)."""
    return np.flatnonzero(index >= 0) if (index < 0).any() else slice(None)


def _sources(x_shape, stride, offsets, index: Array) -> Array:
    """Flat index into an array of ``x_shape`` of each output cell's
    winning source ``K*p - y``, where ``index`` (shaped like the output)
    picks y among ``offsets``.  A cell whose index is -1 gets a meaningless
    source."""
    lead = len(x_shape) - len(stride)
    strides = np.cumprod((1,) + tuple(x_shape[:0:-1]))[::-1]
    steps = list(strides[:lead]) + [s * k for s, k in
                                    zip(strides[lead:], stride)]
    # flat index of each window's anchor K*p, summed from per-axis grids
    anchor = sum((np.arange(size, dtype=np.int64) * step).reshape(
        (size,) + (1,) * (index.ndim - ax - 1))
        for ax, (size, step) in enumerate(zip(index.shape, steps)))
    shifts = np.array([np.dot(y, strides[lead:]) for y in offsets],
                      dtype=np.int64)
    return anchor - shifts[index]


def routed_node(out: Array, routes, edges) -> Tensor:
    """Graph node for an op whose every output cell copies one winning
    candidate (a source, an affine piece, a window offset).

    ``routes()`` runs once, at the first backward rule, and returns the
    live output cells (``_live``) and a dict of arrays with one entry per
    live cell.  Each edge ``(parent, index, factor)`` takes ``g`` at the
    live cells, times ``arrays[factor]`` unless ``factor`` is None.  With
    ``index = (key, start)`` it scatters that with one ``np.bincount`` over
    ``arrays[key]``, the parent holding positions ``start`` onwards; with
    None the parent lines up cell for cell with the output, every cell is
    live, and the product is returned reshaped.
    """
    routes = functools.cache(routes)

    def rule(parent: Tensor, index, factor):
        def back(g: Array) -> Array:
            live, arrays = routes()
            gl = g.ravel()[live]
            if factor is not None:
                gl = gl * arrays[factor]
            if index is None:
                return gl.reshape(parent.data.shape)
            key, start = index
            stop = start + parent.data.size
            return np.bincount(arrays[key], weights=gl, minlength=stop)[
                start:stop].reshape(parent.data.shape)
        return back

    return ad.make_node(out, [(p, rule(p, index, factor))
                              for p, index, factor in edges])


def _sup_conv(f: Tensor, offsets, weights: Tensor | None, stride,
              out_extent) -> Tensor:
    """Strided sup-convolution op over ``_sup_max``, routing each cell's
    gradient to its first attaining offset."""
    out, idx = _sup_max(f.data, offsets,
                        None if weights is None else weights.data, stride,
                        out_extent, ad.is_grad_enabled())

    def routes():
        live = _live(idx)
        src = _sources(f.data.shape, stride, offsets, idx).ravel()[live]
        return live, {"src": src, "offset": idx.ravel()[live]}

    edges = [(f, ("src", 0), None)]
    if weights is not None:
        edges.append((weights, ("offset", 0), None))
    return routed_node(out, routes, edges)


# -- stride-1 operators ----------------------------------------------------


def dilate(f, g: StructuringFunction) -> Tensor:
    """(f (+) g)(x) = max_y f(x - y) + g(y), same spatial extent as f."""
    f = _lift(f)
    ones = (1,) * g.rank
    return _sup_conv(f, g.offsets, g.weights, ones, f.data.shape[-g.rank:])


def erode(f, g: StructuringFunction) -> Tensor:
    """(f (-) g)(x) = min_y f(x + y) - g(y), via the dilation duality."""
    f = _lift(f)
    return ad.neg(dilate(ad.neg(f), g.transpose()))


def relu(f) -> Tensor:
    """max(f, 0); the gradient passes where f >= 0, at 0 too."""
    f = _lift(f)
    return routed_node(np.maximum(f.data, 0.0),
                       lambda: (slice(None), {"slope": (f.data >= 0).ravel()}),
                       [(f, None, "slope")])


# -- pooling ----------------------------------------------------------------


def dilate_pool(f, g: StructuringFunction, pool: PoolSpec) -> Tensor:
    """Strided dilation: out(x) = max_y f(K*x - y) + g(y)."""
    f = _lift(f)
    out_ext = pool.out_extent(f.data.shape[-pool.rank:])
    return _sup_conv(f, g.offsets, g.weights, pool.stride, out_ext)


def max_pool(f, pool: PoolSpec) -> Tensor:
    """Flat max over corner-anchored windows."""
    f = _lift(f)
    out_ext = pool.out_extent(f.data.shape[-pool.rank:])
    offs = StructuringFunction.pool_window(pool.extent).offsets
    return _sup_conv(f, offs, None, pool.stride, out_ext)


def min_pool(f, pool: PoolSpec) -> Tensor:
    """Flat min over windows; dual of max_pool, same tie rule."""
    return ad.neg(max_pool(ad.neg(_lift(f)), pool))


def act_pool(f, pool: PoolSpec, alpha=0.0) -> Tensor:
    """Max over the window of max(0, f + alpha): ReLU and max-pooling as a
    single dilation with a trainable threshold."""
    return max_pool(relu(ad.add(_lift(f), alpha)), pool)


# -- two-slope activations and self-dual pooling -----------------------------


def _scalar_value(x) -> float:
    return float(x.data) if isinstance(x, Tensor) else float(x)


def prelu2(f, beta_pos, beta_neg) -> Tensor:
    """Two-slope rectifier max(beta_neg * f, beta_pos * f).

    Valid as written only when beta_pos >= beta_neg (otherwise the max picks
    the wrong branch); (1, 0) is ReLU, (1, 0.01) the usual leaky variant.
    """
    if _scalar_value(beta_pos) < _scalar_value(beta_neg):
        raise ValueError("prelu2 requires beta_pos >= beta_neg")
    f = _lift(f)
    return ad.maximum(ad.mul(f, beta_neg), ad.mul(f, beta_pos))


def pos_neg_split(f) -> tuple[Tensor, Tensor]:
    """f = pos - neg with both parts nonnegative."""
    f = _lift(f)
    return relu(f), relu(ad.neg(f))


def selfdual_pool(f, pool: PoolSpec) -> Tensor:
    """max_pool(f_pos) - max_pool(f_neg): commutes with negation."""
    pos, neg_part = pos_neg_split(f)
    return ad.sub(max_pool(pos, pool), max_pool(neg_part, pool))


def posneg_pool_param(f, pool: PoolSpec, beta_pos, beta_neg) -> Tensor:
    """Parametric split pooling:
    max_pool(max(0, beta_neg * f)) + min_pool(min(0, beta_pos * f)).

    The slope pairing follows the printed formula; with
    beta_pos = beta_neg = 1 it reduces exactly to selfdual_pool.
    """
    f = _lift(f)
    pos_branch = max_pool(relu(ad.mul(f, beta_neg)), pool)
    neg_branch = min_pool(ad.minimum(ad.mul(f, beta_pos), 0.0), pool)
    return ad.add(pos_branch, neg_branch)
