"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` is a float64 ``np.ndarray`` plus, once it takes part in a
graph, a ``Node``: the backward edges, the gradient slot and the walked
flag.  Edges point from node to node, never to a tensor, so an op's result
keeps no operand's array alive: each backward rule captures, when its op
runs, exactly the arrays it will read (a mask, the other operand's data, a
winner record, an input shape) and nothing else.  An array that no rule
reads dies with its tensor, as soon as the caller drops it, not when
``backward()`` reaches its consumer.  Operators build the graph eagerly;
``Tensor.backward()`` walks it once in reverse topological order.  All
numerics are float64; -inf appears only as the lattice bottom for
out-of-support padding in the morphological kernels, never inside gradient
arithmetic.

Elementwise ops accept tensors of identical shape, or a scalar on either
side (a Python number or a size-1 tensor).  Anything fancier goes through a
dedicated structured op with its own backward rule.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

Array = np.ndarray
BackwardRule = Callable[[Array], Array]

_grad_enabled = True

# the one slice budget, in bytes: the largest array that a loop over slices
# builds at a time (a chunk of ``probe_losses``' probe rows here; train's
# slices of images and filters, where the measurement that set it is told)
_SLICE_BYTES = 1 << 24


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator (PCG64) used for every random draw."""
    return np.random.Generator(np.random.PCG64(seed))


class Node:
    """Vertex of the reverse-mode graph, apart from the tensor it belongs to.

    ``parents`` holds ``(node, rule)`` pairs where ``rule`` maps this
    node's output gradient to the parent's contribution.  Rules may return
    views of the incoming gradient; accumulation never mutates in place, so
    aliasing is harmless.  A node without parents is a leaf's; ``backward()``
    empties the parents of every non-leaf node it walks and marks it
    ``walked``.
    """

    __slots__ = ("parents", "grad", "walked")

    def __init__(self, parents: tuple = ()):
        self.parents = parents
        self.grad: Array | None = None
        self.walked = False


class Tensor:
    """A float64 array and, once it has one, its graph ``Node``.

    An op result made under grad owns the node of its backward edges; a
    leaf gets an empty node when it first becomes an edge of a graph or is
    given a gradient, so a constant (``no_grad`` results, probe inputs)
    makes none.  ``grad`` reads and writes the node's slot (None without a
    node); ``_parents`` reads its edges, ``()`` for a leaf or once
    ``backward()`` has walked it.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def grad(self) -> Array | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: Array | None) -> None:
        if value is not None or self._node is not None:
            _node_of(self).grad = value

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node.parents

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph ----------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar output, freeing the graph as it goes.

        Nodes are taken in reverse topological order, parents left to right
        within each node.  Each node leaves the order and loses its edges
        before its rules run, each rule is dropped once it has run (so the
        forward arrays it captured die then), and a non-leaf gradient is
        dropped once taken: after the call only leaves hold ``.grad``.  A
        second ``backward()`` that reaches a walked node raises
        ``RuntimeError`` instead of double-counting.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output, got shape "
                             f"{self.data.shape}")
        root = _node_of(self)
        topo = _toposort(root)
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            edges, node.parents = list(node.parents), ()
            if not edges:
                continue  # a leaf keeps its gradient
            node.walked = True
            g, node.grad = node.grad, None
            edges.reverse()
            while edges:
                parent, rule = edges.pop()
                parent.grad = (rule(g) if parent.grad is None
                               else parent.grad + rule(g))
                del rule

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, shape):
        return reshape(self, shape)


def _node_of(t: Tensor) -> Node:
    """``t``'s node, made empty (a leaf's) if it has none yet."""
    if t._node is None:
        t._node = Node()
    return t._node


def _toposort(root: Node) -> list[Node]:
    # iterative postorder; recursion would overflow on long training graphs
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.walked:
            raise RuntimeError("backward() reached a node that an earlier "
                               "backward() already walked and freed; build "
                               "the graph again")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def lift(x) -> Tensor:
    """``x`` itself if it is a Tensor, else a constant Tensor holding it."""
    return x if isinstance(x, Tensor) else Tensor(x)


def make_node(data: Array, parents: Iterable[tuple[Tensor, BackwardRule]]) -> Tensor:
    """Assemble an op result from ``(operand, rule)`` pairs, keeping only
    differentiable edges, each to its operand's node.  A rule must not
    read an operand tensor: whatever it reads it captures as an array."""
    out = Tensor(data)
    if _grad_enabled:
        kept = tuple((_node_of(p), rule) for p, rule in parents
                     if p.requires_grad)
        if kept:
            out.requires_grad = True
            out._node = Node(kept)
    return out


def _check_elementwise(a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError("elementwise op needs matching shapes or a scalar, got "
                     f"{a.data.shape} and {b.data.shape}")


def _reduce_to(shape: tuple[int, ...], g: Array) -> Array:
    # fold a broadcast gradient back onto a scalar operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# -- elementwise ops -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    _check_elementwise(a, b)
    sa, sb = a.data.shape, b.data.shape
    return make_node(a.data + b.data, [
        (a, lambda g: _reduce_to(sa, g)),
        (b, lambda g: _reduce_to(sb, g)),
    ])


def sub(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    _check_elementwise(a, b)
    sa, sb = a.data.shape, b.data.shape
    return make_node(a.data - b.data, [
        (a, lambda g: _reduce_to(sa, g)),
        (b, lambda g: _reduce_to(sb, -g)),
    ])


def mul(a, b) -> Tensor:
    a, b = lift(a), lift(b)
    _check_elementwise(a, b)
    da, db = a.data, b.data
    sa, sb = da.shape, db.shape
    return make_node(da * db, [
        (a, lambda g: _reduce_to(sa, g * db)),
        (b, lambda g: _reduce_to(sb, g * da)),
    ])


def neg(a) -> Tensor:
    a = lift(a)
    return make_node(-a.data, [(a, lambda g: -g)])


def _select(a, b, wins) -> Tensor:
    # a where wins(a, b) holds or a is NaN, else b; each cell's gradient
    # goes to the operand whose value it holds
    a, b = lift(a), lift(b)
    _check_elementwise(a, b)
    take_a = wins(a.data, b.data) | np.isnan(a.data)
    sa, sb = a.data.shape, b.data.shape
    return make_node(np.where(take_a, a.data, b.data), [
        (a, lambda g: _reduce_to(sa, g * take_a)),
        (b, lambda g: _reduce_to(sb, g * ~take_a)),
    ])


def maximum(a, b) -> Tensor:
    """Elementwise max; on ties the subgradient routes to the first operand.
    A NaN operand is the result and takes the gradient (the first, if both
    are NaN)."""
    return _select(a, b, np.greater_equal)


def minimum(a, b) -> Tensor:
    """Elementwise min; on ties the subgradient routes to the first operand.
    A NaN operand is the result and takes the gradient (the first, if both
    are NaN)."""
    return _select(a, b, np.less_equal)


# -- reductions and shape ops ---------------------------------------------


def tsum(a: Tensor) -> Tensor:
    a = lift(a)
    shape = a.data.shape
    return make_node(np.sum(a.data).reshape(()),
                     [(a, lambda g: np.full(shape, float(g)))])


def tmean(a: Tensor) -> Tensor:
    a = lift(a)
    shape = a.data.shape
    n = a.data.size
    return make_node(np.mean(a.data).reshape(()),
                     [(a, lambda g: np.full(shape, float(g) / n))])


def reshape(a: Tensor, shape) -> Tensor:
    a = lift(a)
    old = a.data.shape
    return make_node(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = lift(a), lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    da, db = a.data, b.data
    return make_node(da @ db, [
        (a, lambda g: g @ db.T),
        (b, lambda g: da.T @ g),
    ])


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of an (m, n) matrix."""
    x, v = lift(x), lift(v)
    if x.data.ndim != 2 or v.data.shape != (x.data.shape[1],):
        raise ValueError("add_rowvec expects (m, n) and (n,)")
    return make_node(x.data + v.data, [
        (x, lambda g: g),
        (v, lambda g: g.sum(axis=0)),
    ])


# -- numerical check -------------------------------------------------------


def probe_losses(losses: Callable[[Array], Iterable[float]], x: Array,
                 h: float) -> tuple[Array, Array]:
    """Losses at x with each coordinate moved to x+h and to x-h.

    The probes are the rows of a stack shaped ``(2 * x.size,) + x.shape``:
    row i is x with its i-th coordinate (row-major) at ``x[i] + h``, row
    ``x.size + i`` has it at ``x[i] - h``.  ``losses(stack)`` returns one
    loss per row.  The stack is handed out in consecutive chunks of rows,
    each at most ``_SLICE_BYTES`` (one row at least), so a large x never
    builds the whole 2N x N stack.  ``losses`` runs under ``no_grad`` and
    must not keep a chunk: the next chunk reuses its buffer.  Returns the
    x+h and the x-h losses, each an array shaped like x.
    """
    n = x.size
    flat = x.reshape(-1)
    step = max(1, _SLICE_BYTES // max(x.nbytes, 1))
    out = np.empty(2 * n)
    buf = np.empty((min(step, 2 * n), n))
    for start in range(0, 2 * n, step):
        rows = np.arange(start, min(start + step, 2 * n))
        i = rows % n
        stack = buf[:len(rows)]
        stack[...] = flat
        stack[np.arange(len(rows)), i] = np.where(rows < n, flat[i] + h,
                                                  flat[i] - h)
        with no_grad():
            out[rows] = list(losses(stack.reshape((len(rows),) + x.shape)))
    return out[:n].reshape(x.shape), out[n:].reshape(x.shape)


def finite_difference_grad(fn: Callable[[Tensor], Tensor], x: Tensor,
                           h: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar-valued ``fn`` at ``x``:
    ``probe_losses`` with one call of ``fn`` per probe row."""
    hi, lo = probe_losses(
        lambda stack: [float(fn(Tensor(row)).data) for row in stack],
        x.data, h)
    return (hi - lo) / (2.0 * h)
