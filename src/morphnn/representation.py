"""Minimal-kernel representations of increasing translation-invariant
operators, verified by exhaustive enumeration on small windows, plus the
max-min algebra of piecewise-linear functions.

Set operators are tabulated with the local-rule trick: an increasing
translation-invariant operator restricted to a finite window W is fully
described by the boolean answer "does the origin belong to Psi(X)?" for
each of the 2^|W| configurations X within W.  Subsets are bitmasks over a
fixed window order, so kernels, bases and reconstructions are integer
arithmetic:

* the kernel is every configuration whose answer is True,
* the basis keeps its minimal elements (an antichain),
* ``origin in X erode M``  iff  M subset-of X,
* ``origin in X dilate reflect(N)``  iff  X intersects N.

The function-lattice analogue quantizes signals to a few levels over a tiny
domain and adds the bottom element -inf to the kernel candidate levels;
without the bottom, erosion kernels have no minimal elements and the
reconstruction breaks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

Point = tuple[int, int]

NEG_INF = float("-inf")


# -- windows and masks -------------------------------------------------------


def window_grid(height: int, width: int) -> tuple[Point, ...]:
    """Centered (height x width) window, row-major; extents must be odd
    and positive."""
    if min(height, width) < 1 or height % 2 == 0 or width % 2 == 0:
        raise ValueError("window extents must be odd and positive so the "
                         "origin is centered")
    return tuple((dy, dx) for dy in range(-(height // 2), height // 2 + 1)
                 for dx in range(-(width // 2), width // 2 + 1))


def window_cross() -> tuple[Point, ...]:
    return ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def points_to_mask(points: Iterable[Point], window: Sequence[Point]) -> int:
    index = {p: i for i, p in enumerate(window)}
    mask = 0
    for p in points:
        if tuple(p) not in index:
            raise ValueError(f"point {p} outside the window")
        mask |= 1 << index[tuple(p)]
    return mask


def mask_to_points(mask: int, window: Sequence[Point]) -> frozenset[Point]:
    return frozenset(p for i, p in enumerate(window) if mask >> i & 1)


def _closure(masks: Sequence[int], size: int) -> np.ndarray:
    """Upward closure, O(|W| 2^|W|) for ``size`` = 2^|W|: a bool table over
    the masks ``0 .. size - 1``, True where one of ``masks`` is a subset."""
    if min(masks, default=0) < 0 or max(masks, default=0) >= size:
        raise ValueError(f"masks must lie in [0, {size})")
    table = np.zeros(size, dtype=bool)
    table[np.asarray(masks, dtype=np.intp)] = True
    for b in range(size.bit_length() - 1):
        pairs = table.reshape(-1, 2, 1 << b)  # [:, 1] sets bit b of [:, 0]
        pairs[:, 1] |= pairs[:, 0]
    return table


def _minimal(masks: Sequence[int], size: int) -> list[int]:
    """The distinct masks that contain no other one, ascending: no mask one
    bit smaller lies in their upward closure."""
    below = _closure(masks, size)
    masks = np.array(sorted(set(masks)), dtype=np.intp)
    contains = np.zeros(masks.size, dtype=bool)
    for b in range(size.bit_length() - 1):
        bit = (masks >> b) & 1
        contains |= (bit == 1) & below[masks ^ (bit << b)]
    return masks[~contains].tolist()


# -- tabulated set operators -------------------------------------------------


@dataclass(frozen=True)
class OperatorTable:
    """Local table of an increasing TI set operator on a finite window.

    ``table[mask]`` answers whether the origin belongs to the output when
    the input configuration inside the window is ``mask``.  Monotonicity is
    checked at construction; translation invariance holds by construction
    since one local rule is applied everywhere.
    """

    window: tuple[Point, ...]
    table: np.ndarray
    name: str = ""

    def __post_init__(self):
        w = len(self.window)
        if self.table.shape != (2 ** w,) or self.table.dtype != np.bool_:
            raise ValueError("table must be bool with one entry per subset")
        if not np.array_equal(_closure(np.flatnonzero(self.table), 2 ** w),
                              self.table):
            raise ValueError(f"operator {self.name!r} is not increasing")

    @classmethod
    def from_rule(cls, window: Sequence[Point],
                  rule: Callable[[frozenset[Point]], bool],
                  name: str = "") -> "OperatorTable":
        window = tuple(tuple(p) for p in window)
        table = np.zeros(2 ** len(window), dtype=bool)
        for mask in range(2 ** len(window)):
            table[mask] = bool(rule(mask_to_points(mask, window)))
        return cls(window, table, name)

    def __call__(self, mask: int) -> bool:
        return bool(self.table[mask])

    def equals(self, other: "OperatorTable") -> bool:
        return self.window == other.window and np.array_equal(self.table,
                                                              other.table)


def erosion_table(window: Sequence[Point], se: Iterable[Point]) -> OperatorTable:
    se = frozenset(tuple(p) for p in se)
    _require_inside(se, window, "erosion")
    return _closure_table(window, [se], "erosion")


def dilation_table(window: Sequence[Point], se: Iterable[Point]) -> OperatorTable:
    # origin in X dilate B  iff  X meets the reflection of B
    refl = frozenset((-p[0], -p[1]) for p in se)
    _require_inside(refl, window, "dilation")
    return _closure_table(window, [[p] for p in refl], "dilation")


def opening_table(window: Sequence[Point], se: Iterable[Point]) -> OperatorTable:
    se = frozenset(tuple(p) for p in se)
    translates = [frozenset((q[0] - b[0], q[1] - b[1]) for q in se) for b in se]
    for t in translates:
        _require_inside(t, window, "opening")
    return _closure_table(window, translates, "opening")


def median_table(window: Sequence[Point]) -> OperatorTable:
    if len(window) % 2 == 0:
        raise ValueError("median needs an odd window")
    w = len(window)
    ones = sum((np.arange(2 ** w) >> b) & 1 for b in range(w))
    return OperatorTable(tuple(map(tuple, window)), ones > w // 2, "median")


def identity_table(window: Sequence[Point]) -> OperatorTable:
    origin = [[(0, 0)]] if (0, 0) in map(tuple, window) else []
    return _closure_table(window, origin, "identity")


def _closure_table(window: Sequence[Point], point_sets: Iterable[Iterable],
                   name: str) -> OperatorTable:
    """Origin kept iff some point set fits inside the configuration."""
    window = tuple(tuple(p) for p in window)
    masks = [points_to_mask(s, window) for s in point_sets]
    return OperatorTable(window, _closure(masks, 2 ** len(window)), name)


def _require_inside(points: Iterable[Point], window: Sequence[Point],
                    what: str) -> None:
    missing = set(points) - set(tuple(p) for p in window)
    if missing:
        raise ValueError(f"{what} probe points {sorted(missing)} fall outside "
                         "the window")


# -- kernel, basis, reconstruction -------------------------------------------


def kernel_enumerate(op: OperatorTable) -> list[int]:
    """All window configurations mapped onto the origin (ascending masks)."""
    return [int(m) for m in np.flatnonzero(op.table)]


def basis_extract(kernel: Sequence[int]) -> list[int]:
    """Minimal kernel elements under inclusion (an antichain), ordered by
    (popcount, mask).  The kernel need not be upward closed."""
    size = 1 << int(max(kernel, default=0)).bit_length()
    return sorted(_minimal(kernel, size), key=lambda m: bin(m).count("1"))


@dataclass(frozen=True)
class BasisSet:
    """Basis of an operator over a window, as masks plus readable sets."""

    window: tuple[Point, ...]
    masks: tuple[int, ...]

    def point_sets(self) -> list[frozenset[Point]]:
        return [mask_to_points(m, self.window) for m in self.masks]

    def is_antichain(self) -> bool:
        minimal = _minimal(self.masks, 2 ** len(self.window))
        return len(minimal) == len(set(self.masks))

    def __len__(self) -> int:
        return len(self.masks)


def minimal_basis(op: OperatorTable) -> BasisSet:
    return BasisSet(op.window, tuple(basis_extract(kernel_enumerate(op))))


def dual_table(op: OperatorTable) -> OperatorTable:
    """Negation conjugate: complement the input within the window, then the
    output.  Involutive; swaps erosions with dilations."""
    table = ~op.table[::-1]  # full ^ mask == full - mask
    return OperatorTable(op.window, table, f"dual({op.name})")


def reconstruct_sup_erosions(op: OperatorTable,
                             basis: Sequence[int]) -> OperatorTable:
    """Union of erosions by the basis: origin kept iff some basis element
    fits inside the configuration."""
    table = _closure(basis, 2 ** len(op.window))
    return OperatorTable(op.window, table, f"sup-erosions({op.name})")


def reconstruct_inf_dilations(op: OperatorTable,
                              dual_basis: Sequence[int]) -> OperatorTable:
    """Intersection of dilations by reflected dual-basis elements: origin
    kept iff no dual-basis element fits in the configuration's complement."""
    misses = _closure(dual_basis, 2 ** len(op.window))[::-1]
    return OperatorTable(op.window, ~misses, f"inf-dilations({op.name})")


def truncated_bounds(op: OperatorTable, basis_subset: Sequence[int],
                     dual_basis_subset: Sequence[int]
                     ) -> tuple[OperatorTable, OperatorTable]:
    """Lower/upper envelopes from partial bases; sandwich the operator."""
    lower = reconstruct_sup_erosions(op, basis_subset)
    upper = reconstruct_inf_dilations(op, dual_basis_subset)
    if np.any(lower.table & ~op.table) or np.any(op.table & ~upper.table):
        raise AssertionError("truncated envelopes failed to sandwich the "
                             "operator; bases are inconsistent")
    return lower, upper


# -- function-lattice analogue ------------------------------------------------


@dataclass(frozen=True)
class FunctionOperator:
    """Increasing TI operator on quantized functions over a tiny domain.

    ``rule`` evaluates the output at the origin given the input values on
    ``domain`` (offsets); it must tolerate -inf (and, through duality,
    +inf) entries by plain real-line arithmetic.
    """

    domain: tuple[int, ...]
    levels: tuple[float, ...]
    rule: Callable[[tuple[float, ...]], float]
    name: str = ""

    def functions(self) -> Iterable[tuple[float, ...]]:
        return itertools.product(self.levels, repeat=len(self.domain))

    def kernel_candidates(self) -> Iterable[tuple[float, ...]]:
        return itertools.product((NEG_INF,) + tuple(self.levels),
                                 repeat=len(self.domain))


def flat_fn_erosion(domain: Sequence[int], levels: Sequence[float],
                    support: Sequence[int]) -> FunctionOperator:
    pos = [domain.index(s) for s in support]
    return FunctionOperator(tuple(domain), tuple(levels),
                            lambda v: min(v[i] for i in pos), "erosion")


def flat_fn_dilation(domain: Sequence[int], levels: Sequence[float],
                     support: Sequence[int]) -> FunctionOperator:
    # output at origin reads the input at the reflected support
    pos = [domain.index(-s) for s in support]
    return FunctionOperator(tuple(domain), tuple(levels),
                            lambda v: max(v[i] for i in pos), "dilation")


def fn_identity(domain: Sequence[int], levels: Sequence[float]) -> FunctionOperator:
    at0 = domain.index(0)
    return FunctionOperator(tuple(domain), tuple(levels),
                            lambda v: v[at0], "identity")


def fn_dual(op: FunctionOperator) -> FunctionOperator:
    return FunctionOperator(op.domain, op.levels,
                            lambda v: -op.rule(tuple(-x for x in v)),
                            f"dual({op.name})")


def fn_kernel_enumerate(op: FunctionOperator) -> list[tuple[float, ...]]:
    """Kernel functions: candidates (with -inf bottom) kept at the origin."""
    return [g for g in op.kernel_candidates() if op.rule(g) >= 0.0]


def fn_basis_extract(kernel: Sequence[tuple[float, ...]]
                     ) -> list[tuple[float, ...]]:
    """Minimal kernel functions under the pointwise order."""

    def leq(a, b):
        return all(x <= y for x, y in zip(a, b))

    # lexicographic order refines the pointwise order, so a greedy sweep works
    minimal: list[tuple[float, ...]] = []
    for g in sorted(kernel):
        if not any(leq(b, g) for b in minimal):
            minimal.append(g)
    return minimal


def _erosion_at_origin(f: Sequence[float], g: Sequence[float]) -> float:
    vals = [fv - gv for fv, gv in zip(f, g) if gv > NEG_INF]
    return min(vals) if vals else float("inf")


def _dilation_at_origin(f: Sequence[float], h: Sequence[float]) -> float:
    # (f dilate reflect(h))(0) collapses to sup of f + h over the support
    vals = [fv + hv for fv, hv in zip(f, h) if hv > NEG_INF]
    return max(vals) if vals else NEG_INF


def function_operator_check(op: FunctionOperator) -> dict:
    """Exhaustively compare the operator against both representation forms.

    Returns the basis sizes and the maximum absolute deviation of each form
    over every quantized input function (0.0 means exact).
    """
    basis = fn_basis_extract(fn_kernel_enumerate(op))
    dual_basis = fn_basis_extract(fn_kernel_enumerate(fn_dual(op)))
    sup_dev = 0.0
    inf_dev = 0.0
    for f in op.functions():
        truth = op.rule(f)
        sup_form = max((_erosion_at_origin(f, g) for g in basis),
                       default=NEG_INF)
        inf_form = min((_dilation_at_origin(f, h) for h in dual_basis),
                       default=float("inf"))
        sup_dev = max(sup_dev, abs(sup_form - truth))
        inf_dev = max(inf_dev, abs(inf_form - truth))
    return {"basis_size": len(basis), "dual_basis_size": len(dual_basis),
            "sup_form_deviation": sup_dev, "inf_form_deviation": inf_dev}


# -- piecewise-linear max-min algebra -----------------------------------------


@dataclass(frozen=True)
class PLFunction:
    """Continuous PL function as max over families of min over members.

    ``slopes`` is [k, d], ``intercepts`` [k]; ``families`` lists index
    groups: f(x) = max_F min_{i in F} (slopes[i] @ x + intercepts[i]).
    """

    slopes: np.ndarray
    intercepts: np.ndarray
    families: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, _ = self.slopes.shape
        if self.intercepts.shape != (k,):
            raise ValueError("one intercept per component")
        if not self.families:
            raise ValueError("need at least one family")
        for fam in self.families:
            if not fam or any(i < 0 or i >= k for i in fam):
                raise ValueError("families must be nonempty and in range")

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    def components(self, x: np.ndarray) -> np.ndarray:
        # broadcast + reduce rather than gemm: the reduction order per cell
        # is then independent of the batch shape, so batched evaluation is
        # bit-identical to point-at-a-time evaluation
        x = np.atleast_2d(x)
        return (x[:, None, :] * self.slopes[None, :, :]).sum(axis=2) \
            + self.intercepts


def pl_eval(f: PLFunction, x) -> np.ndarray | float:
    """Evaluate at one point [d] or a batch [b, d]."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    comp = f.components(x)  # [b, k]
    fam_vals = np.stack([comp[:, list(fam)].min(axis=1) for fam in f.families],
                        axis=1)
    out = fam_vals.max(axis=1)
    return float(out[0]) if single else out


def dc_decompose(f: PLFunction) -> tuple[Callable, Callable]:
    """Split f into a difference of two concave PL functions.

    With h_F = min over the family, f = sum_F h_F - min_F sum_{G != F} h_G;
    for a single family the second part is the empty sum, identically 0.
    """

    def h_all(x: np.ndarray) -> np.ndarray:
        comp = f.components(x)
        return np.stack([comp[:, list(fam)].min(axis=1)
                         for fam in f.families], axis=1)  # [b, n_fam]

    def part1(x) -> np.ndarray:
        return h_all(np.atleast_2d(x)).sum(axis=1)

    def part2(x) -> np.ndarray:
        h = h_all(np.atleast_2d(x))
        total = h.sum(axis=1, keepdims=True)
        return (total - h).min(axis=1)

    return part1, part2
