"""Morphology ops against brute-force sup/inf-convolution oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import (chain_act_pool, chain_posneg_pool_param,
                      chain_selfdual_pool, channel_major, oracle_sup_conv,
                      oracle_sup_conv_grads)

from morphnn import autodiff as ad
from morphnn import morphops as mo
from morphnn.autodiff import Tensor
from morphnn.morphops import PoolSpec, StructuringFunction


def oracle_erode(f, offsets, w):
    """out(x) = min_y f(x + y) - w(y), OOB skipped."""
    out = np.empty(f.shape)
    for x in np.ndindex(*f.shape):
        best = np.inf
        for o, y in enumerate(offsets):
            src = tuple(xi + yi for xi, yi in zip(x, y))
            if all(0 <= s < n for s, n in zip(src, f.shape)):
                best = min(best, f[src] - w[o])
        out[x] = best
    return out


def random_sf(rng, rank, k=3, weighted=True):
    span = [-2, -1, 0, 1, 2]
    pool = [tuple(p) for p in np.stack(np.meshgrid(*[span] * rank),
                                       axis=-1).reshape(-1, rank)]
    picks = rng.choice(len(pool), size=k, replace=False)
    offs = [pool[i] for i in picks]
    w = rng.normal(size=k) if weighted else np.zeros(k)
    return StructuringFunction(offs, weights=w)


class TestStructuringFunction:
    def test_pool_window_row_major(self):
        sf = StructuringFunction.pool_window((2, 2))
        assert sf.offsets == ((0, 0), (0, -1), (-1, 0), (-1, -1))

    def test_transpose_shares_weights(self):
        sf = StructuringFunction([(0, 1), (1, -1)], weights=[1.0, 2.0],
                                 learnable=True)
        t = sf.transpose()
        assert t.offsets == ((0, -1), (-1, 1))
        assert t.weights is sf.weights

    def test_validation(self):
        with pytest.raises(ValueError):
            StructuringFunction([])
        with pytest.raises(ValueError):
            StructuringFunction([(0,), (0,)])
        with pytest.raises(ValueError):
            StructuringFunction([(0, 0), (1,)])
        with pytest.raises(ValueError):
            StructuringFunction([(0,)], weights=[1.0, 2.0])


class TestPoolSpec:
    def test_out_extent(self):
        assert PoolSpec((2,), (2,)).out_extent((28,)) == (14,)
        assert PoolSpec((2, 2), (2, 2)).out_extent((26, 26)) == (13, 13)
        assert PoolSpec((3,), (2,)).out_extent((7,)) == (3,)
        assert PoolSpec((2,), (1,)).out_extent((5,)) == (4,)

    def test_errors(self):
        with pytest.raises(ValueError):
            PoolSpec((2,), (2,)).out_extent((1,))
        with pytest.raises(ValueError):
            PoolSpec((0,), (1,))
        with pytest.raises(ValueError):
            PoolSpec((2, 2), (2,))


class TestDilateErode:
    def test_dilate_matches_oracle(self):
        rng = ad.make_rng(21)
        for _ in range(15):
            rank = int(rng.integers(1, 3))
            shape = tuple(int(rng.integers(4, 9)) for _ in range(rank))
            f = rng.normal(size=shape)
            sf = random_sf(rng, rank)
            got = mo.dilate(Tensor(f), sf).data
            want = oracle_sup_conv(f, sf.offsets, sf.weights.data,
                                   (1,) * rank, shape)
            npt.assert_allclose(got, want)

    def test_erode_matches_oracle(self):
        rng = ad.make_rng(22)
        for _ in range(15):
            rank = int(rng.integers(1, 3))
            shape = tuple(int(rng.integers(4, 9)) for _ in range(rank))
            f = rng.normal(size=shape)
            sf = random_sf(rng, rank)
            got = mo.erode(Tensor(f), sf).data
            npt.assert_allclose(got, oracle_erode(f, sf.offsets, sf.weights.data))

    def test_adjunction(self):
        # dilate(f, g) <= h everywhere iff f <= erode(h, g) everywhere
        rng = ad.make_rng(23)
        hits = 0
        for _ in range(40):
            f = rng.normal(size=7)
            h = rng.normal(size=7) + rng.normal() * 2.0
            sf = random_sf(rng, 1)
            left = bool(np.all(mo.dilate(Tensor(f), sf).data <= h))
            right = bool(np.all(f <= mo.erode(Tensor(h), sf).data))
            assert left == right
            hits += left
        assert 0 < hits < 40  # both sides of the equivalence were exercised

    def test_batched_matches_per_signal(self):
        rng = ad.make_rng(24)
        f = rng.normal(size=(3, 2, 6))
        sf = random_sf(rng, 1)
        whole = mo.dilate(Tensor(f), sf).data
        for b in range(3):
            for c in range(2):
                npt.assert_array_equal(
                    whole[b, c], mo.dilate(Tensor(f[b, c]), sf).data)

    def test_tie_routes_to_first_offset(self):
        f = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        sf = StructuringFunction([(0,), (-1,)])
        mo.dilate(f, sf).sum().backward()
        npt.assert_array_equal(f.grad, np.array([1.0, 1.0]))

    def test_fully_overhung_window_is_bottom(self):
        # offset (2,) never lands for x in {0, 1}: sup over nothing = -inf
        f = Tensor(np.array([3.0, 7.0, 1.0]), requires_grad=True)
        out = mo.dilate(f, StructuringFunction([(2,)]))
        npt.assert_array_equal(out.data, np.array([-np.inf, -np.inf, 3.0]))
        ad.mul(ad.maximum(out, -1e9), 1.0).sum().backward()
        npt.assert_array_equal(f.grad, np.array([1.0, 0.0, 0.0]))

    def test_no_live_cell_gradient_is_float64(self):
        # no window reaches the input, so no cell routes anything back
        f = Tensor(np.arange(3.0), requires_grad=True)
        mo.dilate(f, StructuringFunction([(5,)], weights=[0.5])).sum().backward()
        assert f.grad.dtype == np.float64
        npt.assert_array_equal(f.grad, np.zeros(3))


class TestPools:
    def test_max_pool_matches_oracle(self):
        rng = ad.make_rng(25)
        cases = [((9,), (2,), (2,)), ((9,), (3,), (2,)), ((7,), (2,), (1,)),
                 ((8, 6), (2, 2), (2, 2)), ((9, 9), (3, 3), (2, 2)),
                 ((6, 7), (2, 3), (1, 2))]
        for shape, ext, stride in cases:
            f = rng.normal(size=shape)
            pool = PoolSpec(ext, stride)
            got = mo.max_pool(Tensor(f), pool).data
            offs = StructuringFunction.pool_window(ext).offsets
            want = oracle_sup_conv(f, offs, np.zeros(len(offs)), stride,
                                   pool.out_extent(shape))
            npt.assert_array_equal(got, want)

    def test_min_pool_is_dual(self):
        rng = ad.make_rng(26)
        f = rng.normal(size=(5, 8, 8))
        pool = PoolSpec((2, 2), (2, 2))
        npt.assert_array_equal(mo.min_pool(Tensor(f), pool).data,
                               -mo.max_pool(Tensor(-f), pool).data)

    def test_act_pool(self):
        rng = ad.make_rng(27)
        f = rng.normal(size=(10,))
        pool = PoolSpec((2,), (2,))
        alpha = 0.3
        got = mo.act_pool(Tensor(f), pool, alpha).data
        offs = StructuringFunction.pool_window((2,)).offsets
        want = oracle_sup_conv(np.maximum(0.0, f + alpha), offs,
                               np.zeros(2), (2,), (5,))
        npt.assert_array_equal(got, want)

    def test_dilate_pool_matches_oracle(self):
        rng = ad.make_rng(28)
        for _ in range(10):
            f = rng.normal(size=(9, 9))
            sf = random_sf(rng, 2)
            pool = PoolSpec((3, 3), (2, 2))
            got = mo.dilate_pool(Tensor(f), sf, pool).data
            want = oracle_sup_conv(f, sf.offsets, sf.weights.data, (2, 2),
                                   pool.out_extent((9, 9)))
            npt.assert_allclose(got, want)

    def test_offset_index_past_int16(self):
        # 40,000 offsets: the winning offset index outgrows int16
        rng = ad.make_rng(36)
        f = rng.normal(size=(201, 200))
        sf = StructuringFunction.pool_window((200, 200), learnable=True)
        sf.weights.data[:] = rng.normal(size=40000) * 0.1
        sf.weights.data[-1] = 10.0  # the last offset wins everywhere
        pool = PoolSpec((200, 200), (1, 1))
        out = mo.dilate_pool(Tensor(f), sf, pool)
        want = oracle_sup_conv(f, sf.offsets, sf.weights.data, (1, 1), (2, 1))
        npt.assert_array_equal(out.data, want)
        out.sum().backward()
        expect = np.zeros(40000)
        expect[-1] = 2.0
        npt.assert_array_equal(sf.weights.grad, expect)


class TestExactRouting:
    """Overlapping windows with exact ties: integer-valued inputs, weights
    and upstream gradients, so every gradient sum is exact."""

    def _check(self, op, f, sf, stride, rng):
        ft = Tensor(f, requires_grad=True)
        out = op(ft)
        g = rng.integers(-4, 5, size=out.shape).astype(np.float64)
        ad.make_node(np.zeros(()), [(out, lambda _: g)]).backward()
        df, dw = oracle_sup_conv_grads(f, sf.offsets, sf.weights.data,
                                       stride, g)
        npt.assert_array_equal(ft.grad, df)
        npt.assert_array_equal(sf.weights.grad, dw)
        return out.data

    def test_dilate_pool_3x3_stride_2(self):
        rng = ad.make_rng(37)
        pool = PoolSpec((3, 3), (2, 2))
        window = StructuringFunction.pool_window(pool.extent)
        sf = StructuringFunction(window.offsets,
                                 weights=rng.integers(-1, 2, size=9),
                                 learnable=True)
        f = rng.integers(-2, 3, size=(2, 9, 9)).astype(np.float64)
        self._check(lambda t: mo.dilate_pool(t, sf, pool), f, sf, (2, 2),
                    rng)

    def test_dilate_with_windows_outside_input(self):
        # every offset has y0 >= 3, so rows 0..2 read nothing: -inf there
        rng = ad.make_rng(38)
        sf = StructuringFunction([(3, 0), (4, 1), (3, -1), (5, 0), (4, -2)],
                                 weights=rng.integers(-1, 2, size=5),
                                 learnable=True)
        f = rng.integers(-2, 3, size=(2, 8, 7)).astype(np.float64)
        out = self._check(lambda t: mo.dilate(t, sf), f, sf, (1, 1), rng)
        assert np.isneginf(out[:, :3]).all()
        assert np.isfinite(out[:, 3:]).all()


def _tied(rng, shape, cap=None, layout="batch-major"):
    """Integer-valued input that ties at 0 and at ``cap``, a quarter of it
    -0.0, in the given memory layout."""
    top = 3 if cap is None else int(cap) + 1
    f = rng.integers(-2, top + 1, size=shape).astype(np.float64)
    f[rng.random(shape) < 0.25] = -0.0
    return channel_major(f) if layout == "channel-major" else f


def _output_and_grads(op, arrays, g):
    """``op(*tensors)`` over leaves holding ``arrays``, backpropagated from
    the output gradient ``g``: [output, gradient of each leaf]."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*leaves)
    ad.make_node(np.zeros(()), [(out, lambda _: g)]).backward()
    return [out.data] + [t.grad for t in leaves]


def _assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert (np.ascontiguousarray(a).tobytes()
                == np.ascontiguousarray(b).tobytes())


POOLS = [PoolSpec((2, 2), (2, 2)), PoolSpec((3, 3), (2, 2))]


def _sup_conv_values(f, offsets, w, stride, out_extent):
    """``oracle_sup_conv`` over each index of f's leading axes."""
    rank = len(offsets[0])
    out = np.empty(f.shape[:-rank] + tuple(out_extent))
    for lead in np.ndindex(f.shape[:-rank]):
        out[lead] = oracle_sup_conv(f[lead], offsets, w, stride, out_extent)
    return out


class TestSingleBlockDifferential:
    """Seeded differential for the ops over ``_sup_conv``, each on one
    block at the default block size and on several with tiny blocks:
    ``max_pool``, ``dilate_pool``, ``dilate`` and ``erode`` against the loop
    oracles, which never call ``_sup_max``.  Random normal data, in half
    the cases with about a quarter of it -inf, +inf or NaN (so whole
    windows of -inf, ties at +inf and NaN cells occur), random shapes with
    1 or 2 spatial axes and up to two leading axes, extents, strides,
    offsets and weights, C-contiguous or a channel-major view; values and
    the f and weight gradients are compared byte for byte (both sums add
    in cell order)."""

    CASES = 200

    @staticmethod
    def _draw(rng):
        rank = int(rng.integers(1, 3))
        lead = tuple(int(k) for k in rng.integers(1, 4,
                                                  int(rng.integers(0, 3))))
        extent = tuple(int(k) for k in rng.integers(1, 4, rank))
        stride = tuple(int(k) for k in rng.integers(1, 4, rank))
        n = tuple(r + int(k) for r, k in zip(extent, rng.integers(0, 5, rank)))
        f = rng.normal(size=lead + n)
        if rng.random() < 0.5:
            u = rng.random(f.shape)
            f[u < 0.25] = np.nan
            f[u < 0.2] = np.inf
            f[u < 0.15] = -np.inf
        by_channel = f.ndim >= 2 and rng.random() < 0.5
        return (channel_major(f) if by_channel else f,
                PoolSpec(extent, stride), by_channel)

    def _compare(self, op, f, offsets, w, stride, out_extent, rng):
        """``op(f, weights)`` against the oracle of max_y f(K*x - y) + w(y),
        from an upstream gradient ``g`` drawn for the output; ``w`` None
        stands for a flat window and ``op`` then takes f alone."""
        rank = len(offsets[0])
        g = rng.normal(size=f.shape[:-rank] + tuple(out_extent))
        flat = w is None
        w = np.zeros(len(offsets)) if flat else w
        want = [_sup_conv_values(f, offsets, w, stride, out_extent),
                *oracle_sup_conv_grads(f, offsets, w, stride, g)]
        got = _output_and_grads(op, [f] if flat else [f, w], g)
        _assert_same_bytes(got, want[:2] if flat else want)

    def test_against_loop_oracles(self):
        rng = ad.make_rng(46)
        layouts = set()
        for _ in range(self.CASES):
            f, pool, by_channel = self._draw(rng)
            layouts.add(by_channel)
            n = f.shape[-pool.rank:]
            window = StructuringFunction.pool_window(pool.extent).offsets
            self._compare(lambda t: mo.max_pool(t, pool), f, window, None,
                          pool.stride, pool.out_extent(n), rng)
            # dilate_pool: random offsets and weights at the pool's stride
            sf = random_sf(rng, pool.rank, k=int(rng.integers(1, 5)))
            self._compare(
                lambda t, w: mo.dilate_pool(
                    t, StructuringFunction(sf.offsets, weights=w), pool),
                f, sf.offsets, sf.weights.data, pool.stride,
                pool.out_extent(n), rng)
            # dilate: stride 1, same extent; windows may lie wholly outside
            ones = (1,) * pool.rank
            self._compare(
                lambda t, w: mo.dilate(
                    t, StructuringFunction(sf.offsets, weights=w)),
                f, sf.offsets, sf.weights.data, ones, n, rng)
            # erode(f, w) = -dilate(-f, transposed w): the oracle's values
            # and gradients of -f under -g, negated
            g = rng.normal(size=f.shape)
            offs_t = sf.transpose().offsets
            w = sf.weights.data
            want = [-_sup_conv_values(-f, offs_t, w, ones, n)]
            dh, dw = oracle_sup_conv_grads(-f, offs_t, w, ones, -g)
            got = _output_and_grads(
                lambda t, wt: mo.erode(
                    t, StructuringFunction(sf.offsets, weights=wt)),
                [f, w], g)
            _assert_same_bytes(got, want + [-dh, dw])
        assert layouts == {False, True}

    def test_against_loop_oracles_over_blocks(self, monkeypatch):
        # 16-byte blocks: a frame of several channels runs as one-channel
        # blocks
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 16)
        self.test_against_loop_oracles()


def test_blocks_are_runs_of_whole_channels():
    # frames as read-only broadcasts, which hold no memory: the protocol's
    # frames under grad, stage 1 ([128, 256, 26, 26]: a 1.38 MB channel)
    # and stage 2 ([128, 256, 11, 11]), each also as a Feed group's
    # channels from 40 on, and small channels
    def frame(*shape):
        return np.broadcast_to(np.float64(0), shape)

    runs = {(128, 256, 26, 26): 1, (128, 256, 11, 11): 4, (7, 3, 4, 4): 7}
    for shape, run in runs.items():
        xf = frame(*shape)
        for start in (0, 40):
            blocks = mo._blocks(xf, 2, start)
            assert all(isinstance(b, slice) and b.step is None
                       for b in blocks)
            assert [b.start for b in blocks] == [
                start] + [b.stop for b in blocks[:-1]]
            assert blocks[-1].stop == start + len(xf)
            sizes = [b.stop - b.start for b in blocks]
            assert all(k == 1 or k * xf[0].nbytes <= mo._BLOCK_BYTES
                       for k in sizes)
            assert sizes[:-1] == [run] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= run
    assert len(mo._blocks(frame(128, 256, 26, 26), 2)) == 128
    # no leading axis, or no channels: one block of every cell
    for xf in (frame(6, 6), frame(0, 3, 6, 6)):
        blocks = mo._blocks(xf, 2)
        assert len(blocks) == 1 and xf[blocks[0]].shape == xf.shape


class TestActPool:
    """The fused rectifier-pool node against the chain it replaced, byte
    for byte: integer-valued inputs tie at 0 and at the cap, so the tie
    rules decide many cells, and -0.0 checks the sign of every zero."""

    @pytest.mark.parametrize("layout", ["batch-major", "channel-major"])
    @pytest.mark.parametrize("cap", [None, 6.0, 1.0, 0.0])
    @pytest.mark.parametrize("pool", POOLS, ids=["2x2s2", "3x3s2"])
    def test_byte_equal_to_chain(self, pool, cap, layout):
        rng = ad.make_rng(40)
        f = _tied(rng, (3, 4, 9, 9), cap, layout)
        g = rng.integers(-3, 4, size=(3, 4, 4, 4)).astype(np.float64)
        got = _output_and_grads(lambda t: mo.act_pool(t, pool, cap=cap),
                                [f], g)
        want = _output_and_grads(lambda t: chain_act_pool(t, pool, cap=cap),
                                 [f], g)
        _assert_same_bytes(got, want)
        # the output and the input gradient are channel-major
        assert got[0].swapaxes(0, 1).flags.c_contiguous
        assert got[1].swapaxes(0, 1).flags.c_contiguous

    def test_pooling_then_rectifying_naively_misroutes_ties(self):
        # relu(max_pool(f)) has the same values, but a cell whose max is 0
        # routes to its first zero, not to its first offset
        rng = ad.make_rng(40)
        pool = POOLS[0]
        f = _tied(rng, (3, 4, 9, 9))
        g = rng.integers(-3, 4, size=(3, 4, 4, 4)).astype(np.float64)
        naive = _output_and_grads(lambda t: mo.relu(mo.max_pool(t, pool)),
                                  [f], g)
        want = _output_and_grads(lambda t: chain_act_pool(t, pool), [f], g)
        npt.assert_array_equal(naive[0], want[0])
        assert not np.array_equal(naive[1], want[1])

    @pytest.mark.parametrize("shape,pool", [
        ((10,), PoolSpec((3,), (2,))), ((4, 9, 9), PoolSpec((3, 3), (2, 2)))])
    def test_trainable_threshold_byte_equal_to_chain(self, shape, pool):
        rng = ad.make_rng(41)
        f = _tied(rng, shape, 6.0)
        out_shape = shape[:-pool.rank] + pool.out_extent(shape[-pool.rank:])
        g = rng.integers(-3, 4, size=out_shape).astype(np.float64)
        alpha = np.asarray(-1.0)
        got = _output_and_grads(
            lambda t, a: mo.act_pool(t, pool, a, cap=6.0), [f, alpha], g)
        want = _output_and_grads(
            lambda t, a: chain_act_pool(t, pool, a, cap=6.0), [f, alpha], g)
        _assert_same_bytes(got, want)

    @pytest.mark.parametrize("seed", range(20))
    def test_trainable_threshold_on_batch_and_channel_input(self, seed):
        # act_pool's input gradient is the chain's to the bit, but in the
        # channel-first frame, so alpha's gradient sums it in another order
        # than over the chain's batch-major one: equal in value, not always
        # in the last bits
        rng = ad.make_rng(seed)
        pool = POOLS[seed % 2]
        f = rng.normal(size=(8, 6, 10, 10))
        g = rng.normal(size=(8, 6) + pool.out_extent((10, 10)))
        alpha = np.asarray(rng.normal(scale=0.5))
        got = _output_and_grads(
            lambda t, a: mo.act_pool(t, pool, a, cap=6.0), [f, alpha], g)
        want = _output_and_grads(
            lambda t, a: chain_act_pool(t, pool, a, cap=6.0), [f, alpha], g)
        _assert_same_bytes(got[:2], want[:2])
        npt.assert_allclose(got[2], want[2], rtol=1e-12)

    @pytest.mark.parametrize("f,pool,cap,out,grad", [
        # the window [3, nan] takes nothing, nor closes 3, the winner of
        # [1, 3]
        ([[[[1.0, 3.0, np.nan]]]], PoolSpec((1, 2), (1, 1)), None,
         [3.0, np.nan], [0.0, 1.0, 0.0]),
        ([[[[1.0, 3.0, np.nan]]]], PoolSpec((1, 2), (1, 1)), 6.0,
         [3.0, np.nan], [0.0, 1.0, 0.0]),
        # no live cell at all
        ([[1.0, np.nan], [0.0, -1.0]], POOLS[0], None, [np.nan],
         [0.0] * 4)])
    def test_nan_cell_takes_no_gradient(self, f, pool, cap, out, grad):
        f = np.array(f)
        g = np.ones(f.shape[:-2] + pool.out_extent(f.shape[-2:]))
        got = _output_and_grads(lambda t: mo.act_pool(t, pool, cap=cap), [f],
                                g)
        npt.assert_array_equal(got[0].ravel(), out)
        assert got[1].dtype == np.float64
        npt.assert_array_equal(got[1].ravel(), grad)

    @pytest.mark.parametrize("cap", [1.0, 6.0])
    @pytest.mark.parametrize("pool", POOLS, ids=["2x2s2", "3x3s2"])
    def test_capped_chain_agrees_on_nan_and_inf(self, pool, cap):
        # seeded differential: NaN, +-inf and -0.0 among tied integers; the
        # chain's clamp keeps a NaN, so it agrees with act_pool byte for byte
        rng = ad.make_rng(44)
        special = np.array([np.nan, np.inf, -np.inf, -0.0])
        for _ in range(300):
            f = rng.integers(-2, int(cap) + 2, size=(2, 2, 5, 5)).astype(
                np.float64)
            hit = rng.random(f.shape) < rng.choice([0.05, 0.2])
            f[hit] = rng.choice(special, size=int(hit.sum()))
            out_shape = (2, 2) + pool.out_extent((5, 5))
            g = rng.integers(-3, 4, size=out_shape).astype(np.float64)
            got = _output_and_grads(lambda t: mo.act_pool(t, pool, cap=cap),
                                    [f], g)
            want = _output_and_grads(
                lambda t: chain_act_pool(t, pool, cap=cap), [f], g)
            _assert_same_bytes(got, want)

    @pytest.mark.parametrize("block_bytes", [200, 600, 2000,
                                             mo._BLOCK_BYTES])
    def test_seeded_differential_over_blocks(self, monkeypatch, block_bytes):
        # random sizes, windows, strides and caps, both layouts, integers
        # among NaN, +-inf, +-0.0, 1 and 6; small blocks cut the
        # channel-first frame into runs of channels or one-channel blocks
        monkeypatch.setattr(mo, "_BLOCK_BYTES", block_bytes)
        rng = ad.make_rng(45)
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 6.0])
        several = 0
        for _ in range(100):
            b, c, h, w = (int(k) for k in rng.integers([1, 1, 3, 3],
                                                       [5, 5, 9, 9]))
            pool = PoolSpec(*(tuple(int(k) for k in rng.integers(1, 4, 2))
                              for _ in range(2)))
            cap = [None, 1.0, 6.0][int(rng.integers(3))]
            f = rng.integers(-3, 8, size=(b, c, h, w)).astype(np.float64)
            hit = rng.random(f.shape) < 0.15
            f[hit] = rng.choice(special, size=int(hit.sum()))
            if rng.random() < 0.5:
                f = channel_major(f)
            out_shape = (b, c) + pool.out_extent((h, w))
            g = rng.integers(-3, 4, size=out_shape).astype(np.float64)
            got = _output_and_grads(lambda t: mo.act_pool(t, pool, cap=cap),
                                    [f], g)
            want = _output_and_grads(
                lambda t: chain_act_pool(t, pool, cap=cap), [f], g)
            _assert_same_bytes(got, want)
            several += len(mo._blocks(f.swapaxes(0, 1), pool.rank)) > 1
        assert (several > 0) == (block_bytes <= 2000)

    @pytest.mark.parametrize("cap", [-1.0, np.nan])
    def test_cap_below_zero_rejected(self, cap):
        with pytest.raises(ValueError, match="cap"):
            mo.act_pool(Tensor(np.zeros((2, 2))), POOLS[0], cap=cap)

    def test_constant_zero_threshold_adds_no_node(self):
        t = Tensor(np.zeros((2, 3, 4, 4)), requires_grad=True)
        out = mo.act_pool(t, POOLS[0])
        assert [p for p, _ in out._parents] == [t._node]

    @pytest.mark.parametrize("block_bytes", [600, mo._BLOCK_BYTES])
    @pytest.mark.parametrize("layout", ["batch-major", "channel-major"])
    @pytest.mark.parametrize("cap", [None, 6.0])
    def test_no_grad_values(self, monkeypatch, cap, layout, block_bytes):
        # seeded differential: under no_grad act_pool pools the raw input
        # and clamps the pooled cells, the chain clamps every input and
        # pools; the bytes agree, the sign of every zero included
        monkeypatch.setattr(mo, "_BLOCK_BYTES", block_bytes)
        rng = ad.make_rng(42)
        values = np.array([0.0, -0.0, 1.0, -1.0, 6.0, 7.0, np.nan, np.inf,
                           -np.inf])
        for _ in range(300):
            pool = POOLS[int(rng.integers(len(POOLS)))]
            f = rng.choice(values, size=(2, 3, 7, 7))
            if layout == "channel-major":
                f = channel_major(f)
            with ad.no_grad():
                got = mo.act_pool(Tensor(f), pool, cap=cap)
                want = chain_act_pool(Tensor(f), pool, cap=cap)
            assert not got._parents
            _assert_same_bytes([got.data], [want.data])

    @pytest.mark.parametrize("layout", ["batch-major", "channel-major"])
    def test_selfdual_and_posneg_byte_equal_to_chains(self, layout):
        rng = ad.make_rng(43)
        pool = POOLS[0]
        f = _tied(rng, (3, 4, 8, 8), layout=layout)
        g = rng.integers(-3, 4, size=(3, 4, 4, 4)).astype(np.float64)
        got = _output_and_grads(lambda t: mo.selfdual_pool(t, pool), [f], g)
        want = _output_and_grads(lambda t: chain_selfdual_pool(t, pool),
                                 [f], g)
        _assert_same_bytes(got, want)
        slopes = [f, np.asarray(0.75), np.asarray(1.25)]
        got = _output_and_grads(
            lambda t, bp, bn: mo.posneg_pool_param(t, pool, bp, bn), slopes,
            g)
        want = _output_and_grads(
            lambda t, bp, bn: chain_posneg_pool_param(t, pool, bp, bn),
            slopes, g)
        _assert_same_bytes(got, want)


class TestTwoSlope:
    def test_relu_and_leaky_configs(self):
        rng = ad.make_rng(29)
        f = rng.normal(size=(20,)) * 3
        npt.assert_array_equal(mo.prelu2(Tensor(f), 1.0, 0.0).data,
                               np.maximum(f, 0.0))
        npt.assert_allclose(mo.prelu2(Tensor(f), 1.0, 0.01).data,
                            np.where(f >= 0, f, 0.01 * f))

    def test_slope_order_enforced(self):
        with pytest.raises(ValueError):
            mo.prelu2(Tensor(np.zeros(3)), 0.5, 1.0)

    def test_slope_gradients(self):
        f = np.array([2.0, -3.0, 1.5, -0.5])
        bp = Tensor(1.2, requires_grad=True)
        bn = Tensor(0.1, requires_grad=True)
        mo.prelu2(Tensor(f), bp, bn).sum().backward()
        # beta_pos collects positive inputs, beta_neg the negatives
        npt.assert_allclose(bp.grad, np.array(3.5))
        npt.assert_allclose(bn.grad, np.array(-3.5))


class TestSelfDualAndParametric:
    def test_selfdual_two_forms_bit_exact(self):
        rng = ad.make_rng(31)
        pool = PoolSpec((2, 2), (2, 2))
        for _ in range(10):
            f = rng.normal(size=(6, 6))
            a = mo.selfdual_pool(Tensor(f), pool).data
            b = (mo.max_pool(mo.relu(Tensor(f)), pool).data
                 + mo.min_pool(ad.minimum(Tensor(f), 0.0), pool).data)
            npt.assert_array_equal(a, b)

    def test_self_duality(self):
        rng = ad.make_rng(32)
        pool = PoolSpec((2,), (2,))
        for _ in range(20):
            f = rng.normal(size=(12,))
            npt.assert_array_equal(mo.selfdual_pool(Tensor(-f), pool).data,
                                   -mo.selfdual_pool(Tensor(f), pool).data)

    def test_parametric_reduces_to_selfdual(self):
        rng = ad.make_rng(33)
        pool = PoolSpec((2, 2), (2, 2))
        f = rng.normal(size=(8, 8))
        npt.assert_array_equal(
            mo.posneg_pool_param(Tensor(f), pool, 1.0, 1.0).data,
            mo.selfdual_pool(Tensor(f), pool).data)

    def test_parametric_breaks_self_duality_witness(self):
        # frozen witness: f = [1, -2], window 2 stride 1, beta_pos=1, beta_neg=0
        pool = PoolSpec((2,), (1,))
        f = np.array([1.0, -2.0])
        fwd = mo.posneg_pool_param(Tensor(f), pool, 1.0, 0.0).data
        neg = mo.posneg_pool_param(Tensor(-f), pool, 1.0, 0.0).data
        npt.assert_array_equal(fwd, np.array([-2.0]))
        npt.assert_array_equal(neg, np.array([-1.0]))
        assert not np.array_equal(neg, -fwd)


class TestGradients:
    """Analytic vs central differences, inputs constructed tie-free."""

    def _spaced(self, rng, shape, step=0.61):
        # distinct values with gaps >> fd step, so no kink is within reach
        n = int(np.prod(shape))
        return (rng.permutation(n) * step - n * step / 2).reshape(shape)

    def test_dilate_grads(self):
        rng = ad.make_rng(34)
        f = self._spaced(rng, (7,))
        w = np.array([0.05, -0.13, 0.21])
        sf = StructuringFunction([(0,), (-1,), (1,)], weights=w, learnable=True)
        proj = rng.normal(size=(7,))

        ft = Tensor(f, requires_grad=True)
        ad.mul(mo.dilate(ft, sf), Tensor(proj)).sum().backward()
        fd_f = ad.finite_difference_grad(
            lambda t: ad.mul(mo.dilate(
                t, StructuringFunction(sf.offsets, weights=w)),
                Tensor(proj)).sum(), Tensor(f))
        npt.assert_allclose(ft.grad, fd_f, atol=1e-8)

        fd_w = ad.finite_difference_grad(
            lambda t: ad.mul(mo.dilate(
                Tensor(f), StructuringFunction(sf.offsets, weights=t)),
                Tensor(proj)).sum(), Tensor(w))
        npt.assert_allclose(sf.weights.grad, fd_w, atol=1e-8)

    def test_pool_grads(self):
        rng = ad.make_rng(35)
        f = self._spaced(rng, (2, 8, 8))
        pool = PoolSpec((2, 2), (2, 2))
        proj = rng.normal(size=(2, 4, 4))
        for op in (mo.max_pool, mo.min_pool):
            ft = Tensor(f, requires_grad=True)
            ad.mul(op(ft, pool), Tensor(proj)).sum().backward()
            fd = ad.finite_difference_grad(
                lambda t: ad.mul(op(t, pool), Tensor(proj)).sum(), Tensor(f))
            npt.assert_allclose(ft.grad, fd, atol=1e-8)

    def test_erode_grads(self):
        rng = ad.make_rng(36)
        f = self._spaced(rng, (6,))
        w = np.array([0.4, -0.2])
        sf = StructuringFunction([(0,), (1,)], weights=w, learnable=True)
        proj = rng.normal(size=(6,))
        ft = Tensor(f, requires_grad=True)
        ad.mul(mo.erode(ft, sf), Tensor(proj)).sum().backward()
        fd = ad.finite_difference_grad(
            lambda t: ad.mul(mo.erode(
                t, StructuringFunction(sf.offsets, weights=w)),
                Tensor(proj)).sum(), Tensor(f))
        npt.assert_allclose(ft.grad, fd, atol=1e-8)
        fd_w = ad.finite_difference_grad(
            lambda t: ad.mul(mo.erode(
                Tensor(f), StructuringFunction(sf.offsets, weights=t)),
                Tensor(proj)).sum(), Tensor(w))
        npt.assert_allclose(sf.weights.grad, fd_w, atol=1e-8)
