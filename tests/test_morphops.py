"""Morphology ops against brute-force sup/inf-convolution oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import oracle_sup_conv, oracle_sup_conv_grads

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
    def test_pos_neg_split(self):
        rng = ad.make_rng(30)
        f = rng.normal(size=(4, 4))
        pos, neg = mo.pos_neg_split(Tensor(f))
        assert (pos.data >= 0).all() and (neg.data >= 0).all()
        npt.assert_array_equal(pos.data - neg.data, f)

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
