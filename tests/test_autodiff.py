"""Tests for the reverse-mode engine: values, gradients, graph mechanics."""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import oracle_backward, oracle_probe_losses

from morphnn import autodiff as ad
from morphnn import train as tr
from morphnn.autodiff import Tensor


class TestTensorBasics:
    def test_float64_everywhere(self):
        t = Tensor(np.arange(4, dtype=np.int32))
        assert t.data.dtype == np.float64
        out = ad.add(t, 1)
        assert out.data.dtype == np.float64

    def test_values_match_numpy(self):
        rng = ad.make_rng(0)
        for _ in range(20):
            a = rng.normal(size=(3, 5))
            b = rng.normal(size=(3, 5))
            npt.assert_array_equal(ad.add(Tensor(a), Tensor(b)).data, a + b)
            npt.assert_array_equal(ad.sub(Tensor(a), Tensor(b)).data, a - b)
            npt.assert_array_equal(ad.mul(Tensor(a), Tensor(b)).data, a * b)
            npt.assert_array_equal(ad.maximum(Tensor(a), Tensor(b)).data,
                                   np.maximum(a, b))
            npt.assert_array_equal(ad.minimum(Tensor(a), Tensor(b)).data,
                                   np.minimum(a, b))

    def test_scalar_broadcast_only(self):
        a = Tensor(np.zeros((2, 3)))
        assert ad.add(a, 5.0).data.shape == (2, 3)
        assert ad.mul(a, Tensor(2.0)).data.shape == (2, 3)
        with pytest.raises(ValueError):
            ad.add(a, Tensor(np.zeros((3,))))  # row broadcast is not allowed

    def test_backward_needs_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(t, 1).backward()


class TestBackward:
    def test_fanout_accumulates(self):
        a = Tensor(3.0, requires_grad=True)
        out = ad.add(a, a)
        out.backward()
        npt.assert_array_equal(a.grad, np.array(2.0))

    def test_chain(self):
        # d/dx sum((2x + 1) * x) = 4x + 1
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        inner = ad.add(ad.mul(x, 2.0), 1.0)
        y = ad.mul(inner, x)
        loss = y.sum()
        loss.backward()
        npt.assert_allclose(x.grad, 4.0 * x.data + 1.0)
        # only the leaf keeps its gradient; walked nodes keep their data
        assert inner.grad is None and y.grad is None and loss.grad is None
        assert inner._parents == () and y._parents == ()
        npt.assert_array_equal(y.data, (2.0 * x.data + 1.0) * x.data)

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.mul(x, 3.0)
        loss = y.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already walked"):
            loss.backward()
        # a new graph over a walked node raises too, instead of
        # treating it as a leaf and dropping x's share
        with pytest.raises(RuntimeError):
            ad.mul(y, 2.0).sum().backward()
        npt.assert_array_equal(x.grad, [3.0, 3.0])
        # a leaf may start any number of new graphs; its gradient adds up
        ad.mul(x, 2.0).sum().backward()
        npt.assert_array_equal(x.grad, [5.0, 5.0])

    def test_walked_node_frees_its_data_before_later_rules(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        freed = []

        def back_a(g):
            freed.append(b_data() is None)
            return 2.0 * g

        a = ad.make_node(2.0 * x.data, [(x, back_a)])
        b = ad.add(a, 1.0)
        b_data = weakref.ref(b.data)
        loss = b.sum()
        del a, b
        loss.backward()
        assert freed == [True]
        npt.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("channels", [1, 3])
    def test_conv2d_frees_tap_buffer_before_back_x(self, monkeypatch,
                                                   channels):
        # back_w copies each tap's window of x into one [C, B, OH, OW]
        # buffer, for one channel as for conv2's many; it is dead by the
        # time back_x runs
        taps = []

        class TrackingNumpy:  # train's numpy, recording each tap buffer
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, *args, **kwargs):
                out = np.empty(shape, *args, **kwargs)
                if tuple(shape) == (channels, 2, 4, 4):
                    taps.append(weakref.ref(out))
                return out

        monkeypatch.setattr(tr, "np", TrackingNumpy())
        rng = ad.make_rng(4)
        x = Tensor(rng.normal(size=(2, channels, 6, 6)),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(4, channels, 3, 3)), requires_grad=True)
        out = tr.conv2d(x, w, None)
        assert taps == []  # the forward pass makes none
        alive = []

        def watched(rule):
            def back(g):
                alive.append([t() is not None for t in taps])
                return rule(g)
            return back

        out._node.parents = tuple((p, watched(rule) if p is x._node else rule)
                                  for p, rule in out._parents)
        ad.mul(out, Tensor(rng.normal(size=out.shape))).sum().backward()
        assert len(taps) == 1 and alive == [[False]]
        assert x.grad is not None and w.grad is not None

    def test_accumulation_order_independent(self):
        # two graphs differing only in the order of a node's parent edges
        def build(swap):
            a = Tensor(2.0, requires_grad=True)
            b = Tensor(-3.0, requires_grad=True)
            prod = a.data * b.data
            edges = [(a, lambda g: g * b.data), (b, lambda g: g * a.data)]
            if swap:
                edges = edges[::-1]
            out = ad.make_node(prod, edges)
            out.backward()
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = build(False)
        ga2, gb2 = build(True)
        npt.assert_array_equal(ga1, ga2)
        npt.assert_array_equal(gb1, gb2)

    def test_max_tie_goes_to_first_arg(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        ad.maximum(a, b).sum().backward()
        npt.assert_array_equal(a.grad, np.array([1.0, 1.0]))
        npt.assert_array_equal(b.grad, np.array([0.0, 0.0]))
        a2 = Tensor(np.array([1.0]), requires_grad=True)
        b2 = Tensor(np.array([1.0]), requires_grad=True)
        ad.minimum(a2, b2).sum().backward()
        npt.assert_array_equal(a2.grad, np.array([1.0]))
        npt.assert_array_equal(b2.grad, np.array([0.0]))

    def test_nan_operand_wins_and_takes_the_gradient(self):
        # min(nan, 6) is nan, not 6, and its gradient goes to the NaN
        for op, other in ((ad.minimum, 6.0), (ad.maximum, 0.0)):
            a = Tensor(np.array([np.nan, 1.0, np.nan]), requires_grad=True)
            b = Tensor(np.array([other, np.nan, np.nan]), requires_grad=True)
            out = op(a, b)
            assert np.isnan(out.data).all()
            out.sum().backward()
            npt.assert_array_equal(a.grad, [1.0, 0.0, 1.0])
            npt.assert_array_equal(b.grad, [0.0, 1.0, 0.0])
            s = Tensor(np.array([np.nan, 7.0]), requires_grad=True)
            npt.assert_array_equal(op(s, other).data[:1], [np.nan])

    def test_no_grad_builds_no_graph(self):
        a = Tensor(1.0, requires_grad=True)
        with ad.no_grad():
            out = ad.mul(a, 3.0)
        assert out._parents == ()
        assert not out.requires_grad
        assert ad.is_grad_enabled()

    def test_deep_graph_iterative_topo(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = ad.add(y, 0.0)
        y.backward()
        npt.assert_array_equal(x.grad, np.array(1.0))


def _model_leaf_grads(variant: str, retain: bool) -> list[bytes]:
    """Leaf gradients of one seeded training step of a small model."""
    spec = tr.ModelSpec(variant=variant, filters=3, image_size=(10, 10))
    model = tr.build_model(spec, ad.make_rng(5))
    rng = ad.make_rng(6)
    x = Tensor(rng.random((4, 1, 10, 10)))
    loss = tr.cross_entropy(model.forward(x, train=True, rng=rng),
                            rng.integers(0, 10, 4))
    (oracle_backward if retain else Tensor.backward)(loss)
    return [p.grad.tobytes() for p in model.parameters()]


def _conv_leaf_grads(retain: bool) -> list[bytes]:
    rng = ad.make_rng(7)
    x, w, b = (Tensor(rng.normal(size=s), requires_grad=True)
               for s in ((2, 3, 6, 6), (4, 3, 3, 3), (4,)))
    out = tr.conv2d(x, w, b)
    loss = ad.mul(out, Tensor(rng.normal(size=out.shape))).sum()
    (oracle_backward if retain else Tensor.backward)(loss)
    return [t.grad.tobytes() for t in (x, w, b)]


class TestAgainstRetainingBackward:
    """The freeing walk gives the leaves the very bytes of the old loop."""

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_model_step(self, variant):
        assert (_model_leaf_grads(variant, retain=False)
                == _model_leaf_grads(variant, retain=True))

    def test_conv2d(self):
        assert _conv_leaf_grads(retain=False) == _conv_leaf_grads(retain=True)


class TestAgainstFiniteDifferences:
    def _check(self, fn, x, atol=1e-7, rtol=1e-6):
        t = Tensor(x, requires_grad=True)
        fn(t).backward()
        fd = ad.finite_difference_grad(fn, Tensor(x))
        npt.assert_allclose(t.grad, fd, atol=atol, rtol=rtol)

    def test_smooth_composite(self):
        rng = ad.make_rng(7)
        for _ in range(10):
            x = rng.normal(size=(4, 3))
            self._check(lambda t: ad.mul(ad.add(t, 2.0), t).mean(), x)

    def test_piecewise_away_from_ties(self):
        rng = ad.make_rng(8)
        for _ in range(10):
            x = rng.normal(size=(6,)) * 3.0
            # keep clear of the kinks at x = 0 and 2x = 1
            x[np.abs(x) < 1e-2] = 0.2
            x[np.abs(x - 0.5) < 1e-2] = 0.2
            self._check(lambda t: ad.maximum(t, 0.0).sum(), x)
            self._check(lambda t: ad.minimum(ad.mul(t, 2.0), 1.0).sum(), x)

    def test_structured_ops(self):
        rng = ad.make_rng(9)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        t = Tensor(a, requires_grad=True)
        u = Tensor(b, requires_grad=True)
        ad.matmul(t, u).sum().backward()
        fd_a = ad.finite_difference_grad(
            lambda z: ad.matmul(z, Tensor(b)).sum(), Tensor(a))
        fd_b = ad.finite_difference_grad(
            lambda z: ad.matmul(Tensor(a), z).sum(), Tensor(b))
        npt.assert_allclose(t.grad, fd_a, atol=1e-6)
        npt.assert_allclose(u.grad, fd_b, atol=1e-6)

        v = Tensor(rng.normal(size=(4,)), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ad.add_rowvec(x, v).sum().backward()
        npt.assert_allclose(v.grad, np.full(4, 3.0))

    def test_shape_ops(self):
        rng = ad.make_rng(10)
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x, requires_grad=True)
        ad.reshape(t, (6, 4)).mean().backward()
        npt.assert_allclose(t.grad, np.full_like(x, 1.0 / 24.0))


class TestProbeLosses:
    @staticmethod
    def _loss(x, w):
        # smooth and nonlinear, so each probe's loss differs in its last bits
        return float((np.sin(x) * w).sum())

    @pytest.mark.parametrize("shape", [(), (5,), (1, 2, 3, 3)])
    def test_stack_matches_per_coordinate_oracle(self, shape):
        rng = ad.make_rng(11)
        x, w = rng.normal(size=shape), rng.normal(size=shape)
        hi, lo = ad.probe_losses(
            lambda stack: [self._loss(row, w) for row in stack], x.copy(),
            1e-5)
        probe = x.copy()
        want_hi, want_lo = oracle_probe_losses(
            lambda: self._loss(probe, w), probe, 1e-5)
        assert hi.shape == lo.shape == shape
        assert hi.tobytes() == want_hi.tobytes()
        assert lo.tobytes() == want_lo.tobytes()
        npt.assert_array_equal(probe, x)

    def test_one_call_for_a_gradcheck_sized_leaf(self):
        # the largest gradcheck leaf: a (1, 2, 6, 6) pooling field
        x = ad.make_rng(12).normal(size=(1, 2, 6, 6))
        shapes = []

        def losses(stack):
            shapes.append(stack.shape)
            assert not ad.is_grad_enabled()
            return stack.reshape(len(stack), -1).sum(axis=1)

        ad.probe_losses(losses, x, 1e-5)
        assert shapes == [(144, 1, 2, 6, 6)]

    def test_large_leaf_never_builds_the_whole_stack(self):
        # 4,096 coordinates: the whole 2N x N stack would be 268 MB
        x = Tensor(ad.make_rng(13).normal(size=(64, 64)))
        whole = 2 * x.size * x.data.nbytes
        tracemalloc.start()
        try:
            fd = ad.finite_difference_grad(lambda t: ad.tsum(t), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole / 8
        npt.assert_allclose(fd, np.ones(x.shape), rtol=1e-6)


class TestRng:
    def test_same_seed_same_stream(self):
        a = ad.make_rng(123).normal(size=10)
        b = ad.make_rng(123).normal(size=10)
        npt.assert_array_equal(a, b)

    def test_stream_advances(self):
        rng = ad.make_rng(123)
        first = rng.permutation(8)
        second = rng.permutation(8)
        assert not np.array_equal(first, second)
