"""Max-min activations and the two morphological layers vs loop oracles."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import (channel_major, full_size_layer_node,
                      oracle_layer_grads, oracle_morpho1, oracle_morpho2,
                      oracle_pl, oracle_pl_grads)

from morphnn import activations as act
from morphnn import autodiff as ad
from morphnn import morphops as mo
from morphnn.activations import MorphoActivationParams, MorphoLayerParams
from morphnn.autodiff import Tensor
from morphnn.morphops import PoolSpec, StructuringFunction
from morphnn.representation import PLFunction, pl_eval


class TestClampInit:
    def test_rows_orientation_is_clamp(self):
        x = np.linspace(-12, 12, 241)
        for m, n in [(2, 3), (2, 2), (3, 4), (4, 4)]:
            b, a = act.clamp_init(m, n, "rows")
            npt.assert_array_equal(oracle_pl(x, b, a), np.clip(x, 0.0, 6.0))

    def test_cols_orientation_is_clamp(self):
        # cols matrices are consumed as min over columns of max over rows
        x = np.linspace(-12, 12, 241)
        for m, n in [(2, 2), (3, 3), (4, 2)]:
            b, a = act.clamp_init(m, n, "cols")
            npt.assert_array_equal(oracle_pl(x, b.T, a.T), np.clip(x, 0.0, 6.0))

    def test_known_points(self):
        # simplified four-piece form: value 6 at x=10, 0 at x=-3, 2 at x=2
        params = MorphoActivationParams.clamp(2, 3)
        got = act.pl_activation(Tensor(np.array([10.0, -3.0, 2.0])), params)
        npt.assert_array_equal(got.data, np.array([6.0, 0.0, 2.0]))

    def test_degenerate_sizes(self):
        x = np.linspace(-9, 9, 50)
        b, a = act.clamp_init(1, 2, "rows")
        npt.assert_array_equal(oracle_pl(x, b, a), np.maximum(x, 0.0))
        b, a = act.clamp_init(2, 1, "rows")
        npt.assert_array_equal(oracle_pl(x, b, a), np.minimum(x, 6.0))


class TestPlActivation:
    def test_matches_oracle(self):
        rng = ad.make_rng(40)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            params = MorphoActivationParams(
                Tensor(rng.normal(size=(m, n))), Tensor(rng.normal(size=(m, n))))
            x = rng.normal(size=(3, 7)) * 2
            got = act.pl_activation(Tensor(x), params).data
            npt.assert_allclose(got, oracle_pl(x, params.beta.data,
                                               params.alpha.data), atol=1e-12)

    def test_per_channel(self):
        rng = ad.make_rng(41)
        c, m, n = 3, 2, 2
        beta = rng.normal(size=(c, m, n))
        alpha = rng.normal(size=(c, m, n))
        params = MorphoActivationParams(Tensor(beta), Tensor(alpha))
        x = rng.normal(size=(4, c, 5))
        got = act.pl_activation(Tensor(x), params, channel_axis=1).data
        for ch in range(c):
            npt.assert_allclose(got[:, ch], oracle_pl(x[:, ch], beta[ch],
                                                      alpha[ch]), atol=1e-12)

    def test_identity_config(self):
        params = MorphoActivationParams(Tensor([[1.0]]), Tensor([[0.0]]))
        x = np.linspace(-5, 5, 31)
        npt.assert_array_equal(act.pl_activation(Tensor(x), params).data, x)

    def test_tie_routing(self):
        # both pieces equal at x=0: subgradient follows the lower i
        params = MorphoActivationParams(Tensor([[1.0, -1.0]]), Tensor([[0.0, 0.0]]))
        x = Tensor(np.array([0.0]), requires_grad=True)
        act.pl_activation(x, params).sum().backward()
        npt.assert_array_equal(x.grad, np.array([1.0]))

    def test_winner_index_past_int8(self):
        # winner (j, i) = (129, 199): both indices outgrow int8
        alpha = np.full((130, 200), 10.0)
        alpha[129] = 0.0
        alpha[129, 199] = 1.0
        params = MorphoActivationParams(Tensor(np.zeros((130, 200))),
                                        Tensor(alpha, requires_grad=True))
        x = Tensor(np.zeros(3), requires_grad=True)
        out = act.pl_activation(x, params)
        npt.assert_array_equal(out.data, np.ones(3))
        out.sum().backward()
        want = np.zeros((130, 200))
        want[129, 199] = 3.0
        npt.assert_array_equal(params.alpha.grad, want)

    @pytest.mark.parametrize("channel_axis", [None, 0, 1, -1])
    def test_matches_loop_oracle_with_ties(self, channel_axis):
        rng = ad.make_rng(44)
        for shape in [(3, 4, 5), (2, 6), (4, 1, 3, 2)]:
            _check_pl_with_ties(rng, shape, channel_axis)

    def test_gradients_vs_fd(self):
        # clamp parameters, samples held away from the kinks at 0 and 6
        params = MorphoActivationParams.clamp(2, 3)
        x = np.array([-3.7, -0.9, 0.8, 2.4, 5.1, 7.3, 11.0])
        proj = ad.make_rng(42).normal(size=x.shape)

        xt = Tensor(x, requires_grad=True)
        bt = Tensor(params.beta.data.copy(), requires_grad=True)
        at = Tensor(params.alpha.data.copy(), requires_grad=True)
        live = MorphoActivationParams(bt, at)
        ad.mul(act.pl_activation(xt, live), Tensor(proj)).sum().backward()

        fd_x = ad.finite_difference_grad(
            lambda t: ad.mul(act.pl_activation(t, params), Tensor(proj)).sum(),
            Tensor(x))
        npt.assert_allclose(xt.grad, fd_x, atol=1e-8)

        def at_beta(t):
            p = MorphoActivationParams(t, Tensor(params.alpha.data))
            return ad.mul(act.pl_activation(Tensor(x), p), Tensor(proj)).sum()

        def at_alpha(t):
            p = MorphoActivationParams(Tensor(params.beta.data), t)
            return ad.mul(act.pl_activation(Tensor(x), p), Tensor(proj)).sum()

        npt.assert_allclose(bt.grad, ad.finite_difference_grad(
            at_beta, Tensor(params.beta.data)), atol=1e-7)
        npt.assert_allclose(at.grad, ad.finite_difference_grad(
            at_alpha, Tensor(params.alpha.data)), atol=1e-7)


def _check_pl_with_ties(rng, shape, channel_axis):
    """``pl_activation`` on integer x, beta, alpha drawn from ``rng``
    against the loop oracles, values and gradients.  Small integers tie
    pieces everywhere and make every sum exact in any order, so they must
    match to the bit."""
    m, n = (int(k) for k in rng.integers(1, 5, size=2))
    pshape = (m, n) if channel_axis is None else (shape[channel_axis], m, n)
    x, g = (rng.integers(-3, 4, size=shape).astype(float) for _ in range(2))
    beta, alpha = (rng.integers(-2, 3, size=pshape).astype(float)
                   for _ in range(2))
    xt = Tensor(x, requires_grad=True)
    params = MorphoActivationParams(Tensor(beta, requires_grad=True),
                                    Tensor(alpha, requires_grad=True))
    out = act.pl_activation(xt, params, channel_axis)
    ad.mul(out, Tensor(g)).sum().backward()
    if channel_axis is None:
        npt.assert_array_equal(out.data, oracle_pl(x, beta, alpha))
    else:
        for ch in range(pshape[0]):
            npt.assert_array_equal(
                out.data.take(ch, channel_axis),
                oracle_pl(x.take(ch, channel_axis), beta[ch], alpha[ch]))
    want = oracle_pl_grads(x, beta, alpha, g, channel_axis)
    for got, ref in zip([xt.grad, params.beta.grad, params.alpha.grad],
                        want):
        npt.assert_array_equal(got, ref)


class TestMorphoLayers:
    def _random_case(self, rng, m, n, variant):
        beta = rng.normal(size=(m, n))
        alpha = rng.normal(size=(m, n)) * 0.5
        bank_len = m if variant == 1 else n
        sfs = [StructuringFunction.pool_window((2, 2),
                                               learnable=True)
               for _ in range(bank_len)]
        for sf in sfs:
            sf.weights.data[:] = rng.normal(size=4) * 0.3
        params = MorphoActivationParams(Tensor(beta), Tensor(alpha))
        return params, sfs

    def test_variant1_matches_oracle(self):
        rng = ad.make_rng(45)
        pool = PoolSpec((2, 2), (2, 2))
        for m, n in [(1, 1), (2, 2), (3, 2), (2, 4)]:
            params, sfs = self._random_case(rng, m, n, 1)
            x = rng.normal(size=(6, 6))
            got = act.morpho_act1_forward(Tensor(x), params, sfs, pool).data
            want = oracle_morpho1(x, params.beta.data, params.alpha.data,
                                  sfs, (2, 2), (3, 3))
            npt.assert_allclose(got, want, atol=1e-12)

    def test_variant2_matches_oracle(self):
        rng = ad.make_rng(46)
        pool = PoolSpec((2, 2), (2, 2))
        for m, n in [(1, 1), (2, 2), (3, 2), (2, 4)]:
            params, sfs = self._random_case(rng, m, n, 2)
            x = rng.normal(size=(6, 6))
            got = act.morpho_act2_forward(Tensor(x), params, sfs, pool).data
            want = oracle_morpho2(x, params.beta.data, params.alpha.data,
                                  sfs, (2, 2), (3, 3))
            npt.assert_allclose(got, want, atol=1e-12)

    def test_per_channel_batched(self):
        rng = ad.make_rng(47)
        pool = PoolSpec((2, 2), (2, 2))
        c, m, n = 2, 2, 2
        beta = rng.normal(size=(c, m, n))
        alpha = rng.normal(size=(c, m, n))
        params = MorphoActivationParams(Tensor(beta), Tensor(alpha))
        sfs = [StructuringFunction.pool_window((2, 2)) for _ in range(m)]
        x = rng.normal(size=(3, c, 6, 6))
        got = act.morpho_act1_forward(Tensor(x), params, sfs, pool,
                                      channel_axis=1).data
        for b in range(3):
            for ch in range(c):
                want = oracle_morpho1(x[b, ch], beta[ch], alpha[ch], sfs,
                                      (2, 2), (3, 3))
                npt.assert_allclose(got[b, ch], want, atol=1e-12)

    def test_empty_batch(self):
        pool = PoolSpec((2, 2), (2, 2))
        for variant, fwd in [(1, act.morpho_act1_forward),
                             (2, act.morpho_act2_forward)]:
            lp = MorphoLayerParams.init(variant, 2, 2, pool, channels=3)
            x = Tensor(np.zeros((0, 3, 6, 6)), requires_grad=True)
            out = fwd(x, lp.activation, lp.structuring, pool, channel_axis=1)
            assert out.data.shape == (0, 3, 3, 3)
            out.sum().backward()
            assert x.grad.shape == x.data.shape

    def test_bank_length_validated(self):
        pool = PoolSpec((2, 2), (2, 2))
        params = MorphoActivationParams.clamp(2, 2)
        bank = [StructuringFunction.pool_window((2, 2))]
        with pytest.raises(ValueError):
            act.morpho_act1_forward(Tensor(np.zeros((6, 6))), params, bank, pool)
        with pytest.raises(ValueError):
            act.morpho_act2_forward(Tensor(np.zeros((6, 6))), params, bank, pool)

    def test_init_equals_relu6_maxpool(self):
        rng = ad.make_rng(48)
        pool = PoolSpec((2, 2), (2, 2))
        x = rng.normal(size=(2, 3, 8, 8)) * 4
        ref = mo.max_pool(ad.minimum(mo.relu(Tensor(x)), 6.0), pool).data
        for variant, fwd in [(1, act.morpho_act1_forward),
                             (2, act.morpho_act2_forward)]:
            lp = MorphoLayerParams.init(variant, 2, 2, pool, channels=3)
            got = fwd(Tensor(x), lp.activation, lp.structuring, pool,
                      channel_axis=1).data
            npt.assert_allclose(got, ref, atol=1e-14)

    # window value -> winning (j, i) cell under the clamp init; the comments
    # name the ties each value builds
    ROUTES = {
        1: {0.0: (0, 0),    # inner tie max(x, 0): lowest i
            6.0: (0, 0),    # outer tie 6 = min(6, 6): lowest j
            -2.0: (0, 1), 8.0: (1, 0), 3.0: (0, 0)},
        2: {0.0: (0, 0),    # inner tie max(x, 0): lowest j
            6.0: (0, 0),    # outer tie 6 = min(6, 6): lowest i
            -2.0: (1, 0), 8.0: (0, 1), 3.0: (0, 0)},
    }

    def test_tie_routing(self):
        # constant 2x2 windows tie every offset, so each window routes to
        # its first offset: the top-left source
        pool = PoolSpec((2, 2), (2, 2))
        values = np.array([[0.0, 6.0, -2.0, 8.0], [3.0, 0.0, 6.0, -2.0]])
        x0 = np.kron(values.reshape(1, 2, 2, 2), np.ones((2, 2)))
        g = np.arange(1.0, 9.0).reshape(1, 2, 2, 2)
        for variant, fwd, (m, n) in [(1, act.morpho_act1_forward, (2, 3)),
                                     (2, act.morpho_act2_forward, (2, 2))]:
            lp = MorphoLayerParams.init(variant, m, n, pool, channels=2)
            beta, alpha = lp.activation.beta, lp.activation.alpha
            x = Tensor(x0, requires_grad=True)
            out = fwd(x, lp.activation, lp.structuring, pool, channel_axis=1)
            ad.mul(out, Tensor(g)).sum().backward()

            want_x = np.zeros_like(x0)
            want_b = np.zeros_like(beta.data)
            want_a = np.zeros_like(alpha.data)
            want_w = [np.zeros(4) for _ in lp.structuring]
            for (c, p, q), v in np.ndenumerate(values.reshape(2, 2, 2)):
                j, i = self.ROUTES[variant][v]
                gv = g[0, c, p, q]
                slope = beta.data[c, j, i]
                want_x[0, c, 2 * p, 2 * q] += gv * slope
                want_b[c, j, i] += gv * v
                want_a[c, j, i] += gv
                branch, dw = (j, gv) if variant == 1 else (i, gv * slope)
                want_w[branch][0] += dw
            npt.assert_array_equal(x.grad, want_x)
            npt.assert_array_equal(beta.grad, want_b)
            npt.assert_array_equal(alpha.grad, want_a)
            for sf, want in zip(lp.structuring, want_w):
                got = sf.weights.grad
                npt.assert_array_equal(np.zeros(4) if got is None else got,
                                       want)

    def test_window_outside_input_takes_no_gradient(self):
        # the second branch's offset (-2, -2) reads x at 2p + 2, outside x
        # for every output cell but the first: those cells are -inf
        rng = ad.make_rng(49)
        pool = PoolSpec((2, 2), (2, 2))
        x0 = rng.normal(size=(4, 4))
        dead = np.ones((2, 2), bool)
        dead[0, 0] = False
        for fwd, oracle in [(act.morpho_act1_forward, oracle_morpho1),
                            (act.morpho_act2_forward, oracle_morpho2)]:
            params = MorphoActivationParams(
                Tensor(rng.uniform(0.5, 1.5, size=(2, 2)), requires_grad=True),
                Tensor(rng.normal(size=(2, 2)), requires_grad=True))
            bank = [StructuringFunction.pool_window((2, 2), learnable=True),
                    StructuringFunction([(-2, -2)], weights=[-9.0],
                                        learnable=True)]
            x = Tensor(x0, requires_grad=True)
            out = fwd(x, params, bank, pool)
            npt.assert_array_equal(out.data, oracle(
                x0, params.beta.data, params.alpha.data, bank, (2, 2),
                (2, 2)))
            assert np.isneginf(out.data[dead]).all()
            out.sum().backward()
            # the one live cell routes its unit gradient to one alpha cell
            npt.assert_array_equal(params.alpha.grad.sum(), 1.0)
            for t in [x, params.beta] + [sf.weights for sf in bank]:
                assert t.grad is None or np.isfinite(t.grad).all()

    def test_layer_params_init(self):
        pool = PoolSpec((2, 2), (2, 2))
        lp1 = MorphoLayerParams.init(1, 3, 2, pool)
        assert len(lp1.structuring) == 3
        assert len(lp1.named_tensors()) == 2 + 3
        lp2 = MorphoLayerParams.init(2, 3, 2, pool)
        assert len(lp2.structuring) == 2
        for sf in lp2.structuring:
            npt.assert_array_equal(sf.weights.data, np.zeros(4))


def _layer_case(rng, shape, m, n, variant):
    c = shape[1]
    params = MorphoActivationParams(
        Tensor(rng.normal(size=(c, m, n)), requires_grad=True),
        Tensor(rng.normal(size=(c, m, n)), requires_grad=True))
    bank = [StructuringFunction.pool_window((2, 2), learnable=True)
            for _ in range(m if variant == 1 else n)]
    for sf in bank:
        sf.weights.data[:] = rng.normal(size=4) * 0.3
    x = rng.normal(size=shape) * 2
    g = rng.normal(size=(shape[0], c) + tuple(
        (e - 2) // 2 + 1 for e in shape[2:]))
    return params, bank, x, g


def _run_layer(fwd, params, bank, x, g):
    """Output and (x, beta, alpha, weights) gradients of sum(g * layer)."""
    for t in [params.beta, params.alpha] + [sf.weights for sf in bank]:
        t.grad = None
    xt = Tensor(x, requires_grad=True)
    out = fwd(xt, params, bank, PoolSpec((2, 2), (2, 2)), channel_axis=1)
    ad.mul(out, Tensor(g)).sum().backward()
    return (out.data, xt.grad, params.beta.grad, params.alpha.grad,
            [sf.weights.grad for sf in bank])


FORMS = [(1, act.morpho_act1_forward), (2, act.morpho_act2_forward)]


class TestChannelMajorFrame:
    """The layer forms work channel-first: a conv2d output's channel-major
    memory is read, and the output and x gradient written, without a
    reordering copy, and the result does not depend on the layout."""

    # (batch, channels) of 12x12 images: channels bigger than a block, one
    # block each; runs of many channels over several blocks; one channel
    # with per-channel parameters, bigger than a block, as one block
    ROWS = mo._BLOCK_BYTES // (8 * 12 * 12)
    SHAPES = [(ROWS + 5, 2), (ROWS // 20 + 1, 48), (ROWS + 5, 1)]

    @pytest.mark.parametrize("batch,channels", SHAPES)
    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_layouts_byte_equal(self, batch, channels, variant, fwd):
        rng = ad.make_rng(60 + channels)
        params, bank, x, g = _layer_case(rng, (batch, channels, 12, 12),
                                         2, 3, variant)
        want = _run_layer(fwd, params, bank, x, g)
        got = _run_layer(fwd, params, bank, channel_major(x),
                         channel_major(g))
        for a, b in zip(want[:4] + tuple(want[4]), got[:4] + tuple(got[4])):
            assert (np.ascontiguousarray(a).tobytes()
                    == np.ascontiguousarray(b).tobytes())
        # channel-major in and out: the output and the x gradient are views
        # of channel-first buffers
        assert got[0].swapaxes(0, 1).flags.c_contiguous
        assert got[1].swapaxes(0, 1).flags.c_contiguous

    @pytest.mark.parametrize("block_bytes", [mo._BLOCK_BYTES, 2000, 600])
    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_gradients_match_logical_order_oracle(self, monkeypatch,
                                                  block_bytes, variant, fwd):
        # each channel holds 864 bytes: one block, two blocks of two
        # channels, or one-channel blocks
        monkeypatch.setattr(mo, "_BLOCK_BYTES", block_bytes)
        rng = ad.make_rng(64 + variant)
        params, bank, x, g = _layer_case(rng, (3, 4, 6, 6), 3, 2, variant)
        want = oracle_layer_grads(x, params.beta.data, params.alpha.data,
                                  bank, (2, 2), g, variant)
        for xin in (x, channel_major(x)):
            _, dx, db, da, dw = _run_layer(fwd, params, bank, xin, g)
            npt.assert_array_equal(dx, want[0])
            npt.assert_array_equal(db, want[1])
            npt.assert_array_equal(da, want[2])
            # summed across channels in the channel-first frame, not in the
            # oracle's batch-first order
            for got_w, want_w in zip(dw, want[3]):
                npt.assert_allclose(got_w, want_w, rtol=1e-12, atol=0)

    def test_pooled_channel_axis_rejected(self):
        lp = MorphoLayerParams.init(1, 2, 2, PoolSpec((2, 2), (2, 2)),
                                    channels=1)
        with pytest.raises(ValueError, match="pooled"):
            act.morpho_act1_forward(Tensor(np.zeros((2, 1, 6))),
                                    lp.activation, lp.structuring,
                                    PoolSpec((1, 2), (1, 2)), channel_axis=1)


def _node_grads(out, g):
    """Each parent's gradient from the node's own rules, summed per tensor
    as ``backward()`` sums them (a shared tensor is several parents), by
    the id of the tensor's graph node (``id(t._node)``)."""
    grads = {}
    for parent, rule in out._parents:
        d = rule(g)
        grads[id(parent)] = d if id(parent) not in grads else grads[id(parent)] + d
    return grads


def _blockwise_case(kind, variant):
    """(x, params, bank, pool, channel_axis) for one backward case."""
    rng = ad.make_rng(90 + variant)
    m, n = 2, 3
    window, pool, axis = (2, 2), PoolSpec((2, 2), (2, 2)), 1
    if kind == "shared":  # [m, n] parameters; the frame is x, runs of images
        shape, pshape, axis = (80, 2, 32, 32), (m, n), None
    elif kind == "overlap":
        shape, pshape = (5, 4, 9, 9), (4, m, n)
        window, pool = (3, 3), PoolSpec((3, 3), (2, 2))
    else:  # "outside", "frozen"
        shape, pshape = (5, 4, 8, 8), (4, m, n)
    params = MorphoActivationParams(
        Tensor(rng.normal(size=pshape), requires_grad=True),
        Tensor(rng.normal(size=pshape), requires_grad=True))
    bank = [StructuringFunction.pool_window(window, learnable=True)
            for _ in range(m if variant == 1 else n)]
    if kind == "outside":
        # reads K*p - y: output rows and columns 0 and 1 see only offsets
        # outside the input, so this branch's window is wholly outside there
        bank[0] = StructuringFunction([(3, 3), (4, 3), (3, 4)],
                                      learnable=True)
        if variant == 2:  # the pooled -inf times a positive slope stays
            col = params.beta.data[..., 0]
            np.abs(col, out=col)
    for sf in bank:
        sf.weights.data[:] = rng.normal(size=len(sf.offsets)) * 0.3
    x = Tensor(rng.normal(size=shape) * 2, requires_grad=kind != "frozen")
    return x, params, bank, pool, axis


class TestBlockwiseBackward:
    """The layer forms' backward runs on the forward pass's blocks; every
    gradient is byte-equal to one full-size bincount per edge."""

    KINDS = ["shared", "overlap", "outside", "frozen"]

    @pytest.mark.parametrize("block_bytes", [mo._BLOCK_BYTES, 2000, 600])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_byte_equal_to_full_size_oracle(self, monkeypatch, block_bytes,
                                            kind, variant, fwd):
        monkeypatch.setattr(mo, "_BLOCK_BYTES", block_bytes)
        x, params, bank, pool, axis = _blockwise_case(kind, variant)
        xf = x.data.swapaxes(0, axis or 0)
        if kind == "shared" or block_bytes < 1000:
            assert len(mo._blocks(xf, pool.rank)) > 1
        tensors = [x, params.beta, params.alpha] + [sf.weights for sf in bank]

        def grads():
            out = fwd(x, params, bank, pool, channel_axis=axis)
            got = _node_grads(out, ad.make_rng(7).normal(size=out.shape))
            return [got.get(id(t._node)) for t in tensors]

        got = grads()
        monkeypatch.setattr(act, "_layer_node", full_size_layer_node)
        want = grads()
        if kind == "outside":  # some cells are dead, so some weights idle
            assert np.isneginf(fwd(x, params, bank, pool, axis).data).any()
        assert (got[0] is None) == (want[0] is None) == (kind == "frozen")
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape
            assert (np.ascontiguousarray(a).tobytes()
                    == np.ascontiguousarray(b).tobytes())
        if got[0] is not None:
            assert got[0].shape == want[0].shape
            assert got[0].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("variant,fwd", FORMS + [
        pytest.param(1, lambda x, params, bank, pool, channel_axis:
                     mo.act_pool(x, pool, cap=cap), id=f"act_pool-cap{cap}")
        for cap in (None, 6.0)])
    def test_backward_memory_is_the_gradient_and_a_few_blocks(
            self, frozen, variant, fwd):
        # 9 MB of channel-major input, as a conv2d output, over 16 blocks;
        # act_pool reads x and the pool alone
        rng = ad.make_rng(95)
        params, bank, x, g = _layer_case(rng, (128, 16, 24, 24), 2, 3,
                                         variant)
        xt = Tensor(channel_major(x), requires_grad=not frozen)
        out = fwd(xt, params, bank, PoolSpec((2, 2), (2, 2)), channel_axis=1)
        tracemalloc.start()
        try:
            grads = _node_grads(out, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (id(xt._node) in grads) != frozen
        # the full-size route arrays alone took 1.4 x.nbytes, and
        # act_pool's whole-frame sources and anchors half of x.nbytes
        assert peak <= (0 if frozen else x.nbytes) + 4 * mo._BLOCK_BYTES


def _spy_routes(monkeypatch) -> list:
    """Record, for every block that a routed node's route runs on, whether
    it returned an x gradient and which parameter parts it returned."""
    seen = []
    real = mo.routed_node

    def spy(out, blocks, route, *args, **kwargs):
        def recorded(block, g):
            src, gx, closed, parts = route(block, g)
            seen.append((gx is not None, tuple(k for k, _, _ in parts)))
            return src, gx, closed, parts
        return real(out, blocks, recorded, *args, **kwargs)

    monkeypatch.setattr(mo, "routed_node", spy)
    return seen


class TestFrozenLeaves:
    """Freezing one group of leaves at a time: every live leaf's gradient
    is the all-live run's, byte for byte, each frozen leaf's stays None,
    and the routes do no work for the frozen group, so a skipped part
    neither runs nor shifts another part's slice of the flat sum."""

    GROUPS = ["none", "beta", "alpha", "w0", "bank", "x"]

    @staticmethod
    def _grads(leaves, frozen, run):
        for name, t in leaves:
            t.requires_grad = name not in frozen
            t.grad = None
        run()
        return [t.grad for _, t in leaves]

    def _check(self, monkeypatch, leaves, frozen, run, want_parts):
        seen = _spy_routes(monkeypatch)
        want = self._grads(leaves, (), run)
        seen.clear()
        got = self._grads(leaves, frozen, run)
        for (name, _), a, b in zip(leaves, got, want):
            if name in frozen:
                assert a is None
            else:
                assert a.tobytes() == b.tobytes()
        assert seen and set(seen) == {("x" not in frozen, want_parts)}

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_layer_forms(self, monkeypatch, group, variant, fwd):
        # per-channel parameters, channel-major input, several blocks
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 2000)
        rng = ad.make_rng(97 + variant)
        params, bank, x, g = _layer_case(rng, (3, 4, 6, 6), 2, 3, variant)
        xt = Tensor(channel_major(x))
        leaves = [("x", xt), ("beta", params.beta), ("alpha", params.alpha)]
        leaves += [(f"w{k}", sf.weights) for k, sf in enumerate(bank)]
        frozen = {"bank": [f"w{k}" for k in range(len(bank))]}.get(
            group, [group])

        def run():
            out = fwd(xt, params, bank, PoolSpec((2, 2), (2, 2)),
                      channel_axis=1)
            ad.mul(out, Tensor(g)).sum().backward()

        assert len(mo._blocks(xt.data.swapaxes(0, 1), 2)) > 1
        # parts: 0 beta, 1 alpha, 2 the bank's weights laid end to end
        parts = tuple(k for k, names in enumerate(
            [["beta"], ["alpha"], [name for name, _ in leaves[3:]]])
            if set(names) - set(frozen))
        self._check(monkeypatch, leaves, frozen, run, parts)

    @pytest.mark.parametrize("group", ["none", "weights", "x"])
    def test_dilate(self, monkeypatch, group):
        rng = ad.make_rng(99)
        sf = StructuringFunction([(0, 0), (1, 0), (0, -1), (2, 1)],
                                 weights=rng.normal(size=4))
        f = Tensor(channel_major(rng.normal(size=(2, 3, 5, 6))))
        g = rng.normal(size=f.shape)
        leaves = [("x", f), ("weights", sf.weights)]

        def run():
            ad.mul(mo.dilate(f, sf), Tensor(g)).sum().backward()

        self._check(monkeypatch, leaves, [group], run,
                    () if group == "weights" else (0,))


def _frozen_layer1(beta, alpha, extent):
    """Frozen form-1 parameters: the matrices and one flat window per row."""
    params = MorphoActivationParams(Tensor(np.array(beta, dtype=float)),
                                    Tensor(np.array(alpha, dtype=float)))
    return params, [StructuringFunction.pool_window(extent)
                    for _ in range(params.m_terms)]


class TestReluMaxPoolReduction:
    """The paper's reduction of ReLU then max-pooling to layer form 1:
    beta = [[1, 0]], alpha = 0 and one flat window make the form's
    ``max(1 * x + 0, 0 * x + 0)`` pooled equal ``act_pool``'s clamp and
    pool.  Two kernels, each through ``routed_node``, checked against each
    other."""

    POOL = PoolSpec((2, 2), (2, 2))

    def test_values_and_gradients(self):
        rng = ad.make_rng(101)
        params, bank = _frozen_layer1([[1.0, 0.0]], [[0.0, 0.0]], (2, 2))
        differ = 0
        for _ in range(20):
            b, c, h, w = (int(k) for k in rng.integers([1, 1, 2, 2],
                                                       [5, 5, 10, 10]))
            x = rng.integers(-3, 4, size=(b, c, h, w)).astype(np.float64)
            if rng.random() < 0.5:
                x = channel_major(x)
            g = rng.integers(-3, 4, size=(b, c) + self.POOL.out_extent(
                (h, w))).astype(np.float64)
            pooled, layer = [], []
            for fwd, grads in ((lambda t: mo.act_pool(t, self.POOL), pooled),
                               (lambda t: act.morpho_act1_forward(
                                   t, params, bank, self.POOL), layer)):
                xt = Tensor(x, requires_grad=True)
                out = fwd(xt)
                ad.mul(out, Tensor(g)).sum().backward()
                grads += [out.data, xt.grad]
            assert pooled[0].tobytes() == layer[0].tobytes()
            npt.assert_array_equal(pooled[1], layer[1])
            # signed zeros: a closed winner takes g * 0 in act_pool, as in
            # the chain, -0.0 for a negative g; the layer's bincount adds
            # the closed piece's g * 0 to +0.0, so its zeros are all +0.0
            assert not np.signbit(layer[1][layer[1] == 0]).any()
            signs = np.signbit(pooled[1]) != np.signbit(layer[1])
            assert (pooled[1][signs] == 0).all()
            assert np.signbit(pooled[1][signs]).all()
            differ += int(signs.sum())
        assert differ

    def test_capped_tie_routes_differently(self):
        # window [6, 7] under cap 6: both give 6, but
        # - act_pool clamps both sources to 6 and routes g to the first
        #   offset attaining the max (the documented tie rule), whose
        #   rectifier is open: d/dx0 = 1;
        # - form 1 with the clamp matrix takes min(max(x, 0) pooled = 7,
        #   the constant 6 row pooled = 6), so the constant branch wins and
        #   routes 0: the output is locally constant in both sources
        x = np.array([[6.0, 7.0]])
        pool = PoolSpec((2,), (2,))
        params, bank = _frozen_layer1(*act.clamp_init(2, 2), (2,))
        got = []
        for fwd in (lambda t: mo.act_pool(t, pool, cap=6.0),
                    lambda t: act.morpho_act1_forward(t, params, bank, pool)):
            xt = Tensor(x, requires_grad=True)
            out = fwd(xt)
            out.sum().backward()
            got.append((out.data, xt.grad))
        (v_pool, d_pool), (v_layer, d_layer) = got
        assert v_pool.tolist() == v_layer.tolist() == [[6.0]]
        assert d_pool.tolist() == [[1.0, 0.0]]
        assert d_layer.tolist() == [[0.0, 0.0]]


class TestPaperReductions:
    """Seeded differentials of the paper's reductions, a fixed budget of
    40 cases each.  Small integers tie pieces and window cells everywhere
    and make every sum exact in any order, so values must match byte for
    byte and gradients by value.

    - The split pools are differences of two form-1 layers with one flat
      window, each ``max(s * x + 0, 0 * x + 0)`` pooled:
      ``posneg(f) = L(f; s = beta_neg) - L(f; s = -beta_pos)``, and
      ``selfdual`` is posneg at ``beta_pos = beta_neg = 1``.
    - Form 2 on a unit window is ``pl_activation`` with the transposed
      matrices: ``min_i max_j beta[j, i] x + alpha[j, i]`` either way.
    """

    CASES = 40
    POOL = PoolSpec((2, 2), (2, 2))

    @classmethod
    def _relu_pool_layer(cls, slope: float):
        """Form 1 with the one row ``[slope, 0]`` (slope trainable), zero
        intercepts and one flat window: ``max(slope * x, 0)`` pooled."""
        params = MorphoActivationParams(
            Tensor(np.array([[slope, 0.0]]), requires_grad=True),
            Tensor(np.zeros((1, 2))))
        bank = [StructuringFunction.pool_window(cls.POOL.extent)]
        return (lambda t: act.morpho_act1_forward(t, params, bank, cls.POOL),
                params.beta)

    @pytest.mark.parametrize("stage", ["selfdual", "posneg"])
    def test_split_pool_is_two_form1_layers(self, stage):
        rng = ad.make_rng(113 if stage == "posneg" else 112)
        negative_zeros = 0
        for _ in range(self.CASES):
            b, c, h, w = (int(k) for k in rng.integers([1, 1, 2, 2],
                                                       [4, 4, 9, 9]))
            x = rng.integers(-3, 4, size=(b, c, h, w)).astype(np.float64)
            if rng.random() < 0.5:
                x = channel_major(x)
            g = rng.integers(-3, 4, size=(b, c) + self.POOL.out_extent(
                (h, w))).astype(np.float64)
            beta_pos, beta_neg = ((1.0, 1.0) if stage == "selfdual" else
                                  (float(k) for k in rng.integers(1, 4, 2)))
            xs = Tensor(x, requires_grad=True)
            slopes = [Tensor(beta_pos, requires_grad=True),
                      Tensor(beta_neg, requires_grad=True)]
            out = (mo.selfdual_pool(xs, self.POOL) if stage == "selfdual"
                   else mo.posneg_pool_param(xs, self.POOL, *slopes))
            ad.mul(out, Tensor(g)).sum().backward()
            xl = Tensor(x, requires_grad=True)
            (pos, s_neg), (neg, s_pos) = (self._relu_pool_layer(beta_neg),
                                          self._relu_pool_layer(-beta_pos))
            layers = ad.sub(pos(xl), neg(xl))
            ad.mul(layers, Tensor(g)).sum().backward()
            assert out.data.tobytes() == layers.data.tobytes()
            npt.assert_array_equal(xs.grad, xl.grad)
            if stage == "posneg":
                # d/d beta_pos through the slope -beta_pos
                assert slopes[0].grad == -s_pos.grad[0, 0]
                assert slopes[1].grad == s_neg.grad[0, 0]
            # signed zeros: every value zero is +0.0 on both sides; the
            # layers' x gradient is a sum of bincounts, so its zeros are
            # +0.0, while act_pool gives a closed winner g * 0, -0.0 for
            # a negative g, which the difference of the two pools keeps
            # in some cells
            assert not np.signbit(out.data[out.data == 0]).any()
            assert not np.signbit(xl.grad[xl.grad == 0]).any()
            negative_zeros += int(np.signbit(xs.grad[xs.grad == 0]).sum())
        assert negative_zeros

    def test_form2_on_a_unit_window_is_pl_activation_transposed(self):
        rng = ad.make_rng(114)
        unit, unit_pool = StructuringFunction([(0,)]), PoolSpec((1,), (1,))
        for _ in range(self.CASES):
            shape = tuple(int(k) for k in rng.integers(
                1, 5, size=int(rng.integers(2, 4))))
            axis = (None if rng.random() < 0.25
                    else int(rng.integers(0, len(shape))))
            m, n = (int(k) for k in rng.integers(1, 5, size=2))
            pshape = (m, n) if axis is None else (shape[axis], m, n)
            x, g = (rng.integers(-3, 4, size=shape).astype(np.float64)
                    for _ in range(2))
            beta, alpha = (rng.integers(-2, 3, size=pshape).astype(np.float64)
                           for _ in range(2))
            # form 2: x gains a trailing axis of extent 1, pooled by one
            # frozen zero-weight offset at stride 1, as pl_activation does
            x2 = Tensor(x, requires_grad=True)
            p2 = MorphoActivationParams(Tensor(beta, requires_grad=True),
                                        Tensor(alpha, requires_grad=True))
            out2 = ad.reshape(act.morpho_act2_forward(
                ad.reshape(x2, shape + (1,)), p2, [unit] * n, unit_pool,
                axis), shape)
            ad.mul(out2, Tensor(g)).sum().backward()
            xp = Tensor(x, requires_grad=True)
            pp = MorphoActivationParams(
                *(Tensor(np.ascontiguousarray(a.swapaxes(-1, -2)),
                         requires_grad=True) for a in (beta, alpha)))
            outp = act.pl_activation(xp, pp, axis)
            ad.mul(outp, Tensor(g)).sum().backward()
            assert out2.data.tobytes() == outp.data.tobytes()
            npt.assert_array_equal(x2.grad, xp.grad)
            npt.assert_array_equal(p2.beta.grad,
                                   pp.beta.grad.swapaxes(-1, -2))
            npt.assert_array_equal(p2.alpha.grad,
                                   pp.alpha.grad.swapaxes(-1, -2))
            # signed zeros: both x gradients are bincounts, so every zero
            # is +0.0 on both sides
            for grad in (x2.grad, xp.grad):
                assert not np.signbit(grad[grad == 0]).any()


_NAN_POOL = PoolSpec((1, 2), (1, 1))


def _nan_layer(fwd, variant):
    p = MorphoLayerParams.init(variant, 2, 2, _NAN_POOL, channels=1)
    return lambda t: fwd(t, p.activation, p.structuring, _NAN_POOL,
                         channel_axis=1)


@pytest.mark.parametrize("forward,grad", [
    (lambda t: mo.max_pool(t, _NAN_POOL), [0, 0, 0]),
    (lambda t: mo.act_pool(t, _NAN_POOL), [0, 0, 0]),
    # out(p) = max(x[p], x[p + 1]): only the last cell is not NaN
    (lambda t: mo.dilate(t, StructuringFunction([(0, 0), (0, -1)])),
     [0, 0, 1]),
    (_nan_layer(act.morpho_act1_forward, 1), [0, 0, 0]),
    (_nan_layer(act.morpho_act2_forward, 2), [0, 0, 0]),
    (lambda t: act.pl_activation(t, MorphoActivationParams.clamp(2, 2)),
     [1, 0, 1])],
    ids=["max_pool", "act_pool", "dilate", "morpho_act1_forward",
         "morpho_act2_forward", "pl_activation"])
def test_nan_cell_takes_no_gradient(forward, grad):
    # one rule for every routed op: a NaN output cell takes no gradient,
    # wherever the NaN sits in its window
    x = Tensor(np.array([[[[1.0, np.nan, 3.0]]]]), requires_grad=True)
    out = forward(x)
    assert np.isnan(out.data).any()
    out.sum().backward()
    assert x.grad.dtype == np.float64
    npt.assert_array_equal(x.grad.ravel(), grad)


class TestDifferential:
    """Seeded differential against the loop oracles, a fixed budget of 50
    cases per op: random batch, channel and spatial sizes, windows and
    strides 1-3, m and n 1-4, shared or per-channel parameters, either
    layout, and blocks of the default size or of a few hundred bytes.
    Small integers tie pieces, offsets and branches everywhere and make
    every sum exact in any order, so values and all gradients must match
    exactly."""

    CASES = 50

    @staticmethod
    def _ints(rng, lo, hi, shape):
        return rng.integers(lo, hi + 1, size=shape).astype(np.float64)

    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_layer_forms(self, monkeypatch, variant, fwd):
        rng = ad.make_rng(97 + variant)
        for _ in range(self.CASES):
            self._check_layer_form(monkeypatch, rng, variant, fwd)

    @pytest.mark.parametrize("variant,fwd", FORMS)
    def test_layer_forms_nonfinite(self, monkeypatch, variant, fwd, workers):
        # NaN and +-inf in x, with zero slopes among the pieces (0 * inf is
        # NaN): NaN output cells, -inf pools and inf piece inputs, under
        # the dead-cell rule; pooled, the errstate must reach the helpers
        rng = ad.make_rng(197 + variant)
        for _ in range(self.CASES):
            with np.errstate(invalid="ignore"):
                self._check_layer_form(monkeypatch, rng, variant, fwd,
                                       nonfinite=True)

    def _check_layer_form(self, monkeypatch, rng, variant, fwd,
                          nonfinite=False):
        """One drawn case: values byte for byte, gradients equal."""
        monkeypatch.setattr(mo, "_BLOCK_BYTES",
                            int(rng.choice([1 << 20, 300])))
        b, c, m, n = (int(k) for k in rng.integers(1, [3, 4, 5, 5]))
        window, stride = (tuple(int(k) for k in rng.integers(1, 4, 2))
                          for _ in range(2))
        pool = PoolSpec(window, stride)
        spatial = tuple(r + k * int(rng.integers(0, 3))
                        for r, k in zip(window, stride))
        x = self._ints(rng, -3, 3, (b, c) + spatial)
        if nonfinite:
            seeded = rng.random(x.shape) < rng.choice([0.05, 0.2, 0.5])
            x[seeded] = rng.choice([np.nan, np.inf, -np.inf],
                                   seeded.sum())
        if rng.random() < 0.5:
            x = channel_major(x)
        shared = rng.random() < 0.5
        pshape = (m, n) if shared else (c, m, n)
        beta, alpha = (self._ints(rng, lo, -lo, pshape)
                       for lo in (-2, -3))
        offsets = StructuringFunction.pool_window(window).offsets
        bank = [StructuringFunction(
            offsets, self._ints(rng, -2, 0, len(offsets)), learnable=True)
            for _ in range(m if variant == 1 else n)]
        params = MorphoActivationParams(Tensor(beta, requires_grad=True),
                                        Tensor(alpha, requires_grad=True))
        xt = Tensor(x, requires_grad=True)
        out = fwd(xt, params, bank, pool, channel_axis=1)
        g = self._ints(rng, -3, 3, out.shape)
        ad.mul(out, Tensor(g)).sum().backward()

        per_c = np.broadcast_to(beta, (c, m, n)), np.broadcast_to(
            alpha, (c, m, n))
        oracle = oracle_morpho1 if variant == 1 else oracle_morpho2
        out_ext = pool.out_extent(spatial)
        for bi, ci in np.ndindex(b, c):
            assert out.data[bi, ci].tobytes() == oracle(
                x[bi, ci], per_c[0][ci], per_c[1][ci], bank, stride,
                out_ext).tobytes()
        dx, db, da, dw = oracle_layer_grads(x, *per_c, bank, stride, g,
                                            variant)
        if shared:
            db, da = db.sum(axis=0), da.sum(axis=0)
        for got, want in zip([xt.grad, params.beta.grad,
                              params.alpha.grad]
                             + [sf.weights.grad for sf in bank],
                             [dx, db, da] + dw):
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("variant,m,n", [(1, 4, 1), (1, 4, 2),
                                             (2, 1, 4), (2, 2, 4)])
    def test_winner_codes_past_int8(self, variant, m, n):
        # four 6x6 members make 144 bank offsets, so the winner codes of
        # the last member's later offsets pass 127
        rng = ad.make_rng(100 + 10 * m + n)
        pool = PoolSpec((6, 6), (2, 2))
        x = self._ints(rng, -3, 3, (2, 3, 12, 12))
        beta, alpha = (self._ints(rng, lo, -lo, (3, m, n)) for lo in (-2, -3))
        offsets = StructuringFunction.pool_window((6, 6)).offsets
        bank = [StructuringFunction(offsets, self._ints(rng, -4, 0, 36),
                                    learnable=True) for _ in range(4)]
        params = MorphoActivationParams(Tensor(beta, requires_grad=True),
                                        Tensor(alpha, requires_grad=True))
        xt = Tensor(x, requires_grad=True)
        fwd = dict(FORMS)[variant]
        out = fwd(xt, params, bank, pool, channel_axis=1)
        g = self._ints(rng, 1, 3, out.shape)
        ad.mul(out, Tensor(g)).sum().backward()
        want = oracle_layer_grads(x, beta, alpha, bank, (2, 2), g, variant)
        assert want[3][3][20:].any()  # some winner's code is past 127
        for got, w in zip([xt.grad, params.beta.grad, params.alpha.grad]
                          + [sf.weights.grad for sf in bank],
                          want[:3] + tuple(want[3])):
            npt.assert_array_equal(got, w)

    def test_pl_activation(self):
        rng = ad.make_rng(99)
        for _ in range(self.CASES):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(k) for k in rng.integers(1, 5, ndim))
            axis = None if rng.random() < 0.4 else int(
                rng.integers(-ndim, ndim))
            _check_pl_with_ties(rng, shape, axis)

    def test_pl_activation_against_pl_eval(self):
        # across kernels: pl_eval is a max over families of a min over
        # members, so min_j max_i (beta x + alpha) is -pl_eval of the
        # negated pieces with one family per row j; equal in value, while
        # the sign of a zero may differ
        rng = np.random.default_rng(301)
        for _ in range(self.CASES):
            m, n = (int(k) for k in rng.integers(1, 5, 2))
            beta, alpha = rng.normal(size=(2, m, n)) * [[[2.0]], [[3.0]]]
            x = rng.normal(size=int(rng.integers(1, 40))) * 4
            if rng.random() < 0.5:  # small integers tie pieces
                beta, alpha, x = np.round(beta), np.round(alpha), np.round(x)
            rows = tuple(tuple(range(j * n, j * n + n)) for j in range(m))
            f = PLFunction(-beta.reshape(-1, 1), -alpha.reshape(-1), rows)
            got = act.pl_activation(x, MorphoActivationParams(
                Tensor(beta), Tensor(alpha)))
            npt.assert_array_equal(got.data, -pl_eval(f, x[:, None]))


class TestActivationCurve:
    def test_shapes_and_values(self):
        params = MorphoActivationParams.clamp(2, 2)
        x = np.linspace(-8, 8, 17)
        curve = act.activation_curve(params, x)
        npt.assert_array_equal(curve, np.clip(x, 0, 6))
        per_c = MorphoActivationParams.clamp(2, 2, channels=4)
        curves = act.activation_curve(per_c, x)
        assert curves.shape == (4, 17)
        npt.assert_array_equal(curves[2], np.clip(x, 0, 6))
