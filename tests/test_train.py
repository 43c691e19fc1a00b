"""Training harness: ops vs oracles, model wiring, optimization, protocols."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import (chain_conv1, channel_major, oracle_conv2d,
                      oracle_conv2d_gemm, synth_classification)

from morphnn import activations as act
from morphnn import autodiff as ad
from morphnn import data as md
from morphnn import morphops as mo
from morphnn import train as tr
from morphnn.activations import (MorphoLayerParams, morpho_act1_forward,
                                 morpho_act2_forward)
from morphnn.autodiff import Tensor, make_rng
from morphnn.train import Adam, Model, ModelSpec, TrainConfig, build_model


def small_spec(variant="relu-maxpool", **kw):
    base = dict(variant=variant, filters=6, image_size=(10, 10),
                n_terms=2, m_terms=2)
    base.update(kw)
    return ModelSpec(**base)


def synth_ds(seed=0, n=200, side=10):
    rng = make_rng(seed)
    images, labels = synth_classification(rng, n=n, side=side)
    return md.Dataset(images.astype(np.float64) / 255.0,
                      labels.astype(np.int64))


class TestConv2d:
    def test_matches_loop_oracle(self):
        rng = make_rng(70)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        got = tr.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        npt.assert_allclose(got, oracle_conv2d(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("channel_major", [False, True])
    def test_byte_equal_to_batch_major_rules(self, channel_major):
        # the output and the x gradient are channel-major in memory; the
        # values are those of the batch-major arithmetic, bit for bit,
        # whichever layout the output gradient arrives in
        rng = make_rng(72)
        x = rng.normal(size=(3, 4, 7, 6))
        w = rng.normal(size=(5, 4, 3, 3))
        b = rng.normal(size=5)
        g = rng.normal(size=(3, 5, 5, 4))
        if channel_major:
            g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).transpose(
                1, 0, 2, 3)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = tr.conv2d(xt, wt, bt)
        rules = {id(parent): rule for parent, rule in out._parents}
        got = [out.data] + [rules[id(t._node)](g) for t in (xt, wt, bt)]
        for have, want in zip(got, oracle_conv2d_gemm(x, w, b, g)):
            assert have.shape == want.shape
            assert (np.ascontiguousarray(have).tobytes()
                    == np.ascontiguousarray(want).tobytes())
        assert got[0].transpose(1, 0, 2, 3).flags.c_contiguous
        assert got[1].transpose(1, 0, 2, 3).flags.c_contiguous

    def test_x_gradient_in_batch_slices(self, monkeypatch):
        # a budget of 8 images' im2col: slices of 8, 8 and 3 images; 8
        # images are 160 columns, whole groups of tr._GEMM_COLUMN_GROUP, and
        # the last slice ends the batch, so each slice's GEMM groups its
        # columns as the whole GEMM does: that is why the bytes agree
        rng = make_rng(73)
        x = rng.normal(size=(19, 4, 7, 6))
        w = rng.normal(size=(5, 4, 3, 3))
        b = rng.normal(size=5)
        g = rng.normal(size=(19, 5, 5, 4))
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * (4 * 3 * 3) * 5 * 4)
        seen = TestNoGradFeatures._spy_windows(monkeypatch)
        want = oracle_conv2d_gemm(x, w, b, g)
        for layout in (g, channel_major(g)):
            seen.clear()
            xt = Tensor(x, requires_grad=True)
            out = tr.conv2d(xt, Tensor(w), Tensor(b))
            assert seen == [8, 8, 3]  # the forward's im2col slices
            dx = out._parents[0][1](layout)
            assert out.data.tobytes() == np.ascontiguousarray(want[0]).tobytes()
            assert dx.tobytes() == np.ascontiguousarray(want[1]).tobytes()

    def test_x_gradient_memory_is_dx_and_one_slice(self, monkeypatch):
        # slices of 8 images; the whole im2col-shaped gradient would be
        # 7.4 MB, 7 budgets
        monkeypatch.setattr(tr, "_SLICE_BYTES", 1 << 20)
        rng = make_rng(74)
        x = rng.normal(size=(64, 16, 12, 12))
        g = np.ascontiguousarray(rng.normal(size=(16, 64, 10, 10)))
        xt = Tensor(x, requires_grad=True)
        out = tr.conv2d(xt, Tensor(rng.normal(size=(16, 16, 3, 3))), None)
        back_x = out._parents[0][1]
        dx = []
        peak = _traced_peak(lambda: dx.append(back_x(g.transpose(1, 0, 2, 3))))
        # plus 256 KiB: numpy buffers a strided in-place add (128 KiB), and
        # the interpreter's small objects; two slices would not fit
        assert peak <= dx[0].nbytes + tr._SLICE_BYTES + (1 << 18)

    def test_no_grad_memory_is_the_output_and_one_slice(self, monkeypatch):
        # the same slices of 8 images; the whole im2col would be 7.4 MB
        monkeypatch.setattr(tr, "_SLICE_BYTES", 1 << 20)
        rng = make_rng(76)
        x = Tensor(rng.normal(size=(64, 16, 12, 12)))
        w = Tensor(rng.normal(size=(16, 16, 3, 3)))
        out = []
        with ad.no_grad():
            peak = _traced_peak(lambda: out.append(tr.conv2d(x, w, None)))
        one_slice = 8 * 8 * (16 * 3 * 3) * 10 * 10
        # plus 16 KiB for the interpreter's and numpy's small objects
        assert peak <= out[0].data.nbytes + one_slice + (1 << 14)

    @pytest.mark.parametrize("slice_images", [None, 8])
    @pytest.mark.parametrize("bsz,c,f,hw", [
        (256, 128, 128, (13, 13)),  # conv2 of the paper's protocol
        (16, 128, 128, (13, 13)),  # its last batch: 10,000 = 39 * 256 + 16
        (256, 16, 16, (13, 13)),  # conv2 of scripts/param_hash.py
        (3, 4, 5, (7, 6)),  # the byte tests above
        (5, 4, 5, (7, 6)),
    ])
    def test_grad_path_gives_the_whole_gemms_bytes(self, monkeypatch, bsz,
                                                   c, f, hw, slice_images):
        # with more than one channel the grad path never holds x's whole
        # im2col: the forward GEMM and the x gradient run on batch slices
        # of it (the module's budget, or 8 images) and the w gradient is
        # one GEMM per tap.  Equal bytes are an OpenBLAS property, not a
        # theorem: pinned here at every shape the hashes and the benchmark
        # run
        if slice_images:
            monkeypatch.setattr(tr, "_SLICE_BYTES",
                                slice_images * 8 * c * 9 * (hw[0] - 2)
                                * (hw[1] - 2))
        got, want = self._grad_path_and_whole_gemms(bsz, c, f, hw)
        for have, ref in zip(got, want):
            assert have.tobytes() == ref.tobytes()

    def test_per_tap_w_gradient_may_differ_in_the_last_bit(self):
        # at this shape, with 2 BLAS threads, the tap GEMMs and the whole
        # GEMM split their work differently and differ in the last bit, and
        # so do the x gradient's tap-major weight rows and the oracle's
        # channel-major ones; with OPENBLAS_NUM_THREADS=1 both are equal to
        # the byte
        (out, dx, dw), want = self._grad_path_and_whole_gemms(
            37, 24, 16, (13, 13))
        assert out.tobytes() == want[0].tobytes()
        npt.assert_allclose(dx, want[1], rtol=1e-12, atol=1e-12)
        npt.assert_allclose(dw, want[2], rtol=1e-12, atol=1e-12)

    @staticmethod
    def _grad_path_and_whole_gemms(bsz, c, f, hw):
        """conv2d's output, x gradient and w gradient under grad on
        channel-major x and g, as the stages give them, and the same from
        one GEMM over x's whole im2col each."""
        rng = make_rng(75)
        oh, ow = hw[0] - 2, hw[1] - 2
        x = channel_major(rng.normal(size=(bsz, c) + hw))
        w = rng.normal(size=(f, c, 3, 3))
        g = channel_major(rng.normal(size=(bsz, f, oh, ow)))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = tr.conv2d(xt, wt, None)
        rules = {id(parent): rule for parent, rule in out._parents}
        got = [out.data] + [rules[id(t._node)](g) for t in (xt, wt)]
        cols = tr._im2col(x, 3, 3)
        wmat = w.reshape(f, -1)
        want_out = (wmat @ cols).reshape(f, bsz, oh, ow)
        gmat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        want_dw = (gmat @ cols.T).reshape(w.shape)
        del cols
        d6 = (wmat.T @ gmat).reshape(c, 3, 3, bsz, oh, ow)
        want_dx = np.zeros((c, bsz) + hw)
        for i in range(3):
            for j in range(3):
                want_dx[:, :, i:i + oh, j:j + ow] += d6[:, i, j]
        return got, [want_out.transpose(1, 0, 2, 3),
                     want_dx.transpose(1, 0, 2, 3), want_dw]

    def test_gradients(self):
        rng = make_rng(71)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        proj = rng.normal(size=(2, 3, 3, 3))

        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        ad.mul(tr.conv2d(xt, wt, bt), Tensor(proj)).sum().backward()

        fd_x = ad.finite_difference_grad(
            lambda t: ad.mul(tr.conv2d(t, Tensor(w), Tensor(b)),
                             Tensor(proj)).sum(), Tensor(x))
        fd_w = ad.finite_difference_grad(
            lambda t: ad.mul(tr.conv2d(Tensor(x), t, Tensor(b)),
                             Tensor(proj)).sum(), Tensor(w))
        fd_b = ad.finite_difference_grad(
            lambda t: ad.mul(tr.conv2d(Tensor(x), Tensor(w), t),
                             Tensor(proj)).sum(), Tensor(b))
        npt.assert_allclose(xt.grad, fd_x, atol=1e-6)
        npt.assert_allclose(wt.grad, fd_w, atol=1e-6)
        npt.assert_allclose(bt.grad, fd_b, atol=1e-6)


def _perturbed_layer(variant: int, filters: int, rng) -> MorphoLayerParams:
    """A clamp-initialized n=3, m=2 layer, every parameter moved off its
    init so that winners spread over pieces, branches and offsets."""
    layer = MorphoLayerParams.init(variant, 2, 3, POOL, channels=filters)
    for t in layer.named_tensors().values():
        t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
    return layer


POOL = mo.PoolSpec((2, 2), (2, 2))
FORWARDS = {1: morpho_act1_forward, 2: morpho_act2_forward}
# the rectifier stages: act_pool's cap, by name
CAPS = {"relu": None, "relu6": 6.0}
# the split stages, two act_pools each, by name, and their slopes
SPLITS = {"selfdual": lambda h, _: mo.selfdual_pool(h, POOL),
          "posneg": lambda h, s: mo.posneg_pool_param(
              h, POOL, s["beta_pos"], s["beta_neg"])}
SLOPES = {"posneg": ("beta_pos", "beta_neg")}


class TestConvFeed:
    """conv1 fused with a layer form, ``act_pool`` or a split stage
    (``conv_feed``) against the unfused chain ``chain_conv1`` ->
    ``morpho_act{1,2}_forward``, ``act_pool``, ``selfdual_pool`` or
    ``posneg_pool_param``: values and every gradient byte for byte, but a
    split stage's gradients by value: each of its two ``act_pool``s gives
    conv1 its own w and b gradient GEMMs (and beta its own sum), which
    backward then adds, where the chain runs one GEMM on the summed output
    gradient.  The rectifier and split stages' conv1 has a bias, the layer
    forms' has none."""

    @staticmethod
    def _run(fused, x, w, b, layer, variant, g):
        params = (layer if isinstance(layer, dict)
                  else layer.named_tensors())
        leaves = [w] + ([] if b is None else [b]) + list(params.values())
        for t in leaves:
            t.grad = None
        h = tr.conv_feed(x, w, b) if fused else chain_conv1(x, w, b)
        out = TestConvFeed._stage(h, layer, variant)
        ad.mul(out, Tensor(g)).sum().backward()
        return [out.data] + [t.grad for t in leaves]

    @staticmethod
    def _stage(h, layer, variant):
        if variant in CAPS:
            return mo.act_pool(h, POOL, cap=CAPS[variant])
        if variant in SPLITS:
            return SPLITS[variant](h, layer)
        return FORWARDS[variant](h, layer.activation, layer.structuring,
                                 POOL, channel_axis=1)

    def _compare(self, bsz, filters, hw, variant, seed=0, frozen=(),
                 images=None):
        rng = make_rng(600 + seed)
        x = Tensor(rng.random((bsz, 1) + hw) if images is None else images)
        w = Tensor(rng.uniform(-1 / 3, 1 / 3, (filters, 1, 3, 3)),
                   requires_grad=True)
        if variant in CAPS or variant in SPLITS:
            # filters wholly closed, open, and some past the cap of 6
            b = Tensor(rng.permutation(np.linspace(-2, 7, filters)),
                       requires_grad=True)
            layer = {name: Tensor(rng.uniform(0.5, 1.5), requires_grad=True)
                     for name in SLOPES.get(variant, ())}
            named = {"w": w, "b": b} | layer
        else:
            b, layer = None, _perturbed_layer(variant, filters, rng)
            named = {"w": w} | layer.named_tensors()
        for name in frozen:
            named[name].requires_grad = False
        oh, ow = hw[0] - 2, hw[1] - 2
        g = rng.normal(size=(bsz, filters) + POOL.out_extent((oh, ow)))
        got = self._run(True, x, w, b, layer, variant, g)
        want = self._run(False, x, w, b, layer, variant, g)
        for k, (have, ref) in enumerate(zip(got, want, strict=True)):
            assert (have is None) == (ref is None)
            if ref is None:
                continue
            assert have.shape == ref.shape
            if variant in SPLITS and k > 0:
                npt.assert_allclose(have, ref, rtol=1e-12, atol=1e-12 * np.abs(
                    ref[np.isfinite(ref)]).max(initial=0.0))
            else:
                assert have.tobytes() == ref.tobytes()
        return got

    @pytest.mark.parametrize("variant", [1, 2, "relu", "relu6", "selfdual",
                                         "posneg"])
    @pytest.mark.parametrize("bsz,filters,hw", [
        (256, 128, (28, 28)),  # the paper's protocol: 16 8-filter groups
        (104, 128, (28, 28)),  # 5 groups of 24 filters and one of 8
        (28, 128, (28, 28)),  # 104 filters and 24
        (16, 128, (28, 28)),  # its 10k run's last batch: one group
        (256, 16, (28, 28)),  # scripts/param_hash.py: one group
        (5, 12, (9, 11)),
        (3, 5, (8, 7)),
    ])
    def test_byte_equal_to_the_unfused_chain(self, bsz, filters, hw,
                                             variant, workers):
        # pooled, conv_feed's and conv2d's GEMMs run in column parts
        got = self._compare(bsz, filters, hw, variant)
        assert all(t is not None for t in got)
        if variant == "relu6":
            assert (got[0] == 6.0).any() and (got[0] < 6.0).any()

    @pytest.mark.parametrize("variant", [1, 2, "relu", "relu6", "selfdual",
                                         "posneg"])
    def test_groups_at_a_small_budget(self, monkeypatch, variant, workers):
        # 8-filter groups of 20 filters: 8, 8 and 4, each a run of blocks
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 6 * 7 * 5)
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 600)
        x = Tensor(np.zeros((6, 1, 9, 7)))
        assert tr.conv_feed(x, Tensor(np.zeros((20, 1, 3, 3)))).groups == [
            slice(0, 8), slice(8, 16), slice(16, 20)]
        self._compare(6, 20, (9, 7), variant, seed=1)

    @pytest.mark.parametrize("variant", [1, 2, "relu", "relu6", "selfdual"])
    def test_activations_only_runs_no_x_gradient(self, monkeypatch,
                                                 variant, workers):
        # conv1 frozen: no route makes an x gradient and no group's w
        # gradient GEMM runs; act_pool, with no parameter, builds no node,
        # nor do selfdual's two
        routes, gives = [], []
        routed_node, conv_feed = mo.routed_node, tr.conv_feed

        def spy_node(out, blocks, route, *args, **kwargs):
            def recorded(block, g):
                got = route(block, g)
                routes.append(got[1] is not None)
                return got
            return routed_node(out, blocks, recorded, *args, **kwargs)

        def spy_feed(x, w, b=None):
            feed = conv_feed(x, w, b)
            return mo.Feed(feed.tensors, feed.shape, feed.groups, feed.take,
                           lambda sl, gx: gives.append(sl)
                           or feed.give(sl, gx))

        monkeypatch.setattr(mo, "routed_node", spy_node)
        monkeypatch.setattr(tr, "conv_feed", spy_feed)
        rectifier = variant in CAPS or variant in SPLITS
        got = self._compare(7, 16, (12, 12), variant, seed=2,
                            frozen=["w", "b"] if rectifier else ["w"])
        if rectifier:
            assert got[1] is None and got[2] is None and not routes
        else:
            assert got[1] is None and all(t is not None for t in got[2:])
            assert routes and not any(routes)
        assert not gives

    @pytest.mark.parametrize("variant", ["relu", "relu6", "selfdual",
                                         "posneg"])
    @pytest.mark.parametrize("frozen", ["w", "b"])
    def test_one_of_w_and_b_frozen(self, variant, frozen):
        got = self._compare(12, 20, (11, 13), variant, seed=5,
                            frozen=[frozen])
        assert (got[1] is None) == (frozen == "w")
        assert (got[2] is None) == (frozen == "b")

    @pytest.mark.parametrize("variant", [1, 2])
    def test_frozen_beta_records_no_piece(self, monkeypatch, variant):
        pieces = []
        layer_node = act._layer_node

        def spy(out, code, piece, *args):
            pieces.append(piece)
            return layer_node(out, code, piece, *args)

        monkeypatch.setattr(act, "_layer_node", spy)
        got = self._compare(9, 10, (10, 12), variant, seed=3,
                            frozen=["beta"])
        assert got[2] is None and pieces == [None, None]

    @pytest.mark.parametrize("variant", [1, 2, "relu", "relu6", "selfdual",
                                         "posneg"])
    def test_non_finite_images(self, variant):
        rng = make_rng(610)
        images = rng.random((11, 1, 12, 12))
        cells = rng.random(images.shape)
        images[cells < 0.03] = np.nan
        images[(cells >= 0.03) & (cells < 0.06)] = np.inf
        images[(cells >= 0.06) & (cells < 0.09)] = -np.inf
        # inf - inf and inf * 0 in the GEMMs and the affine pieces
        with np.errstate(invalid="ignore"):
            got = self._compare(11, 16, (12, 12), variant, seed=4,
                                images=images)
        assert np.isnan(got[0]).any()
        # the cap of 6 clamps +inf
        assert np.isinf(got[0]).any() == (variant != "relu6")

    def test_feed_needs_per_channel_parameters(self):
        x, w = Tensor(np.zeros((2, 1, 8, 8))), Tensor(np.zeros((4, 1, 3, 3)))
        shared = MorphoLayerParams.init(1, 2, 2, POOL)
        with pytest.raises(ValueError, match="per-channel parameters on "
                           "axis 1"):
            morpho_act1_forward(tr.conv_feed(x, w), shared.activation,
                                shared.structuring, POOL)

    @pytest.mark.parametrize("variant", ["morpho1", "selfdual", "posneg"])
    def test_step_never_holds_conv1s_whole_output(self, monkeypatch,
                                                  variant):
        # a step with 8-filter groups: neither the forward pass nor the
        # backward pass, each counted from the step's start, holds as much
        # as conv1's whole output (or its whole gradient), which the
        # unfused chain allocates, next to x's im2col, in each pass; a
        # split stage's second act_pool reads the same feed, scaled
        spec = ModelSpec(variant=variant, filters=64, pool_extent=3,
                         pool_stride=3)
        bsz = 16
        conv1_bytes = 8 * bsz * 64 * 26 * 26
        monkeypatch.setattr(tr, "_SLICE_BYTES", conv1_bytes // 8)
        # one-channel blocks, so their scratch arrays stay small
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 1 << 16)
        model = build_model(spec, make_rng(5))
        rng = make_rng(6)
        x = Tensor(rng.random((bsz, 1, 28, 28)))
        labels = rng.integers(0, 10, bsz)
        assert len(tr.conv_feed(x, model.conv1.w).groups) == 8
        loss = []
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            loss.append(tr.cross_entropy(
                model.forward(x, train=True, rng=rng), labels))
            forward = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            loss.pop().backward()
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert model.conv1.w.grad is not None
        assert max(forward, backward) < conv1_bytes

    @pytest.mark.parametrize("variant", [1, 2])
    @pytest.mark.parametrize("conv1_trains", [True, False])
    def test_fused_layer_form_keeps_no_piece_array(self, monkeypatch,
                                                   variant, conv1_trains):
        # with a trainable beta a layer form on a Feed records no winning
        # piece inputs: after the forward pass the node holds its output
        # and its codes, less than one more output-sized float64 array,
        # and the backward pass rebuilds each group from the feed
        bsz, filters = 16, 64
        conv1_bytes = 8 * bsz * filters * 26 * 26
        monkeypatch.setattr(tr, "_SLICE_BYTES", conv1_bytes // 8)
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 1 << 16)
        pool = mo.PoolSpec((3, 3), (3, 3))
        rng = make_rng(630)
        x = Tensor(rng.random((bsz, 1, 28, 28)))
        w = Tensor(rng.uniform(-1 / 3, 1 / 3, (filters, 1, 3, 3)),
                   requires_grad=conv1_trains)
        layer = MorphoLayerParams.init(variant, 2, 3, pool, channels=filters)
        feed = tr.conv_feed(x, w)
        assert len(feed.groups) == 8 and layer.activation.beta.requires_grad
        out = []
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            out.append(FORWARDS[variant](feed, layer.activation,
                                         layer.structuring, pool,
                                         channel_axis=1))
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        out_bytes = out[0].data.nbytes
        assert held - out_bytes < out_bytes

    @pytest.mark.parametrize("variant", [1, 2])
    def test_rebuild_reads_the_forward_passs_weights(self, monkeypatch,
                                                     variant):
        # the backward pass rebuilds each group of conv1's output from the
        # weights the forward pass read: overwriting w in place in between
        # moves no gradient
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 6 * 7 * 5)

        def grads(overwrite):
            rng = make_rng(640)
            x = Tensor(rng.random((6, 1, 9, 7)))
            w = Tensor(rng.uniform(-1 / 3, 1 / 3, (20, 1, 3, 3)),
                       requires_grad=True)
            layer = _perturbed_layer(variant, 20, rng)
            g = rng.normal(size=(6, 20) + POOL.out_extent((7, 5)))
            feed = tr.conv_feed(x, w)
            assert len(feed.groups) == 3
            out = FORWARDS[variant](feed, layer.activation,
                                    layer.structuring, POOL, channel_axis=1)
            if overwrite:
                w.data[...] = np.nan
            ad.mul(out, Tensor(g)).sum().backward()
            return [w.grad] + [t.grad for t in
                               layer.named_tensors().values()]

        for have, ref in zip(grads(True), grads(False), strict=True):
            assert have.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("cap", [None, 6.0])
    def test_rectifier_stage1_never_holds_conv1s_whole_output(
            self, monkeypatch, cap):
        # conv1 fused into act_pool with 8-filter groups: neither the
        # forward pass nor the node's backward rules, each counted from the
        # start, hold as much as conv1's whole output or its whole gradient
        bsz, filters = 16, 64
        conv1_bytes = 8 * bsz * filters * 26 * 26
        monkeypatch.setattr(tr, "_SLICE_BYTES", conv1_bytes // 8)
        monkeypatch.setattr(mo, "_BLOCK_BYTES", 1 << 16)
        rng = make_rng(620)
        x = Tensor(rng.random((bsz, 1, 28, 28)))
        w = Tensor(rng.uniform(-1 / 3, 1 / 3, (filters, 1, 3, 3)),
                   requires_grad=True)
        b = Tensor(rng.uniform(-2, 7, filters), requires_grad=True)
        g = rng.normal(size=(bsz, filters, 13, 13))
        out = []
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            feed = tr.conv_feed(x, w, b)
            assert len(feed.groups) == 8
            out.append(mo.act_pool(feed, POOL, cap=cap))
            del feed
            forward = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            grads = [rule(g) for _, rule in out.pop()._parents]
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [d.shape for d in grads] == [w.shape, b.shape]
        assert max(forward, backward) < conv1_bytes

    def test_act_pool_takes_no_alpha_with_a_feed(self):
        feed = tr.conv_feed(Tensor(np.zeros((2, 1, 8, 8))),
                            Tensor(np.zeros((4, 1, 3, 3))))
        with pytest.raises(ValueError, match="no alpha with a Feed"):
            mo.act_pool(feed, POOL, alpha=0.5)

    @pytest.mark.parametrize("variant", [1, "relu", "posneg"])
    def test_image_gradient_against_finite_differences(self, monkeypatch,
                                                       variant, workers):
        # 8-filter groups of 20 filters, each adding its share into the
        # images' gradient; posneg's two readers each give one, which
        # backward adds.  Two input channels, so the weight rows' (C, kh,
        # kw) order meets _col2im's taps
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 6 * 7 * 5)
        rng = make_rng(670)
        images = rng.random((6, 2, 9, 7))
        w = Tensor(rng.uniform(-1 / 3, 1 / 3, (20, 2, 3, 3)))
        b = Tensor(rng.uniform(-1, 1, 20))
        if variant == 1:
            b, layer = None, _perturbed_layer(variant, 20, rng)
        else:
            layer = {name: Tensor(rng.uniform(0.5, 1.5))
                     for name in SLOPES.get(variant, ())}
        g = Tensor(rng.normal(size=(6, 20) + POOL.out_extent((7, 5))))

        def loss(x):
            h = tr.conv_feed(x, w, b)
            assert len(h.groups) == 3
            return ad.mul(self._stage(h, layer, variant), g).sum()

        x = Tensor(images, requires_grad=True)
        loss(x).backward()
        assert x.grad.shape == images.shape
        npt.assert_allclose(x.grad, ad.finite_difference_grad(
            loss, Tensor(images)), atol=1e-6)

    def test_two_readers_of_one_feed(self, monkeypatch):
        # two act_pools read one feed, each with its own output gradient:
        # conv1's gradients are the sum of both readers' shares, as through
        # the unfused chain, by value (two GEMMs sum where one did).  Each
        # backward pass makes its own gradient arrays at its first group, so
        # the second reader's pass does not overwrite what the first gave
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 6 * 7 * 5)
        rng = make_rng(650)
        x = Tensor(rng.random((6, 1, 9, 7)))
        w = Tensor(rng.uniform(-1 / 3, 1 / 3, (20, 1, 3, 3)),
                   requires_grad=True)
        b = Tensor(rng.uniform(-2, 7, 20), requires_grad=True)
        gs = [Tensor(rng.normal(size=(6, 20) + POOL.out_extent((7, 5))))
              for _ in "12"]

        def grads(h):
            w.grad = b.grad = None
            outs = [mo.act_pool(h, POOL), mo.act_pool(h, POOL, cap=6.0)]
            ad.add(*(ad.mul(o, g).sum() for o, g in zip(outs, gs))
                   ).backward()
            return w.grad, b.grad

        feed = tr.conv_feed(x, w, b)
        assert len(feed.groups) == 3
        for have, ref in zip(grads(feed), grads(chain_conv1(x, w, b))):
            npt.assert_allclose(have, ref, rtol=1e-12,
                                atol=1e-12 * np.abs(ref).max())

    def test_scale_is_read_once(self, monkeypatch):
        # Feed.scaled reads beta when the feed is made: overwriting it in
        # place between the forward and the backward pass moves no
        # gradient, conv1's and both slopes' included
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 6 * 7 * 5)

        def grads(overwrite):
            rng = make_rng(660)
            x = Tensor(rng.random((6, 1, 9, 7)))
            w = Tensor(rng.uniform(-1 / 3, 1 / 3, (20, 1, 3, 3)),
                       requires_grad=True)
            b = Tensor(rng.uniform(-2, 7, 20), requires_grad=True)
            slopes = {name: Tensor(rng.uniform(0.5, 1.5), requires_grad=True)
                      for name in SLOPES["posneg"]}
            g = rng.normal(size=(6, 20) + POOL.out_extent((7, 5)))
            out = SPLITS["posneg"](tr.conv_feed(x, w, b), slopes)
            if overwrite:
                for t in slopes.values():
                    t.data[...] = np.nan
            ad.mul(out, Tensor(g)).sum().backward()
            return [w.grad, b.grad] + [t.grad for t in slopes.values()]

        for have, ref in zip(grads(True), grads(False), strict=True):
            assert have.tobytes() == ref.tobytes()

    def test_scaled_refuses_a_non_scalar(self):
        feed = tr.conv_feed(Tensor(np.zeros((2, 1, 8, 8))),
                            Tensor(np.zeros((4, 1, 3, 3))))
        for s in (np.ones(2), [1.0, 2.0], Tensor(np.ones(1))):
            with pytest.raises(ValueError, match="needs a scalar"):
                feed.scaled(s)


class TestCrossEntropy:
    def test_matches_log_softmax(self):
        rng = make_rng(72)
        z = rng.normal(size=(8, 10)) * 3
        y = rng.integers(0, 10, size=8)
        got = float(tr.cross_entropy(Tensor(z), y).data)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.log(probs[np.arange(8), y]).mean()
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_gradient(self):
        rng = make_rng(73)
        z = rng.normal(size=(4, 5))
        y = rng.integers(0, 5, size=4)
        zt = Tensor(z, requires_grad=True)
        tr.cross_entropy(zt, y).backward()
        fd = ad.finite_difference_grad(lambda t: tr.cross_entropy(t, y),
                                       Tensor(z))
        npt.assert_allclose(zt.grad, fd, atol=1e-7)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        out = tr.cross_entropy(Tensor(z), np.array([0, 0]))
        assert np.isfinite(out.data)

    def test_refuses_logits_with_no_rows(self):
        # refused before numpy warns of an empty mean (warnings are errors)
        z = Tensor(np.zeros((0, 10)), requires_grad=True)
        with pytest.raises(ValueError, match=r"logits with no rows: "
                           r"\(0, 10\)"):
            tr.cross_entropy(z, np.zeros(0, dtype=np.int64))


class TestDropout:
    def test_scaling_and_determinism(self):
        x = Tensor(np.ones((4, 100)))
        a = tr.dropout(x, 0.5, make_rng(3)).data
        b = tr.dropout(x, 0.5, make_rng(3)).data
        npt.assert_array_equal(a, b)
        assert set(np.unique(a)) == {0.0, 2.0}
        # inverted scaling keeps the expectation
        assert abs(a.mean() - 1.0) < 0.15

    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones((2, 3)))
        assert tr.dropout(x, 0.0, make_rng(0)) is x


class TestAdam:
    def test_matches_textbook_reference(self):
        rng = make_rng(74)
        p = Tensor(rng.normal(size=5), requires_grad=True)
        ref = p.data.copy()
        m = np.zeros(5)
        v = np.zeros(5)
        opt = Adam([p], lr=0.01)
        for t in range(1, 4):
            g = rng.normal(size=5)
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
            npt.assert_allclose(p.data, ref, rtol=1e-12)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            (ad.mul(p, p)).sum().backward()
            opt.step()
        npt.assert_allclose(p.data, np.zeros(2), atol=1e-3)


class TestModel:
    def test_all_variants_forward(self):
        rng = make_rng(75)
        x = Tensor(rng.normal(size=(3, 1, 10, 10)))
        for variant in tr.VARIANTS:
            model = build_model(small_spec(variant), make_rng(1))
            out = model.forward(x, train=True, rng=make_rng(2))
            assert out.data.shape == (3, 10)
            assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_zero_image_batch_under_grad(self, variant):
        # the layer forms' conv1 groups divided by the batch size
        model = build_model(small_spec(variant), make_rng(1))
        out = model.forward(Tensor(np.zeros((0, 1, 10, 10))), train=True,
                            rng=make_rng(2))
        assert out.data.shape == (0, 10)

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_images_that_take_a_gradient_get_one(self, variant):
        # the fused conv1 gives the images the unfused chain's gradient,
        # conv1 -> stage 1 -> ..., with one group (6 filters) to the byte;
        # a split stage's two readers each give their own, which backward
        # adds, so those agree by value
        model = build_model(small_spec(variant), make_rng(0))
        rng = make_rng(78)
        images = rng.normal(size=(4, 1, 10, 10))
        g = Tensor(rng.normal(size=(4, 10)))
        x, x_ref = (Tensor(images, requires_grad=True) for _ in "12")
        ad.mul(model.forward(x), g).sum().backward()
        h = model.stage2(model.conv2(model.stage1(model.conv1(x_ref))))
        logits = model.dense(ad.reshape(h, (4, model.feature_dim)))
        ad.mul(logits, g).sum().backward()
        assert x.grad is not None
        if variant in SPLITS:
            npt.assert_allclose(x.grad, x_ref.grad, rtol=1e-12)
        else:
            npt.assert_array_equal(x.grad, x_ref.grad)

    def test_conv_bias_dropped_for_morpho(self):
        assert build_model(small_spec("relu-maxpool"), make_rng(0)).conv1.b is not None
        for variant in ("morpho1", "morpho2"):
            model = build_model(small_spec(variant), make_rng(0))
            assert model.conv1.b is None and model.conv2.b is None

    def test_spec_rejects_empty_layers(self):
        for name in ("filters", "kernel_size", "in_channels", "n_classes"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
                ModelSpec(**{name: 0})
            for value in (2.5, 3.0, True):
                with pytest.raises(ValueError, match=f"^{name} must be an "
                                   f"int, got {value}$"):
                    ModelSpec(**{name: value})
        for size in ((28, 0), (28,), (28, 28, 1)):
            with pytest.raises(ValueError, match="^image_size"):
                ModelSpec(image_size=size)

    @pytest.mark.parametrize("kw,message", [
        (dict(filters=2, image_size=(4, 4)),
         "image_size (4, 4) leaves conv2 a 0x0 output"),
        (dict(kernel_size=30), "image_size (28, 28) leaves conv1 a 0x0 "
         "output"),
        (dict(pool_extent=20), "image_size (28, 28) leaves conv2 a 2x2 "
         "output"),
        (dict(image_size=(28, 9)), "image_size (28, 9) leaves conv2 a 11x1 "
         "output")])
    def test_spec_rejects_sizes_with_no_room_for_two_stages(self, kw,
                                                            message):
        # refused when the spec is made, not when a model is built from it
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, "
                           "smaller than the"):
            ModelSpec(**kw)

    def test_spec_geometry(self):
        # 28 -> conv 26 -> pool 13 -> conv 11 -> pool 5; conv2's im2col,
        # 128 x 9 x 11 x 11, is the largest per-image array
        spec = ModelSpec()
        assert spec.feature_dim == 128 * 5 * 5
        assert spec.image_bytes == 8 * 128 * 9 * 11 * 11
        assert "feature_dim" not in asdict(spec)
        # a 2x2 conv2 output still pools, to 1x1
        assert ModelSpec(image_size=(12, 12), filters=3).feature_dim == 3

    @pytest.mark.parametrize("variant,nodes", [
        ("relu-maxpool", 14), ("relu6-maxpool", 14), ("selfdual", 18),
        ("posneg", 24)])
    def test_rectifier_stage_is_one_node(self, variant, nodes):
        # conv1 fused with stage 1, conv, stage, reshape, dropout, matmul,
        # bias, cross-entropy and the six parameters: 14; a selfdual stage
        # adds a second act_pool and a sub (14 + 2 * 2 = 18), a posneg stage
        # those, -beta_pos and both slopes (14 + 2 * 5 = 24); neither
        # builds a -x node or a product, and both take conv1 fused
        model = build_model(small_spec(variant), make_rng(0))
        x = Tensor(make_rng(1).normal(size=(4, 1, 10, 10)))
        loss = tr.cross_entropy(model.forward(x, train=True, rng=make_rng(2)),
                                np.zeros(4, dtype=np.int64))
        assert len(ad._toposort(loss._node)) == nodes

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_stage_gradient_is_channel_major(self, variant):
        # every stage hands a conv-like channel-major input its gradient
        # channel-major, so conv1's back_w takes it as a view, not a copy
        model = build_model(small_spec(variant), make_rng(0))
        rng = make_rng(77)
        x = Tensor(channel_major(rng.normal(size=(3, 6, 8, 8))),
                   requires_grad=True)
        out = model.stage1(x)
        g = Tensor(rng.normal(size=out.data.shape))
        ad.mul(out, g).sum().backward()
        assert x.grad.swapaxes(0, 1).flags.c_contiguous
        gmat = x.grad.transpose(1, 0, 2, 3).reshape(6, -1)
        assert np.shares_memory(gmat, x.grad)

    def test_default_feature_dim(self):
        model = build_model(ModelSpec(), make_rng(0))
        # 28 -> conv 26 -> pool 13 -> conv 11 -> pool 5
        assert model.feature_dim == 128 * 5 * 5

    def test_trainable_scopes(self):
        model = build_model(small_spec("morpho1"), make_rng(0))
        all_params = model.trainable("all")
        acts = model.trainable("activations_only")
        assert set(map(id, acts)) < set(map(id, all_params))
        # conv weights and dense weights are excluded from the narrow scope
        assert id(model.conv1.w) not in set(map(id, acts))
        assert id(model.dense.w) not in set(map(id, acts))
        with pytest.raises(ValueError):
            model.trainable("bogus")

    def test_save_load_round_trip(self, tmp_path):
        rng = make_rng(76)
        x = Tensor(rng.normal(size=(2, 1, 10, 10)))
        for variant in tr.VARIANTS:
            model = build_model(small_spec(variant), make_rng(5))
            # move every parameter off its init so a positional mix-up shows
            for p in model.parameters():
                p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
            want = model.forward(x).data
            path = tmp_path / f"{variant}.npz"
            tr.save_model(model, path)
            clone = tr.load_model(path)
            assert clone.spec == model.spec
            for a, b in zip(clone.parameters(), model.parameters()):
                npt.assert_array_equal(a.data, b.data)
            npt.assert_array_equal(clone.forward(x).data, want, variant)


def _traced_peak(call) -> int:
    """tracemalloc peak of ``call()``, in bytes above what was allocated
    when it started."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


class TestNoGradFeatures:
    """Under no_grad ``Model.features`` runs the conv/stage stack on slices
    of whole images, each a multiple of ``_GEMM_COLUMN_GROUP`` images, and
    writes their features into one array."""

    # conv1's im2col, 9 x 8 x 8 elements, is the largest per-image array
    # of small_spec's stack (conv1's output is 6 x 64, conv2's im2col 54 x 4)
    IMAGE_BYTES = 8 * 9 * 8 * 8

    @staticmethod
    def _spy_windows(monkeypatch) -> list:
        # the batch length of every im2col: two per slice, conv1's, conv2's
        seen = []
        windows = tr._windows
        monkeypatch.setattr(tr, "_windows",
                            lambda xs, kh, kw: seen.append(len(xs))
                            or windows(xs, kh, kw))
        return seen

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_byte_equal_to_the_grad_forward(self, monkeypatch, variant):
        # a budget of 12 images rounds down to slices of 8; every slice
        # starts both convs' GEMMs on a column group, so features and
        # logits are those of the whole batch under grad, to the bit
        monkeypatch.setattr(tr, "_SLICE_BYTES", 12 * self.IMAGE_BYTES)
        model = build_model(small_spec(variant), make_rng(3))
        rng = make_rng(90)
        for p in model.parameters():
            p.data = p.data + rng.normal(scale=0.1, size=p.data.shape)
        seen = self._spy_windows(monkeypatch)
        for slices in ([1], [7], [8], [8, 3], [8, 8, 8, 5]):
            x = Tensor(rng.normal(size=(sum(slices), 1, 10, 10)))
            want = [model.features(x).data, model.forward(x).data]
            seen.clear()
            with ad.no_grad():
                got = [model.features(x), model.forward(x)]
            assert seen == 2 * [n for n in slices for _ in "12"]
            for have, ref in zip(got, want):
                assert not have._parents
                assert have.data.shape == ref.shape
                assert have.data.tobytes() == ref.tobytes()

    def test_default_budget_at_the_protocol_shapes(self, monkeypatch):
        # 16 MiB holds 15 images of conv2's 1.1 MB im2col, and 12 filters
        # of conv1's output at batch 256 (1.4 MB a filter) but 193 at
        # batch 16, each rounded down to a multiple of 8
        seen = self._spy_windows(monkeypatch)
        w2 = Tensor(np.zeros((128, 128, 3, 3)))
        for bsz in (256, 16):
            seen.clear()
            tr.conv2d(Tensor(np.zeros((bsz, 128, 13, 13))), w2, None)
            assert seen == bsz // 8 * [8]
        w1 = Tensor(np.zeros((128, 1, 3, 3)))
        for bsz, sizes in ((256, 16 * [8]), (16, [128]), (8, [128])):
            feed = tr.conv_feed(Tensor(np.zeros((bsz, 1, 28, 28))), w1)
            assert [g.stop - g.start for g in feed.groups] == sizes
        # an eval batch of 512 runs 64 slices of 8 images, each two im2cols
        model = build_model(ModelSpec(), make_rng(0))
        x = Tensor(make_rng(92).random((512, 1, 28, 28)))
        seen.clear()
        with ad.no_grad():
            assert model.features(x).data.shape == (512, 128 * 5 * 5)
        assert seen == 128 * [8]

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_memory_is_the_features_and_one_slice(self, monkeypatch,
                                                  variant):
        # 16 slices of 8 images; the bound is below the whole batch's
        # conv1 output, so the forward never holds one
        model = build_model(small_spec(variant, filters=16,
                                       image_size=(28, 28)), make_rng(4))
        # conv2's im2col, 16 x 9 x 11 x 11 elements, is the largest here
        monkeypatch.setattr(tr, "_SLICE_BYTES", 8 * 8 * 16 * 9 * 121)
        x = make_rng(91).random((128, 1, 28, 28))
        feats = []
        with ad.no_grad():
            one_slice = _traced_peak(lambda: model.features(Tensor(x[:8])))
            peak = _traced_peak(
                lambda: feats.append(model.features(Tensor(x)).data))
        # plus 16 KiB for the interpreter's and numpy's small objects
        bound = feats[0].nbytes + one_slice + (1 << 14)
        assert peak <= bound < 128 * 16 * 26 * 26 * 8  # conv1's output


# one forward and backward pass of Model.features, seeded, with the stage
# parameters moved off their clamp init; prints the SHA-256 of the features
# under grad and under no_grad and of every gradient below the dense head
_THREAD_PROBE = """
import contextlib, hashlib, json
from morphnn import autodiff as ad, train as tr
from morphnn.autodiff import Tensor, make_rng
hashes = {}
for variant, filters in [("morpho1", 128), ("morpho1", 16), ("morpho2", 16)]:
    model = tr.build_model(tr.ModelSpec(variant=variant, filters=filters,
                                        n_terms=3, m_terms=2), make_rng(0))
    rng = make_rng(1)
    for p in model.stage_parameters():
        p.data = p.data + rng.normal(scale=0.3, size=p.data.shape)
    x = Tensor(rng.random((256, 1, 28, 28)))
    g = rng.normal(size=(256, model.feature_dim))
    for held in (False, True):
        for p in model.parameters():
            p.grad = None
        with tr._blas_held() if held else contextlib.nullcontext():
            h = model.features(x)
            ad.mul(h, Tensor(g)).sum().backward()
            with ad.no_grad():
                h0 = model.features(x).data
        below = [p.grad for name, p in model.named_parameters().items()
                 if not name.startswith("dense")]
        hashes[f"{variant}/{filters}/{held}"] = [
            hashlib.sha256(a.tobytes()).hexdigest()
            for a in [h.data, h0] + below]
print(json.dumps(hashes))
"""


def test_features_and_gradients_do_not_depend_on_blas_threads():
    # the features, with and without grad, and every gradient below the
    # dense head are the same bytes on 1, 2 and 4 OpenBLAS threads, at the
    # benchmark's shape (morpho1, 128 filters, batch 256: 16 conv1 groups,
    # 32 conv2 slices) and at the parameter hashes' 16 filters; a fused
    # layer form's backward pass rebuilds conv1's groups and relies on it.
    # The dense head is left out: its GEMM, [256, 400] @ [400, 10] at 16
    # filters, is known to give other last bits on other thread counts.
    # The variable must be set before numpy loads, so each count runs in
    # its own process; a gradient that is None fails the probe.  OpenBLAS
    # runs at most one thread per core, so 4 may run as fewer.  Each pass
    # runs twice, the second as train() runs it (OpenBLAS held at one
    # thread, the pooled loops on a pool of its thread count), with the
    # same bytes
    src = str(os.path.dirname(os.path.dirname(tr.__file__)))
    runs = {}
    for threads in ("1", "2", "4"):
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True,
            text=True, timeout=120,
            env=os.environ | {"OPENBLAS_NUM_THREADS": threads,
                              "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert runs["2"] == runs["1"]
    assert runs["4"] == runs["1"]
    for key, hashes in runs["1"].items():
        if key.endswith("/True"):
            assert hashes == runs["1"][key[:-len("True")] + "False"]


# a short seeded train() of two variants at the parameter hashes' shape
# (16 filters, batch 256, two steps); prints its pool's workers and the
# SHA-256 of each trained model's parameters
_TRAIN_PROBE = """
import hashlib, json
from morphnn import data, train as tr
from morphnn.autodiff import make_rng
rng = make_rng(2)
ds = data.Dataset(rng.random((512, 28, 28)), rng.integers(0, 10, 512))
test = data.Dataset(ds.images[:64], ds.labels[:64])
hashes = {}
for variant in ("relu-maxpool", "morpho1"):
    model = tr.build_model(tr.ModelSpec(variant=variant, filters=16),
                           make_rng(0))
    tr.train(model, ds, test, tr.TrainConfig(batch_size=256, max_epochs=1))
    hashes[variant] = hashlib.sha256(b"".join(
        p.data.tobytes() for p in model.parameters())).hexdigest()
print(json.dumps({"workers": tr._pool_workers(), "params": hashes}))
"""


def test_training_does_not_depend_on_blas_threads():
    # train() holds OpenBLAS at one thread and splits work over a pool of
    # as many workers as it had threads, so a run on 1 thread (a pool of
    # 1) and on 2 (a pool of 2, on two cores) trains the same bytes, the
    # dense head's included
    src = str(os.path.dirname(os.path.dirname(tr.__file__)))
    runs = {}
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _TRAIN_PROBE], capture_output=True,
            text=True, timeout=300,
            env=os.environ | {"OPENBLAS_NUM_THREADS": threads,
                              "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert runs["1"]["workers"] == 1
    assert runs["2"]["workers"] == min(2, len(os.sched_getaffinity(0)))
    assert runs["2"]["params"] == runs["1"]["params"]


class TestBlasHold:
    """For the span of ``train()`` OpenBLAS runs one thread and the pooled
    loops, ``evaluate()``'s included, as many workers as it had threads;
    both are given back when train() returns or raises."""

    @pytest.fixture
    def threads(self):
        """OpenBLAS's thread count getter, with 2 threads set (or as many
        as OpenBLAS allows) for the test and the caller's count after."""
        calls = tr._blas_threads()
        if calls is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        get, put = calls
        before = get()
        put(2)
        yield get
        put(before)

    def test_train_holds_one_thread_and_gives_it_back(self, threads,
                                                     monkeypatch):
        entry, seen = threads(), set()
        forward = Model.forward

        def spy(self, x, train=False, rng=None):
            seen.add(("step" if train else "eval", threads(), mo._workers()))
            return forward(self, x, train, rng)

        monkeypatch.setattr(Model, "forward", spy)
        ds = synth_ds(seed=84, n=32)
        tr.train(build_model(small_spec(), make_rng(0)), ds, ds,
                 TrainConfig(batch_size=16, max_epochs=1))
        assert seen == {("step", 1, entry), ("eval", 1, entry)}
        assert threads() == entry and mo._active is None
        assert tr._pool_workers() == entry

    def test_without_the_thread_calls_there_is_no_pool(self, monkeypatch,
                                                       tmp_path):
        # numpy bundles no OpenBLAS whose threads can be set: no hold
        monkeypatch.setattr(np, "__file__",
                            str(tmp_path / "numpy" / "__init__.py"))
        assert tr._pool_workers() == 1
        seen, forward = set(), Model.forward

        def spy(self, x, train=False, rng=None):
            seen.add(mo._workers())
            return forward(self, x, train, rng)

        monkeypatch.setattr(Model, "forward", spy)
        ds = synth_ds(seed=84, n=32)
        tr.train(build_model(small_spec(), make_rng(0)), ds, ds,
                 TrainConfig(batch_size=16, max_epochs=1))
        assert seen == {1}

    def test_train_gives_it_back_when_it_raises(self, threads):
        entry = threads()
        ds = synth_ds(seed=84, n=32)
        ds.images[3, 4, 5] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(tr.DivergenceError):
            tr.train(build_model(small_spec(), make_rng(0)), ds, ds,
                     TrainConfig(batch_size=32, max_epochs=1))
        assert threads() == entry and mo._active is None


def _buffer(a):
    """The array that owns the memory of ``a``, a view or not."""
    while a.base is not None:
        a = a.base
    return a


class TestSavedArrays:
    """A training step's graph keeps only the arrays its backward rules
    read: a layer's output dies with its tensor once its consumer has run,
    unless a rule of that consumer reads it."""

    def _watched(self, model, names, refs):
        # each named layer records a weak reference to its output's memory
        for name in names:
            def call(t, layer=getattr(model, name), name=name):
                out = layer(t)
                refs[name] = weakref.ref(_buffer(out.data))
                return out
            setattr(model, name, call)

    def test_relu_maxpool_outputs_die_with_their_consumer(self, monkeypatch):
        model = build_model(small_spec("relu-maxpool"), make_rng(0))
        weights = [model.conv1.w, model.conv2.w]
        refs, cols = {}, []
        self._watched(model, ["conv1", "stage1", "conv2"], refs)
        im2col = tr._im2col

        def tracked(*args):
            out = im2col(*args)
            cols.append(weakref.ref(out))
            return out

        monkeypatch.setattr(tr, "_im2col", tracked)
        x = Tensor(make_rng(1).normal(size=(4, 1, 10, 10)))
        h = model.stage1(model.conv1(x))
        # act_pool's rule reads its input's shape, not its input
        assert refs["conv1"]() is None
        cols.clear()  # conv1's im2col: its back_w reads it
        h = model.conv2(h)
        # conv2d's rules read x and w: no im2col of x outlives the forward
        assert cols and all(c() is None for c in cols)
        assert refs["stage1"]() is not None
        assert refs["conv2"]() is not None
        conv2 = h._node
        h = model.stage2(h)
        assert refs["conv2"]() is None
        # stage 1's output dies once conv2's back_w has run: back_x, the
        # next rule of conv2's node, runs without it
        (w_node, back_w), (x_node, back_x), bias = conv2.parents
        seen = []
        conv2.parents = ((w_node, back_w), (x_node, lambda g, rule=back_x: (
            seen.append(refs["stage1"]() is None), rule(g))[1]), bias)
        del back_w, back_x, conv2
        h.sum().backward()
        assert seen == [True]
        assert all(w.grad is not None for w in weights)

    @pytest.mark.parametrize("block_bytes", [mo._BLOCK_BYTES, 300])
    @pytest.mark.parametrize("variant", ["morpho1", "morpho2", "selfdual"])
    def test_morpho_stage_inputs_die_once_their_stage_has_run(
            self, monkeypatch, variant, block_bytes):
        # a layer form keeps each cell's winning piece input, not its
        # stage input, and selfdual's second act_pool keeps no take of the
        # input it scales, so conv1's and conv2's outputs die as soon as
        # their stage has run, on one block or on many
        monkeypatch.setattr(mo, "_BLOCK_BYTES", block_bytes)
        model = build_model(small_spec(variant), make_rng(0))
        trained = [model.conv1.w, model.conv2.w] + model.stage_parameters()
        refs = {}
        self._watched(model, ["conv1", "conv2"], refs)
        x = Tensor(make_rng(1).normal(size=(4, 1, 10, 10)))
        h = model.stage1(model.conv1(x))
        assert refs["conv1"]() is None
        h = model.conv2(h)
        assert refs["conv2"]() is not None
        h = model.stage2(h)
        assert refs["conv2"]() is None
        h.sum().backward()
        assert all(t.grad is not None for t in trained)

    @pytest.mark.parametrize("variant", tr.VARIANTS)
    def test_no_rule_reads_a_tensor_lazily(self, monkeypatch, variant):
        # every array a rule reads is captured when its op runs: poisoning
        # each non-leaf tensor's data after the forward pass leaves every
        # parameter gradient byte for byte as it was
        labels = np.arange(4) % 10

        def grads(poison):
            made = []
            make_node = ad.make_node
            if poison:
                monkeypatch.setattr(ad, "make_node", lambda data, parents: (
                    made.append(make_node(data, parents)) or made[-1]))
            model = build_model(small_spec(variant), make_rng(0))
            x = Tensor(make_rng(1).normal(size=(4, 1, 10, 10)))
            loss = tr.cross_entropy(
                model.forward(x, train=True, rng=make_rng(2)), labels)
            monkeypatch.undo()
            for t in made:
                if t._parents:
                    t.data = np.full(t.data.shape, np.nan)
            assert len(made) > 5 or not poison
            loss.backward()
            return [p.grad.tobytes() for p in model.parameters()]

        assert grads(poison=True) == grads(poison=False)


class TestTrainLoop:
    @staticmethod
    def _strip_timing(metrics):
        d = asdict(metrics)
        d.pop("wall_seconds")
        for row in d["epochs"]:
            for key in ("seconds", "step_seconds", "examples_per_second",
                        "peak_rss_mb"):
                row.pop(key)
        return d

    def test_deterministic_given_seed(self):
        ds = synth_ds(seed=80, n=96)
        cfg = TrainConfig(batch_size=32, max_epochs=2, seed=7)
        runs = []
        for _ in range(2):
            model = build_model(small_spec(), make_rng(1))
            runs.append(tr.train(model, ds, ds, cfg))
        assert self._strip_timing(runs[0]) == self._strip_timing(runs[1])

    def test_activations_only_freezes_the_rest(self):
        ds = synth_ds(seed=81, n=64)
        model = build_model(small_spec("morpho1"), make_rng(2))
        conv_before = model.conv1.w.data.copy()
        dense_before = model.dense.w.data.copy()
        beta_before = model.stage1.layer.activation.beta.data.copy()
        cfg = TrainConfig(batch_size=32, max_epochs=1, seed=3,
                          trainable_scope="activations_only")
        tr.train(model, ds, ds, cfg)
        npt.assert_array_equal(model.conv1.w.data, conv_before)
        npt.assert_array_equal(model.dense.w.data, dense_before)
        assert not np.array_equal(model.stage1.layer.activation.beta.data,
                                  beta_before)

    def test_early_stopping_counts_stale_epochs(self):
        ds = synth_ds(seed=82, n=64)
        model = build_model(small_spec(), make_rng(0))
        cfg = TrainConfig(batch_size=32, max_epochs=10, patience=1, lr=0.0,
                          seed=0)
        metrics = tr.train(model, ds, ds, cfg)
        assert len(metrics.epochs) == 2  # epoch 0 is best, epoch 1 stalls
        assert metrics.best_epoch == 0

    @pytest.mark.parametrize("name,value", [
        ("patience", 0), ("patience", -5), ("eval_batch_size", 0)])
    def test_config_rejects_counts_below_one(self, name, value):
        # refused up front: patience 0 used to stop as 1 does, and an eval
        # batch of 0 failed only after a whole epoch had trained
        with pytest.raises(ValueError,
                           match=f"^{name} must be >= 1, got {value}$"):
            TrainConfig(**{name: value})

    def test_evaluate_refuses_an_empty_dataset(self):
        model = build_model(small_spec(), make_rng(0))
        empty = md.Dataset(np.zeros((0, 10, 10)), np.zeros(0, np.int64))
        with pytest.raises(ValueError, match="the dataset is empty"):
            tr.evaluate(model, empty)

    def test_train_refuses_an_empty_training_set(self, tmp_path):
        # refused before the metrics file is opened, not after truncating
        # it and running a whole evaluate()
        model = build_model(small_spec(), make_rng(0))
        empty = md.Dataset(np.zeros((0, 10, 10)), np.zeros(0, np.int64))
        jsonl = tmp_path / "metrics.jsonl"
        with pytest.raises(ValueError, match="the training set is empty"):
            tr.train(model, empty, synth_ds(seed=86, n=8), TrainConfig(),
                     metrics_jsonl=jsonl)
        assert not jsonl.exists()

    def test_previous_graph_freed_before_next_forward(self, monkeypatch):
        # a step's logits, and the graph behind them, must be gone when the
        # next training forward starts building its own
        ds = synth_ds(seed=85, n=96)
        model = build_model(small_spec("morpho1"), make_rng(0))
        logits_refs, alive = [], []
        cross_entropy, forward = tr.cross_entropy, model.forward

        def tracking_cross_entropy(logits, labels):
            logits_refs.append(weakref.ref(logits.data))
            return cross_entropy(logits, labels)

        def counting_forward(x, train=False, rng=None):
            if train:
                alive.append(sum(r() is not None for r in logits_refs))
            return forward(x, train=train, rng=rng)

        monkeypatch.setattr(tr, "cross_entropy", tracking_cross_entropy)
        monkeypatch.setattr(model, "forward", counting_forward)
        tr.train(model, ds, ds, TrainConfig(batch_size=32, max_epochs=1,
                                            seed=0))
        assert alive == [0, 0, 0]

    def test_divergence_raises_with_epoch(self):
        # overflowing weights drive the logits to +/-inf and the loss to
        # nan, while every parameter is still finite
        ds = synth_ds(seed=83, n=32)
        model = build_model(small_spec(), make_rng(0))
        model.conv1.w.data[:] = 1e308
        cfg = TrainConfig(batch_size=32, max_epochs=3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.DivergenceError) as err:
                tr.train(model, ds, ds, cfg)
        assert (err.value.epoch, err.value.step) == (0, 0)
        assert err.value.tensor is None
        assert str(err.value) == "training diverged at epoch 0, step 0"

    def test_divergence_counts_steps_across_epochs(self):
        # one step per epoch; a huge learning rate pushes the weights so
        # far in the first step that the second forward overflows
        ds = synth_ds(seed=83, n=32)
        model = build_model(small_spec(), make_rng(0))
        cfg = TrainConfig(lr=1e308, batch_size=32, max_epochs=3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.DivergenceError) as err:
                tr.train(model, ds, ds, cfg)
        assert (err.value.epoch, err.value.step) == (1, 1)

    def test_divergence_names_the_first_non_finite_parameter(self):
        ds = synth_ds(seed=83, n=64)
        model = build_model(small_spec("morpho1"), make_rng(0))
        model.stage2.layer.activation.beta.data[1, 0, 0] = np.nan
        model.dense.b.data[0] = np.inf
        cfg = TrainConfig(batch_size=32, max_epochs=1, seed=0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(tr.DivergenceError) as err:
                tr.train(model, ds, ds, cfg)
        assert (err.value.epoch, err.value.step) == (0, 0)
        assert err.value.tensor == "parameter stage2.beta"
        assert str(err.value).endswith(": parameter stage2.beta is not "
                                       "finite")

    def test_divergence_names_the_first_non_finite_gradient(self,
                                                            monkeypatch):
        # a finite loss whose backward sends nan: caught before Adam steps
        ds = synth_ds(seed=83, n=64)
        model = build_model(small_spec(), make_rng(0))
        before = [p.data.copy() for p in model.parameters()]

        cross_entropy = tr.cross_entropy

        def nan_backward(logits, labels):
            loss = cross_entropy(logits, labels)
            return ad.make_node(loss.data, [
                (logits, lambda g: np.full(logits.data.shape, np.nan))])

        monkeypatch.setattr(tr, "cross_entropy", nan_backward)
        with np.errstate(invalid="ignore"):
            with pytest.raises(tr.DivergenceError) as err:
                tr.train(model, ds, ds, TrainConfig(batch_size=32, seed=0))
        assert (err.value.epoch, err.value.step) == (0, 0)
        assert err.value.tensor == "gradient of conv1.w"
        for p, was in zip(model.parameters(), before):
            npt.assert_array_equal(p.data, was)

    def test_divergence_ignores_a_frozen_parameters_stale_gradient(self):
        # a nan gradient left on conv1.w by an earlier run takes no part in
        # an activations-only run and must not stop it
        ds = synth_ds(seed=83, n=64)
        model = build_model(small_spec("morpho1"), make_rng(0))
        model.conv1.w.grad = np.full(model.conv1.w.data.shape, np.nan)
        cfg = TrainConfig(batch_size=32, max_epochs=1, seed=0,
                          trainable_scope="activations_only")
        tr.train(model, ds, ds, cfg)
        assert np.isnan(model.conv1.w.grad).all()

    def test_named_parameters_follow_parameters_order(self):
        model = build_model(small_spec("morpho2"), make_rng(0))
        named = model.named_parameters()
        assert list(named)[:5] == ["conv1.w", "stage1.beta", "stage1.alpha",
                                   "stage1.w0", "stage1.w1"]
        assert list(named)[-2:] == ["dense.w", "dense.b"]
        assert list(named.values()) == model.parameters()
        posneg = build_model(small_spec("posneg"), make_rng(0))
        assert [n for n in posneg.named_parameters() if "stage1" in n] == [
            "stage1.beta_pos", "stage1.beta_neg"]

    def test_metrics_files(self, tmp_path):
        ds = synth_ds(seed=84, n=64)
        model = build_model(small_spec(), make_rng(0))
        cfg = TrainConfig(batch_size=32, max_epochs=2, seed=0)
        jsonl = tmp_path / "epochs.jsonl"
        summary = tmp_path / "summary.csv"
        tr.train(model, ds, ds, cfg, metrics_jsonl=jsonl, summary_csv=summary)
        lines = jsonl.read_text().strip().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert {"epoch", "train_loss", "train_acc", "test_acc", "seconds",
                "step_seconds", "examples_per_second",
                "peak_rss_mb"} <= row.keys()
        # 64 images in 2 steps of 32
        assert 0 < 2 * row["step_seconds"] <= row["seconds"]
        assert row["examples_per_second"] == pytest.approx(
            32 / row["step_seconds"])
        assert row["peak_rss_mb"] > 0
        header = summary.read_text().splitlines()[0].split(",")
        assert "best_test_acc" in header

    def test_every_variant_overfits_a_tiny_set(self):
        # trainability guard: each stage type must be optimizable end to end;
        # no dropout and a roomier feature map so memorization is possible
        ds = synth_ds(seed=85, n=64, side=14)
        cfg = TrainConfig(lr=0.02, batch_size=32, max_epochs=40, patience=40,
                          seed=1)
        for variant in tr.VARIANTS:
            model = build_model(small_spec(variant, filters=8, dropout=0.0,
                                           image_size=(14, 14)), make_rng(4))
            metrics = tr.train(model, ds, ds, cfg)
            best = max(e["train_acc"] for e in metrics.epochs)
            assert best >= 0.9, (variant, best)


class TestProtocols:
    def test_table_requires_baseline(self):
        ds = synth_ds(seed=86, n=32)
        cfg = TrainConfig(batch_size=32, max_epochs=1)
        with pytest.raises(ValueError, match="baseline"):
            tr.run_table1_protocol({"selfdual": small_spec("selfdual")},
                                   cfg, ds, ds, seeds=(0,))

    def test_table_reports_deltas(self):
        ds = synth_ds(seed=87, n=64)
        cfg = TrainConfig(batch_size=32, max_epochs=2, seed=0)
        report = tr.run_table1_protocol(
            {"relu-maxpool": small_spec("relu-maxpool"),
             "selfdual": small_spec("selfdual")},
            cfg, ds, ds, seeds=(0, 1))
        assert report["variants"]["relu-maxpool"]["delta_vs_baseline"] == 0.0
        assert len(report["variants"]["selfdual"]["accuracies"]) == 2
