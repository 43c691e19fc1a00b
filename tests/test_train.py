"""Training harness: ops vs oracles, model wiring, optimization, protocols."""

import json
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import oracle_conv2d, synth_classification

from morphnn import autodiff as ad
from morphnn import data as md
from morphnn import train as tr
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

    def test_conv_bias_dropped_for_morpho(self):
        assert build_model(small_spec("relu-maxpool"), make_rng(0)).conv1.b is not None
        for variant in ("morpho1", "morpho2"):
            model = build_model(small_spec(variant), make_rng(0))
            assert model.conv1.b is None and model.conv2.b is None

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


class TestTrainLoop:
    @staticmethod
    def _strip_timing(metrics):
        d = metrics.to_dict()
        d.pop("wall_seconds")
        for row in d["epochs"]:
            row.pop("seconds")
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
        # overflowing weights drive the logits to +/-inf and the loss to nan
        ds = synth_ds(seed=83, n=32)
        model = build_model(small_spec(), make_rng(0))
        model.conv1.w.data[:] = 1e308
        cfg = TrainConfig(batch_size=32, max_epochs=3, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(tr.DivergenceError) as err:
                tr.train(model, ds, ds, cfg)
        assert err.value.epoch == 0

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
        assert {"epoch", "train_loss", "train_acc", "test_acc",
                "seconds"} <= row.keys()
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
