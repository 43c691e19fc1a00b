"""The benchmark's workloads, driven through morphnn's public functions.

Every workload is one closed loop: one caller, each operation starting when
the previous one has returned.  An operation is one ``train()`` epoch, one
``evaluate()`` call (one eval batch) or one CLI command; a failure is an
exception, a non-zero exit code or a failed output check.

Untraced runs report the end-to-end metrics.  Traced runs drive the same
work through the model's layer attributes (or the representation functions
the ``basis`` command calls) inside spans, then probe each op alone, and
report the per-layer metrics.  A per-layer metric whose layer the workload
does not run reads 0.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import resource
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes
from tracing import (MB, Tracer, graph_mb, graph_nodes, median,
                     retained_grad_mb)

MODULES = ("autodiff", "morphops", "activations", "representation", "data",
           "gradcheck", "train", "cli")

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}

STEP_LAYERS = ("train.conv2d_fwd", "train.stage_fwd", "train.head_fwd",
               "autodiff.backward", "train.adam_step")
REP_FUNCS = ("median_table", "kernel_enumerate", "minimal_basis",
             "dual_table", "reconstruct_sup_erosions", "reconstruct_inf_dilations",
             "truncated_bounds")


def per_layer_units() -> dict[str, str]:
    units = {"train.step_s": "s"}
    units.update({f"{name}_s": "s" for name in STEP_LAYERS})
    units.update({"train.eval_batch_s": "s", "data.batches_s": "s",
                  "autodiff.graph_nodes": "count", "autodiff.graph_mb": "MB",
                  "autodiff.retained_grad_mb": "MB"})
    for name in probes.metric_names():
        units[name] = "MB" if name.endswith("_mb") else "s"
    units.update({f"representation.{f}_s": "s" for f in REP_FUNCS})
    units.update({"cli.basis_overhead_s": "s", "cli.gradcheck_s": "s",
                  "cli.basis_s": "s", "gradcheck.fraction_checked": "share",
                  "gradcheck.cases": "count", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    return units


@dataclass(frozen=True)
class Sizes:
    """Workload shapes.  The defaults are the benchmark; the smoke check
    shrinks them."""

    batch: int = 256            # criterion 9's training batch
    filters: int = 128
    # two steps per epoch, so train() still holds one step's graph while
    # it builds the next, as in a full epoch; 5:1 like criterion 9's 10k:2k
    n_train: int = 512
    n_test: int = 102
    eval_batch: int = 512       # evaluate() batch; one batch per call
    # timed operations per run, at least; two keeps a train-morpho1 run
    # near half a minute while the median still has two epochs
    min_ops: int = 2
    gradcheck_args: tuple[str, ...] = ()   # the default 52-case suite
    gradcheck_cases: int = 52
    gradcheck_repeats: int = 3  # one command is too short to be steady
    basis_window: str = "3x5"   # the largest window the CLI accepts
    basis_size: int = 6435      # C(15, 8) minimal median kernels


# -- bookkeeping ----------------------------------------------------------


@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def late(self, problems: list[str]) -> None:
        """A whole-run check: a failure is charged to the last operation."""
        if problems:
            self.problems += problems
            self.failed = min(self.failed + 1, max(self.attempted, 1))
            self.attempted = max(self.attempted, 1)

    def timed(self, fn, check=lambda value: []):
        """Run one operation; returns (value or None, seconds)."""
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # any failure of the program is counted
            self.record([f"{type(exc).__name__}: {exc}"])
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        self.record(check(value))
        return value, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def stream(seed: int, tag: int) -> np.random.Generator:
    """Benchmark-side random stream; ``tag`` keeps the streams apart."""
    return np.random.Generator(np.random.PCG64([seed, tag]))


# -- set-up ---------------------------------------------------------------


def import_morphnn() -> types.SimpleNamespace:
    """Fresh import of every morphnn module, so set-up can be repeated."""
    for name in [m for m in sys.modules
                 if m == "morphnn" or m.startswith("morphnn.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"morphnn.{name}") for name in MODULES})


def make_split(mods, rng: np.random.Generator, templates: np.ndarray,
               n: int):
    """Class templates plus uniform noise, 28x28 float64 in [0, 1]."""
    labels = rng.permutation(np.arange(n) % 10).astype(np.int64)
    images = 0.6 * templates[labels] + 0.4 * rng.random((n, 28, 28))
    return mods.data.Dataset(images, labels)


def build_state(mods, workload: str, seed: int, sizes: Sizes) -> dict:
    T = mods.train
    if workload == "verify":
        return {"parser": mods.cli.build_parser()}
    rng = stream(seed, 0)
    templates = (rng.random((10, 28, 28)) < 0.3).astype(np.float64)
    if workload.startswith("train-"):
        variant = workload[len("train-"):]
        spec = T.ModelSpec(variant=variant, n_terms=3, m_terms=2,
                           filters=sizes.filters)
        return {"model": T.build_model(spec, mods.autodiff.make_rng(seed)),
                "train": make_split(mods, rng, templates, sizes.n_train),
                "test": make_split(mods, rng, templates, sizes.n_test)}
    spec = T.ModelSpec(variant="morpho2", n_terms=2, m_terms=2,
                       filters=sizes.filters)
    ref = T.ModelSpec(variant="relu6-maxpool", filters=sizes.filters)
    return {"model": T.build_model(spec, mods.autodiff.make_rng(seed)),
            "relu6": T.build_model(ref, mods.autodiff.make_rng(seed)),
            "eval": make_split(mods, rng, templates, sizes.eval_batch)}


def setup(workload: str, seed: int, sizes: Sizes, repeats: int = 7):
    """Import, generate the data and build the model ``repeats`` times;
    returns the last set-up and the median set-up seconds."""
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mods = import_morphnn()
        state = build_state(mods, workload, seed, sizes)
        seconds.append(time.perf_counter() - t0)
    return mods, state, median(seconds)


# -- traced model passes --------------------------------------------------


def traced_features(mods, tracer: Tracer, model, x):
    with tracer.span("train.conv2d_fwd"):
        h = model.conv1(x)
    with tracer.span("train.stage_fwd"):
        h = model.stage1(h)
    with tracer.span("train.conv2d_fwd"):
        h = model.conv2(h)
    with tracer.span("train.stage_fwd"):
        h = model.stage2(h)
    return mods.autodiff.reshape(h, (h.data.shape[0], model.feature_dim))


def traced_eval_batch(mods, tracer: Tracer, model, images) -> np.ndarray:
    """``Model.forward(x, train=False)`` under no_grad, layer by layer."""
    with tracer.span("train.eval_batch"), mods.autodiff.no_grad():
        h = traced_features(mods, tracer, model,
                            mods.autodiff.Tensor(images[:, None, :, :]))
        with tracer.span("train.head_fwd"):
            return model.dense(h).data


def traced_epoch(mods, tracer: Tracer, model, train_ds, test_ds, cfg,
                 check_first_step: bool) -> tuple[dict, dict]:
    """One ``train()`` epoch driven through the model's layer attributes,
    with the same rng stream, so its numbers match ``train()`` exactly."""
    T, ad = mods.train, mods.autodiff
    rng = ad.make_rng(cfg.seed)
    opt = T.Adam(model.set_trainable_scope(cfg.trainable_scope), lr=cfg.lr)
    steps = math.ceil(len(train_ds) / cfg.batch_size)
    batches = mods.data.batches(train_ds, cfg.batch_size, rng,
                                shuffle=cfg.shuffle)
    loss_sum, correct, seen, graph, problems = 0.0, 0, 0, {}, []
    with tracer.span("train.epoch"):
        for step in range(steps):
            with tracer.span("data.batches"):
                images, labels = next(batches)
            if check_first_step and step == 0:
                with tracer.span("bench.reference_loss"):
                    ref_rng = np.random.Generator(np.random.PCG64())
                    ref_rng.bit_generator.state = rng.bit_generator.state
                    with ad.no_grad():
                        ref = T.cross_entropy(model.forward(
                            ad.Tensor(images[:, None, :, :]), train=True,
                            rng=ref_rng), labels).data
            with tracer.span("train.step"):
                x = ad.Tensor(images[:, None, :, :])
                h = traced_features(mods, tracer, model, x)
                with tracer.span("train.head_fwd"):
                    if model.spec.dropout > 0.0:
                        h = T.dropout(h, model.spec.dropout, rng)
                    logits = model.dense(h)
                    loss = T.cross_entropy(logits, labels)
                if not np.isfinite(loss.data):
                    raise T.DivergenceError(0)
                opt.zero_grad()
                with tracer.span("autodiff.backward"):
                    loss.backward()
                with tracer.span("train.adam_step"):
                    opt.step()
            if step == 0:
                with tracer.span("bench.graph_stats"):
                    nodes = graph_nodes(loss)
                    graph = {"autodiff.graph_nodes": float(len(nodes)),
                             "autodiff.graph_mb": graph_mb(nodes),
                             "autodiff.retained_grad_mb":
                                 retained_grad_mb(nodes)}
                    del nodes
                if (check_first_step
                        and loss.data.tobytes() != ref.tobytes()):
                    problems.append(
                        f"traced first-step loss {float(loss.data)!r} != "
                        f"Model.forward loss {float(ref)!r}")
            loss_sum += float(loss.data) * len(labels)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)
        hits = 0
        for images, labels in mods.data.batches(test_ds,
                                                cfg.eval_batch_size):
            logits = traced_eval_batch(mods, tracer, model, images)
            hits += int((logits.argmax(axis=1) == labels).sum())
    row = {"train_loss": loss_sum / seen, "train_acc": correct / seen,
           "test_acc": hits / len(test_ds), "problems": problems}
    return row, graph


# -- output checks ---------------------------------------------------------


def epoch_problems(row: dict | None) -> list[str]:
    if row is None:
        return ["train() ran no epoch"]
    problems = list(row.get("problems", []))
    if not math.isfinite(row["train_loss"]):
        problems.append(f"non-finite train_loss {row['train_loss']!r}")
    if not 0.0 <= row["test_acc"] <= 1.0:
        problems.append(f"test_acc {row['test_acc']!r} outside [0, 1]")
    return problems


def loss_trend_problems(losses: list[float]) -> list[str]:
    if len(losses) < 2:
        return [f"need two epochs to see the loss fall, got {len(losses)}"]
    if not losses[-1] < losses[0]:
        return [f"train_loss did not fall: first {losses[0]!r}, "
                f"last {losses[-1]!r}"]
    return []


def loss_digest(losses: list[float]) -> str:
    return hashlib.sha256(",".join(repr(v) for v in losses)
                          .encode()).hexdigest()[:16]


def init_equivalence_problems(morpho2: np.ndarray,
                              relu6: np.ndarray) -> list[str]:
    worst = float(np.abs(morpho2 - relu6).max())
    if not worst <= 1e-12:
        return [f"clamp-init morpho2 vs relu6-maxpool logits differ by "
                f"{worst:.3e} (> 1e-12)"]
    return []


def finite_problems(logits: np.ndarray) -> list[str]:
    if not np.isfinite(logits).all():
        return [f"{int((~np.isfinite(logits)).sum())} non-finite logits"]
    return []


def gradcheck_problems(result, cases: int) -> list[str]:
    code, text = result
    if code != 0:
        return [f"gradcheck exited {code}"]
    report = json.loads(text)["report"]
    problems = []
    if report["pass"] is not True:
        problems.append(f"gradcheck failed cases {report['failures']}")
    if report["n_cases"] != cases:
        problems.append(f"gradcheck ran {report['n_cases']} cases, "
                        f"expected {cases}")
    return problems


def basis_problems(result, size: int) -> list[str]:
    code, text = result
    if code != 0:
        return [f"basis exited {code}"]
    report = json.loads(text)["report"]
    got = (report["basis_size"], report["dual_basis_size"],
           report["verdict"])
    if got != (size, size, "PASS"):
        return [f"basis reported (basis, dual, verdict) = {got}, expected "
                f"({size}, {size}, 'PASS')"]
    return []


# -- workloads -------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, seconds: float, sizes: Sizes,
                 out_dir: Path):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.sizes, self.out_dir = sizes, out_dir
        self.ledger = Ledger()
        self.info: dict = {}

    def run(self, traced: bool) -> dict[str, float]:
        self.mods, self.state, setup_s = setup(self.name, self.seed,
                                               self.sizes)
        self.start = time.perf_counter()
        if self.name.startswith("train-"):
            body = self.traced_train if traced else self.train
        elif self.name == "eval-morpho2":
            body = self.traced_eval if traced else self.eval
        else:
            body = self.traced_verify if traced else self.verify
        if not traced:
            op_s = body()
            return {"setup_s": setup_s, "op_s": op_s,
                    "peak_rss_mb": peak_rss_mb()}
        self.tracer = Tracer()
        metrics = {name: 0.0 for name in per_layer_units()}
        metrics.update(body())
        spans = self.tracer.finish()
        metrics["trace.spans"] = float(len(spans))
        self.write_trace(spans, metrics)
        return metrics

    def more(self, done: int) -> bool:
        """Closed loop: keep going until the time is up and enough
        operations were timed."""
        return (done < self.sizes.min_ops
                or time.perf_counter() - self.start < self.seconds)

    def probe(self, shape_batch: int, variant: str, m: int, n: int) -> dict:
        shape = probes.ProbeShape(batch=shape_batch,
                                  filters=self.sizes.filters,
                                  variant=variant, m_terms=m, n_terms=n)
        with self.tracer.span("bench.op_probes"):
            return probes.run_probes(self.mods, self.name, shape,
                                     self.seed, self.state.get("model"))

    def write_trace(self, spans: list[dict], metrics: dict) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"trace-{self.name}-seed{self.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": self.name, "seed": self.seed,
                       "spans": spans, "metrics": metrics}, fh)
        self.info["trace_file"] = str(path)

    # -- train-* ---------------------------------------------------------

    def epoch_config(self, k: int):
        return self.mods.train.TrainConfig(
            max_epochs=1, patience=1, seed=self.seed * 1000 + k,
            batch_size=self.sizes.batch,
            eval_batch_size=self.sizes.eval_batch)

    def untraced_epoch(self, k: int, losses: list[float]) -> float:
        T, st = self.mods.train, self.state
        metrics, seconds = self.ledger.timed(
            lambda: T.train(st["model"], st["train"], st["test"],
                            self.epoch_config(k)),
            lambda m: epoch_problems(m.epochs[0] if m.epochs else None))
        if metrics is not None and metrics.epochs:
            losses.append(metrics.epochs[0]["train_loss"])
        return seconds

    def finish_losses(self, losses: list[float]) -> None:
        self.ledger.late(loss_trend_problems(losses))
        self.info["loss_digest"] = loss_digest(losses[:self.sizes.min_ops])
        self.info["epochs"] = len(losses)

    def train(self) -> float:
        losses, seconds = [], []
        while self.more(len(seconds)):
            seconds.append(self.untraced_epoch(len(seconds), losses))
        self.finish_losses(losses)
        self.info["op_seconds"] = seconds
        return median(seconds)

    def traced_train(self) -> dict[str, float]:
        st, losses = self.state, []
        untraced = self.untraced_epoch(0, losses)
        traced, graph = [], {}
        while not traced or time.perf_counter() - self.start < self.seconds:
            cfg = self.epoch_config(1 + len(traced))
            result, seconds = self.ledger.timed(
                lambda: traced_epoch(self.mods, self.tracer, st["model"],
                                     st["train"], st["test"], cfg,
                                     check_first_step=not traced),
                lambda r: epoch_problems(r[0]))
            if result is None:
                break
            # the first-step check's reference forward is not tracing cost
            traced.append(seconds - self.tracer.child_sums(
                "train.epoch", "bench.reference_loss")[-1])
            row, step_graph = result
            losses.append(row["train_loss"])
            graph = graph or step_graph
        self.finish_losses(losses)
        t = self.tracer
        metrics = {"train.step_s": median(t.durations("train.step")),
                   "train.eval_batch_s":
                       median(t.durations("train.eval_batch")),
                   "data.batches_s": median(t.durations("data.batches")),
                   "trace.overhead_s": median(traced) - untraced}
        for name in STEP_LAYERS:
            metrics[f"{name}_s"] = median(t.child_sums("train.step", name))
        metrics.update(graph)
        variant = self.name[len("train-"):]
        metrics.update(self.probe(self.sizes.batch, variant, 2, 3))
        return metrics

    # -- eval-morpho2 ----------------------------------------------------

    def eval_checks(self) -> float:
        """Criterion 8 at workload shape, then the seeded perturbation and
        the reference accuracy every timed evaluate() must reproduce."""
        ad, st = self.mods.autodiff, self.state
        model, ds = st["model"], st["eval"]
        x = ad.Tensor(ds.images[:, None, :, :])

        def both():
            with ad.no_grad():
                return model.forward(x).data, st["relu6"].forward(x).data

        self.ledger.timed(both, lambda ab: init_equivalence_problems(*ab))
        rng = stream(self.seed, 1)
        for p in model.stage_parameters():
            p.data = p.data + rng.normal(scale=0.05, size=p.data.shape)

        def reference():
            with ad.no_grad():
                return model.forward(x).data

        logits, _ = self.ledger.timed(reference, finite_problems)
        if logits is None:
            return float("nan")
        return int((logits.argmax(axis=1) == ds.labels).sum()) / len(ds)

    def accuracy_check(self, want: float):
        return lambda acc: ([] if acc == want else
                            [f"evaluate() gave {acc!r}, reference {want!r}"])

    def eval(self) -> float:
        st = self.state
        want = self.eval_checks()
        self.start = time.perf_counter()  # the checks do not eat the loop
        seconds = []
        while self.more(len(seconds)):
            _, dt = self.ledger.timed(
                lambda: self.mods.train.evaluate(st["model"], st["eval"],
                                                 self.sizes.eval_batch),
                self.accuracy_check(want))
            seconds.append(dt)
        self.info["op_seconds"] = seconds
        return median(seconds)

    def traced_eval(self) -> dict[str, float]:
        st, ds = self.state, self.state["eval"]
        want = self.eval_checks()
        self.start = time.perf_counter()
        _, untraced = self.ledger.timed(
            lambda: self.mods.train.evaluate(st["model"], ds,
                                             self.sizes.eval_batch),
            self.accuracy_check(want))
        traced = []
        while not traced or time.perf_counter() - self.start < self.seconds:
            def one_pass():
                hits = 0
                for images, labels in self.mods.data.batches(
                        ds, self.sizes.eval_batch):
                    logits = traced_eval_batch(self.mods, self.tracer,
                                               st["model"], images)
                    hits += int((logits.argmax(axis=1) == labels).sum())
                return hits / len(ds)
            _, dt = self.ledger.timed(one_pass, self.accuracy_check(want))
            traced.append(dt)
        t = self.tracer
        metrics = {"train.eval_batch_s":
                       median(t.durations("train.eval_batch")),
                   "trace.overhead_s": median(traced) - untraced}
        for name in ("train.conv2d_fwd", "train.stage_fwd",
                     "train.head_fwd"):
            metrics[f"{name}_s"] = median(t.child_sums("train.eval_batch",
                                                       name))
        metrics.update(self.probe(self.sizes.eval_batch, "morpho2", 2, 2))
        return metrics

    # -- verify ----------------------------------------------------------

    def cli(self, *argv: str):
        """One in-process CLI command; its JSON goes to a buffer, not to
        this program's stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.mods.cli.main(list(argv))
        return code, buf.getvalue()

    def gradcheck(self):
        out = str(self.out_dir / "gradcheck")
        return self.ledger.timed(
            lambda: self.cli("gradcheck", "--out", out,
                             *self.sizes.gradcheck_args),
            lambda r: gradcheck_problems(r, self.sizes.gradcheck_cases))

    def basis(self):
        out = str(self.out_dir / "basis")
        return self.ledger.timed(
            lambda: self.cli("basis", "--op", "median", "--window",
                             self.sizes.basis_window, "--out", out),
            lambda r: basis_problems(r, self.sizes.basis_size))

    def verify(self) -> float:
        """Rounds of ``gradcheck_repeats`` gradcheck commands and one basis
        command; one operation of the metric is one round."""
        grad_s, basis_s = [], []
        while not basis_s or time.perf_counter() - self.start < self.seconds:
            for _ in range(self.sizes.gradcheck_repeats):
                grad_s.append(self.gradcheck()[1])
            basis_s.append(self.basis()[1])
        self.info["op_seconds"] = {"gradcheck": grad_s, "basis": basis_s}
        return median(grad_s) + median(basis_s)

    def traced_verify(self) -> dict[str, float]:
        t = self.tracer
        _, untraced = self.gradcheck()
        with t.span("cli.gradcheck"):
            result, _ = self.gradcheck()
        rep = self.mods.representation
        with t.span("cli.basis"), spans_around(t, rep, REP_FUNCS,
                                               "representation"):
            self.basis()
        t.finish()
        metrics = {"cli.gradcheck_s": median(t.durations("cli.gradcheck")),
                   "cli.basis_s": median(t.durations("cli.basis")),
                   "cli.basis_overhead_s": t.self_sum("cli.basis"),
                   "trace.overhead_s":
                       median(t.durations("cli.gradcheck")) - untraced}
        for name in REP_FUNCS:  # the command's own calls, nested included
            metrics[f"representation.{name}_s"] = sum(
                t.child_sums("cli.basis", f"representation.{name}"))
        if result is not None and result[0] == 0:
            cases = json.loads(result[1])["report"]["cases"]
            checked = sum(c["checked"] for c in cases)
            probed = checked + sum(c["screened"] for c in cases)
            metrics["gradcheck.fraction_checked"] = checked / probed
            metrics["gradcheck.cases"] = float(len(cases))
        return metrics


@contextlib.contextmanager
def spans_around(tracer: Tracer, module, names, prefix: str):
    """Time every call of ``module.<name>`` from outside, in a span, for the
    duration of the block; calls the module makes to its own functions go
    through the same wrappers, so self times add up to the command's."""
    saved = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            with tracer.span(f"{prefix}.{name}"):
                return fn(*args, **kwargs)
        return timed_call

    for name, fn in saved.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def run(name: str, seed: int, seconds: float, traced: bool, out_dir: Path,
        sizes: Sizes = Sizes()) -> tuple[dict, Workload]:
    """Run one workload (a name from ``run.WORKLOADS``); returns (result
    line, workload)."""
    work = Workload(name, seed, seconds, sizes, out_dir)
    values = work.run(traced)
    units = per_layer_units() if traced else END_TO_END
    ledger = work.ledger
    result = {"correct": ledger.failed == 0 and ledger.attempted > 0,
              "attempted": max(ledger.attempted, 1),
              "failed": ledger.failed if ledger.attempted else 1,
              "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                          for k in units}}
    return result, work
