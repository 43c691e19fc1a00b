"""Finite-difference verification of every trainable piecewise layer.

Each case builds a random instance of one layer, projects the output onto a
fixed random direction to get a scalar loss, and compares reverse-mode
gradients against central differences at every leaf coordinate, probed by
``autodiff.probe_losses``.  A built-in case maps each leaf it batches
(``"batch"``) to the axis its probes join along (None: a new leading axis),
and that leaf takes all its probes in one forward pass (``_check_case``):
every built-in layer computes each batch entry and each channel from its
own input and parameters, plus the shared bank weights, so each probe's
chunk of the output holds the bytes a pass on that probe alone gives.  The
bank weights ``w{j}`` and the pooling and rectifier scalars take one
forward pass per probe.

Every loss here is piecewise linear in each coordinate, so one-sided and
central differences agree to rounding error unless a kink sits within the
probe step; coordinates where they disagree are screened out as untestable
(the two-sided slope average is meaningless at a kink) and counted.  A case
whose screened fraction stays too high after a few resamples fails rather
than passing vacuously.  A nan or infinite gradient counts as an infinite
error, so it fails too.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import morphops as mo
from .activations import (MorphoActivationParams, morpho_act1_forward,
                          morpho_act2_forward, pl_activation)
from .autodiff import Tensor, make_rng
from .morphops import PoolSpec, StructuringFunction

# leaves -> the layer's forward pass over them; the layer's structures
# (parameter records, the bank) are built once, outside the returned call
Builder = Callable[[dict[str, Tensor]], Callable[[], Tensor]]


_RESAMPLES = 3
# the share of a case's coordinates that must be checked, not screened
_MIN_FRACTION = 0.9


def _join(rows, axis: int | None) -> np.ndarray:
    """``rows`` as one array: joined along ``axis``, or stacked on a new
    leading axis when ``axis`` is None."""
    return np.stack(rows) if axis is None else np.concatenate(rows, axis)


def _check_case(builder: Builder, draw: Callable[[np.random.Generator], dict],
                rng: np.random.Generator, h: float, kink_tol: float,
                batch: dict[str, int | None] | None = None) -> dict:
    """Compare analytic and numeric gradients for one layer instance.

    ``batch`` maps leaves to the axis their probes join along (None: a new
    leading axis), the input leaf first.  A leaf in it takes all its
    probes in one forward pass: its probe rows joined, each other leaf in
    it repeated once per probe, the output cut into one chunk per probe
    along the input leaf's axis.  Every other leaf takes one forward pass
    per probe, with its array probed in place."""
    batch = batch or {}
    # the input leaf's axis, where a new leading axis (None) is axis 0
    out_axis = next(iter(batch.values()), None) or 0
    best = None
    for _ in range(_RESAMPLES):
        arrays = draw(rng)
        # constant leaves wrap ``arrays`` themselves, which the unbatched
        # probes move in place, so the forward built here serves them all
        consts = {k: Tensor(v) for k, v in arrays.items()}
        forward = builder(consts)
        proj = rng.normal(size=forward().data.shape)

        def losses(stack, name, arr) -> list[float]:
            if name in batch:  # every probe in one pass
                k = len(stack)
                joined = {leaf: Tensor(_join([arrays[leaf]] * k, axis))
                          for leaf, axis in batch.items()}
                joined[name] = Tensor(_join(stack, batch[name]))
                out = builder({**consts, **joined})().data
                return [float((chunk * proj).sum())
                        for chunk in np.split(out, k, out_axis)]
            saved, out = arr.copy(), []
            for row in stack:
                arr[...] = row
                out.append(float((forward().data * proj).sum()))
            arr[...] = saved
            return out

        leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        loss = ad.mul(builder(leaves)(), Tensor(proj)).sum()
        loss.backward()

        base = float(loss.data)
        checked = 0
        screened = 0
        max_err = 0.0
        worst = {"parameter": None, "index": None}
        per_leaf = {}
        for name, arr in arrays.items():
            analytic = leaves[name].grad
            if analytic is None:
                analytic = np.zeros_like(arr)
            hi, lo = ad.probe_losses(
                lambda stack: losses(stack, name, arr), arr, h)
            central = (hi - lo) / (2 * h)
            # piecewise-linear losses: the one-sided slopes differ only
            # when a kink lies inside [x-h, x+h]
            kink = (np.abs((hi - base) / h - (base - lo) / h)
                    > kink_tol * np.maximum(1.0, np.abs(central)))
            # a nan or infinite gradient is an error, never a pass
            with np.errstate(invalid="ignore"):
                err = np.abs(analytic - central) / np.maximum(
                    np.maximum(1.0, np.abs(analytic)), np.abs(central))
            err = np.where(kink, -1.0, np.where(np.isfinite(err), err, np.inf))
            leaf_err = float(err.max(initial=0.0))
            if leaf_err > max_err:
                max_err = leaf_err
                first = np.unravel_index(np.argmax(err), arr.shape)
                worst = {"parameter": name, "index": [int(c) for c in first]}
            leaf_screened = int(kink.sum())
            leaf_checked = arr.size - leaf_screened
            checked += leaf_checked
            screened += leaf_screened
            per_leaf[name] = {"max_rel_err": leaf_err,
                              "checked": leaf_checked,
                              "screened": leaf_screened}
        total = checked + screened
        result = {
            "checked": checked,
            "screened": screened,
            "fraction_checked": checked / total if total else 0.0,
            "max_rel_err": max_err,
            "worst_parameter": worst["parameter"],
            "worst_index": worst["index"],
            "parameters": per_leaf,
        }
        if best is None or result["fraction_checked"] > best["fraction_checked"]:
            best = result
        if best["fraction_checked"] >= _MIN_FRACTION:
            break
    return best


def _sf_bank(leaves: dict[str, Tensor], count: int) -> list[StructuringFunction]:
    window = StructuringFunction.pool_window((2, 2)).offsets
    return [StructuringFunction(window, weights=leaves[f"w{j}"])
            for j in range(count)]


def build_cases(sizes=(1, 2, 3, 4)) -> list[dict]:
    """Case table: two-slope rectifier, self-dual and parametric pooling,
    threshold pooling, and the activation families over the size grid,
    each with the axes its batched leaves join along.  A size below 1 raises
    ``ValueError``."""
    if min(sizes) < 1:
        raise ValueError(f"term counts must be >= 1, got sizes {sizes}")
    cases: list[dict] = []
    pool = PoolSpec((2, 2), (2, 2))

    def draw_two_slope(rng):
        return {"f": rng.normal(size=(7,)) * 2,
                "beta_neg": np.asarray(rng.uniform(-0.5, 0.5)),
                "gap": np.asarray(rng.uniform(0.2, 1.0))}

    def build_two_slope(lv):
        return lambda: mo.prelu2(lv["f"], ad.add(lv["beta_neg"], lv["gap"]),
                                 lv["beta_neg"])

    cases.append({"name": "two_slope_rectifier", "build": build_two_slope,
                  "draw": draw_two_slope, "batch": {"f": 0}})

    def draw_field(rng):
        return {"f": rng.normal(size=(1, 2, 6, 6)) * 2}

    cases.append({"name": "selfdual_pool",
                  "build": lambda lv: lambda: mo.selfdual_pool(lv["f"], pool),
                  "draw": draw_field, "batch": {"f": 0}})

    def draw_posneg(rng):
        d = draw_field(rng)
        d["beta_pos"] = np.asarray(rng.uniform(0.5, 1.5))
        d["beta_neg"] = np.asarray(rng.uniform(0.5, 1.5))
        return d

    cases.append({"name": "posneg_pool_param",
                  "build": lambda lv: lambda: mo.posneg_pool_param(
                      lv["f"], pool, lv["beta_pos"], lv["beta_neg"]),
                  "draw": draw_posneg, "batch": {"f": 0}})

    def draw_actpool(rng):
        d = draw_field(rng)
        d["alpha"] = np.asarray(rng.normal())
        return d

    cases.append({"name": "act_pool",
                  "build": lambda lv: lambda: mo.act_pool(
                      lv["f"], pool, lv["alpha"]),
                  "draw": draw_actpool, "batch": {"f": 0}})

    for m, n in itertools.product(sizes, sizes):
        def draw_pl(rng, m=m, n=n):
            return {"x": rng.normal(size=(3, 7)) * 2,
                    "beta": rng.normal(size=(m, n)),
                    "alpha": rng.normal(size=(m, n))}

        def build_pl(lv):
            params = MorphoActivationParams(lv["beta"], lv["alpha"])
            # shared [m, n] parameters ignore the channel axis; the
            # stacked probes' [K, m, n] ones use x's new leading axis
            return lambda: pl_activation(lv["x"], params, channel_axis=0)

        cases.append({"name": f"pl_activation_m{m}_n{n}", "build": build_pl,
                      "draw": draw_pl,
                      "batch": {"x": None, "beta": None, "alpha": None}})

    for m, n in itertools.product(sizes, sizes):
        for form, fwd, bank in (("morpho1", morpho_act1_forward, m),
                                ("morpho2", morpho_act2_forward, n)):
            def draw_layer(rng, m=m, n=n, bank=bank):
                d = {"x": rng.normal(size=(1, 2, 5, 5)) * 2,
                     "beta": rng.normal(size=(2, m, n)),
                     "alpha": rng.normal(size=(2, m, n))}
                for j in range(bank):
                    d[f"w{j}"] = rng.normal(size=(4,)) * 0.3
                return d

            def build_layer(lv, fwd=fwd, bank=bank):
                params = MorphoActivationParams(lv["beta"], lv["alpha"])
                sfs = _sf_bank(lv, bank)
                return lambda: fwd(lv["x"], params, sfs, pool,
                                   channel_axis=1)

            cases.append({"name": f"{form}_m{m}_n{n}", "build": build_layer,
                          "draw": draw_layer,
                          "batch": {"x": 1, "beta": 0, "alpha": 0}})

    return cases


def run_gradcheck(seed: int = 0, tolerance: float = 1e-4, h: float = 1e-5,
                  sizes=(1, 2, 3, 4), kink_tol: float = 1e-6) -> dict:
    """Run the whole suite; returns a JSON-ready report.  The rng draws
    each case's leaves and projection in case order, so the report
    depends only on the arguments, not on how the probes are batched."""
    cases = build_cases(sizes)
    rng = make_rng(seed)
    rows = []
    for case in cases:
        row = _check_case(case["build"], case["draw"], rng, h, kink_tol,
                          case.get("batch"))
        row["name"] = case["name"]
        row["pass"] = (row["max_rel_err"] <= tolerance
                       and row["fraction_checked"] >= _MIN_FRACTION)
        rows.append(row)
    worst = max(rows, key=lambda r: r["max_rel_err"])
    report = {
        "seed": seed,
        "tolerance": tolerance,
        "step": h,
        "cases": rows,
        "n_cases": len(rows),
        "max_rel_err": worst["max_rel_err"],
        "worst_case": worst["name"],
        "failures": [r["name"] for r in rows if not r["pass"]],
        "failure_detail": [{"layer": r["name"],
                            "parameter": r["worst_parameter"],
                            "index": r["worst_index"],
                            "max_rel_err": r["max_rel_err"]}
                           for r in rows if not r["pass"]],
        "pass": all(r["pass"] for r in rows),
    }
    return report
