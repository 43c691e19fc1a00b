"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Criteria 9 and 10 need the MNIST / Fashion-MNIST IDX files on disk
($MORPHNN_DATA_DIR or ./data; $MORPHNN_FASHION_DIR or ./data/fashion,
fetched by scripts/fetch_mnist.py); without them those two skip loudly.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from morphnn import autodiff as ad
from morphnn import morphops as mo
from morphnn import representation as rep
from morphnn.activations import (MorphoActivationParams, morpho_act1_forward,
                                 morpho_act2_forward, pl_activation)
from morphnn.autodiff import Tensor, make_rng
from morphnn.data import load_dataset, subset
from morphnn.gradcheck import run_gradcheck
from morphnn.morphops import PoolSpec, StructuringFunction
from morphnn.representation import pl_eval
from morphnn.train import (ModelSpec, TrainConfig, build_model, evaluate,
                           train)

from _oracles import make_random_pl, oracle_pl_maxmin


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _skip(num: int, reason: str) -> None:
    print(f"CRITERION {num}: SKIP - {reason}")
    pytest.skip(reason)


# -- 1: lattice laws -------------------------------------------------------


def test_criterion_01_lattice_laws():
    rng = make_rng(101)
    se1 = StructuringFunction([(-1,), (0,), (1,)])
    se2 = StructuringFunction([(0, 0), (0, 1), (1, 0), (-1, -1)])
    pool1 = PoolSpec((2,), (2,))
    pool2 = PoolSpec((2, 2), (2, 2))
    started = time.perf_counter()
    failures = 0
    for k in range(500):
        if k % 2 == 0:
            shape = (int(rng.integers(2, 33)),)
            se, pool = se1, pool1
        else:
            shape = (int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            se, pool = se2, pool2
        f = rng.integers(-8, 9, size=shape).astype(np.float64)
        g = rng.integers(-8, 9, size=shape).astype(np.float64)
        bump = rng.integers(0, 5, size=shape).astype(np.float64)
        ops = [lambda a: mo.relu(a).data,
               lambda a: mo.max_pool(a, pool).data,
               lambda a: mo.dilate(a, se).data]
        sup = np.maximum(f, g)
        for op in ops:
            # sup-commutation and increasingness
            if not np.array_equal(op(sup), np.maximum(op(f), op(g))):
                failures += 1
            if np.any(op(f) > op(f + bump)):
                failures += 1
        # relu idempotence, dilation extensivity (flat SE contains origin)
        if not np.array_equal(mo.relu(mo.relu(f)).data, mo.relu(f).data):
            failures += 1
        if np.any(mo.dilate(f, se).data < f):
            failures += 1
    elapsed = time.perf_counter() - started
    _verdict(1, failures == 0 and elapsed < 10.0,
             f"500 integer signals, {failures} law violations, "
             f"{elapsed:.2f}s (< 10s)")


# -- 2: self-duality and its parametric failure ----------------------------


def test_criterion_02_self_duality():
    rng = make_rng(102)
    pool1, pool2 = PoolSpec((2,), (2,)), PoolSpec((2, 2), (2, 2))
    failures = 0
    for k in range(500):
        if k % 2 == 0:
            f = rng.normal(size=(int(rng.integers(2, 33)),)) * 3
            pool = pool1
        else:
            f = rng.normal(size=(int(rng.integers(2, 9)),
                                 int(rng.integers(2, 9)))) * 3
            pool = pool2
        lhs = mo.selfdual_pool(-f, pool).data
        rhs = -mo.selfdual_pool(f, pool).data
        if not np.array_equal(lhs, rhs):
            failures += 1

    # frozen witness: the parametric split with beta+ = 1, beta- = 0 is not
    # self-dual on f = [1, -2] with a length-2 stride-1 window
    w = PoolSpec((2,), (1,))
    f = np.array([1.0, -2.0])
    op_f = mo.posneg_pool_param(f, w, 1.0, 0.0).data
    op_neg = mo.posneg_pool_param(-f, w, 1.0, 0.0).data
    witness_ok = (np.array_equal(op_f, [-2.0])
                  and np.array_equal(op_neg, [-1.0])
                  and not np.array_equal(op_neg, -op_f))
    _verdict(2, failures == 0 and witness_ok,
             f"selfdual_pool(-f) == -selfdual_pool(f) on 500 signals "
             f"({failures} failures); witness op([1,-2])={op_f.tolist()}, "
             f"op([-1,2])={op_neg.tolist()} != {(-op_f).tolist()}")


# -- 3: set-operator reconstruction ----------------------------------------


def test_criterion_03_set_reconstruction():
    horiz2 = ((0, 0), (0, 1))
    g33 = rep.window_grid(3, 3)
    g13 = rep.window_grid(1, 3)
    fixtures = [
        rep.erosion_table(g13, horiz2), rep.erosion_table(g33, horiz2),
        rep.dilation_table(g13, horiz2), rep.dilation_table(g33, horiz2),
        rep.opening_table(g33, horiz2),
        rep.median_table(g13), rep.median_table(rep.window_cross()),
        rep.median_table(g33),
        rep.identity_table(g13), rep.identity_table(g33),
    ]
    started = time.perf_counter()
    mismatches = 0
    sandwich_ok = True
    for table in fixtures:
        basis = rep.minimal_basis(table)
        dual_basis = rep.minimal_basis(rep.dual_table(table))
        sup = rep.reconstruct_sup_erosions(table, basis.masks)
        inf = rep.reconstruct_inf_dilations(table, dual_basis.masks)
        mismatches += int((sup.table != table.table).sum())
        mismatches += int((inf.table != table.table).sum())
        for cut in (0, len(basis) // 2, len(basis)):
            dcut = min(cut, len(dual_basis))
            try:
                rep.truncated_bounds(table, basis.masks[:cut],
                                     dual_basis.masks[:dcut])
            except AssertionError:
                sandwich_ok = False
    elapsed = time.perf_counter() - started
    _verdict(3, mismatches == 0 and sandwich_ok and elapsed < 60.0,
             f"{len(fixtures)} fixture tables (windows up to 3x3), "
             f"{mismatches} reconstruction mismatches, truncated sandwich "
             f"{'held' if sandwich_ok else 'VIOLATED'}, {elapsed:.2f}s "
             f"(< 60s)")


# -- 4: function-operator reconstruction ------------------------------------


def test_criterion_04_function_reconstruction():
    domain, levels = (-1, 0, 1), (-1.0, 0.0, 1.0)
    ops = [rep.flat_fn_erosion(domain, levels, (0, 1)),
           rep.flat_fn_dilation(domain, levels, (0, 1)),
           rep.fn_identity(domain, levels)]
    worst = 0.0
    for op in ops:
        report = rep.function_operator_check(op)
        worst = max(worst, report["sup_form_deviation"],
                    report["inf_form_deviation"])
    _verdict(4, worst == 0.0,
             f"flat erosion / flat dilation / identity on a 3-point domain "
             f"with 3 levels: max deviation of both forms = {worst}")


# -- 5: piecewise-linear max-min algebra ------------------------------------


def test_criterion_05_pl_algebra():
    rng = make_rng(105)
    eval_exact = True
    selector_ok = True
    dc_worst = 0.0
    for _ in range(100):
        f = make_random_pl(rng)
        xs = rng.normal(size=(1000, f.dim)) * 3
        got = pl_eval(f, xs)
        want = np.array([oracle_pl_maxmin(f, x) for x in xs])
        if not np.array_equal(got, want):
            eval_exact = False
        comp = f.components(xs)
        if not (got[:, None] == comp).any(axis=1).all():
            selector_ok = False
        part1, part2 = rep.dc_decompose(f)
        dc_worst = max(dc_worst,
                       float(np.abs(part1(xs) - part2(xs) - got).max()))
    _verdict(5, eval_exact and selector_ok and dc_worst <= 1e-9,
             f"100 random PL functions x 1000 points: oracle match "
             f"{'exact' if eval_exact else 'BROKEN'}, selector "
             f"{'holds' if selector_ok else 'BROKEN'}, DC identity max "
             f"deviation {dc_worst:.2e} (<= 1e-9)")


# -- 6: gradient suite -------------------------------------------------------


def test_criterion_06_gradient_suite():
    started = time.perf_counter()
    report = run_gradcheck(seed=0, tolerance=1e-4, sizes=(1, 2, 3, 4))
    elapsed = time.perf_counter() - started
    frac = min(r["fraction_checked"] for r in report["cases"])
    _verdict(6, report["pass"] and elapsed < 120.0,
             f"{report['n_cases']} layer cases (term counts 1..4), max rel "
             f"err {report['max_rel_err']:.2e} (<= 1e-4) at "
             f"{report['worst_case']}, min checkable fraction {frac:.2f}, "
             f"{elapsed:.1f}s (< 120s)")


# -- 7: reduction identities -------------------------------------------------


def test_criterion_07_reductions():
    rng = make_rng(107)
    x = rng.normal(size=(4, 9, 9)) * 3
    relu_params = MorphoActivationParams(Tensor(np.array([[1.0, 0.0]])),
                                         Tensor(np.zeros((1, 2))))
    relu_ok = np.array_equal(pl_activation(x, relu_params).data,
                             mo.relu(x).data)

    pool = PoolSpec((2, 2), (2, 2))
    one = MorphoActivationParams(Tensor(np.ones((1, 1))),
                                 Tensor(np.zeros((1, 1))))
    flat = [StructuringFunction.pool_window((2, 2))]
    want = mo.max_pool(x, pool).data
    m1_ok = np.array_equal(
        morpho_act1_forward(x, one, flat, pool).data, want)
    m2_ok = np.array_equal(
        morpho_act2_forward(x, one, flat, pool).data, want)
    _verdict(7, relu_ok and m1_ok and m2_ok,
             f"activation (1 row x [1,0] slopes) == relu: {relu_ok}; both "
             f"single-term flat layers == max_pool: {m1_ok}, {m2_ok} "
             f"(bit-exact)")


# -- 8: initialization equivalence -------------------------------------------


def test_criterion_08_init_equivalence():
    rng = make_rng(108)
    x = Tensor(rng.normal(size=(4, 1, 28, 28)))
    ref = build_model(ModelSpec(variant="relu6-maxpool", filters=16),
                      make_rng(8))
    with ad.no_grad():
        want = ref.forward(x).data
        worst = 0.0
        for variant, n, m in (("morpho1", 3, 2), ("morpho2", 2, 2)):
            model = build_model(ModelSpec(variant=variant, n_terms=n,
                                          m_terms=m, filters=16),
                                make_rng(8))
            got = model.forward(x).data
            worst = max(worst, float(np.abs(got - want).max()))
    _verdict(8, worst <= 1e-12,
             f"morpho1 (n=3, m=2) and morpho2 (n=2, m=2) at init vs the "
             f"relu6+maxpool reference: max |diff| = {worst:.2e} (<= 1e-12)")


# -- 9/10: dataset-gated training criteria -----------------------------------

_STEMS = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
          "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _find_idx_dir(env: str, default: str) -> dict | None:
    root = Path(os.environ.get(env, default))
    paths = {}
    for stem in _STEMS:
        hit = next((root / n for n in (stem, stem + ".gz")
                    if (root / n).is_file()), None)
        if hit is None:
            return None
        paths[stem] = hit
    return paths


def _load_10k(paths: dict):
    train_ds = load_dataset(paths["train-images-idx3-ubyte"],
                            paths["train-labels-idx1-ubyte"])
    test_ds = load_dataset(paths["t10k-images-idx3-ubyte"],
                           paths["t10k-labels-idx1-ubyte"])
    return (subset(train_ds, 10000, make_rng(0)),
            subset(test_ds, 2000, make_rng(0)))


def test_criterion_09_mnist_runs():
    paths = _find_idx_dir("MORPHNN_DATA_DIR", "data")
    if paths is None:
        _skip(9, "MNIST IDX files not found under $MORPHNN_DATA_DIR or "
                 "./data; run scripts/fetch_mnist.py on a networked machine "
                 "and re-run")
    train_ds, test_ds = _load_10k(paths)
    spec = ModelSpec(variant="morpho1", n_terms=3, m_terms=2)
    seeds = (0, 1, 2)

    untrained = [evaluate(build_model(spec, make_rng(s)), test_ds)
                 for s in seeds]
    a_ok = float(np.mean(untrained)) < 0.25

    def runs(scope):
        accs, walls = [], []
        for s in seeds:
            model = build_model(spec, make_rng(s))
            cfg = TrainConfig(max_epochs=4, patience=4, seed=s,
                              trainable_scope=scope)
            m = train(model, train_ds, test_ds, cfg)
            accs.append(m.best_test_acc)
            walls.append(m.wall_seconds)
        return float(np.mean(accs)), max(walls), accs

    b_mean, b_wall, b_accs = runs("activations_only")
    b_ok = b_mean >= 0.60 and b_wall < 900.0
    c_mean, c_wall, c_accs = runs("all")
    c_ok = c_mean >= 0.97 and c_wall < 900.0
    _verdict(9, a_ok and b_ok and c_ok,
             f"10k MNIST subset, 3 seeds: (a) untrained mean "
             f"{np.mean(untrained):.3f} (< 0.25); (b) activations-only mean "
             f"{b_mean:.3f} (>= 0.60) {b_accs}, slowest {b_wall:.0f}s; (c) "
             f"full mean {c_mean:.3f} (>= 0.97) {c_accs}, slowest "
             f"{c_wall:.0f}s (each < 900s)")


def test_criterion_10_fashion_table():
    paths = _find_idx_dir("MORPHNN_FASHION_DIR", "data/fashion")
    if paths is None:
        _skip(10, "Fashion-MNIST IDX files not found under "
                  "$MORPHNN_FASHION_DIR or ./data/fashion; run "
                  "scripts/fetch_mnist.py on a networked machine and re-run")
    train_ds, test_ds = _load_10k(paths)
    seeds = (0, 1, 2)
    cfg = TrainConfig(max_epochs=3, patience=3, seed=0)
    from morphnn.train import run_table1_protocol
    report = run_table1_protocol(
        {"relu-maxpool": ModelSpec(variant="relu-maxpool"),
         "morpho2": ModelSpec(variant="morpho2", n_terms=2, m_terms=2)},
        cfg, train_ds, test_ds, seeds=seeds)
    base = report["variants"]["relu-maxpool"]
    ours = report["variants"]["morpho2"]
    delta = ours["mean_accuracy"] - base["mean_accuracy"]
    _verdict(10, delta >= -0.015,
             f"10k Fashion-MNIST subset, 3 seeds: morpho2 (n=m=2) mean "
             f"{ours['mean_accuracy']:.4f} {ours['accuracies']} vs baseline "
             f"{base['mean_accuracy']:.4f} {base['accuracies']}; delta "
             f"{delta:+.4f} (>= -0.015)")
