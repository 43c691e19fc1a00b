"""The gradient checker itself needs checking: screened kinks, wrong
gradients, and a clean pass over a reduced size grid."""

import hashlib
import json

import numpy as np
import pytest

from _oracles import add_wrong_backward_case
from morphnn import gradcheck as gc
from morphnn import autodiff as ad
from morphnn.autodiff import make_rng
from morphnn.morphops import relu


def test_reduced_grid_passes():
    report = gc.run_gradcheck(seed=0, sizes=(1, 3))
    assert report["pass"] is True
    assert report["max_rel_err"] <= 1e-4
    assert report["failures"] == []
    # 4 pooling/rectifier cases plus 3 activation families over a 2x2 grid
    assert report["n_cases"] == 4 + 3 * 4


def test_every_case_mostly_checkable():
    report = gc.run_gradcheck(seed=1, sizes=(2,))
    for row in report["cases"]:
        assert row["fraction_checked"] >= 0.9, row["name"]
        assert row["checked"] > 0


def test_corrupt_case_fails_by_name(monkeypatch):
    add_wrong_backward_case(monkeypatch)
    report = gc.run_gradcheck(seed=0, sizes=(1,))
    assert report["pass"] is False
    assert report["failures"] == ["wrong_backward"]
    (detail,) = report["failure_detail"]
    assert (detail["layer"], detail["parameter"]) == ("wrong_backward", "x")
    assert detail["max_rel_err"] > report["tolerance"]
    for row in report["cases"]:
        assert row["pass"] is (row["name"] != "wrong_backward")


def test_kink_at_probe_point_is_screened():
    # relu has its kink at exactly 0; the 0.0 coordinate must be skipped,
    # the rest compared
    def build(lv):
        return lambda: relu(lv["x"])

    def draw(rng):
        return {"x": np.array([0.0, 1.0, -1.0, 0.5])}

    rng = make_rng(3)
    row = gc._check_case(build, draw, rng, h=1e-5, kink_tol=1e-6)
    assert row["screened"] == 1
    assert row["checked"] == 3
    assert row["max_rel_err"] <= 1e-6


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
def test_non_finite_gradient_fails(bad):
    # nan > err is False, so a running max alone would score a nan gradient
    # 0.0 and pass it; a non-finite gradient must count as an infinite error
    def build(lv):
        x = lv["x"]
        return lambda: ad.make_node(x.data * 2.0,
                                    [(x, lambda g: g * 2.0 * bad)])

    def draw(rng):
        return {"x": rng.normal(size=(3,))}

    row = gc._check_case(build, draw, make_rng(4), h=1e-5, kink_tol=1e-6)
    assert row["max_rel_err"] == np.inf
    assert row["worst_parameter"] == "x"
    assert row["worst_index"] == [0]
    assert row["parameters"]["x"]["max_rel_err"] == np.inf


def test_report_round_trips_through_json():
    report = gc.run_gradcheck(seed=2, sizes=(1,))
    again = json.loads(json.dumps(report))
    assert again["n_cases"] == report["n_cases"]
    assert again["worst_case"] == report["worst_case"]


def test_same_seed_same_report():
    a = gc.run_gradcheck(seed=5, sizes=(2,))
    b = gc.run_gradcheck(seed=5, sizes=(2,))
    assert a == b


def _count_forwards(build, counter):
    """``build`` with every forward pass it returns counted in
    ``counter[0]``."""
    def counted_build(lv):
        forward = build(lv)

        def counted():
            counter[0] += 1
            return forward()
        return counted
    return counted_build


def _probe_records(monkeypatch, case, batch):
    """Each leaf's (hi, lo) bytes, in leaf order and once per resample,
    from one ``_check_case`` run of ``case`` at seed 6, and the forward
    passes it ran."""
    records, passes = [], [0]
    real = ad.probe_losses

    def spy(losses, x, h):
        hi, lo = real(losses, x, h)
        records.append((hi.tobytes(), lo.tobytes()))
        return hi, lo

    monkeypatch.setattr(ad, "probe_losses", spy)
    gc._check_case(_count_forwards(case["build"], passes), case["draw"],
                   make_rng(6), h=1e-5, kink_tol=1e-6, batch=batch)
    monkeypatch.setattr(ad, "probe_losses", real)
    return records, passes[0]


@pytest.mark.parametrize("name", [
    "two_slope_rectifier", "selfdual_pool", "posneg_pool_param", "act_pool",
    "pl_activation_m1_n2", "morpho1_m2_n1", "morpho2_m1_n2"])
def test_batched_input_leaf_matches_one_forward_per_probe(monkeypatch, name):
    (case,) = [c for c in gc.build_cases(sizes=(1, 2)) if c["name"] == name]
    # the input leaf comes first; the activations stack beta and alpha too
    batch = list(case["batch"])
    assert batch[0] in ("f", "x")
    if name.startswith(("pl_activation", "morpho")):
        assert batch[1:] == ["beta", "alpha"]
    batched, batched_passes = _probe_records(monkeypatch, case,
                                             case["batch"])
    one_by_one, passes = _probe_records(monkeypatch, case, None)
    assert batched == one_by_one
    arrays = case["draw"](make_rng(0))
    resamples = len(one_by_one) // len(arrays)
    # per resample, each batched leaf's 2N probes take one pass, not 2N
    saved = sum(2 * arrays[leaf].size - 1 for leaf in batch)
    assert passes - batched_passes == resamples * saved


def test_default_suite_forward_pass_count(monkeypatch):
    real, passes = gc.build_cases, [0]

    def counted_cases(sizes=(1, 2, 3, 4)):
        return [{**c, "build": _count_forwards(c["build"], passes)}
                for c in real(sizes)]

    monkeypatch.setattr(gc, "build_cases", counted_cases)
    assert gc.run_gradcheck(seed=0)["pass"] is True
    # 7,072 with one forward pass per probe of every leaf; 2,806 with only
    # the input leaves batched, before beta and alpha were stacked too
    assert passes[0] == 902


def test_default_report_hash():
    # the seed-0 report to the byte, as scripts/param_hash.py hashes it;
    # it does not depend on the BLAS thread count
    report = json.dumps(gc.run_gradcheck(seed=0)).encode()
    assert hashlib.sha256(report).hexdigest() == (
        "f78018cc0fe6e124cff2933ed4dfc48b56baeb2cd9dc8ae9c3f8c64e67e4a361")
