"""The gradient checker itself needs checking: screened kinks, wrong
gradients, and a clean pass over a reduced size grid."""

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
