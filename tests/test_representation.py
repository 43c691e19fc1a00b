"""Kernel/basis machinery on exhaustively enumerable windows."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from _oracles import (
    make_random_pl, oracle_basis_extract, oracle_inf_dilations,
    oracle_is_antichain, oracle_pl_maxmin, oracle_sup_erosions, oracle_tables,
)

from morphnn import autodiff as ad
from morphnn.cli import SE_NAMES
from morphnn import representation as rep
from morphnn.representation import (
    BasisSet, OperatorTable, PLFunction, basis_extract, dc_decompose,
    dilation_table, dual_table, erosion_table, fn_basis_extract,
    fn_identity, fn_kernel_enumerate, flat_fn_dilation, flat_fn_erosion,
    function_operator_check, identity_table, kernel_enumerate, mask_to_points,
    median_table, minimal_basis, opening_table, pl_eval, points_to_mask,
    reconstruct_inf_dilations, reconstruct_sup_erosions, truncated_bounds,
    window_cross, window_grid,
)

W3 = window_grid(3, 3)
SE_H2 = [(0, 0), (0, 1)]  # horizontal domino


def fixtures():
    return [
        erosion_table(W3, SE_H2),
        dilation_table(W3, SE_H2),
        opening_table(W3, SE_H2),
        median_table(window_cross()),
        identity_table(W3),
    ]


class TestOperatorTable:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            OperatorTable.from_rule(W3, lambda x: (0, 0) not in x, "anti")

    def test_mask_round_trip(self):
        pts = frozenset({(0, 0), (-1, 1)})
        assert mask_to_points(points_to_mask(pts, W3), W3) == pts

    def test_outside_window_rejected(self):
        with pytest.raises(ValueError):
            erosion_table(W3, [(0, 2)])

    @pytest.mark.parametrize("window, ses", [
        (W3, [*SE_NAMES.values(), (), ((0, 2),)]),
        (window_cross(), [*SE_NAMES.values(), ((1, 1), (0, 0))]),
        (window_grid(1, 3), [*SE_NAMES.values()]),
        (((0, 1), (1, 0), (1, 1)), [((1, 1),), ((-1, 0), (0, -1))]),
        (window_grid(3, 5), [SE_NAMES["horiz2"]]),
    ])
    def test_builtin_tables_match_rule_forms(self, window, ses):
        build = {"erosion": lambda se: erosion_table(window, se),
                 "dilation": lambda se: dilation_table(window, se),
                 "opening": lambda se: opening_table(window, se),
                 "median": lambda se: median_table(window),
                 "identity": lambda se: identity_table(window)}
        for se in ses:
            for name, want in oracle_tables(window, se).items():
                if isinstance(want, str):
                    with pytest.raises(ValueError, match=re.escape(want)):
                        build[name](se)
                else:
                    got = build[name](se)
                    assert got.equals(want) and got.name == name, (name, se)


class TestKernelAndBasis:
    def test_erosion_basis_is_the_structuring_element(self):
        op = erosion_table(W3, SE_H2)
        basis = minimal_basis(op)
        assert basis.point_sets() == [frozenset({(0, 0), (0, 1)})]
        assert basis.is_antichain()

    def test_dilation_basis_is_reflected_singletons(self):
        op = dilation_table(W3, SE_H2)
        sets = minimal_basis(op).point_sets()
        assert sorted(map(sorted, sets)) == [[(0, -1)], [(0, 0)]]

    def test_identity_basis_is_origin_impulse(self):
        assert minimal_basis(identity_table(W3)).point_sets() == [
            frozenset({(0, 0)})]

    def test_median_basis_is_all_triples(self):
        basis = minimal_basis(median_table(window_cross()))
        assert len(basis) == 10  # C(5, 3)
        assert all(len(s) == 3 for s in basis.point_sets())
        assert basis.is_antichain()

    def test_opening_basis_is_origin_translates(self):
        sets = minimal_basis(opening_table(W3, SE_H2)).point_sets()
        assert sorted(map(sorted, sets)) == [
            [(0, -1), (0, 0)], [(0, 0), (0, 1)]]

    def test_median_3x5_basis_is_an_antichain_of_eight_point_sets(self):
        basis = minimal_basis(median_table(window_grid(3, 5)))
        assert len(basis) == 6435  # C(15, 8)
        assert all(len(s) == 8 for s in basis.point_sets())
        assert basis.is_antichain()

    def test_basis_elements_lie_in_kernel(self):
        for op in fixtures():
            kernel = set(kernel_enumerate(op))
            for m in basis_extract(sorted(kernel)):
                assert m in kernel


class TestReconstruction:
    def test_sup_of_erosions_recovers_each_fixture(self):
        for op in fixtures():
            basis = basis_extract(kernel_enumerate(op))
            assert reconstruct_sup_erosions(op, basis).equals(op), op.name

    def test_inf_of_dilations_recovers_each_fixture(self):
        for op in fixtures():
            dual_basis = basis_extract(kernel_enumerate(dual_table(op)))
            assert reconstruct_inf_dilations(op, dual_basis).equals(op), op.name

    def test_dual_is_involutive(self):
        for op in fixtures():
            assert dual_table(dual_table(op)).equals(op)

    def test_erosion_dual_is_dilation_by_reflection(self):
        refl = [(0, 0), (0, -1)]
        assert dual_table(erosion_table(W3, SE_H2)).equals(
            dilation_table(W3, refl))

    def test_median_is_self_dual(self):
        op = median_table(window_cross())
        assert dual_table(op).equals(op)

    def test_truncated_bounds_sandwich(self):
        op = median_table(window_cross())
        basis = basis_extract(kernel_enumerate(op))
        dual_basis = basis_extract(kernel_enumerate(dual_table(op)))
        lower, upper = truncated_bounds(op, basis[:3], dual_basis[:3])
        assert np.all(~lower.table | op.table)
        assert np.all(~op.table | upper.table)
        # partial bases must lose information somewhere
        assert not lower.equals(op)
        assert not upper.equals(op)
        full_lower, full_upper = truncated_bounds(op, basis, dual_basis)
        assert full_lower.equals(op) and full_upper.equals(op)

    def test_inconsistent_bases_raise(self):
        op = erosion_table(W3, SE_H2)
        alien = [points_to_mask([(1, 1)], W3)]
        with pytest.raises(AssertionError):
            truncated_bounds(op, alien, [])


def _random_masks(rng, bits, most):
    size = 1 << bits
    return rng.integers(0, size, size=int(rng.integers(0, most))).tolist()


class TestAgainstLoopForms:
    """Closure forms against the nested-loop oracles on random inputs."""

    def test_random_increasing_operators(self):
        rng = ad.make_rng(60)
        for bits in range(1, 10):
            window = tuple((0, i) for i in range(bits))
            size = 1 << bits
            for _ in range(6):
                antichain = oracle_basis_extract(_random_masks(rng, bits, 9))
                op = OperatorTable(window, oracle_sup_erosions(antichain, size))
                dual = dual_table(op)
                basis = basis_extract(kernel_enumerate(op))
                dual_basis = basis_extract(kernel_enumerate(dual))
                assert basis == antichain
                assert dual_basis == oracle_basis_extract(
                    kernel_enumerate(dual))
                assert BasisSet(window, tuple(basis)).is_antichain()
                assert reconstruct_sup_erosions(op, basis).equals(op)
                inf = reconstruct_inf_dilations(op, dual_basis)
                npt.assert_array_equal(inf.table,
                                       oracle_inf_dilations(dual_basis, size))
                assert inf.equals(op)

    def test_arbitrary_mask_lists(self):
        # kernels that are not upward closed, with duplicates, unsorted
        rng = ad.make_rng(61)
        for bits in range(1, 10):
            window = tuple((0, i) for i in range(bits))
            op = OperatorTable(window, np.zeros(1 << bits, dtype=bool))
            for _ in range(6):
                masks = _random_masks(rng, bits, 12)
                masks += masks[:len(masks) // 2]
                assert basis_extract(masks) == oracle_basis_extract(masks)
                assert BasisSet(window, tuple(masks)).is_antichain() == \
                    oracle_is_antichain(masks)
                npt.assert_array_equal(
                    reconstruct_sup_erosions(op, masks).table,
                    oracle_sup_erosions(masks, 1 << bits))
                npt.assert_array_equal(
                    reconstruct_inf_dilations(op, masks).table,
                    oracle_inf_dilations(masks, 1 << bits))

    def test_edge_cases(self):
        op = identity_table(W3)
        assert basis_extract([]) == []
        assert basis_extract([6, 3, 5, 0, 3]) == [0]
        assert basis_extract([7, 6, 3, 6, 5, 12]) == [3, 5, 6, 12]
        assert not reconstruct_sup_erosions(op, []).table.any()
        assert reconstruct_inf_dilations(op, []).table.all()
        assert reconstruct_sup_erosions(op, [0, 5]).table.all()
        assert not reconstruct_inf_dilations(op, [0, 5]).table.any()
        assert BasisSet(W3, ()).is_antichain()
        assert BasisSet(W3, (0,)).is_antichain()
        assert not BasisSet(W3, (0, 1)).is_antichain()
        assert BasisSet(W3, (3, 5, 3)).is_antichain()

    @pytest.mark.parametrize("bad", [-1, 512, 1 << 70])
    def test_masks_outside_the_window_rejected(self, bad):
        op = identity_table(W3)
        with pytest.raises(ValueError, match="masks must lie"):
            reconstruct_sup_erosions(op, [1, bad])
        with pytest.raises(ValueError, match="masks must lie"):
            reconstruct_inf_dilations(op, [bad])
        with pytest.raises(ValueError, match="masks must lie"):
            truncated_bounds(op, [16], [bad])
        with pytest.raises(ValueError, match="masks must lie"):
            BasisSet(W3, (bad, 1)).is_antichain()


class TestFunctionOperators:
    DOMAIN = (-1, 0, 1)
    LEVELS = (-1.0, 0.0, 1.0)

    def test_erosion_exact(self):
        op = flat_fn_erosion(self.DOMAIN, self.LEVELS, (0, 1))
        report = function_operator_check(op)
        assert report["basis_size"] == 1
        assert report["sup_form_deviation"] == 0.0
        assert report["inf_form_deviation"] == 0.0

    def test_dilation_exact(self):
        op = flat_fn_dilation(self.DOMAIN, self.LEVELS, (0, 1))
        report = function_operator_check(op)
        assert report["basis_size"] == 2
        assert report["sup_form_deviation"] == 0.0
        assert report["inf_form_deviation"] == 0.0

    def test_identity_exact(self):
        op = fn_identity(self.DOMAIN, self.LEVELS)
        report = function_operator_check(op)
        assert report["basis_size"] == 1
        assert report["sup_form_deviation"] == 0.0
        assert report["inf_form_deviation"] == 0.0

    def test_erosion_basis_needs_the_bottom(self):
        # the unique minimal kernel element is 0 on the support and -inf off
        # it; truncating the candidate grid to finite levels would instead
        # give elements at level -1 and an inexact reconstruction
        op = flat_fn_erosion(self.DOMAIN, self.LEVELS, (0, 1))
        basis = fn_basis_extract(fn_kernel_enumerate(op))
        assert basis == [(rep.NEG_INF, 0.0, 0.0)]


class TestPLMaxMin:
    def test_matches_nested_loop_oracle(self):
        rng = ad.make_rng(50)
        for _ in range(30):
            f = make_random_pl(rng)
            xs = rng.normal(size=(20, f.dim)) * 3
            got = pl_eval(f, xs)
            want = [oracle_pl_maxmin(f, x) for x in xs]
            assert np.array_equal(got, np.asarray(want))

    def test_single_point_and_batch_agree(self):
        rng = ad.make_rng(51)
        f = make_random_pl(rng, dim=2)
        xs = rng.normal(size=(5, 2))
        batch = pl_eval(f, xs)
        for i, x in enumerate(xs):
            assert pl_eval(f, x) == batch[i]

    def test_selector_property(self):
        # the value is always one of the affine components, bit for bit
        rng = ad.make_rng(52)
        for _ in range(20):
            f = make_random_pl(rng)
            x = rng.normal(size=f.dim)
            comp = f.components(x)[0]
            assert pl_eval(f, x) in set(comp.tolist())

    def test_dc_identity(self):
        rng = ad.make_rng(53)
        for _ in range(20):
            f = make_random_pl(rng)
            part1, part2 = dc_decompose(f)
            xs = rng.normal(size=(40, f.dim)) * 4
            npt.assert_allclose(part1(xs) - part2(xs), pl_eval(f, xs),
                                atol=1e-9)

    def test_single_family_second_part_vanishes(self):
        f = PLFunction(np.array([[1.0], [-0.5]]), np.array([0.0, 1.0]),
                       ((0, 1),))
        _, part2 = dc_decompose(f)
        npt.assert_array_equal(part2(np.array([[2.0], [-3.0]])), [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PLFunction(np.zeros((2, 1)), np.zeros(2), ())
        with pytest.raises(ValueError):
            PLFunction(np.zeros((2, 1)), np.zeros(2), ((0, 5),))
        with pytest.raises(ValueError):
            PLFunction(np.zeros((2, 1)), np.zeros(3), ((0,),))
