"""The ring recursion's process-wide setup: shared, read-only, prefix-stable.

Every :class:`RingModel` reads its quadrature rule, ring geometry and
``mu`` tables from caches built once per process.  Sharing is only
safe because (a) a table's prefix never changes as the table grows, so
the largest table built so far gives every caller the bits its own
table would hold, and (b) every shared array is read-only, so no caller
can poison another model's setup.
"""

import numpy as np
import pytest

from repro.analysis.carrier_model import CarrierRingModel
from repro.analysis.config import AnalysisConfig
from repro.analysis.ring_model import RingModel
from repro.collision.carrier import CarrierCollisionTable, no_good_slot_table
from repro.collision.slots import SlotCollisionTable, no_singleton_table
from repro.utils.quadrature import GaussLegendreRule


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 0.5


class TestPrefixStability:
    @pytest.mark.parametrize("slots", [1, 2, 3, 5])
    def test_no_singleton_table(self, slots):
        assert_same_bits(
            no_singleton_table(256, slots), no_singleton_table(1024, slots)[:257]
        )

    @pytest.mark.parametrize("slots", [2, 3])
    def test_no_good_slot_table(self, slots):
        assert_same_bits(
            no_good_slot_table(20, 30, slots),
            no_good_slot_table(60, 45, slots)[:21, :31],
        )


class TestSharedTables:
    def test_mu_table_matches_a_fresh_build(self):
        table = SlotCollisionTable(initial_kmax=16).table(3, kmax=40)
        assert len(table) > 40
        assert_same_bits(table[:41], 1.0 - no_singleton_table(40, 3))

    def test_mu_table_read_only(self):
        assert_read_only(SlotCollisionTable().table(3))

    def test_carrier_table_read_only_with_row_zero_fixed(self):
        table = CarrierCollisionTable()._ensure(3, 10, 12)
        assert table.shape[0] >= 11 and table.shape[1] >= 13
        assert np.all(table[0] == 0.0)  # no in-range transmitter, no reception
        fresh = 1.0 - no_good_slot_table(10, 12, 3)
        fresh[0, :] = 0.0
        assert_same_bits(np.ascontiguousarray(table[:11, :13]), fresh)
        assert_read_only(table)

    def test_models_share_one_mu_table(self):
        sparse = RingModel(AnalysisConfig(rho=20.0))
        dense = RingModel(AnalysisConfig(rho=140.0))
        sparse.run(0.3, max_phases=5)
        dense.run(0.3, max_phases=5)
        assert sparse._mu_table.table(3) is dense._mu_table.table(3)

    def test_carrier_models_share_one_table(self):
        a = CarrierRingModel(AnalysisConfig(n_rings=3, rho=20.0))
        b = CarrierRingModel(AnalysisConfig(n_rings=3, rho=20.0))
        table = a._carrier_table._ensure(3, 10, 10)
        assert b._carrier_table._ensure(3, 10, 10) is table


class TestSharedQuadrature:
    def test_one_rule_per_node_count(self):
        assert GaussLegendreRule.unit(96) is GaussLegendreRule.unit(96)
        assert GaussLegendreRule.unit(32) is not GaussLegendreRule.unit(96)

    def test_nodes_and_weights_read_only(self):
        rule = GaussLegendreRule.unit(96)
        assert_read_only(rule.nodes)
        assert_read_only(rule.weights)


class TestSharedGeometry:
    def test_models_of_one_shape_share_geometry(self):
        a = RingModel(AnalysisConfig(rho=20.0))
        b = RingModel(AnalysisConfig(rho=140.0, mu_method="poisson"))
        assert a._weights is b._weights
        assert a._radial_weight is b._radial_weight
        assert RingModel(AnalysisConfig(n_rings=3))._weights is not a._weights

    def test_ring_geometry_read_only(self):
        model = RingModel(AnalysisConfig(rho=60.0))
        for array in (
            model._ring_areas,
            model._radial_weight,
            model._window,
            model._weights,
        ):
            assert_read_only(array)

    def test_carrier_geometry_read_only(self):
        model = CarrierRingModel(AnalysisConfig(rho=60.0))
        for array in (
            model._carrier_window,
            model._carrier_areas,
            model._carrier_denominators,
        ):
            assert_read_only(array)

    def test_outside_rings_carry_zero_weight(self):
        model = CarrierRingModel(AnalysisConfig(n_rings=3, rho=60.0))
        assert np.all(model._weights[0, 0] == 0.0)  # no ring inside ring 1
        assert np.all(model._weights[-1, 2] == 0.0)  # no ring outside ring P
        assert np.all(model._carrier_areas[0, :2] == 0.0)
        assert np.all(model._carrier_denominators[0, :2] == 1.0)
