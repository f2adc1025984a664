"""The column-backed :class:`UtilityContext` of lazy populations.

A lazy population hands the Utility Agent :class:`CustomerColumn` views over
its id list and use columns instead of two N-entry dicts a day.  These tests
pin that the views read exactly like those dicts (same order, same floats,
same total) and that a fault-free array-round fleet day never builds a
view's id index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.population import CustomerPopulation, PopulationConfig
from repro.api import campaign
from repro.core.scenario import synthetic_scenario
from repro.experiments.campaign_bench import CONDITION_CYCLE, build_campaign_planner
from repro.negotiation.methods.base import CustomerColumn, UtilityContext


@pytest.fixture(scope="module")
def lazy_population():
    return synthetic_scenario(num_households=60, seed=5).population


def _dict_context(population) -> UtilityContext:
    columns = population.columnar_view()
    return UtilityContext(
        normal_use=population.normal_use,
        predicted_uses=dict(zip(columns.customer_ids, columns.predicted_uses)),
        allowed_uses=dict(zip(columns.customer_ids, columns.allowed_uses)),
        interval=population.interval,
        max_allowed_overuse=population.max_allowed_overuse,
    )


class TestColumnViews:
    def test_lazy_populations_hand_over_views(self, lazy_population):
        assert lazy_population.columnar_view() is not None
        context = lazy_population.utility_context()
        assert isinstance(context.predicted_uses, CustomerColumn)
        assert isinstance(context.allowed_uses, CustomerColumn)
        assert context.predicted_uses.customer_ids is context.allowed_uses.customer_ids

    def test_views_read_like_the_dicts(self, lazy_population):
        context = lazy_population.utility_context()
        expected = _dict_context(lazy_population)
        for view, plain in (
            (context.predicted_uses, expected.predicted_uses),
            (context.allowed_uses, expected.allowed_uses),
        ):
            assert view == plain and plain == view
            assert list(view) == list(plain)
            assert list(view.keys()) == list(plain.keys())
            assert list(view.values()) == list(plain.values())
            assert list(view.items()) == list(plain.items())
            assert len(view) == len(plain)
            some = next(iter(plain))
            assert view[some] == plain[some] and view.get(some) == plain.get(some)
            assert some in view and "no-such-customer" not in view
            assert view.get("no-such-customer", -1.0) == -1.0
            with pytest.raises(KeyError):
                view["no-such-customer"]
        assert context == expected
        assert context.customers == expected.customers

    def test_total_is_bit_equal_to_the_dict_sum(self, lazy_population):
        context = lazy_population.utility_context()
        expected = sum(_dict_context(lazy_population).predicted_uses.values())
        assert np.float64(context.total_predicted_use).tobytes() == (
            np.float64(expected).tobytes()
        )
        assert context.total_predicted_use == lazy_population.total_predicted_use
        assert context.initial_overuse == lazy_population.initial_overuse

    def test_eager_populations_keep_dicts(self):
        eager = CustomerPopulation.synthetic(
            PopulationConfig(num_households=20, seed=5), materialise="eager"
        )
        context = eager.utility_context()
        assert type(context.predicted_uses) is dict
        assert type(context.allowed_uses) is dict

    def test_a_column_must_match_its_ids(self):
        with pytest.raises(ValueError):
            CustomerColumn(["a", "b"], [1.0])


class TestCustomerSetCheck:
    def test_mismatched_dicts_raise(self):
        with pytest.raises(ValueError):
            UtilityContext(normal_use=1.0, predicted_uses={"a": 1.0}, allowed_uses={"b": 1.0})

    def test_views_over_different_id_lists_are_compared(self):
        with pytest.raises(ValueError):
            UtilityContext(
                normal_use=1.0,
                predicted_uses=CustomerColumn(["a", "b"], [1.0, 2.0]),
                allowed_uses=CustomerColumn(["a", "c"], [1.0, 2.0]),
            )
        # Equal id lists that are not one object still pass the set check.
        context = UtilityContext(
            normal_use=1.0,
            predicted_uses=CustomerColumn(["a", "b"], [1.0, 2.0]),
            allowed_uses={"b": 2.0, "a": 1.0},
        )
        assert context.total_predicted_use == 3.0

    def test_a_view_and_a_mismatched_dict_raise(self):
        with pytest.raises(ValueError):
            UtilityContext(
                normal_use=1.0,
                predicted_uses=CustomerColumn(["a", "b"], [1.0, 2.0]),
                allowed_uses={"a": 1.0},
            )


@pytest.mark.perf_smoke
def test_fault_free_fleet_days_never_build_the_view_index(monkeypatch):
    """The array rounds read the population arrays, never a customer key."""
    counts = {"views": 0, "indexes": 0}
    original_init = CustomerColumn.__init__
    original_index = CustomerColumn._customer_index

    def counting_init(self, *args, **kwargs):
        counts["views"] += 1
        original_init(self, *args, **kwargs)

    def counting_index(self):
        counts["indexes"] += 1
        return original_index(self)

    monkeypatch.setattr(CustomerColumn, "__init__", counting_init)
    monkeypatch.setattr(CustomerColumn, "_customer_index", counting_index)
    result = campaign(
        build_campaign_planner(60, seed=7), 4, conditions=CONDITION_CYCLE,
        backend="vectorized", warmup_days=2, seed=7,
    )
    assert result.days_negotiated >= 1
    assert result.metadata["rounds"] == "array"
    assert result.metadata["materialise"] == "lazy"
    assert counts["views"] >= 2 * result.days_negotiated
    assert counts["indexes"] == 0
