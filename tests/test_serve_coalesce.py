"""Coalescing determinism: served results are bit-identical to solo runs.

The serving layer's core contract — packing N requests into one combined
kernel arena and negotiating them in lockstep must change *nothing* about any
request's result.  Every test here compares the canonical JSON payload of a
coalesced member against a solo ``repro.api.run`` of the same request with
``json.dumps(..., sort_keys=True)`` equality, i.e. byte-for-byte.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.serve.coalesce import (
    execute_batch,
    request_coalesces,
    run_solo,
)
from repro.serve.schemas import RequestValidationError, ServeRequest, result_payload


def _request(mapping: dict) -> ServeRequest:
    return ServeRequest.from_mapping(mapping)


def _solo_payload_oracle(request: ServeRequest) -> str:
    """The canonical payload of a solo façade run of the same request."""
    scenario = request.scenario.build_scenario()
    result = api.run(scenario, backend=request.backend, config=request.config)
    return json.dumps(result_payload(result), sort_keys=True)


def _served(outcome) -> str:
    assert outcome.error is None, outcome.error
    return json.dumps(outcome.payload, sort_keys=True)


class TestCoalescedDeterminism:
    def test_distinct_seeds_byte_identical_to_solo(self):
        requests = [
            _request({"scenario": {"households": 40, "seed": seed}})
            for seed in range(5)
        ]
        outcomes, report = execute_batch(requests)
        assert report.coalesced == 5
        assert report.solo == 0
        assert report.arena_rows == 200
        for request, outcome in zip(requests, outcomes):
            assert _served(outcome) == _solo_payload_oracle(request)

    def test_mixed_methods_and_families_byte_identical(self):
        requests = [
            _request({"scenario": {"households": 30, "seed": 0, "method": "reward_tables"}}),
            _request({"scenario": {"households": 30, "seed": 1, "method": "offer"}}),
            _request({"scenario": {"households": 30, "seed": 2, "method": "request_for_bids"}}),
            _request({"scenario": {"family": "paper"}}),
            _request({"scenario": {"households": 25, "seed": 3, "beta": 4.0, "max_reward": 80.0}}),
        ]
        outcomes, report = execute_batch(requests)
        assert report.coalesced == len(requests)
        for request, outcome in zip(requests, outcomes):
            assert _served(outcome) == _solo_payload_oracle(request)

    def test_identical_requests_fuse_into_shared_kernel_calls(self):
        requests = [
            _request({"scenario": {"households": 30, "seed": 7}, "backend": "vectorized"})
            for _ in range(4)
        ]
        outcomes, report = execute_batch(requests)
        # Same population, same method state → every reward-table cycle runs
        # one kernel over the whole arena instead of four slice kernels.
        assert report.fused_cycles > 0
        oracle = _solo_payload_oracle(requests[0])
        for outcome in outcomes:
            assert _served(outcome) == oracle

    def test_single_member_batch_matches_solo(self):
        request = _request({"scenario": {"households": 35, "seed": 11}})
        outcomes, report = execute_batch([request])
        assert report.coalesced == 1
        assert _served(outcomes[0]) == _solo_payload_oracle(request)

    @pytest.mark.chaos
    def test_nonzero_fault_plan_byte_identical_under_coalescing(self):
        # Per-member fault injectors draw masks keyed on (plan seed, stream,
        # round) — order-independent, so lockstep members replay exactly the
        # draws a solo run makes, chaos included.
        plan = {
            "seed": 13,
            "message_drop_rate": 0.15,
            "message_delay_rate": 0.1,
            "crash_rate": 0.05,
        }
        requests = [
            _request({
                "scenario": {"households": 40, "seed": seed},
                "config": {"fault_plan": dict(plan)},
            })
            for seed in range(3)
        ] + [
            _request({"scenario": {"households": 40, "seed": 99}})  # fault-free mate
        ]
        outcomes, report = execute_batch(requests)
        assert report.coalesced == 4
        for request, outcome in zip(requests, outcomes):
            assert _served(outcome) == _solo_payload_oracle(request)
        degraded = [outcome.payload["degraded_households"] for outcome in outcomes]
        assert any(count > 0 for count in degraded[:3])
        assert outcomes[0].payload["metadata"]["faults"]["plan"]["seed"] == 13

    def test_progress_events_stream_per_round(self):
        request = _request({"scenario": {"households": 40, "seed": 0}})
        seen: list[tuple[int, dict]] = []
        outcomes, _report = execute_batch(
            [request], progress=lambda index, event: seen.append((index, event))
        )
        rounds = [event for _index, event in seen if event["event"] == "round"]
        assert len(rounds) >= 1
        assert rounds == outcomes[0].events
        assert rounds[-1]["round"] == outcomes[0].payload["rounds"]
        assert rounds[-1]["messages_sent"] <= outcomes[0].payload["messages_sent"]


class TestRoutingAndSolos:
    def test_pinned_object_backend_does_not_coalesce(self):
        request = _request({"scenario": {"households": 12, "seed": 0}, "backend": "object"})
        assert not request_coalesces(request)
        outcome = run_solo(request)
        assert _served(outcome) == _solo_payload_oracle(request)
        # The object solo streams progress off the bus counters.
        rounds = [event for event in outcome.events if event["event"] == "round"]
        assert rounds and rounds[-1]["messages_sent"] > 0

    def test_large_auto_request_coalesces(self):
        # Auto routes a qualifying scenario to the vectorized path at any
        # size and worker count, so routing on the spec says "coalesce" too.
        request = _request({
            "scenario": {"households": 5000, "seed": 0},
            "config": {"shards": 2},
        })
        assert request_coalesces(request)
        # The former shard threshold is no longer a config key.
        with pytest.raises(RequestValidationError, match="'shard_threshold'"):
            _request({"config": {"shard_threshold": 10}})

    def test_removed_fault_plan_backoff_is_rejected(self):
        # Faults come from the per-round masks alone; the former bus retry
        # backoff is no longer a fault-plan key.
        with pytest.raises(RequestValidationError, match="'backoff_base_seconds'"):
            _request({
                "config": {"fault_plan": {"seed": 1, "backoff_base_seconds": 0.01}}
            })

    def test_full_society_config_routes_solo(self):
        request = _request({
            "scenario": {"households": 10, "seed": 0},
            "config": {"include_producer": True},
        })
        assert not request_coalesces(request)
        outcomes, report = execute_batch([request])
        assert report.solo == 1 and report.coalesced == 0
        assert outcomes[0].error is None
        assert outcomes[0].payload["metadata"]["backend"] == "object"

    def test_object_solo_and_coalesced_vectorized_agree(self):
        # The cross-backend equivalence, end to end through the serving path.
        coalesced = _request({"scenario": {"households": 15, "seed": 4}})
        solo = _request({"scenario": {"households": 15, "seed": 4}, "backend": "object"})
        outcomes, _report = execute_batch([coalesced])
        object_outcome = run_solo(solo)
        served = json.loads(_served(outcomes[0]))
        objected = json.loads(_served(object_outcome))
        assert served["metadata"]["backend"] == "vectorized"
        assert objected["metadata"]["backend"] == "object"
        for payload in (served, objected):
            payload["metadata"].pop("backend")
        assert served == objected

    def test_batch_isolates_a_failing_member(self):
        good = _request({"scenario": {"households": 20, "seed": 0}})
        bad = _request({"scenario": {"households": 20, "seed": 1}})
        # Sabotage one member's scenario construction.
        object.__setattr__(bad.scenario, "planning", "broken-mode")
        outcomes, report = execute_batch([good, bad])
        assert outcomes[0].error is None
        assert outcomes[1].error is not None and outcomes[1].payload is None
        assert report.coalesced == 1
        assert _served(outcomes[0]) == _solo_payload_oracle(good)
