"""Engine-level tests for batched (bit-parallel) scenario execution.

The contract: a scenario's ``batch`` hook is an *invisible* optimization
— outcomes, ordering, store keys and error capture must be
indistinguishable from solo execution of the same requests.
"""

import pytest

import repro.experiments  # noqa: F401  (registers the scenarios)
from repro import store as run_store_pkg
from repro.experiments.common import ExperimentResult
from repro.runner import engine, registry

SCENARIO = "compiled-fault-campaign"


def _requests(seeds, kind="i3"):
    return [
        engine.RunRequest.create(
            SCENARIO, {"seed": s, "kind": kind}, fast=True
        )
        for s in seeds
    ]


def _solo(requests):
    sc = registry.get(SCENARIO)
    return [
        sc.run(overrides=r.params_dict(), fast=r.fast) for r in requests
    ]


class TestPlanning:
    def test_contiguous_seed_sweep_packs_into_one_group(self):
        items = engine.plan_items(_requests(range(1, 7)))
        assert [kind for kind, _ in items] == ["batch"]
        assert len(items[0][1]) == 6

    def test_groups_split_where_other_params_change(self):
        requests = (_requests([1, 2]) + _requests([1, 2], kind="i1")
                    + _requests([3]))
        items = engine.plan_items(requests)
        assert [kind for kind, _ in items] == ["batch", "batch", "one"]

    def test_group_size_capped_at_batch_lanes(self):
        cap = registry.get(SCENARIO).batch_lanes
        items = engine.plan_items(_requests(range(1, cap + 4)))
        assert [kind for kind, _ in items] == ["batch", "batch"]
        assert len(items[0][1]) == cap
        assert len(items[1][1]) == 3

    def test_scenarios_without_batch_stay_solo(self):
        requests = [
            engine.RunRequest.create("fig12", fast=True)
            for _ in range(3)
        ]
        assert [k for k, _ in engine.plan_items(requests)] == ["one"] * 3


class TestBatchedOutcomes:
    def test_batched_results_identical_to_solo(self):
        requests = _requests([1, 2, 3, 4])
        outcomes = engine.execute(requests, jobs=1)
        for outcome, solo in zip(outcomes, _solo(requests)):
            assert not outcome.error
            assert outcome.result.rows == solo.rows
            assert outcome.result.description == solo.description
            assert outcome.result.checks == solo.checks
            assert outcome.result.all_ok

    def test_request_order_preserved(self):
        requests = _requests([4, 1, 3, 2])
        outcomes = engine.execute(requests, jobs=1)
        assert [o.request for o in outcomes] == requests

    def test_jobs_do_not_change_results(self):
        requests = _requests([1, 2, 3]) + _requests([1, 2], kind="i1")
        serial = engine.execute(requests, jobs=1)
        parallel = engine.execute(requests, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.request == b.request
            assert a.result.rows == b.result.rows
            assert a.result.description == b.result.description

    def test_on_outcome_streams_in_request_order(self):
        requests = _requests([1, 2, 3])
        seen = []
        engine.execute(requests, jobs=1,
                       on_outcome=lambda o: seen.append(o.request))
        assert seen == requests

    def test_store_keys_unchanged_by_batching(self, tmp_path):
        """Content-addressed cache entries written from a batched run
        must be retrievable per individual request."""
        requests = _requests([1, 2, 3])
        cache = run_store_pkg.RunStore(
            tmp_path, fingerprint=run_store_pkg.code_fingerprint()
        )
        engine.execute(requests, jobs=1,
                       on_outcome=lambda o: cache.put(o))
        for request, solo in zip(requests, _solo(requests)):
            hit = cache.get(request)
            assert hit is not None
            assert hit.result.rows == solo.rows


class TestBatchFailureCapture:
    @pytest.fixture
    def broken_batch(self):
        def run(tech=None, seed=1):
            return ExperimentResult(
                experiment_id="x", description="solo",
                headers=("a",), rows=[[seed]], checks=[],
            )

        def batch(tech=None, param_sets=()):
            raise RuntimeError("lane packing exploded")

        registry.scenario(
            "broken-batch-test",
            description="test fixture",
            params=(registry.ParamSpec("seed", int, 1),),
            batch=batch,
        )(run)
        yield
        registry.unregister("broken-batch-test")

    @pytest.fixture
    def miscounting_batch(self):
        def run(tech=None, seed=1):
            return ExperimentResult(
                experiment_id="x", description="solo",
                headers=("a",), rows=[[seed]], checks=[],
            )

        def batch(tech=None, param_sets=()):
            return []  # wrong cardinality

        registry.scenario(
            "miscounting-batch-test",
            description="test fixture",
            params=(registry.ParamSpec("seed", int, 1),),
            batch=batch,
        )(run)
        yield
        registry.unregister("miscounting-batch-test")

    def test_raising_hook_fails_every_group_member(self, broken_batch):
        requests = [
            engine.RunRequest.create("broken-batch-test", {"seed": s})
            for s in (1, 2, 3)
        ]
        outcomes = engine.execute(requests, jobs=1)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert "lane packing exploded" in outcome.error
            assert outcome.result is None

    def test_wrong_result_count_reported(self, miscounting_batch):
        requests = [
            engine.RunRequest.create(
                "miscounting-batch-test", {"seed": s}
            )
            for s in (1, 2)
        ]
        outcomes = engine.execute(requests, jobs=1)
        for outcome in outcomes:
            assert "returned 0 results for 2 requests" in outcome.error

    def test_single_request_skips_the_batch_hook(self, broken_batch):
        # a lone request takes the solo path, so the broken hook is
        # never consulted
        outcome = engine.execute(
            [engine.RunRequest.create("broken-batch-test", {"seed": 5})],
            jobs=1,
        )[0]
        assert not outcome.error
        assert outcome.result.rows == [[5]]
