"""Tests for the scenario registry, sweep engine and artifact writer."""

import json
import time
from collections import Counter

import pytest

from repro.experiments import fig12
from repro.experiments.common import ExperimentResult, noc_cost
from repro.runner import artifacts, engine, registry, sweep
from repro.runner.registry import ParamSpec, ScenarioError, scenario


@pytest.fixture(autouse=True)
def _builtin():
    registry.load_builtin()


class TestParamSpec:
    def test_coerce_types(self):
        assert ParamSpec("n", int, 1).coerce("7") == 7
        assert ParamSpec("r", float, 0.1).coerce("0.25") == 0.25
        assert ParamSpec("k", str, "I3").coerce("I1") == "I1"

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("0", False), ("yes", True),
        ("off", False), (True, True),
    ])
    def test_coerce_bool(self, raw, expected):
        assert ParamSpec("b", bool, False).coerce(raw) is expected

    def test_bad_bool_rejected(self):
        with pytest.raises(ScenarioError):
            ParamSpec("b", bool, False).coerce("maybe")

    def test_bad_number_rejected(self):
        with pytest.raises(ScenarioError):
            ParamSpec("n", int, 1).coerce("seven")

    def test_choices_enforced(self):
        spec = ParamSpec("k", str, "I3", choices=("I1", "I2", "I3"))
        assert spec.coerce("I2") == "I2"
        with pytest.raises(ScenarioError):
            spec.coerce("I9")


class TestRegistry:
    def test_every_experiment_module_registers_exactly_once(self):
        """The registry replaces hand-enumeration: one scenario per
        module (the ablation module contributes its three studies)."""
        counts = Counter(
            sc.func.__module__ for sc in registry.all_scenarios()
            if sc.func.__module__.startswith("repro.experiments")
        )
        single = (
            "fig10", "fig11", "fig12", "fig13", "fig14",
            "table1", "table2", "throughput", "wirelength",
            "mesh_design_space", "gals_mesh", "fault_injection",
            "compiled_campaign", "noop",
        )
        for name in single:
            assert counts.pop(f"repro.experiments.{name}") == 1, name
        assert counts.pop("repro.experiments.ablation") == 3
        assert counts.pop("repro.experiments.traffic_patterns") == 3
        assert not counts, f"unexpected registrations: {counts}"

    def test_paper_tag_covers_every_artifact(self):
        assert {sc.id for sc in registry.find(tags=("paper",))} == {
            "fig10", "fig11", "fig12", "fig13", "fig14",
            "table1", "table2", "throughput", "wirelength",
        }

    def test_duplicate_id_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            scenario("fig12", description="clash")(lambda tech=None: None)

    def test_reimport_is_idempotent(self):
        import importlib

        import repro.experiments.fig12 as mod

        before = registry.get("fig12")
        importlib.reload(mod)
        after = registry.get("fig12")
        assert after.id == before.id
        registry.load_builtin()

    def test_unknown_id_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            registry.get("fig99")

    def test_unknown_param_raises(self):
        with pytest.raises(ScenarioError, match="no parameter"):
            registry.get("fig12").param("frequency")

    def test_find_requires_all_tags(self):
        simulated_paper = registry.find(tags=("paper", "simulated"))
        assert {sc.id for sc in simulated_paper} == {
            "fig14", "throughput", "wirelength",
        }

    def test_fast_params_resolution(self):
        sc = registry.get("throughput")
        assert sc.resolve_params()["simulate"] is True
        assert sc.resolve_params(fast=True)["simulate"] is False
        # explicit override wins over fast mode
        assert sc.resolve_params({"simulate": "true"}, fast=True)[
            "simulate"] is True


class TestSweep:
    def test_expand_grid_nested_loop_order(self):
        points = sweep.expand_grid({"a": [1, 2], "b": ["x", "y"]})
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_expand_grid_empty(self):
        assert sweep.expand_grid({}) == [{}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            sweep.expand_grid({"a": []})

    def test_default_grid_from_spec(self):
        grid = sweep.default_grid(registry.get("mesh-design-space"))
        assert grid["mesh_size"] == [2, 3, 4, 5, 6, 7, 8]
        assert grid["injection_rate"] == [0.05, 0.15, 0.25]

    def test_no_default_axes_rejected(self):
        with pytest.raises(ScenarioError, match="no default sweep axes"):
            sweep.build_requests(registry.get("fig12"))

    def test_parse_axis_coerces_and_validates(self):
        sc = registry.get("mesh-design-space")
        assert sweep.parse_axis(sc, "mesh_size", "2, 4") == [2, 4]
        with pytest.raises(ScenarioError):
            sweep.parse_axis(sc, "mesh_size", "17")

    def test_swept_and_fixed_conflict(self):
        sc = registry.get("mesh-design-space")
        with pytest.raises(ScenarioError, match="both swept and fixed"):
            sweep.build_requests(
                sc, axes={"mesh_size": [2]}, fixed={"mesh_size": 3}
            )

    def test_build_requests_fills_fixed(self):
        sc = registry.get("mesh-design-space")
        requests = sweep.build_requests(
            sc, axes={"mesh_size": [2, 3]}, fixed={"cycles": 100}
        )
        assert len(requests) == 2
        assert all(r.params_dict()["cycles"] == 100 for r in requests)


class TestEngine:
    def test_request_params_sorted_and_coerced(self):
        request = engine.RunRequest.create(
            "mesh-design-space",
            {"mesh_size": "3", "cycles": "100"},
        )
        assert request.params == (("cycles", 100), ("mesh_size", 3))

    def test_serial_execution_order(self):
        requests = [
            engine.RunRequest.create("table1"),
            engine.RunRequest.create("fig10"),
        ]
        outcomes = engine.execute(requests, jobs=1)
        assert [o.request.scenario_id for o in outcomes] == [
            "table1", "fig10",
        ]
        assert all(o.ok for o in outcomes)
        assert isinstance(outcomes[0].result, ExperimentResult)

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ScenarioError):
            engine.execute([engine.RunRequest(scenario_id="fig99")])

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError):
            engine.execute([], jobs=0)

    def test_scenario_exception_captured_not_raised(self):
        @scenario("broken-test-scenario", description="always raises")
        def _broken(tech=None):
            raise RuntimeError("kaboom")

        try:
            outcomes = engine.execute([
                engine.RunRequest.create("broken-test-scenario"),
                engine.RunRequest.create("table1"),
            ])
            assert not outcomes[0].ok
            assert "kaboom" in outcomes[0].error
            assert outcomes[1].ok
        finally:
            registry.unregister("broken-test-scenario")

    def test_engine_overhead_vs_direct(self):
        """The engine is a thin shell: registry lookup, parameter
        resolution and result collection may not multiply the cost of
        the scenarios it runs (a generous bound for CI noise)."""
        n = 5

        def engined_runs():
            requests = [engine.RunRequest.create("fig12") for _ in range(n)]
            return engine.execute(requests, jobs=1)

        # a warm-up run, so neither timing pays first-call costs
        assert all(o.ok for o in engined_runs())

        t0 = time.perf_counter()
        for _ in range(n):
            fig12.run()
        direct = time.perf_counter() - t0

        t0 = time.perf_counter()
        engined_runs()
        engined = time.perf_counter() - t0
        assert engined < direct * 5 + 0.05

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        """--jobs 4 must be indistinguishable from a serial run."""
        sc = registry.get("mesh-design-space")
        requests = sweep.build_requests(
            sc,
            axes={"mesh_size": [2, 3], "injection_rate": [0.05, 0.15]},
            fixed={"cycles": 200},
        )
        serial = engine.execute(requests, jobs=1)
        assert all(o.ok for o in serial)
        parallel = engine.execute(requests, jobs=4)
        artifacts.write_artifacts(serial, tmp_path / "serial")
        artifacts.write_artifacts(parallel, tmp_path / "parallel")
        serial_files = sorted(
            p.relative_to(tmp_path / "serial")
            for p in (tmp_path / "serial").rglob("*") if p.is_file()
        )
        parallel_files = sorted(
            p.relative_to(tmp_path / "parallel")
            for p in (tmp_path / "parallel").rglob("*") if p.is_file()
        )
        assert serial_files == parallel_files
        assert len(serial_files) == 2 * len(requests) + 1  # + summary.json
        for rel in serial_files:
            assert (tmp_path / "serial" / rel).read_bytes() == (
                tmp_path / "parallel" / rel
            ).read_bytes(), rel


class TestPlanItems:
    """The fault-injection ``n_faults`` hook packs only where the axis is
    innermost, so adjacent requests differ in it alone."""

    @staticmethod
    def _grid(axes):
        return sweep.build_requests(
            registry.get("fault-injection"), axes=axes,
            fixed={"cycles": 200},
        )

    def test_n_faults_innermost_packs_groups_of_at_most_four(self):
        requests = self._grid({
            "mesh_size": [4, 6],
            "injection_rate": [0.05, 0.10, 0.15],
            "n_faults": [0, 1, 2, 3, 6],
        })
        items = engine.plan_items(requests)
        assert [kind for kind, _ in items] == ["batch", "one"] * 6
        flat = []
        for kind, payload in items:
            group = payload if kind == "batch" else [payload]
            assert len(group) <= 4
            shared = {
                (p["mesh_size"], p["injection_rate"])
                for p in (r.params_dict() for r in group)
            }
            assert len(shared) == 1
            flat += group
        assert flat == requests

    def test_n_faults_not_innermost_stays_unpacked(self):
        requests = self._grid({
            "mesh_size": [4, 6],
            "n_faults": [0, 3],
            "injection_rate": [0.10, 0.15],
        })
        items = engine.plan_items(requests)
        assert [kind for kind, _ in items] == ["one"] * len(requests)


def _weight(params):
    if params["w"] < 0:
        raise ValueError("negative weight")
    return params["w"]


@pytest.fixture
def weighted():
    """``weighted-test``: its cost hook returns the ``w`` parameter; a
    negative ``w`` makes both the hook and the point raise.  A point
    returns its start time and then sleeps ``pause`` seconds."""

    def _batch(tech=None, param_sets=()):
        return [_run(**params) for params in param_sets]

    @scenario(
        "weighted-test",
        description="no-op point with a declared work estimate",
        params=(
            ParamSpec("w", float, 1.0),
            ParamSpec("pause", float, 0.0),
            ParamSpec("seed", int, 0),
        ),
        batch=_batch,
        cost=_weight,
    )
    def _run(tech=None, w=1.0, pause=0.0, seed=0):
        start = time.monotonic()
        _weight({"w": w})
        time.sleep(pause)
        return ExperimentResult("weighted", "", ("start",), [[start]])

    yield lambda **params: engine.RunRequest.create("weighted-test", params)
    registry.unregister("weighted-test")


class TestDispatchOrder:
    """Pools and fabric workers start the costliest work item first;
    outcomes keep request order."""

    def test_sorts_by_descending_estimate(self, weighted):
        items = [("one", weighted(w=w)) for w in (1, 5, 3, 4)]
        assert engine.dispatch_order(items) == [1, 3, 2, 0]

    def test_ties_and_unestimated_items_keep_grid_order(self, weighted):
        items = [
            ("one", engine.RunRequest.create("table1")),
            ("one", weighted(w=2)),
            ("one", weighted(w=0)),
            ("one", engine.RunRequest.create("fig12")),
            ("one", weighted(w=2)),
        ]
        assert engine.dispatch_order(items) == [1, 4, 0, 2, 3]

    def test_scenarios_without_a_hook_dispatch_in_grid_order(self):
        ids = ("fig12", "table1", "fig10", "table2")
        assert all(registry.get(i).cost is None for i in ids)
        items = [("one", engine.RunRequest.create(i)) for i in ids]
        assert engine.dispatch_order(items) == [0, 1, 2, 3]

    def test_batch_item_counts_the_sum_of_its_members(self, weighted):
        items = [
            ("one", weighted(w=5)),
            ("batch", [weighted(w=2, seed=s) for s in range(3)]),
        ]
        assert engine.dispatch_order(items) == [1, 0]

    def test_raising_hook_sorts_as_zero_and_point_fails_alone(
            self, weighted):
        requests = [weighted(w=-1), weighted(w=0), weighted(w=1)]
        items = [("one", r) for r in requests]
        assert engine.dispatch_order(items) == [2, 0, 1]
        outcomes = engine.execute(requests, jobs=2)
        assert [o.request for o in outcomes] == requests
        assert "negative weight" in outcomes[0].error
        assert outcomes[1].ok and outcomes[2].ok

    def test_unresolvable_request_sorts_as_zero(self, weighted):
        bogus = engine.RunRequest("weighted-test", (("bogus", 1),))
        unknown = engine.RunRequest("no-such-scenario")
        items = [("one", bogus), ("one", unknown), ("one", weighted(w=1))]
        assert engine.dispatch_order(items) == [2, 0, 1]

    def test_hook_sees_fast_mode_params(self):
        """``--fast`` runs the traffic scenarios at 200 cycles, so a
        fast 3x3 point (27 nodes x 200 x 3 hops) costs less than a full
        2x2 one (8 x 800 x 2)."""
        fast = engine.RunRequest.create(
            "gals-mesh", {"mesh_size": 3}, fast=True
        )
        full = engine.RunRequest.create("gals-mesh", {"mesh_size": 2})
        assert engine.dispatch_order([("one", fast), ("one", full)]) == [
            1, 0,
        ]

    def test_noc_scenarios_declare_offered_flit_hops(self):
        for sid in ("mesh-design-space", "traffic-hotspot",
                    "traffic-transpose", "traffic-bit-complement",
                    "gals-mesh", "fault-injection"):
            assert registry.get(sid).cost is noc_cost, sid
        params = {"mesh_size": 4, "cycles": 800, "injection_rate": 0.1}
        assert noc_cost(params) == pytest.approx(16 * 800 * 0.1 * 4)

    def test_fault_injection_plan_starts_the_largest_group(self):
        requests = sweep.build_requests(
            registry.get("fault-injection"),
            axes={"mesh_size": [4, 8, 6],
                  "injection_rate": [0.15, 0.05],
                  "n_faults": [0, 1, 3, 6]},
            fixed={"cycles": 200},
        )
        items = engine.plan_items(requests)
        order = engine.dispatch_order(items)
        first = items[order[0]][1][0].params_dict()
        assert (first["mesh_size"], first["injection_rate"]) == (8, 0.15)
        last = items[order[-1]][1][0].params_dict()
        assert (last["mesh_size"], last["injection_rate"]) == (4, 0.05)

    def test_pool_starts_costliest_first_and_keeps_request_order(
            self, weighted):
        requests = [weighted(w=w, pause=0.2) for w in (1, 2, 3, 4)]
        seen = []
        outcomes = engine.execute(requests, jobs=2, on_outcome=seen.append)
        assert [o.request for o in outcomes] == requests
        assert Counter(o.request for o in seen) == Counter(requests)
        assert all(o.ok for o in outcomes)
        by_start = sorted(outcomes, key=lambda o: o.result.rows[0][0])
        assert {o.request.params_dict()["w"] for o in by_start[:2]} == {
            3.0, 4.0,
        }


class TestPointSlug:
    def _outcome(self, value):
        request = engine.RunRequest(
            scenario_id="slug-test", params=(("label", value),)
        )
        return engine.RunOutcome(request=request)

    def test_no_params_is_default(self):
        request = engine.RunRequest(scenario_id="slug-test")
        assert artifacts.point_slug(
            engine.RunOutcome(request=request)
        ) == "default"

    def test_sanitized_collisions_get_distinct_slugs(self):
        """'a b' and 'a-b' sanitize identically; the hash suffix must
        keep their artifact files apart."""
        slug_space = artifacts.point_slug(self._outcome("a b"))
        slug_dash = artifacts.point_slug(self._outcome("a-b"))
        assert slug_space != slug_dash
        assert slug_space.split("-")[:2] == slug_dash.split("-")[:2]

    def test_slug_is_stable(self):
        assert artifacts.point_slug(self._outcome("a b")) == \
            artifacts.point_slug(self._outcome("a b"))


class TestOutcomeCallback:
    def test_serial_callback_streams_in_request_order(self):
        seen = []
        requests = [
            engine.RunRequest.create("table1"),
            engine.RunRequest.create("fig10"),
        ]
        outcomes = engine.execute(
            requests, jobs=1,
            on_outcome=lambda o: seen.append(o.request.scenario_id),
        )
        assert seen == ["table1", "fig10"]
        assert [o.request.scenario_id for o in outcomes] == seen

    def test_parallel_callback_sees_every_outcome_once(self):
        # parallel callbacks fire in *completion* order (the engine no
        # longer holds finished points hostage to an unfinished earlier
        # one), so the callback contract is every-outcome-exactly-once;
        # the *returned* list is still in request order
        sc = registry.get("mesh-design-space")
        requests = sweep.build_requests(
            sc, axes={"mesh_size": [2, 3]}, fixed={"cycles": 100}
        )
        seen = []
        outcomes = engine.execute(requests, jobs=2, on_outcome=seen.append)
        assert sorted(o.request.params for o in seen) == sorted(
            r.params for r in requests
        )
        assert [o.request for o in outcomes] == list(requests)


class TestArtifacts:
    def test_layout_and_summary(self, tmp_path):
        outcomes = engine.execute([
            engine.RunRequest.create("fig12"),
            engine.RunRequest.create(
                "mesh-design-space", {"mesh_size": 2, "cycles": 100}
            ),
        ])
        summary_path = artifacts.write_artifacts(outcomes, tmp_path)
        assert (tmp_path / "fig12" / "default.rows.csv").exists()
        assert (tmp_path / "fig12" / "default.checks.csv").exists()
        mesh = tmp_path / "mesh-design-space"
        mesh_slug = artifacts.point_slug(outcomes[1])
        assert mesh_slug.startswith("cycles=100_mesh_size=2-")
        assert (mesh / f"{mesh_slug}.rows.csv").exists()

        summary = json.loads(summary_path.read_text())
        assert [r["scenario"] for r in summary["runs"]] == [
            "fig12", "mesh-design-space",
        ]
        fig12_run = summary["runs"][0]
        assert fig12_run["ok"] is True
        assert fig12_run["params"] == {}
        assert all(c["ok"] for c in fig12_run["checks"])
        mesh_run = summary["runs"][1]
        assert mesh_run["params"] == {"cycles": 100, "mesh_size": 2}

    def test_failed_outcome_recorded_without_csv(self, tmp_path):
        @scenario("broken-artifact-scenario", description="raises")
        def _broken(tech=None):
            raise ValueError("no result")

        try:
            outcomes = engine.execute([
                engine.RunRequest.create("broken-artifact-scenario"),
            ])
            summary_path = artifacts.write_artifacts(outcomes, tmp_path)
            summary = json.loads(summary_path.read_text())
            run = summary["runs"][0]
            assert run["ok"] is False
            assert "no result" in run["error"]
            assert not (tmp_path / "broken-artifact-scenario").exists()
        finally:
            registry.unregister("broken-artifact-scenario")
