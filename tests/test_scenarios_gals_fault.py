"""Tests for the GALS mixed-clock and fault-injection scenario wrappers."""

import re

import pytest

from repro.link.behavioral import derive_link_params
from repro.noc import Topology, run_mesh_point
from repro.runner import engine, registry
from repro.tech import st012


@pytest.fixture(autouse=True)
def loaded_registry():
    registry.load_builtin()


def _outcome(scenario_id, overrides=None, fast=False):
    """One point of ``scenario_id`` through the engine, as the CLI runs it."""
    (outcome,) = engine.execute(
        [engine.RunRequest.create(scenario_id, overrides, fast=fast)]
    )
    return outcome


def _run(scenario_id, overrides=None, fast=False):
    """The result of one point; the point must not raise."""
    outcome = _outcome(scenario_id, overrides, fast)
    assert not outcome.error, outcome.error
    return outcome.result


class TestRegistration:
    def test_both_registered_with_tags(self):
        gals = registry.get("gals-mesh")
        fault = registry.get("fault-injection")
        assert {"noc", "gals", "extension"} <= gals.tags
        assert {"noc", "fault", "extension"} <= fault.tags

    def test_both_declare_sweep_axes(self):
        for sid in ("gals-mesh", "fault-injection"):
            sc = registry.get(sid)
            swept = [p.name for p in sc.params if p.sweep]
            assert swept, f"{sid} declares no sweep axis"


class TestGalsMesh:
    def test_fast_run_passes_checks(self):
        result = _run("gals-mesh", fast=True)
        assert result.failures() == []
        # the 4x4 default splits into two domains with a seam of links
        assert int(result.rows[0][4]) > 0  # cross-domain links

    def test_equal_clocks_degenerate_to_uniform_mesh(self):
        """With both domains at the same frequency the GALS mesh is just
        a uniform mesh — the scenario must agree with run_mesh_point."""
        mhz, cycles = 300.0, 200
        result = _run(
            "gals-mesh",
            {"fast_mhz": mhz, "slow_mhz": mhz, "cycles": cycles},
        )
        topology = Topology(4, 4)
        params = derive_link_params(st012(), "I3", mhz)
        point = run_mesh_point(
            topology, params, injection_rate=0.15, cycles=cycles
        )
        row = result.rows[0]
        assert row[6] == f"{point['throughput']:.4f}"
        assert row[7] == f"{point['mean_latency']:.1f}"

    def test_slow_domain_raises_latency(self):
        fast = _run("gals-mesh", {"slow_mhz": 400.0, "cycles": 300})
        mixed = _run("gals-mesh", {"slow_mhz": 100.0, "cycles": 300})
        lat = lambda r: float(r.rows[0][7])  # noqa: E731
        assert lat(mixed) > lat(fast)


class TestFaultInjection:
    def test_fast_run_passes_checks(self):
        result = _run("fault-injection", fast=True)
        assert result.failures() == []
        healthy, damaged = result.rows
        assert healthy[3] == 0
        assert damaged[3] == 3

    def test_zero_faults_matches_healthy_mesh(self):
        result = _run("fault-injection", {"n_faults": 0, "cycles": 200})
        healthy, damaged = result.rows
        # identical traffic over an identical mesh: rows must agree on
        # every measured column
        assert healthy[4:] == damaged[4:]

    def test_fault_sites_are_seed_deterministic(self):
        from repro.experiments.fault_injection import pick_faulty_links

        topology = Topology(4, 4)
        a = pick_faulty_links(topology, 5, fault_seed=13)
        b = pick_faulty_links(topology, 5, fault_seed=13)
        c = pick_faulty_links(topology, 5, fault_seed=14)
        assert a == b
        assert len(a) == 5
        assert a != c

    def test_degraded_params_are_slower_and_later(self):
        from repro.experiments.fault_injection import degraded_params

        base = derive_link_params(st012(), "I3", 300)
        slow = degraded_params(base, rate_factor=0.5, latency_penalty=4)
        assert slow.latency_cycles == base.latency_cycles + 4
        assert slow.rate_flits_per_cycle \
            == pytest.approx(base.rate_flits_per_cycle * 0.5)
        assert slow.capacity_flits == base.capacity_flits
        assert slow.wire_count == base.wire_count

    def test_bad_rate_factor_rejected(self):
        error = _outcome("fault-injection", {"rate_factor": 0.0}).error
        assert re.search(r"ValueError: .*rate_factor", error), error
        # a 2x2 mesh has 8 directed links: n_faults must sample from them
        for n_faults in (-1, 9):
            error = _outcome(
                "fault-injection", {"mesh_size": 2, "n_faults": n_faults},
            ).error
            assert re.search(r"ValueError: .*n_faults", error), error

    def test_damage_costs_latency_under_xy_routing(self):
        """Deterministic XY routing cannot steer around the slow links,
        so enough damage must show up as added latency."""
        result = _run(
            "fault-injection",
            {"routing": "xy", "n_faults": 8, "rate_factor": 0.25,
             "latency_penalty": 8, "cycles": 300},
        )
        assert result.failures() == []
        healthy, damaged = result.rows
        assert float(damaged[6]) > float(healthy[6])  # mean latency


class TestFaultInjectionBatch:
    """The ``n_faults`` batch hook simulates each distinct mesh once and
    returns exactly what solo runs would."""

    GROUP = (0, 1, 3, 6)

    @staticmethod
    def _params(n_faults, **extra):
        sc = registry.get("fault-injection")
        return sc.resolve_params(
            {"n_faults": n_faults, "cycles": 150, **extra}
        )

    @staticmethod
    def _count_simulations(monkeypatch):
        from repro.experiments import fault_injection

        calls = []
        real = fault_injection.run_mesh_point

        def counting(*args, **kwargs):
            calls.append(kwargs.get("link_params_for"))
            return real(*args, **kwargs)

        monkeypatch.setattr(fault_injection, "run_mesh_point", counting)
        return calls

    def test_registered_on_n_faults(self):
        sc = registry.get("fault-injection")
        assert sc.has_batch
        assert sc.batch_axis == "n_faults"
        assert sc.batch_lanes == 4

    def test_batch_matches_solo_runs(self):
        sc = registry.get("fault-injection")
        param_sets = [self._params(n) for n in self.GROUP]
        batched = sc.batch(tech=None, param_sets=param_sets)
        assert len(batched) == len(self.GROUP)
        for params, result in zip(param_sets, batched):
            solo = sc.func(tech=None, **params)
            assert result.rows == solo.rows
            assert result.checks == solo.checks
            assert result.description == solo.description
            assert result.failures() == []

    def test_group_simulates_each_distinct_mesh_once(self, monkeypatch):
        calls = self._count_simulations(monkeypatch)
        registry.get("fault-injection").batch(
            tech=None, param_sets=[self._params(n) for n in self.GROUP],
        )
        # one healthy mesh plus the damaged meshes of 1, 3 and 6 faults
        assert len(calls) == 4
        assert sum(hook is None for hook in calls) == 1

    @pytest.mark.parametrize("n_faults, expected", [(0, 1), (3, 2)])
    def test_solo_point_simulations(self, monkeypatch, n_faults,
                                    expected):
        calls = self._count_simulations(monkeypatch)
        sc = registry.get("fault-injection")
        sc.func(tech=None, **self._params(n_faults))
        assert len(calls) == expected

    def test_explicit_fault_paths_still_simulate_damage(self, monkeypatch):
        """Sharing keys on the fault-site set, not on n_faults: explicit
        sites override the sampler even at n_faults=0."""
        calls = self._count_simulations(monkeypatch)
        sc = registry.get("fault-injection")
        result = sc.func(tech=None, **self._params(
            0, fault_paths="node[1][1].east,node[1][2].west",
            routing="xy", rate_factor=0.25, latency_penalty=8,
        ))
        assert len(calls) == 2
        assert calls[1] is not None
        healthy, damaged = result.rows
        assert damaged[3] == 2
        assert float(damaged[6]) > float(healthy[6])  # mean latency
