"""Tests for the paper-experiment modules: every check must pass.

These are the reproduction's acceptance tests — each experiment compares
its regenerated rows against the numbers printed in the paper and the
assertions here fail if any drifts outside its documented tolerance.
"""

import pytest

from repro.experiments import (
    ablation,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    table1,
    table2,
    throughput,
)
from repro.experiments.common import Check, ExperimentResult


class TestCheck:
    def test_two_sided(self):
        assert Check("x", 100, 100, 0.01).ok
        assert Check("x", 100.5, 100, 0.01).ok
        assert not Check("x", 105, 100, 0.01).ok

    def test_at_least_mode(self):
        assert Check("x", 2.0, 1.05, 0.0, mode="at_least").ok
        assert not Check("x", 1.0, 1.05, 0.0, mode="at_least").ok

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            Check("x", 1, 1, 0.1, mode="roughly")

    def test_row_rendering(self):
        row = Check("thing", 1.0, 2.0, 0.1).row()
        assert row[0] == "thing"
        assert row[-1] == "FAIL"


class TestAnalyticalExperiments:
    """Fast (no gate-level simulation) experiments."""

    @pytest.mark.parametrize(
        "module", [fig10, fig11, fig12, fig13, table1, table2]
    )
    def test_all_checks_pass(self, module):
        result = module.run()
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_fig14_analytical(self):
        result = fig14.run(with_activity=False)
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_throughput_analytic_only(self):
        result = throughput.run(simulate=False)
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_wirelength_analytic_only(self):
        from repro.experiments import wirelength

        result = wirelength.run(simulate=False)
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_render_contains_table(self):
        result = fig12.run()
        text = result.render()
        assert "Fig 12" in text
        assert "paper-vs-measured" in text

    def test_results_expose_rows(self):
        result = fig10.run()
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) > 0
        assert len(result.headers) == len(result.rows[0])


class TestSimulatedExperiments:
    """Gate-level simulation experiments (slower)."""

    def test_throughput_with_simulation(self):
        result = throughput.run(simulate=True)
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_structure_checks_pass_on_the_real_builders(self):
        result = throughput.run(simulate=True)
        structure = [c for c in result.checks if "structure" in c.name]
        assert len(structure) == 4
        assert all(c.ok and c.tolerance == 0.0 for c in structure)

    def test_structure_checks_catch_a_short_i3_builder(self, monkeypatch):
        """An I3 builder one repeater station short of ``n_buffers``
        fails the exact cycle-delay and area checks."""
        from dataclasses import replace

        from repro.link import LinkConfig, assemblies

        real_build_i3 = assemblies.build_i3

        def short_build_i3(sim, clk, config=None, tech=None, **kwargs):
            config = config or LinkConfig()
            return real_build_i3(
                sim, clk, replace(config, n_buffers=config.n_buffers - 1),
                tech, **kwargs)

        monkeypatch.setattr(assemblies, "build_i3", short_build_i3)
        result = throughput.run(simulate=True)
        status = {c.name: c.ok for c in result.checks
                  if "structure" in c.name}
        assert status == {
            "I2 cycle delay: structure vs eqn (ns)": True,
            "I3 cycle delay: structure vs eqn (ns)": False,
            "I3 area: structure vs Table 1 (um2)": False,
            "I3 wires: structure vs wire model": True,
        }

    def test_fig14_with_activity(self):
        result = fig14.run(with_activity=True, activity_flits=16)
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_wirelength_with_simulation(self):
        from repro.experiments import wirelength

        result = wirelength.run(simulate=True, n_flits=12,
                                segment_delays_ps=(0, 150))
        assert result.all_ok, [c.row() for c in result.failures()]

    def test_ablation_buffer_count(self):
        result = ablation.buffer_count_study()
        assert result.all_ok

    def test_ablation_serialization_sweep(self):
        result = ablation.serialization_sweep()
        assert result.all_ok
        assert len(result.rows) == 5

    def test_ablation_early_ack(self):
        result = ablation.early_ack_study(n_flits=12)
        assert result.all_ok, [c.row() for c in result.failures()]


class TestRunAll:
    def test_fast_mode_covers_every_artifact(self):
        from repro.runner import registry

        results = {
            sc.id: sc.run(fast=True) for sc in registry.find(tags=("paper",))
        }
        assert set(results) == {
            "fig10", "fig11", "fig12", "fig13", "fig14",
            "table1", "table2", "throughput", "wirelength",
        }
        for key, result in results.items():
            assert result.all_ok, (key, [c.row() for c in result.failures()])
