"""CLI behavior of ``repro lint``, ``sweep --lint`` and ``inspect``.

The committed registry + waiver file must pass the gate, a
seeded-error design must be refused by the sweep pre-flight *before
any point executes*, and every output format must round-trip.
"""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.design.component import Component
from repro.design.design import Design
from repro.runner import registry
from repro.runner.registry import ParamSpec, scenario

WAIVER_FILE = str(Path(__file__).resolve().parent.parent
                  / "lint-waivers.toml")


def _floating_design(tech=None, **_params):
    top = Component("top")
    child = Component("c")
    child.port_in("a")
    top.add("c", child)
    return Design(top)


class TestLintCommand:
    def test_committed_registry_passes_error_gate(self, capsys):
        code = main(["lint", "--all", "--fail-on", "error",
                     "--waivers", WAIVER_FILE])
        out = capsys.readouterr().out
        assert code == 0
        assert "total:" in out
        # scenarios without design hooks are named, not hidden
        assert "skipped (scenario exposes no design tree)" in out

    def test_committed_waivers_all_used(self, capsys):
        code = main(["lint", "--all", "--fail-on", "warning",
                     "--waivers", WAIVER_FILE])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "unused-waiver" not in out

    def test_single_scenario_lints_clean(self, capsys):
        assert main(["lint", "gals-mesh", "--set", "mesh_size=2",
                     "--waivers", WAIVER_FILE]) == 0
        assert "gals-mesh: clean" in capsys.readouterr().out

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint"])
        assert "--all" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "no-such-thing"])
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_scenario_rejected_under_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--all", "no-such-thing"])
        assert exc.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_set_param_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "gals-mesh", "--set", "bogus=1"])
        assert "bogus" in capsys.readouterr().err

    def test_unknown_set_param_rejected_under_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--all", "--set", "bogus=1"])
        assert exc.value.code == 2
        assert "--set bogus: no selected scenario" in capsys.readouterr().err

    def test_json_format_round_trips(self, capsys):
        assert main(["lint", "--all", "--format", "json",
                     "--waivers", WAIVER_FILE]) == 0
        doc = json.loads(capsys.readouterr().out)
        by_id = {r["scenario"]: r for r in doc["reports"]}
        assert by_id["gals-mesh"]["findings"] == []
        waived = by_id["throughput"]["findings"]
        assert all(f["waived"] for f in waived)

    def test_sarif_format_is_valid_2_1_0(self, capsys):
        assert main(["lint", "--all", "--format", "sarif",
                     "--waivers", WAIVER_FILE]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "comb-loop" in rule_ids and "unused-waiver" in rule_ids
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            logical = result["locations"][0]["logicalLocations"][0]
            assert logical["fullyQualifiedName"]

    def test_missing_explicit_waiver_file_rejected(self, capsys,
                                                   tmp_path):
        with pytest.raises(SystemExit):
            main(["lint", "gals-mesh",
                  "--waivers", str(tmp_path / "none.toml")])
        assert "cannot read waiver file" in capsys.readouterr().err

    def test_fail_on_gate_trips_on_seeded_error(self, capsys, tmp_path):
        @scenario("lint-broken-test", description="seeded violation",
                  design=_floating_design)
        def _run(tech=None):  # pragma: no cover - never executed
            raise AssertionError("must not run")

        try:
            empty = tmp_path / "w.toml"
            empty.write_text("")
            code = main(["lint", "lint-broken-test",
                         "--waivers", str(empty)])
        finally:
            registry.unregister("lint-broken-test")
        captured = capsys.readouterr()
        assert code == 1
        assert "undriven-input" in captured.out
        assert "top.c.a" in captured.out
        assert "lint gate" in captured.err


class TestSweepPreflight:
    def test_seeded_error_design_refused_before_execution(
            self, capsys):
        executed = []

        @scenario("lint-refused-sweep", description="seeded violation",
                  params=(ParamSpec("n", int, 1, sweep=(1, 2)),),
                  design=_floating_design)
        def _run(tech=None, n=1):
            executed.append(n)

        try:
            code = main(["sweep", "lint-refused-sweep", "--lint"])
        finally:
            registry.unregister("lint-refused-sweep")
        captured = capsys.readouterr()
        assert code == 1
        assert executed == []  # refused before any point ran
        assert "refusing to dispatch" in captured.err
        assert "undriven-input" in captured.err

    def test_clean_design_sweeps_normally(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.chdir(tmp_path)  # no waiver file in cwd
        code = main(["sweep", "sweep-noop", "--lint",
                     "--param", "point=1,2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "exposes no design tree" in captured.out

    def test_clean_compiled_design_preflight_passes(self, capsys):
        code = main(["sweep", "compiled-fault-campaign", "--lint",
                     "--fast", "--param", "seed=1",
                     "--set", "vectors=2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean at error level" in captured.out


class TestInspectSurfacing:
    def test_inspect_reports_clean_lint(self, capsys):
        assert main(["inspect", "gals-mesh",
                     "--set", "mesh_size=2"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_inspect_lists_findings(self, capsys):
        @scenario("lint-inspect-test", description="seeded violation",
                  design=_floating_design)
        def _run(tech=None):  # pragma: no cover - never executed
            raise AssertionError("must not run")

        try:
            assert main(["inspect", "lint-inspect-test"]) == 0
        finally:
            registry.unregister("lint-inspect-test")
        out = capsys.readouterr().out
        assert "lint: 1 error" in out
        assert "undriven-input" in out
        assert "top.c.a" in out
