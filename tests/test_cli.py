"""Tests for the ``python -m repro`` command-line entry point."""

import json

import pytest

from repro.__main__ import main
from repro.runner import registry


def _paper_ids():
    """The paper-artifact scenario ids, from the registry."""
    registry.load_builtin()
    return tuple(sc.id for sc in registry.find(tags=("paper",)))


@pytest.fixture
def executed(monkeypatch):
    """Record which scenarios actually execute (not just get selected)."""
    registry.load_builtin()
    calls = []
    for sc in registry.all_scenarios():
        def wrap(orig, sid):
            def wrapper(*args, **kwargs):
                calls.append(sid)
                return orig(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(sc, "func", wrap(sc.func, sc.id))
    return calls


class TestRun:
    def test_fast_run_all_succeeds(self, capsys):
        assert main(["run", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig 10" in out
        assert "Table 2" in out
        assert "all paper-vs-measured checks passed" in out

    def test_subset_selection(self, capsys):
        assert main(["run", "fig12", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Fig 12" in out
        assert "Fig 10" not in out

    def test_subset_executes_only_that_subset(self, executed, capsys):
        assert main(["run", "fig12", "--fast"]) == 0
        assert executed == ["fig12"]

    def test_default_executes_every_paper_scenario_once(
        self, executed, capsys
    ):
        assert main(["run", "--fast"]) == 0
        assert sorted(executed) == sorted(_paper_ids())

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig99", "--fast"])
        assert exc.value.code == 2

    def test_tag_filter_selects_ablations(self, executed, capsys):
        assert main(["run", "--tags", "ablation", "--fast"]) == 0
        # early-ack needs gate-level simulation: skipped under --fast
        assert sorted(executed) == [
            "ablation-buffers", "ablation-serialization",
        ]
        out = capsys.readouterr().out
        assert "Ablation A" in out
        assert "Ablation C" in out
        assert "skipped ablation-early-ack" in out

    def test_all_selected_scenarios_skipped_fails(self, executed, capsys):
        """A run where everything was fast-skipped must not go green."""
        assert main(["run", "ablation-early-ack", "--fast"]) == 1
        assert executed == []
        err = capsys.readouterr().err
        assert "no scenarios executed" in err

    def test_empty_selection_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--tags", "no-such-tag"])
        assert exc.value.code == 2

    def test_out_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["run", "fig12", "--fast", "--out", str(out_dir)]) == 0
        assert (out_dir / "fig12" / "default.rows.csv").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["runs"][0]["scenario"] == "fig12"


class TestList:
    def test_lists_all_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for sid in _paper_ids() + ("mesh-design-space",):
            assert sid in out

    def test_tag_filter(self, capsys):
        assert main(["list", "--tags", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "mesh-design-space" in out
        assert "fig12" not in out


class TestSweep:
    def test_explicit_grid(self, executed, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main([
            "sweep", "mesh-design-space",
            "--param", "mesh_size=2,3",
            "--set", "cycles=150",
            "--out", str(out_dir),
        ]) == 0
        assert executed == ["mesh-design-space"] * 2
        out = capsys.readouterr().out
        assert "2 point(s)" in out
        assert "all sweep points passed" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert summary["runs"][0]["params"]["cycles"] == 150

    def test_unknown_scenario_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig99"])
        assert exc.value.code == 2

    def test_unknown_param_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "mesh-design-space", "--param", "warp=9"])
        assert exc.value.code == 2

    def test_duplicate_param_axis_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "mesh-design-space",
                "--param", "mesh_size=2", "--param", "mesh_size=3",
            ])
        assert exc.value.code == 2

    def test_scenario_without_axes_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lease-ttl", "0"),
        ("--lease-ttl", "-1"),
        ("--fabric-timeout", "0"),
        ("--point-timeout", "0"),
        ("--quarantine-after", "0"),
    ])
    def test_unusable_fabric_option_exits_2_before_spawn(
        self, monkeypatch, flag, value
    ):
        """A worker could not honour these settings: the sweep must stop
        at the command line, not spawn workers that loop or quarantine
        every point unexecuted."""
        import repro.fabric

        def no_spawn(*args, **kwargs):
            raise AssertionError("a fabric executor was built")

        monkeypatch.setattr(repro.fabric, "fabric_executor", no_spawn)
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "mesh-design-space", "--param", "mesh_size=2",
                "--workers", "1", flag, value,
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--lease-ttl", "0"),
        ("--point-timeout", "0"),
        ("--quarantine-after", "0"),
        ("--poll", "0"),
        ("--plan-timeout", "0"),
    ])
    def test_worker_rejects_unusable_option(
        self, monkeypatch, tmp_path, flag, value
    ):
        import repro.fabric

        def no_worker(*args, **kwargs):
            raise AssertionError("the worker loop started")

        monkeypatch.setattr(repro.fabric, "run_worker", no_worker)
        with pytest.raises(SystemExit) as exc:
            main(["worker", str(tmp_path), flag, value])
        assert exc.value.code == 2


class TestSetPins:
    @pytest.mark.parametrize("command", ["inspect", "lint", "sweep"])
    def test_repeated_set_name_exits_2(self, capsys, command):
        """Every --set takes each name once: a repeat is a usage error,
        not a silent last-one-wins."""
        with pytest.raises(SystemExit) as exc:
            main([command, "gals-mesh",
                  "--set", "mesh_size=2", "--set", "mesh_size=3"])
        assert exc.value.code == 2
        assert "--set mesh_size given twice" in capsys.readouterr().err


class TestTopLevel:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig12", "--jobs", "0"])
        assert exc.value.code == 2

    def test_experiment_ids_cover_every_paper_artifact(self):
        assert set(_paper_ids()) == {
            "fig10", "fig11", "fig12", "fig13", "fig14",
            "table1", "table2", "throughput", "wirelength",
        }
