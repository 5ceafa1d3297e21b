"""Scenario sweeps: grid expansion and the one sweep pipeline.

A grid maps parameter names to value lists; :func:`expand_grid` walks
the cartesian product in a deterministic order (first axis slowest,
matching nested for-loops over the axes as given),
:func:`build_requests` turns the points into engine requests, and
:func:`run_sweep` runs them end to end.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..obs import progress as obs_progress
from ..obs import telemetry as obs_telemetry
from ..obs.metrics import REGISTRY
from . import artifacts, engine
from .engine import RunOutcome, RunRequest
from .registry import Scenario, ScenarioError


def expand_grid(
    axes: Mapping[str, Sequence[object]],
) -> List[Dict[str, object]]:
    """All combinations of the axis values, in nested-loop order.

    >>> expand_grid({"a": [1, 2], "b": ["x"]})
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    if not axes:
        return [{}]
    names = list(axes)
    for name in names:
        if not axes[name]:
            raise ScenarioError(f"sweep axis {name!r} has no values")
    return [
        dict(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def default_grid(scenario: Scenario) -> Dict[str, Sequence[object]]:
    """The scenario's declared default sweep axes (may be empty)."""
    return {
        spec.name: list(spec.sweep)
        for spec in scenario.params
        if spec.sweep
    }


def parse_axis(scenario: Scenario, name: str, raw: str) -> List[object]:
    """Parse a comma-separated axis value list against the param spec."""
    spec = scenario.param(name)
    values = [spec.coerce(part.strip()) for part in raw.split(",") if part.strip()]
    if not values:
        raise ScenarioError(f"sweep axis {name!r} has no values")
    return values


def build_requests(
    scenario: Scenario,
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    fixed: Optional[Mapping[str, object]] = None,
    fast: bool = False,
) -> List[RunRequest]:
    """Requests for every grid point (scenario defaults fill the rest).

    ``axes`` defaults to the scenario's declared sweep axes; ``fixed``
    pins additional parameters across every point.
    """
    grid = dict(axes) if axes is not None else default_grid(scenario)
    if not grid:
        raise ScenarioError(
            f"scenario {scenario.id!r} declares no default sweep axes; "
            f"pass an explicit grid"
        )
    overlap = set(grid) & set(fixed or {})
    if overlap:
        raise ScenarioError(
            f"parameters {sorted(overlap)} are both swept and fixed"
        )
    return [
        RunRequest.create(
            scenario.id,
            params={**dict(fixed or {}), **point},
            fast=fast,
        )
        for point in expand_grid(grid)
    ]


def count_failures(outcomes: Sequence[RunOutcome]) -> int:
    """Points that raised plus failed checks: what run and sweep exit
    non-zero on."""
    return sum(
        1 if outcome.error else len(outcome.result.failures())
        for outcome in outcomes
    )


def counter_rollup(outcomes: Sequence[RunOutcome]) -> Dict[str, int]:
    """Sum the ``counter:`` metric deltas carried by outcomes.

    With ``--jobs N`` the kernels count in worker processes, so the
    parent registry stays empty — the per-outcome deltas are the one
    place the totals survive, whatever the execution mode."""
    rollup: Dict[str, int] = {}
    for outcome in outcomes:
        for key, value in (outcome.metrics or {}).items():
            if key.startswith("counter:"):
                rollup[key] = rollup.get(key, 0) + value
    return dict(sorted(rollup.items()))


def write_outputs(outcomes: Sequence[RunOutcome], out_dir,
                  doc: Dict[str, object]) -> Path:
    """The finish step of ``run`` and ``sweep``: artifacts, then the
    ``telemetry.json`` snapshot ``doc`` with counters and metrics."""
    summary = artifacts.write_artifacts(outcomes, out_dir)
    doc = dict(doc)
    rollup = counter_rollup(outcomes)
    if rollup:
        doc["counters"] = rollup
    if REGISTRY.enabled:
        snap = REGISTRY.snapshot()
        if snap:
            doc["metrics"] = snap
    obs_telemetry.write_snapshot(out_dir, doc)
    return summary


@dataclass
class SweepRun:
    """What :func:`run_sweep` did."""

    outcomes: List[RunOutcome]  # request order
    executed: int
    journaled: int  # reused from the resumed journal
    store_hits: int  # reused from the run store
    failures: int
    summary_path: Optional[Path] = None  # set when out_dir was given


def _resumable(out_dir, scenario_id: str,
               fingerprint: str) -> Optional[List[RunOutcome]]:
    """The outcomes of ``out_dir``'s journal, or ``None`` when it holds
    nothing this sweep may resume."""
    from ..store import journal as store_journal

    jpath = store_journal.journal_path(out_dir)
    if not jpath.exists():
        return None
    try:
        header, past = store_journal.recover(jpath)
    except store_journal.JournalError:
        # a kill during Journal.start() leaves an empty or headerless
        # file: nothing was completed, so rerun every point
        print(f"journal {jpath} has no usable header; "
              f"rerunning every point", file=sys.stderr)
        return None
    if (header.get("scenario") != scenario_id
            or header.get("fingerprint") != fingerprint):
        print(f"journal {jpath} was written by a different scenario or "
              f"code version; rerunning every point", file=sys.stderr)
        return None
    return past


def run_sweep(
    scenario_id: str,
    requests: Sequence[RunRequest],
    execute: Optional[Callable[..., List[RunOutcome]]] = None,
    out_dir=None,
    store=None,
    resume: bool = False,
    jobs: int = 1,
    progress: bool = False,
) -> SweepRun:
    """Run a sweep's ``requests`` end to end; outcomes in request order.

    Points journaled in ``out_dir`` (with ``resume``) or held by the
    ``store`` are reused; the rest go to ``execute(remaining,
    on_outcome=...)`` (default: serial ``engine.execute``).  Each
    outcome passes one sink chain as it completes — journal, telemetry,
    store, progress — so a killed sweep loses nothing it finished.
    Finally the journal is rewritten in canonical grid order, whatever
    the completion order, and artifacts and telemetry are written.
    ``jobs`` is the width telemetry records (pool jobs or workers).
    """
    from ..store.journal import Journal, journal_path
    from ..store.store import RunStore, code_fingerprint

    requests = list(requests)
    execute = execute or engine.execute
    fingerprint = code_fingerprint()
    past = (_resumable(out_dir, scenario_id, fingerprint)
            if resume and out_dir else None)
    wanted = set(requests)
    completed = {o.request: o for o in past or () if o.request in wanted}
    journaled = frozenset(completed)
    cache = RunStore(store, fingerprint=fingerprint) if store else None
    store_hits = 0
    if cache is not None:
        for request in requests:
            if request not in completed:
                hit = cache.get(request)
                if hit is not None:
                    completed[request] = hit
                    store_hits += 1
    remaining = [r for r in requests if r not in completed]
    if completed:
        print(f"resuming: {len(journaled)} journaled + {store_hits} "
              f"stored point(s) reused, {len(remaining)} to run")

    journal = telemetry = None
    if out_dir:
        journal = Journal(journal_path(out_dir))
        if past is None:
            journal.start(scenario_id, fingerprint)
        telemetry = obs_telemetry.TelemetryWriter(
            obs_telemetry.stream_path(out_dir)
        )
        resumed_stream = False
        if past is not None and telemetry.path.exists():
            try:
                obs_telemetry.recover_stream(telemetry.path)
                resumed_stream = True
            except (obs_telemetry.TelemetryError, OSError):
                pass  # a fresh stream is started below
        if not resumed_stream:
            telemetry.start(scenario_id, fingerprint, jobs=jobs,
                            total_points=len(requests))
        # points reused from the store still belong in this sweep's
        # journal — without them a later resume would re-run them; the
        # telemetry stream mirrors them (a resumed stream already holds
        # the journaled points, so only store hits are new)
        for request, outcome in completed.items():
            from_store = request not in journaled
            if from_store:
                journal.append(outcome)
            if from_store or not resumed_stream:
                telemetry.append_point(outcome, store_hit=from_store)

    meter_ctx = (obs_progress.SweepProgress(len(requests)) if progress
                 else contextlib.nullcontext())
    with meter_ctx as meter:
        if meter is not None:
            for outcome in completed.values():
                meter.point_done(ok=outcome.ok, cached=True)

        def on_outcome(outcome: RunOutcome) -> None:
            if journal is not None:
                journal.append(outcome)
            if telemetry is not None:
                telemetry.append_point(outcome)
            if cache is not None and not outcome.error:
                cache.put(outcome)
            if meter is not None:
                meter.point_done(ok=outcome.ok)

        executed = execute(remaining, on_outcome=on_outcome)

    completed.update((o.request, o) for o in executed)
    outcomes = [completed[request] for request in requests]
    run = SweepRun(outcomes, executed=len(remaining),
                   journaled=len(journaled), store_hits=store_hits,
                   failures=count_failures(outcomes))
    if out_dir:
        journal.rewrite(scenario_id, outcomes, fingerprint)
        record = {
            "points": len(requests),
            "executed": run.executed,
            "reused": len(requests) - run.executed,
            "store_hits": store_hits,
            "failures": run.failures,
        }
        run.summary_path = write_outputs(
            outcomes, out_dir,
            {"command": "sweep", "scenario": scenario_id, **record},
        )
        # the width goes to the stream only, so the snapshot is the same
        # whichever executor ran the points
        record["jobs"] = jobs
        rollup = counter_rollup(outcomes)
        if rollup:
            record["counters"] = rollup
        telemetry.finish(record)
    return run
