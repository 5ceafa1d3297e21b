"""Scenario registry + sweep engine: the execution layer.

Every workload in the repo — paper figures/tables, ablation studies,
design-space sweeps — is a *scenario*: a function returning an
:class:`~repro.experiments.common.ExperimentResult`, registered under a
stable id with a typed parameter spec and tags.  The pieces:

* :mod:`~repro.runner.registry` — decorator-based registration and
  lookup (`scenario`, `get`, `find`, `load_builtin`);
* :mod:`~repro.runner.engine` — serial and ``multiprocessing``
  execution with per-scenario isolation and deterministic ordering;
* :mod:`~repro.runner.sweep` — cartesian parameter-grid expansion and
  ``run_sweep``, the one sweep pipeline (reuse, execute, persist);
* :mod:`~repro.runner.artifacts` — CSV + JSON artifact output.

The CLI (``python -m repro``) is a thin shell over this package;
nothing enumerates experiments by hand.
"""

from .registry import (
    ParamSpec,
    Scenario,
    ScenarioError,
    all_scenarios,
    find,
    get,
    ids,
    load_builtin,
    scenario,
)
from .engine import RunOutcome, RunRequest, execute
from .sweep import build_requests, default_grid, expand_grid, parse_axis
from .artifacts import write_artifacts

__all__ = [
    "ParamSpec",
    "Scenario",
    "ScenarioError",
    "all_scenarios",
    "find",
    "get",
    "ids",
    "load_builtin",
    "scenario",
    "RunOutcome",
    "RunRequest",
    "execute",
    "build_requests",
    "default_grid",
    "expand_grid",
    "parse_axis",
    "write_artifacts",
]
