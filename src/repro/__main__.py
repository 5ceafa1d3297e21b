"""Command-line entry point: scenario runner over the registry.

Usage::

    python -m repro list                      # catalogue of scenarios
    python -m repro list --tags paper         # filter by tag
    python -m repro list --verbose            # + full typed parameter specs
    python -m repro inspect gals-mesh --tree  # scenario's instance tree
    python -m repro inspect compiled-fault-campaign --compiled  # levelized stats
    python -m repro lint --all                # static checks, all designs
    python -m repro lint gals-mesh --format sarif --fail-on warning
    python -m repro run                       # every paper table/figure
    python -m repro run fig12 table1          # just these (nothing else runs)
    python -m repro run --tags ablation       # the extension studies
    python -m repro run --fast --jobs 4       # fast mode, 4 worker processes
    python -m repro run fig12 --out out/      # also write CSV+JSON artifacts
    python -m repro sweep mesh-design-space --jobs 4 --out out/
    python -m repro sweep mesh-design-space --param mesh_size=4,8 --set kind=I2
    python -m repro sweep mesh-design-space --resume out/   # finish a killed sweep
    python -m repro sweep traffic-hotspot --store runs/     # skip cached points
    python -m repro sweep traffic-hotspot --progress --out out/  # live status
    python -m repro sweep mesh-design-space --workers 2 --out out/  # fabric
    python -m repro sweep mesh-design-space --fabric shared/ --out out/
    python -m repro worker shared/                 # fabric worker daemon
    python -m repro telemetry out/                          # sweep analytics
    python -m repro telemetry out/ --json - --csv points.csv
    python -m repro diff baseline/ out/                     # regression gate
    python -m repro history runs/                           # store catalogue
    python -m repro bench --json bench.json                 # kernel cycles/sec
    python -m repro bench --fast --check benchmarks/baseline_bench.json
    python -m repro bench --profile                         # cProfile hot spots

``run`` exits non-zero if any paper-vs-measured check fails, so it
doubles as a reproduction smoke test in CI.  ``sweep`` expands a
cartesian parameter grid (the scenario's declared axes, or explicit
``--param name=v1,v2,...``) and executes every point, optionally in
parallel; results are deterministic and independent of ``--jobs``.
Note that *paper* scenarios check against the paper's published
numbers, so sweeping one away from its calibrated defaults reports
failed checks (exit 1) by design.

Durability and comparison live in :mod:`repro.store`: every sweep with
an output directory journals outcomes as they complete, ``--resume``
finishes a killed sweep from that journal (byte-identical artifacts),
``--store`` caches outcomes content-addressed by code fingerprint, and
``diff`` compares two artifact trees, exiting non-zero on regression.

``bench`` times each optimized kernel against its frozen reference and
emits a JSON document; ``--check`` gates the speedup ratios against a
committed baseline and per-workload floors (see :mod:`repro.bench`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, List, Optional

from .analysis.report import format_table
from .obs import metrics as obs_metrics
from .runner import engine, registry, sweep
from . import store as run_store_pkg
from .store import journal as store_journal

# Modules only some subcommands need (the compiled backend, lint,
# telemetry analysis, tree diffing, the bench) are imported inside
# those subcommands, so ``run`` and ``list`` never pay for them.


# ----------------------------------------------------------------------
# input checks: each kind of command-line input has one parser here
# ----------------------------------------------------------------------
def _checked(kind: type, rule: str, ok: Callable[[object], bool]):
    """argparse ``type=``: a ``kind`` value that ``ok`` accepts.

    A value ``kind`` cannot parse reads "invalid int value: 'x'" as
    with a bare ``type=int``; one out of range reads "must be RULE".
    The predicates are written so NaN fails them.
    """
    def parse(raw: str):
        value = kind(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {raw}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _listed(item: Callable[[str], object]):
    """argparse ``type=``: a comma list of ``item`` values, at least one
    (blank entries are skipped)."""
    def parse(raw: str) -> list:
        values = [item(v) for v in raw.split(",") if v.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    parse.__name__ = f"{item.__name__} list"
    return parse


_AT_LEAST_1 = _checked(int, ">= 1", lambda n: n >= 1)
_AT_LEAST_0 = _checked(int, ">= 0", lambda n: n >= 0)
_POSITIVE = _checked(float, "> 0 and finite", lambda x: 0 < x < math.inf)
_NON_NEGATIVE = _checked(float, ">= 0", lambda x: x >= 0.0)
_UNIT_RATE = _checked(float, "in [0, 1]", lambda x: 0.0 <= x <= 1.0)
_BELOW_1 = _checked(float, "in [0, 1)", lambda x: 0.0 <= x < 1.0)


class _Pairs(argparse.Action):
    """A repeatable ``NAME=VALUE`` option, collected as ``{name: raw}``.

    A value without ``=`` or a name given twice exits 2; the handler
    coerces the values for the scenario it selected.
    """

    def __call__(self, parser, namespace, raw, option_string=None):
        pairs = dict(getattr(namespace, self.dest) or {})
        name, eq, value = raw.partition("=")
        name = name.strip()
        if not eq:
            parser.error(f"{option_string} expects "
                         f"{self.metavar.lower()}, got {raw!r}")
        if name in pairs:
            parser.error(f"{option_string} {name} given twice")
        pairs[name] = value
        setattr(namespace, self.dest, pairs)


def _scenarios(
    parser: argparse.ArgumentParser, ids: List[str]
) -> List[registry.Scenario]:
    """The registered scenarios ``ids`` name; exits 2 on an unknown id."""
    registry.load_builtin()
    known = set(registry.ids())
    unknown = [i for i in ids if i not in known]
    if unknown:
        parser.error(
            f"unknown scenario(s) {unknown}; choose from "
            f"{', '.join(sorted(known))}"
        )
    return [registry.get(i) for i in ids]


def _write(target: str, text: str, what: str) -> None:
    """``text`` to stdout for ``-`` (machine output only, so stdout
    stays parseable), else into file ``target`` with a note."""
    if target == "-":
        print(text, end="")
    else:
        Path(target).write_text(text, encoding="utf-8")
        print(f"{what} written to {target}")


def _select(
    parser: argparse.ArgumentParser,
    ids: List[str],
    tags: List[str],
) -> List[registry.Scenario]:
    """Scenarios chosen by explicit ids and/or tag filter."""
    selected = _scenarios(parser, ids)
    if not ids:
        return registry.find(tags=tags or ("paper",))
    wanted = frozenset(tags)
    return [sc for sc in selected if wanted <= sc.tags]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_list(args, parser) -> int:
    registry.load_builtin()
    scenarios = registry.find(tags=args.tags or ())
    if args.verbose:
        return _list_verbose(scenarios)
    rows = []
    for sc in scenarios:
        swept = [p.name for p in sc.params if p.sweep]
        rows.append([
            sc.id,
            ",".join(sorted(sc.tags)),
            ",".join(p.name for p in sc.params) or "-",
            ",".join(swept) or "-",
            sc.description,
        ])
    print(format_table(
        ("id", "tags", "params", "sweep axes", "description"),
        rows,
        title=f"{len(rows)} registered scenario(s)",
    ))
    return 0


def _capabilities(sc) -> List[str]:
    """Backend capabilities of one scenario, probed, not declared.

    ``batchable`` and ``design tree`` read the registration;
    ``compilable`` actually levelizes the fast-mode design, because the
    one authority on whether a tree survives the compiled backend is
    the compiler itself.
    """
    caps: List[str] = []
    if sc.has_batch:
        caps.append(
            f"batchable ({sc.batch_axis}, up to {sc.batch_lanes} per call)"
        )
    if not sc.has_design:
        return caps
    caps.append("design tree")
    from .compiled import CompileError, compile_component

    try:
        circuit = compile_component(sc.design_for(fast=True))
    except (CompileError, ValueError, registry.ScenarioError):
        caps.append("not compilable")
    else:
        stats = circuit.stats()
        caps.append(
            f"compilable (depth {stats.depth}, "
            f"{stats.n_gates} gates)"
        )
    return caps


def _list_verbose(scenarios) -> int:
    """Full typed ParamSpec per scenario, so sweep grids can be
    written without reading the experiment source."""
    for sc in scenarios:
        extras = []
        if sc.has_design:
            extras.append("design tree (see: inspect)")
        if sc.fast_skip:
            extras.append("incompatible with --fast")
        suffix = f"  [{'; '.join(extras)}]" if extras else ""
        print(f"{sc.id} — {sc.description}{suffix}")
        if sc.tags:
            print(f"  tags: {', '.join(sorted(sc.tags))}")
        caps = _capabilities(sc)
        if caps:
            print(f"  capabilities: {', '.join(caps)}")
        if not sc.params:
            print("  (no parameters)\n")
            continue
        rows = []
        for spec in sc.params:
            rows.append([
                spec.name,
                spec.type.__name__,
                spec.default,
                ",".join(str(c) for c in spec.choices or ()) or "-",
                ",".join(str(v) for v in spec.sweep) or "-",
                spec.help or "-",
            ])
        table = format_table(
            ("param", "type", "default", "choices", "sweep axis", "help"),
            rows,
        )
        print("\n".join("  " + line for line in table.splitlines()))
        if sc.fast_params:
            pairs = ", ".join(
                f"{k}={v}" for k, v in sc.fast_params.items()
            )
            print(f"  fast-mode overrides: {pairs}")
        print()
    print(f"{len(scenarios)} registered scenario(s)")
    return 0


def _cmd_inspect(args, parser) -> int:
    (sc,) = _scenarios(parser, [args.scenario])
    if not sc.has_design:
        with_design = [s.id for s in registry.all_scenarios()
                       if s.has_design]
        parser.error(
            f"scenario {sc.id!r} exposes no design tree; scenarios "
            f"that do: {', '.join(with_design) or 'none'}"
        )
    try:
        overrides = {name: sc.param(name).coerce(value)
                     for name, value in (args.set or {}).items()}
        design = sc.design_for(overrides=overrides, fast=args.fast)
    except (registry.ScenarioError, ValueError) as exc:
        # covers DesignError (bad fault_paths) and config validation
        # (e.g. n_buffers=0) from the scenario's design hook
        parser.error(str(exc))
    from .analysis.report import render_design_summary

    n_instances = len(design.instances())
    if args.tree:
        print(design.tree(ports=not args.no_ports))
    else:
        print(render_design_summary(
            design,
            title=f"{sc.id}: {n_instances} instance(s)",
        ))
    if design.is_elaborated:
        print(f"{n_instances} instance(s), "
              f"{len(design.sim.created_signals)} net(s)")
    else:
        print(f"{n_instances} instance(s) (structural view, "
              f"not elaborated onto a simulator)")
    from . import lint as lint_pkg

    findings = lint_pkg.lint_design(
        design, scenario=sc.id,
        waivers=_load_default_waivers(parser, None),
    )
    if findings:
        counts: dict = {}
        for f in findings:
            key = "waived" if f.waived else f.severity
            counts[key] = counts.get(key, 0) + 1
        print("lint: " + ", ".join(
            f"{n} {key}" for key, n in sorted(counts.items())
        ))
        for f in findings:
            print(f"  {f.render()}")
    else:
        print("lint: clean")
    if args.compiled:
        from .compiled import CompileError, compile_component

        print()
        try:
            circuit = compile_component(design)
        except (CompileError, ValueError) as exc:
            # a design full of coroutine processes or behavioral models
            # is a fine design — it just has no compiled form
            print(f"not compilable: {exc}")
            return 0
        print(circuit.stats().render())
        if sc.has_batch:
            print(
                f"batch packing: up to {sc.batch_lanes} "
                f"{sc.batch_axis!r}-sweep request(s) per 64-bit word"
            )
    return 0


def _load_default_waivers(parser, explicit: Optional[str]):
    """Waivers from ``--waivers FILE`` or ``./lint-waivers.toml``.

    An explicitly named file must exist and parse; the conventional
    default is optional (no file → no waivers).
    """
    from . import lint as lint_pkg

    path = explicit
    if path is None:
        default = Path("lint-waivers.toml")
        if not default.exists():
            return []
        path = str(default)
    try:
        return lint_pkg.load_waivers(path)
    except lint_pkg.WaiverError as exc:
        parser.error(str(exc))


def _cmd_lint(args, parser) -> int:
    from . import lint as lint_pkg

    registry.load_builtin()
    if not args.scenarios and not args.all:
        parser.error(
            "name at least one scenario or pass --all; scenarios with "
            "design trees: "
            + ", ".join(
                s.id for s in registry.all_scenarios() if s.has_design
            )
        )
    named = _scenarios(parser, args.scenarios)
    selected = registry.all_scenarios() if args.all else named
    overrides = args.set or {}
    declared = {spec.name for sc in selected for spec in sc.params}
    bogus = sorted(set(overrides) - declared)
    if bogus:
        parser.error(
            f"--set {', '.join(bogus)}: no selected scenario "
            f"declares such a parameter"
        )
    waivers = _load_default_waivers(parser, args.waivers)
    try:
        reports = lint_pkg.lint_registry(
            ids=None if args.all else [sc.id for sc in selected],
            overrides=overrides or None,
            fast=not args.full, waivers=waivers,
        )
    except (registry.ScenarioError, ValueError) as exc:
        parser.error(str(exc))
    formatter = {
        "text": lint_pkg.format_text,
        "json": lint_pkg.format_json,
        "sarif": lint_pkg.format_sarif,
    }[args.format]
    print(formatter(reports))
    if lint_pkg.gate(reports, fail_on=args.fail_on):
        print(
            f"lint gate: unwaived finding(s) at or above "
            f"{args.fail_on!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _lint_preflight(args, parser, sc, fixed) -> int:
    """The ``sweep --lint`` gate: refuse grids with error findings."""
    from . import lint as lint_pkg

    if not sc.has_design:
        print(f"lint pre-flight: {sc.id} exposes no design tree; "
              f"nothing to check")
        return 0
    waivers = _load_default_waivers(parser, None)
    try:
        report = lint_pkg.lint_scenario(
            sc, overrides=fixed or None, fast=args.fast,
            waivers=waivers,
        )
    except (registry.ScenarioError, ValueError) as exc:
        parser.error(str(exc))
    errors = [
        f for f in report.findings
        if not f.waived and f.severity == "error"
    ]
    if errors:
        print(
            f"lint pre-flight: {len(errors)} error-level finding(s) "
            f"in {sc.id}; refusing to dispatch the sweep",
            file=sys.stderr,
        )
        for finding in errors:
            print(f"  {finding.render()}", file=sys.stderr)
        return 1
    print(f"lint pre-flight: {sc.id} clean at error level")
    return 0


def _cmd_run(args, parser) -> int:
    scenarios = _select(parser, args.scenarios, args.tags or [])
    if not scenarios:
        parser.error("selection matches no scenarios")
    skipped = [sc.id for sc in scenarios if args.fast and sc.fast_skip]
    requests = [
        engine.RunRequest.create(sc.id, fast=args.fast)
        for sc in scenarios
        if not (args.fast and sc.fast_skip)
    ]
    if not requests:
        # everything the user asked for was fast-skipped: exiting 0
        # here would let a CI job go green having executed no checks
        print(
            f"no scenarios executed: {', '.join(skipped)} need(s) "
            f"gate-level simulation, incompatible with --fast",
            file=sys.stderr,
        )
        return 1
    outcomes = engine.execute(requests, jobs=args.jobs)
    for outcome in outcomes:
        if outcome.error:
            print(
                f"scenario {outcome.request.scenario_id} raised:\n"
                f"{outcome.error}",
                file=sys.stderr,
            )
        else:
            print(outcome.result.render())
            print()
    failures = sweep.count_failures(outcomes)
    if args.out:
        summary = sweep.write_outputs(outcomes, args.out, {
            "command": "run", "jobs": args.jobs, "failures": failures,
        })
        print(f"artifacts written to {summary.parent}")
    for sid in skipped:
        print(f"(skipped {sid}: needs gate-level simulation, "
              f"incompatible with --fast)")
    if failures:
        print(f"{failures} paper-vs-measured check(s) FAILED",
              file=sys.stderr)
        return 1
    print("all paper-vs-measured checks passed")
    return 0


def _sweep_grid(args, parser):
    """The swept scenario, its grid requests and its ``--set`` pins."""
    (sc,) = _scenarios(parser, [args.scenario])
    try:
        axes = {name: sweep.parse_axis(sc, name, values)
                for name, values in (args.param or {}).items()}
        fixed = {name: sc.param(name).coerce(value)
                 for name, value in (args.set or {}).items()}
        requests = sweep.build_requests(
            sc, axes=axes or None, fixed=fixed or None, fast=args.fast
        )
    except registry.ScenarioError as exc:
        parser.error(str(exc))
    return sc, requests, fixed


def _cmd_sweep(args, parser) -> int:
    if args.progress:
        # --progress implies telemetry: the display and the journal's
        # counter deltas feed from the same counters, and enable()
        # exports REPRO_TELEMETRY so spawned worker processes collect too
        obs_metrics.enable()
    sc, requests, fixed = _sweep_grid(args, parser)
    if args.lint:
        code = _lint_preflight(args, parser, sc, fixed)
        if code:
            return code

    fabric_mode = bool(args.fabric) or args.workers > 0
    if fabric_mode and args.jobs != 1:
        parser.error(
            "--jobs does not apply to fabric mode; use --workers N"
        )
    out_dir = args.out
    if args.resume:
        if out_dir and Path(out_dir) != Path(args.resume):
            parser.error(
                "--resume DIR already names the output directory; "
                "drop --out or make them match"
            )
        out_dir = args.resume

    execute, fatal = functools.partial(engine.execute, jobs=args.jobs), ()
    if fabric_mode:
        from .fabric import FabricError, fabric_executor

        execute, fatal = fabric_executor(
            args.fabric, sc.id, workers=args.workers,
            lease_ttl=args.lease_ttl, timeout=args.fabric_timeout,
            point_timeout=args.point_timeout,
            quarantine_after=args.quarantine_after,
        ), FabricError
    width = (f"fabric workers={args.workers}" if fabric_mode
             else f"jobs={args.jobs}")
    print(f"sweeping {sc.id}: {len(requests)} point(s), {width}")
    try:
        run = sweep.run_sweep(
            sc.id, requests, execute, out_dir=out_dir, store=args.store,
            resume=bool(args.resume), jobs=args.workers or args.jobs,
            progress=args.progress,
        )
    except fatal as exc:
        parser.error(str(exc))

    rows = []
    for outcome in run.outcomes:
        params = ", ".join(
            f"{k}={v}" for k, v in outcome.request.params
        ) or "-"
        if outcome.error:
            rows.append([outcome.request.scenario_id, params, "ERROR"])
            print(
                f"scenario point ({params}) raised:\n{outcome.error}",
                file=sys.stderr,
            )
            continue
        bad = len(outcome.result.failures())
        rows.append([
            outcome.request.scenario_id,
            params,
            "ok" if bad == 0 else f"{bad} FAILED",
        ])
    print(format_table(
        ("scenario", "point", "checks"),
        rows,
        title=f"sweep of {sc.id}",
    ))
    if run.summary_path is not None:
        print(f"artifacts written to {run.summary_path.parent}")
    if run.failures:
        print(f"{run.failures} check(s)/point(s) FAILED", file=sys.stderr)
        return 1
    print("all sweep points passed their checks")
    return 0


def _cmd_worker(args, parser) -> int:
    from .chaos import ChaosSpecError, parse_spec
    from .fabric import FabricError, run_worker

    chaos = None
    if args.chaos:
        try:
            chaos = parse_spec(args.chaos)
        except ChaosSpecError as exc:
            parser.error(f"--chaos: {exc}")
    try:
        stats = run_worker(
            args.fabric,
            worker_id=args.id,
            lease_ttl=args.lease_ttl,
            poll_s=args.poll,
            plan_timeout=args.plan_timeout,
            once=args.once,
            max_items=args.max_items,
            point_timeout=args.point_timeout,
            quarantine_after=args.quarantine_after,
            chaos=chaos,
        )
    except FabricError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 1
    print(stats.summary())
    return 0


def _cmd_fsck(args, parser) -> int:
    from .store.fsck import fsck_tree

    try:
        report = fsck_tree(
            args.dir,
            repair=not args.dry_run,
            quarantine_dir=args.quarantine,
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    if args.json is not None:
        _write(args.json, json.dumps(report.to_json(), indent=2,
                                     sort_keys=True) + "\n", "fsck JSON")
    if args.json != "-":
        print(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args, parser) -> int:
    from . import bench as bench_mod

    if args.suite == "noc" and args.scale != 1.0:
        parser.error("--scale does not apply to the noc suite "
                     "(use --cycles)")
    if args.suite not in ("noc", "all") and (args.mesh or args.rates):
        parser.error("--mesh/--rates only apply to the noc suite")
    baseline = None
    if args.check:
        try:
            baseline = bench_mod.load_baseline(args.check)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.check}: {exc}")

    # --fast shortens sizes only: best-of-N repeats absorb the
    # scheduler noise that dominates sub-second timings
    points = [
        p for p in bench_mod.default_points(
            fast=args.fast, scale=args.scale, cycles=args.cycles,
            meshes=args.mesh or (), rates=args.rates or (),
            pattern=args.pattern, kind=args.kind,
            routing=args.routing,
        )
        if args.suite in (p.suite, "all")
    ]

    def progress(record):
        speed = (
            f"{record['speedup']:.3g}x vs reference"
            if record["speedup"] is not None else "reference skipped"
        )
        match = {True: ", stats identical",
                 False: ", STATS DIVERGED"}.get(record["stats_match"], "")
        print(f"{record['key']}: {record['rate']:,.0f} {record['unit']} "
              f"({speed}{match})")

    document = bench_mod.run_bench(
        points, reference=not args.no_reference, repeats=args.repeats,
        progress=progress,
    )
    if args.profile:
        for suite in document["suites"]:
            # the most loaded point: highest injection rate, then
            # largest mesh (the first point of the other suites)
            target = max(
                (p for p in points if p.suite == suite),
                key=lambda p: (p.injection_rate, p.mesh_size),
            )
            print(f"\ncProfile of the optimized kernel ({target.key}):")
            print(bench_mod.profile(target))
    if args.json:
        bench_mod.write_json(document, args.json)
        print(f"bench JSON written to {args.json}")
    if baseline is not None:
        problems = bench_mod.gate(document, baseline, args.tolerance)
    else:
        problems = [
            f"{p['key']}: optimized kernel diverged from reference stats"
            for p in document["points"] if p["stats_match"] is False
        ]
    for problem in problems:
        print(f"bench regression: {problem}", file=sys.stderr)
    if problems:
        return 1
    if baseline is not None:
        print(f"bench speedups within {args.tolerance:.0%} of "
              f"{args.check} and above every floor")
    return 0


def _cmd_telemetry(args, parser) -> int:
    from .obs import analyze as obs_analyze

    try:
        report = obs_analyze.summarize(args.target)
    except FileNotFoundError as exc:
        parser.error(str(exc))
    except (obs_analyze.TelemetryError,
            store_journal.JournalError, ValueError) as exc:
        parser.error(f"cannot read telemetry from {args.target}: {exc}")
    if args.json:
        _write(args.json, json.dumps(report.to_json(), indent=2,
                                     sort_keys=True) + "\n",
               "telemetry JSON")
    if args.csv:
        _write(args.csv, report.to_csv(), "telemetry CSV")
    if not args.json and not args.csv:
        print(report.render())
    return 0


def _cmd_diff(args, parser) -> int:
    from .store import diff as store_diff

    try:
        report = store_diff.diff_trees(
            args.old, args.new, drift_tolerance=args.drift_tolerance
        )
    except FileNotFoundError as exc:
        parser.error(str(exc))
    print(report.render())
    return 1 if report.regressed else 0


def _cmd_history(args, parser) -> int:
    root = Path(args.store)
    if not root.is_dir():
        parser.error(f"no such store directory: {args.store}")
    cache = run_store_pkg.RunStore(root)
    rows = []
    for record in cache.records():
        if args.scenario and record.get("scenario") != args.scenario:
            continue
        outcome = run_store_pkg.outcome_from_record(record)
        bad = len(outcome.result.failures()) if outcome.result else 0
        rows.append([
            record.get("scenario", "?"),
            record.get("point", "?"),
            "yes" if record.get("fast") else "no",
            "ok" if bad == 0 else f"{bad} FAILED",
            record.get("fingerprint", ""),
            record.get("key", "")[:12],
        ])
    rows.sort(key=lambda row: (row[0], row[1]))
    print(format_table(
        ("scenario", "point", "fast", "checks", "fingerprint", "key"),
        rows,
        title=f"{len(rows)} stored run(s) in {root}",
    ))
    return 0


#: subcommand name -> handler, called as ``handler(args, parser)``
_COMMANDS = {
    "list": _cmd_list, "inspect": _cmd_inspect, "lint": _cmd_lint,
    "run": _cmd_run, "sweep": _cmd_sweep, "worker": _cmd_worker,
    "fsck": _cmd_fsck, "telemetry": _cmd_telemetry, "diff": _cmd_diff,
    "history": _cmd_history, "bench": _cmd_bench,
}


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce and extend the evaluation of 'Serialized "
            "Asynchronous Links for NoC' (Ogg et al., DATE 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="show registered scenarios")
    p_list.add_argument("--tags", type=_listed(str.strip),
                        help="comma-separated tag filter")
    p_list.add_argument(
        "--verbose", action="store_true",
        help="print each scenario's full typed parameter spec "
             "(name, type, default, choices, sweep axis)",
    )

    p_inspect = sub.add_parser(
        "inspect",
        help="print a scenario's hierarchical design tree",
    )
    p_inspect.add_argument("scenario", metavar="SCENARIO")
    p_inspect.add_argument(
        "--tree", action="store_true",
        help="ASCII instance tree instead of the summary table",
    )
    p_inspect.add_argument(
        "--no-ports", action="store_true",
        help="omit port declarations from the tree",
    )
    p_inspect.add_argument(
        "--set", action=_Pairs, metavar="NAME=VALUE",
        help="pin a scenario parameter (repeatable)",
    )
    p_inspect.add_argument(
        "--fast", action="store_true",
        help="apply fast-mode parameter overrides",
    )
    p_inspect.add_argument(
        "--compiled", action="store_true",
        help="also levelize the design for the bit-parallel compiled "
             "backend and print its stats (depth, gates per level, "
             "lanes), or why it cannot be compiled",
    )

    p_lint = sub.add_parser(
        "lint",
        help="static design checks over scenario design trees",
    )
    p_lint.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenario ids to lint (or pass --all)",
    )
    p_lint.add_argument(
        "--all", action="store_true",
        help="lint every registered scenario (those without a design "
             "tree are listed as skipped)",
    )
    p_lint.add_argument(
        "--set", action=_Pairs, metavar="NAME=VALUE",
        help="pin a scenario parameter (repeatable; applied to every "
             "selected scenario that declares it)",
    )
    p_lint.add_argument(
        "--full", action="store_true",
        help="build designs at their full default parameters instead "
             "of the fast-mode overrides",
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default text; sarif is SARIF 2.1.0 with "
             "logical design-path locations)",
    )
    p_lint.add_argument(
        "--fail-on", dest="fail_on",
        choices=("info", "warning", "error"), default="error",
        help="exit 1 when an unwaived finding at or above this "
             "severity exists (default error)",
    )
    p_lint.add_argument(
        "--waivers", metavar="FILE",
        help="waiver file (default: ./lint-waivers.toml when present)",
    )

    p_run = sub.add_parser("run", help="execute scenarios")
    p_run.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenario ids (default: every paper-tagged scenario)",
    )
    p_run.add_argument("--tags", type=_listed(str.strip),
                       help="comma-separated tag filter")
    p_run.add_argument(
        "--fast", action="store_true",
        help="skip gate-level simulations (analytical results only)",
    )
    p_run.add_argument("--jobs", type=_AT_LEAST_1, default=1, metavar="N",
                       help="worker processes (default 1)")
    p_run.add_argument("--out", metavar="DIR",
                       help="write CSV+JSON artifacts into DIR")

    p_sweep = sub.add_parser(
        "sweep", help="expand a parameter grid and run every point"
    )
    p_sweep.add_argument("scenario", metavar="SCENARIO")
    p_sweep.add_argument(
        "--param", action=_Pairs, metavar="NAME=V1,V2,...",
        help="sweep axis (repeatable; default: the scenario's declared axes)",
    )
    p_sweep.add_argument(
        "--set", action=_Pairs, metavar="NAME=VALUE",
        help="pin a parameter across every point (repeatable)",
    )
    p_sweep.add_argument("--fast", action="store_true",
                         help="apply fast-mode parameter overrides")
    p_sweep.add_argument("--jobs", type=_AT_LEAST_1, default=1, metavar="N",
                         help="worker processes (default 1)")
    p_sweep.add_argument("--out", metavar="DIR",
                         help="write CSV+JSON artifacts into DIR")
    p_sweep.add_argument(
        "--resume", metavar="DIR",
        help="output directory of a killed sweep: skip the points its "
             "journal already records, then write artifacts as usual",
    )
    p_sweep.add_argument(
        "--store", metavar="DIR",
        help="content-addressed run store: reuse identical points "
             "computed by earlier sweeps on this code, record new ones",
    )
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="live one-line status on stderr (done/total, rate, eta, "
             "failures; periodic log lines when piped) and kernel "
             "telemetry collection, as if REPRO_TELEMETRY=1; artifacts "
             "are byte-identical either way",
    )
    p_sweep.add_argument(
        "--fabric", metavar="DIR",
        help="distributed mode: coordinate the sweep through a shared "
             "fabric directory that 'repro worker DIR' daemons (local "
             "or on other hosts via a shared mount) attach to; "
             "artifacts stay byte-identical to --jobs 1",
    )
    p_sweep.add_argument(
        "--workers", type=_AT_LEAST_0, default=0, metavar="N",
        help="spawn N local fabric worker processes (uses a private "
             "temporary fabric directory unless --fabric names one)",
    )
    p_sweep.add_argument(
        "--lease-ttl", type=_POSITIVE, default=20.0, metavar="SEC",
        help="fabric lease heartbeat deadline; a worker silent this "
             "long forfeits its lease and the point is re-leased "
             "(default 20)",
    )
    p_sweep.add_argument(
        "--fabric-timeout", type=_POSITIVE, default=None, metavar="SEC",
        help="give up if the fabric sweep has not completed after SEC "
             "seconds (default: wait forever)",
    )
    p_sweep.add_argument(
        "--point-timeout", type=_POSITIVE, default=None, metavar="SEC",
        help="fabric mode: wall-clock budget per work item; a point "
             "that blows it journals as a structured 'point timeout' "
             "failure instead of wedging its worker (default: none)",
    )
    p_sweep.add_argument(
        "--lint", action="store_true",
        help="static pre-flight: lint the scenario's design at the "
             "sweep's pinned parameters and refuse to dispatch the "
             "grid if any unwaived error-level finding exists",
    )
    p_sweep.add_argument(
        "--quarantine-after", type=_AT_LEAST_1, default=None, metavar="N",
        help="fabric mode: a work item whose executor died N times is "
             "quarantined — recorded as a structured failure without "
             "another execution attempt (default 2)",
    )

    p_worker = sub.add_parser(
        "worker",
        help="attach to a fabric directory and execute leased points",
        description=(
            "Fabric worker daemon: waits for the coordinator's plan in "
            "DIR, then claims work-item leases, executes them through "
            "the ordinary engine (batch packing included), journals "
            "them to a per-worker segment, publishes results and exits "
            "0 once every planned point is published."
        ),
    )
    p_worker.add_argument("fabric", metavar="DIR")
    p_worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity (default: generated host-pid-random id); "
             "reusing an id resumes that worker's journal segment",
    )
    p_worker.add_argument(
        "--lease-ttl", type=_POSITIVE, default=20.0, metavar="SEC",
        help="lease deadline to claim and heartbeat with (default 20)",
    )
    p_worker.add_argument(
        "--poll", type=_POSITIVE, default=0.5, metavar="SEC",
        help="idle poll interval while other workers hold all "
             "remaining leases (default 0.5)",
    )
    p_worker.add_argument(
        "--plan-timeout", type=_POSITIVE, default=60.0, metavar="SEC",
        help="give up if no plan appears in DIR (default 60)",
    )
    p_worker.add_argument(
        "--once", action="store_true",
        help="make a single claim pass and exit instead of waiting "
             "for the plan to complete",
    )
    p_worker.add_argument(
        "--max-items", type=_AT_LEAST_1, default=None, metavar="N",
        help="exit after executing N leased work items",
    )
    p_worker.add_argument(
        "--point-timeout", type=_POSITIVE, default=None, metavar="SEC",
        help="wall-clock budget per work item; exceeded points journal "
             "as structured 'point timeout' failures (default: none)",
    )
    p_worker.add_argument(
        "--quarantine-after", type=_AT_LEAST_1, default=2, metavar="N",
        help="quarantine a work item after its lease record shows N "
             "dead executors (default 2)",
    )
    p_worker.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. "
             "'7:worker.item=die#3,transport.claim=race@0.2' "
             "(overrides the REPRO_CHAOS environment variable; "
             "see repro.chaos for the grammar)",
    )

    p_fsck = sub.add_parser(
        "fsck",
        help="verify and repair sweep artifacts, stores, fabric state",
        description=(
            "Walk DIR checking every durable record it holds — sweep "
            "journals, run-store objects, fabric "
            "plan/lease/result files — against structure and sha256 "
            "integrity checksums.  Torn tails are truncated, corrupt "
            "lines/objects quarantined into fsck-quarantine/ (nothing "
            "valid is deleted, every removed byte is preserved), stale "
            "lease debris removed.  Exits 0 when the tree is clean or "
            "fully repaired."
        ),
    )
    p_fsck.add_argument("dir", metavar="DIR")
    p_fsck.add_argument(
        "--dry-run", action="store_true",
        help="report problems without touching anything (exits 1 if "
             "any are found)",
    )
    p_fsck.add_argument(
        "--quarantine", default=None, metavar="DIR",
        help="where to put quarantined bytes "
             "(default: DIR/fsck-quarantine/)",
    )
    p_fsck.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="FILE",
        help="also emit the report as JSON to FILE (or stdout with no "
             "argument)",
    )

    p_tele = sub.add_parser(
        "telemetry",
        help="analyze a run's or sweep's per-point telemetry",
        description=(
            "Summarize the telemetry.json snapshot a finished run or "
            "sweep wrote: slowest points, failure clusters, store-hit "
            "ratio, per-job utilization and kernel counter rollups.  "
            "A fabric directory is read from its workers' journal "
            "segments; a killed or still-running sweep, which has no "
            "snapshot yet, from journal.jsonl (wall-clock durations, "
            "no store info, no recorded width)."
        ),
    )
    p_tele.add_argument(
        "target", metavar="DIR_OR_FILE",
        help="run or sweep output directory, telemetry.json, or "
             "journal.jsonl",
    )
    p_tele.add_argument(
        "--json", metavar="PATH",
        help="write the full report as JSON to PATH ('-' for stdout)",
    )
    p_tele.add_argument(
        "--csv", metavar="PATH",
        help="write per-point rows as CSV to PATH ('-' for stdout)",
    )

    p_diff = sub.add_parser(
        "diff",
        help="compare two artifact trees; exit 1 on regression",
    )
    p_diff.add_argument("old", metavar="BASELINE",
                        help="artifact directory or summary.json")
    p_diff.add_argument("new", metavar="CURRENT",
                        help="artifact directory or summary.json")
    p_diff.add_argument(
        "--drift-tolerance", type=_NON_NEGATIVE, default=None, metavar="REL",
        help="relative measured-value drift to tolerate per check "
             "(default: each check's own recorded tolerance)",
    )

    p_hist = sub.add_parser(
        "history", help="list the runs recorded in a result store"
    )
    p_hist.add_argument("store", metavar="DIR")
    p_hist.add_argument("--scenario", help="filter by scenario id")

    p_bench = sub.add_parser(
        "bench",
        help="measure kernel throughput vs the frozen seed kernels",
    )
    p_bench.add_argument(
        "--suite", default="noc",
        choices=("noc", "gate", "compiled", "sweep", "all"),
        help="noc = cycle-kernel cycles/sec, gate = event-kernel "
             "events/sec on serializer/four-phase/ring-oscillator "
             "testbenches, compiled = bit-parallel backend aggregate "
             "lanes/sec vs one event-kernel lane, sweep = fabric "
             "scheduling overhead (no-op points/sec, coordinator vs "
             "bare engine) (default noc)",
    )
    p_bench.add_argument(
        "--scale", type=_POSITIVE, default=1.0, metavar="FRAC",
        help="scale factor for the gate, compiled and sweep workload "
             "sizes (default 1.0; --fast caps it at 0.5)",
    )
    p_bench.add_argument(
        "--mesh", type=_listed(_AT_LEAST_1), metavar="N1,N2,...",
        help="mesh sizes to bench (default: the standard 4/8 points)",
    )
    p_bench.add_argument(
        "--rates", type=_listed(_UNIT_RATE), metavar="R1,R2,...",
        help="injection rates, flits/node/cycle (with --mesh; default 0.1)",
    )
    p_bench.add_argument(
        "--pattern", default="uniform",
        choices=("uniform", "transpose", "bit_complement", "hotspot",
                 "neighbor"),
        help="traffic pattern (default uniform)",
    )
    p_bench.add_argument(
        "--routing", choices=("xy", "west_first"),
        help="routing for every noc point (default: each point's own; "
             "with --mesh, xy)",
    )
    p_bench.add_argument("--kind", default="I3", choices=("I1", "I2", "I3"),
                         help="link implementation (default I3)")
    p_bench.add_argument("--cycles", type=_AT_LEAST_1, default=1500,
                         metavar="N",
                         help="timed cycles per point (default 1500)")
    p_bench.add_argument("--repeats", type=_AT_LEAST_1, default=3, metavar="N",
                         help="best-of-N timing repeats (default 3)")
    p_bench.add_argument(
        "--fast", action="store_true",
        help="short run: noc points at most 300 cycles of an 8x8 "
             "mesh in node-cycles (1200 on 4x4) and --scale 0.5; "
             "repeats stay (CI smoke)",
    )
    p_bench.add_argument(
        "--no-reference", action="store_true",
        help="skip the seed-kernel comparison run (no speedup reported)",
    )
    p_bench.add_argument(
        "--profile", action="store_true",
        help="cProfile the optimized run of each suite's busiest point",
    )
    p_bench.add_argument("--json", metavar="PATH",
                         help="write the bench document to PATH")
    p_bench.add_argument(
        "--check", metavar="BASELINE",
        help="compare speedups against a committed bench JSON and hold "
             "each workload to its floor (4x on the compiled fault "
             "batch, 1x on the compiled ring oscillator, 0.002 on the "
             "sweep grid); exit 1 on any regression",
    )
    p_bench.add_argument(
        "--tolerance", type=_BELOW_1, default=0.30, metavar="REL",
        help="relative speedup regression tolerated by --check, in "
             "[0, 1) (default 0.30)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return _COMMANDS[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
