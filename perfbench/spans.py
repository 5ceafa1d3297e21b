"""Read the span files of one traced invocation: layer metrics and a
Chrome trace-event export.

``hook/sitecustomize.py`` writes one ``<pid>.jsonl`` per process.  All
stamps come from ``time.monotonic``, one clock for every process, so
they line up with the launch time the benchmark took.  Times of a
layer are summed over processes, so on a parallel run they can exceed
the invocation's wall time.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path
from typing import Dict, List

ROLE_NAMES = {"cli": "CLI", "pool": "pool child", "worker": "fabric worker"}


class Proc:
    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.role = "cli"
        self.t_start = 0.0
        self.spans: List[dict] = []
        self.aggs: Dict[str, dict] = {}


def load(trace_dir: Path) -> Dict[int, Proc]:
    procs: Dict[int, Proc] = {}
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        proc = Proc(int(path.stem))
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["k"] == "proc":
                proc.role, proc.t_start = rec["role"], rec["t_start"]
            elif rec["k"] == "span":
                proc.spans.append(rec)
            else:
                proc.aggs[rec["n"]] = rec  # cumulative: the last one wins
        procs[proc.pid] = proc
    return procs


def _dur(span: dict) -> float:
    return span["t1"] - span["t0"]


def _select(procs, prefix: str, roles=None) -> List[dict]:
    """Outermost spans of the layer named ``prefix`` (or of exactly that
    span name), optionally only in processes of the given roles."""
    return [
        span for proc in procs.values()
        if roles is None or proc.role in roles
        for span in proc.spans
        if span["o"] and (span["n"] == prefix
                          or span["n"].startswith(prefix + "."))
    ]


def _total(spans) -> float:
    return sum(_dur(span) for span in spans)


def _ancestor(by_id: Dict[int, dict], span: dict, name: str):
    parent = by_id.get(span["p"])
    while parent is not None and parent["n"] != name:
        parent = by_id.get(parent["p"])
    return parent


def _enclosed_sim_s(proc: Proc, outer_name: str) -> float:
    """Time of outermost ``sim.run`` spans below an ``outer_name`` span."""
    by_id = {span["id"]: span for span in proc.spans}
    return sum(_dur(span) for span in proc.spans
               if span["n"] == "sim.run" and span["o"]
               and _ancestor(by_id, span, outer_name) is not None)


def _item_counts(procs: Dict[int, Proc]):
    """``(points, executed, counts)``: distinct points executed, all
    point executions, and the simulated counts (cycles, flits, events)
    with every work item counted once, however often it ran."""
    per_item: Dict[str, tuple] = {}
    total: Counter = Counter()
    executed = 0
    for proc in procs.values():
        by_id = {span["id"]: span for span in proc.spans}
        below: Dict[int, Counter] = {}
        for span in proc.spans:
            if span["o"] and span["n"] in ("noc.run", "noc.drain",
                                           "sim.run"):
                item = _ancestor(by_id, span, "runner.execute_item")
                (below.setdefault(item["id"], Counter()) if item
                 else total).update(span["a"])
        for span in proc.spans:
            if span["n"] == "runner.execute_item":
                executed += span["a"]["points"]
                per_item.setdefault(span["a"]["key"], (
                    span["a"]["points"], below.get(span["id"], Counter())))
    for _, counts in per_item.values():
        total.update(counts)
    return sum(n for n, _ in per_item.values()), executed, total


def _self_time(proc: Proc, name: str) -> float:
    child_s: Dict[int, float] = {}
    for span in proc.spans:
        if span["p"] is not None:
            child_s[span["p"]] = child_s.get(span["p"], 0.0) + _dur(span)
    return sum(_dur(span) - child_s.get(span["id"], 0.0)
               for span in proc.spans if span["n"] == name)


def layer_metrics(procs: Dict[int, Proc], t_launch: float, wall_s: float,
                  width: int, point_durations: List[float]) -> dict:
    """Per-layer metrics of one traced invocation.

    ``width`` is the executor's parallelism (pool jobs or fabric
    workers); ``point_durations`` the ``duration_s`` of every point in
    the invocation's telemetry output.
    """
    m: Dict[str, float] = {}
    items = _select(procs, "runner.execute_item")
    points, executed, counts = _item_counts(procs)
    m["runner.points"] = points
    m["runner.executed"] = executed
    m["runner.items"] = sum(s["a"]["items"]
                            for s in _select(procs, "runner.plan_items"))
    m["runner.exec_s"] = _total(items)
    m["runner.item_s"] = sum(_self_time(p, "runner.execute_item")
                             for p in procs.values())
    m["runner.point_p50_ms"] = (
        1e3 * statistics.median(point_durations) if point_durations else 0.0)
    m["runner.point_max_ms"] = 1e3 * max(point_durations, default=0.0)
    executor = (_select(procs, "runner.execute", roles={"cli"})
                + _select(procs, "fabric.sweep", roles={"cli"}))
    exec_wall = _total(executor)
    m["runner.pool_busy_frac"] = (
        sum(point_durations) / (width * exec_wall) if exec_wall else 0.0)
    m["runner.artifacts_s"] = _total(_select(procs, "runner.artifacts"))

    runs = _select(procs, "noc.run")
    drains = _select(procs, "noc.drain")
    m["noc.networks"] = len(_select(procs, "noc.build"))
    m["noc.build_s"] = _total(_select(procs, "noc.build"))
    m["noc.run_s"] = _total(runs)
    m["noc.drain_s"] = _total(drains)
    m["noc.traffic_s"] = sum(p.aggs["noc.traffic"]["s"]
                             for p in procs.values()
                             if "noc.traffic" in p.aggs)
    m["noc.cycles"] = counts["cycles"]
    m["noc.flits_ejected"] = counts["flits"]
    m["noc.us_per_cycle"] = (
        1e6 * (m["noc.run_s"] + m["noc.drain_s"]) / m["noc.cycles"]
        if m["noc.cycles"] else 0.0)
    m["noc.exec_share"] = (m["noc.run_s"] / m["runner.exec_s"]
                           if m["runner.exec_s"] else 0.0)

    sims = _select(procs, "sim.run")
    m["sim.runs"] = len(sims)
    m["sim.run_s"] = _total(sims)
    m["sim.events"] = counts["events"]
    m["sim.ns_per_event"] = (1e9 * m["sim.run_s"] / m["sim.events"]
                             if m["sim.events"] else 0.0)

    m["link.testbench_build_s"] = _total(
        _select(procs, "link.testbench_build"))
    m["link.testbench_run_s"] = _total(
        _select(procs, "link.testbench_run")) - sum(
        _enclosed_sim_s(p, "link.testbench_run") for p in procs.values())
    m["design.mesh_build_s"] = _total(_select(procs, "design.mesh_build"))

    analysis = _select(procs, "analysis")
    m["analysis.calls"] = len(analysis)
    m["analysis.s"] = _total(analysis)

    appends = _select(procs, "store.journal_append")
    puts = _select(procs, "store.put")
    m["store.journal_appends"] = len(appends)
    m["store.journal_append_s"] = _total(appends)
    m["store.journal_rewrite_s"] = _total(
        _select(procs, "store.journal_rewrite"))
    m["store.puts"] = len(puts)
    m["store.put_s"] = _total(puts)
    m["obs.telemetry_s"] = _total(_select(procs, "obs.telemetry"))

    workers = [p for p in procs.values() if p.role == "worker"]
    claims = _select(procs, "fabric.claim")
    won = [s for s in claims if s["a"]["ok"]]
    m["fabric.workers"] = len(workers)
    m["fabric.claims"] = len(won)
    m["fabric.claim_failures"] = len(claims) - len(won)
    m["fabric.publishes"] = sum(
        1 for s in _select(procs, "fabric.publish") if s["a"]["fresh"])
    m["fabric.first_claim_s"] = (
        min(s["t1"] for s in won) - t_launch if won else 0.0)
    sweep_end = max((s["t1"] for s in _select(procs, "fabric.sweep")),
                    default=t_launch + wall_s)
    busy = idle = 0.0
    worker_points = 0
    for proc in workers:
        worker_items = [s for s in proc.spans
                        if s["n"] == "runner.execute_item"]
        worker_points += sum(s["a"]["points"] for s in worker_items)
        worked = sum(s["a"]["dur"] for s in worker_items)
        # a worker still polling when the sweep ends is terminated and
        # never closes its span: its window ends with the sweep
        end = max((s["t1"] for s in proc.spans if s["n"] == "fabric.worker"),
                  default=sweep_end)
        busy += worked
        idle += max(0.0, end - proc.t_start - worked)
    m["fabric.busy_frac"] = (busy / (len(workers) * wall_s)
                             if workers else 0.0)
    m["fabric.idle_s"] = idle
    # useful outcomes per attempt: a point two workers ran counts once
    m["fabric.useful_frac"] = (m["fabric.publishes"] / worker_points
                               if worker_points else 0.0)
    return m


#: the records table: layer -> metrics summed into its time
LAYER_ROWS = {
    "runner": ("runner.item_s", "runner.artifacts_s"),
    "noc": ("noc.build_s", "noc.run_s", "noc.drain_s"),
    "sim": ("sim.run_s",),
    "link": ("link.testbench_build_s", "link.testbench_run_s"),
    "design": ("design.mesh_build_s",),
    "analysis": ("analysis.s",),
    "store": ("store.journal_append_s", "store.journal_rewrite_s",
              "store.put_s"),
    "obs": ("obs.telemetry_s",),
    "fabric": ("fabric.idle_s",),
}


def chrome_trace(procs: Dict[int, Proc], t_launch: float,
                 wall_s: float) -> dict:
    """Chrome trace-event JSON: one track per process, spans as
    complete events, times in microseconds from launch."""
    events: List[dict] = []
    cli_pid = None
    for index, proc in enumerate(sorted(procs.values(),
                                        key=lambda p: p.t_start)):
        if proc.role == "cli":
            cli_pid = proc.pid
        label = f"{ROLE_NAMES.get(proc.role, proc.role)} {proc.pid}"
        events.append({"ph": "M", "name": "process_name", "pid": proc.pid,
                       "tid": 0, "args": {"name": label}})
        events.append({"ph": "M", "name": "process_sort_index",
                       "pid": proc.pid, "tid": 0, "args": {"sort_index": index}})
        for span in proc.spans:
            args = {"id": span["id"], "parent": span["p"]}
            args.update(span.get("a", {}))
            events.append({
                "ph": "X", "name": span["n"], "cat": span["n"].split(".")[0],
                "pid": proc.pid, "tid": 0,
                "ts": (span["t0"] - t_launch) * 1e6, "dur": _dur(span) * 1e6,
                "args": args,
            })
    if cli_pid is not None:
        events.append({"ph": "X", "name": "invocation", "cat": "benchmark",
                       "pid": cli_pid, "tid": 0, "ts": 0.0,
                       "dur": wall_s * 1e6, "args": {}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
