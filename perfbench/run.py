"""Benchmark of the ``python -m repro`` workflows, end to end and per layer.

    python3 perfbench/run.py --workload mesh-sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload is one CLI command, launched as a cold process again and
again (one at a time) for ``--seconds`` seconds.  Every invocation gets
an empty output directory and store under ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics with tracing off.  The
host's speed drifts by up to a third within minutes on a shared machine,
so ``calibrate.py`` times a fixed pure-Python loop, at once on each
CPU the workloads use, after every invocation, once per second it
took, and the run's times are scaled by the reference time over the
mean of these calibrations (each the harmonic mean over the CPUs, as
a pool balancing its load sees them): the reported times are seconds
on the reference host, the run's mean for ``wall_s`` and ``cpu_s`` and
its median for ``setup_s``.  The raw times are kept in the record.
``--trace 1`` alternates untraced invocations with traced ones, whose
processes load ``hook/sitecustomize.py`` to record spans around calls
into each layer; it reports the per-layer metrics, a records table of
layer times and a Chrome trace-event file.  Timings are medians over
the invocations of one run unless said otherwise.

Every run checks the program's outputs: exit code 0 and no failed
check in ``summary.json``; identical artifacts from every invocation,
traced or not, and from ``mesh-sweep``'s fabric companion at the same
seed; and in traced runs, exact simulator and scheduler counts that
repeat across invocations.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (grid points plus checks, summed over invocations) and the
metrics.  A full record with provenance is written beside the run's
files under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"
OUT = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 2008  # the committed baselines' seed
MIN_SAMPLES = 3
SETUP_SAMPLES = 9
INVOCATION_TIMEOUT_S = 60.0
#: calibrate.py's time on the reference host (2 x AMD EPYC, Python
#: 3.11.7), the unit the end-to-end times are scaled to
REFERENCE_WORK_S = 0.120
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
#: no workload keeps more than two CPUs busy
CALIBRATION_CPUS = sorted(os.sched_getaffinity(0))[:2]

# placeholders expanded per invocation
OUT_DIR, STORE_DIR, SEED = "{out}", "{store}", "{seed}"

MESH_GRID = ["--param", "mesh_size=2,3,4,5,6,7,8",
             "--param", "injection_rate=0.05,0.15,0.25",
             "--param", "kind=I1,I2,I3"]


@dataclass(frozen=True)
class Workload:
    argv: Sequence[str]
    width: int  # pool jobs or fabric workers
    why: str
    #: an untimed workload run beside this one: its artifacts must match,
    #: and in traced runs it supplies the fabric layer's metrics
    companion: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    "paper": Workload(
        ["run", "--out", OUT_DIR], 1,
        "all 9 paper scenarios (46 checks); gate-level sim and setup "
        "dominate, noc and fabric idle; takes no seed"),
    "mesh-sweep": Workload(
        ["sweep", "mesh-design-space", *MESH_GRID, "--jobs", "2",
         "--out", OUT_DIR, "--store", STORE_DIR, SEED], 2,
        "63-point XY design-space sweep on a 2-job pool; noc dominates, "
        "sim idle", companion="mesh-fabric"),
    "noc-adaptive": Workload(
        ["sweep", "fault-injection", "--param", "mesh_size=4,6,8",
         "--param", "injection_rate=0.05,0.10,0.15",
         "--param", "n_faults=0,1,3,6", "--jobs", "2", "--out", OUT_DIR,
         SEED], 2,
        "36-point west_first fault-injection sweep: the same noc layer "
        "under adaptive routing and per-link parameters"),
    # one invocation's wall time swings between about 2.8 and 4.6 s, so
    # a median of the few that fit in a run is no steady bounded metric:
    # BENCHMARK.json leaves this workload out and mesh-sweep runs it as
    # its companion, which checks its artifacts and measures the fabric
    "mesh-fabric": Workload(
        ["sweep", "mesh-design-space", *MESH_GRID, "--workers", "2",
         "--out", OUT_DIR, "--store", STORE_DIR, SEED], 2,
        "the mesh-sweep grid on 2 fabric workers; the only workload "
        "using fabric scheduling"),
}

#: name -> unit; --trace 0 reports these
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s"}

#: name -> unit; --trace 1 reports these
PER_LAYER = {
    "setup.interpreter_s": "s", "setup.import_repro_s": "s",
    "setup.import_deps_s": "s", "setup.import_networkx_s": "s",
    "setup.registry_s": "s", "setup.modules": "count",
    "runner.points": "count", "runner.executed": "count",
    "runner.items": "count", "runner.first_result_s": "s",
    "runner.exec_s": "s", "runner.item_s": "s",
    "runner.point_p50_ms": "ms", "runner.point_max_ms": "ms",
    "runner.pool_busy_frac": "ratio", "runner.artifacts_s": "s",
    "noc.networks": "count", "noc.build_s": "s", "noc.run_s": "s",
    "noc.drain_s": "s", "noc.traffic_s": "s", "noc.cycles": "count",
    "noc.flits_ejected": "count", "noc.us_per_cycle": "us",
    "noc.exec_share": "ratio",
    "sim.runs": "count", "sim.run_s": "s", "sim.events": "count",
    "sim.ns_per_event": "ns",
    "link.testbench_build_s": "s", "link.testbench_run_s": "s",
    "design.mesh_build_s": "s",
    "analysis.calls": "count", "analysis.s": "s",
    "store.journal_appends": "count", "store.journal_append_s": "s",
    "store.journal_rewrite_s": "s", "store.puts": "count",
    "store.put_s": "s", "store.bytes_written": "bytes",
    "obs.telemetry_s": "s",
    "fabric.workers": "count", "fabric.claims": "count",
    "fabric.claim_failures": "count", "fabric.publishes": "count",
    "fabric.first_claim_s": "s", "fabric.busy_frac": "ratio",
    "fabric.idle_s": "s", "fabric.useful_frac": "ratio",
    "fabric.wall_ratio": "ratio",
    "check.failed_frac": "ratio", "check.max_error": "ratio",
    "proc.peak_rss_mb": "MB", "trace.overhead": "ratio",
}

#: simulated and scheduling counts that must repeat exactly
EXACT_COUNTS = ("noc.cycles", "noc.flits_ejected", "sim.events",
                "runner.points", "fabric.publishes")

SETUP_CODE = ("import repro.__main__\n"
              "from repro.runner import registry\n"
              "registry.load_builtin()\n")


class BenchmarkError(RuntimeError):
    """A wrong output: the run is not correct."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    first_result_s: float
    digest: str
    points: int
    checks: int
    failed: int
    max_error: float
    bytes_written: int
    durations: List[float] = field(default_factory=list)
    layers: Optional[dict] = None
    trace: Optional[dict] = None


def _child_env(tmp: Optional[Path] = None,
               trace_dir: Optional[Path] = None) -> Dict[str, str]:
    # bytecode caching stays on whatever the caller's environment says:
    # the untimed first invocation compiles, later ones start as a
    # user's would
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_"))
           and k != "PYTHONDONTWRITEBYTECODE"}
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(HOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if tmp is not None:
        env["TMPDIR"] = str(tmp)  # the fabric's private directory
    return env


def _spawn(argv: List[str], env: Dict[str, str], stdout, stderr):
    """Run one process tree to exit; (t_launch, wall_s, status, rusage).

    ``wait4`` returns the usage of the child and of every descendant it
    waited for (pool children, fabric workers): CPU time is the tree's
    sum and ``ru_maxrss`` its largest process.
    """
    t_launch = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout,
                            stderr=stderr, start_new_session=True)

    def kill_tree() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, kill_tree)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall_s = time.monotonic() - t_launch
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t_launch, wall_s, proc.returncode, usage


def _tree_bytes(*dirs: Path) -> int:
    return sum(p.stat().st_size for d in dirs if d.exists()
               for p in d.rglob("*") if p.is_file())


def _digest(out: Path) -> str:
    """Hash of every deterministic artifact; the journal enters through
    its canonical bytes, telemetry (volatile by design) not at all."""
    from repro.store import journal

    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel in ("telemetry.json", "telemetry.jsonl"):
            continue
        data = (journal.canonical_bytes(path) if rel == "journal.jsonl"
                else path.read_bytes())
        digest.update(rel.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def _telemetry_points(out: Path) -> List[dict]:
    stream = out / "telemetry.jsonl"
    if stream.exists():
        records = [json.loads(line) for line in
                   stream.read_text(encoding="utf-8").splitlines()]
    else:
        records = json.loads(
            (out / "telemetry.json").read_text(encoding="utf-8"))["points"]
    return [r for r in records if r.get("kind") == "point"]


def invoke(name: str, seed: int, work: Path, traced: bool = False
           ) -> Invocation:
    """One cold invocation of a workload's command, checked and measured."""
    workload = WORKLOADS[name]
    out, store, tmp = work / "out", work / "store", work / "tmp"
    trace_dir = work / "trace" if traced else None
    for d in filter(None, (tmp, trace_dir)):
        d.mkdir(parents=True)
    argv = [sys.executable, "-m", "repro"]
    for arg in workload.argv:
        if arg == SEED:
            argv += ["--set", f"seed={seed}"]
        else:
            argv.append(arg.replace(OUT_DIR, str(out))
                        .replace(STORE_DIR, str(store)))
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        t_launch, wall_s, code, usage = _spawn(
            argv, _child_env(tmp, trace_dir), subprocess.DEVNULL, err)
    if code != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchmarkError(f"{name}: exit code {code}\n{tail}")

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    runs = summary["runs"]
    checks = [c for r in runs for c in r.get("checks", [])]
    failed = (sum(1 for r in runs if "error" in r)
              + sum(1 for c in checks if not c["ok"]))
    points = _telemetry_points(out)
    if len(points) != len(runs):
        raise BenchmarkError(f"{name}: {len(points)} telemetry points "
                             f"for {len(runs)} summary runs")
    inv = Invocation(
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        first_result_s=min(p["t_mono"] for p in points) - t_launch,
        digest=_digest(out),
        points=len(runs),
        checks=len(checks),
        failed=failed,
        max_error=max((abs(c["error"]) for c in checks
                       if c["error"] is not None), default=0.0),
        bytes_written=_tree_bytes(out, store),
        durations=[p["duration_s"] for p in points],
    )
    if traced:
        procs = spans.load(trace_dir)
        inv.layers = spans.layer_metrics(procs, t_launch, wall_s,
                                         workload.width, inv.durations)
        inv.trace = spans.chrome_trace(procs, t_launch, wall_s)
        if inv.layers["runner.points"] != inv.points:
            raise BenchmarkError(
                f"{name}: traced {inv.layers['runner.points']} distinct "
                f"points, summary holds {inv.points}")
    shutil.rmtree(work)
    return inv


def _probe_s(code: str) -> float:
    """Wall time of a fresh ``python -c code`` with ``src`` on the path."""
    _, wall_s, status, _ = _spawn([sys.executable, "-c", code], _child_env(),
                                  subprocess.DEVNULL, subprocess.DEVNULL)
    if status != 0:
        raise BenchmarkError(f"set-up probe exited {status}")
    return wall_s


def calibrate() -> List[float]:
    """The host's current speed: the seconds ``calibrate.py`` takes for
    its fixed work on each CPU the workloads may use, in fresh processes
    pinned one to each CPU and run at once.  One CPU of a shared host is
    at times far slower than another; a process left to the scheduler
    would read either at random, while the workloads' processes spread
    over all."""
    procs = [subprocess.Popen(
        [sys.executable, "-E", "-s", str(CALIBRATE), str(cpu)], cwd=ROOT,
        stdout=subprocess.PIPE, text=True) for cpu in CALIBRATION_CPUS]
    try:
        outs = [p.communicate(timeout=INVOCATION_TIMEOUT_S)[0]
                for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    if any(p.returncode for p in procs):
        raise BenchmarkError("a calibration process failed")
    return [float(out) for out in outs]


def setup_layer() -> Dict[str, float]:
    """Interpreter start, import self times, registry load, module count.

    ``import repro`` imports every experiment module, which registers
    the scenarios, so the registry load is the cumulative import time
    of ``repro.experiments``.  ``-X importtime`` inflates what it times.
    """
    interp = statistics.median(_probe_s("pass") for _ in range(5))
    repro_s, deps_s, nx_s, reg_s, modules = [], [], [], [], 0
    for _ in range(3):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             SETUP_CODE + "import sys; print(len(sys.modules))"],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=INVOCATION_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchmarkError(f"import probe failed:\n{done.stderr}")
        modules = int(done.stdout)
        own = other = nx = registry = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, package = line[12:].split("|")
            if not self_us.strip().isdigit():
                continue  # the column header
            package = package.strip()
            if package.split(".")[0] == "repro":
                own += int(self_us)
            else:
                other += int(self_us)
            if package == "networkx":
                nx = int(cumulative_us)
            elif package == "repro.experiments":
                registry = int(cumulative_us)
        repro_s.append(own / 1e6)
        deps_s.append(other / 1e6)
        nx_s.append(nx / 1e6)
        reg_s.append(registry / 1e6)
    return {
        "setup.interpreter_s": interp,
        "setup.import_repro_s": statistics.median(repro_s),
        "setup.import_deps_s": statistics.median(deps_s),
        "setup.import_networkx_s": statistics.median(nx_s),
        "setup.registry_s": statistics.median(reg_s),
        "setup.modules": modules,
    }


def summarize(values: Sequence[float]) -> dict:
    """Median, mean and quartiles; a tail percentile only where at least
    ten samples lie beyond it."""
    n = len(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if n > 1
                 else (values[0],) * 3)
    median = statistics.median(values)
    # the value reported; medians unless the caller says otherwise
    row = {"value": median, "median": median,
           "mean": statistics.mean(values), "q1": q1, "q3": q3, "n": n,
           "tail": None}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            row["tail"] = {"p": pct, "value": statistics.quantiles(
                values, n=100)[pct - 1]}
            break
    return row


def provenance(seed: int, name: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed if SEED in WORKLOADS[name].argv else None,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _git_commit(),
    }


def _git_commit() -> Optional[str]:
    """HEAD read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _layer_values(invocations: Sequence[Invocation]) -> Dict[str, dict]:
    """Summaries of every per-layer metric over traced invocations."""
    values: Dict[str, List[float]] = {}
    for inv in invocations:
        inv.layers["store.bytes_written"] = inv.bytes_written
        inv.layers["check.failed_frac"] = inv.failed / (inv.points
                                                        + inv.checks)
        inv.layers["check.max_error"] = inv.max_error
        for key, value in inv.layers.items():
            values.setdefault(key, []).append(value)
    return {key: summarize(vals) for key, vals in values.items()}


def _check_exact(name: str, invocations: Sequence[Invocation]) -> None:
    for key in EXACT_COUNTS:
        seen = {inv.layers[key] for inv in invocations}
        if len(seen) > 1:
            raise BenchmarkError(f"{name}: {key} differs between traced "
                                 f"invocations: {sorted(seen)}")


def _write_trace(path: Path, invocations: Sequence[Invocation]) -> str:
    """Export the traced invocation closest to the median wall time."""
    median = statistics.median(i.wall_s for i in invocations)
    typical = min(invocations, key=lambda i: abs(i.wall_s - median))
    path.write_text(json.dumps(typical.trace), encoding="utf-8")
    return str(path.relative_to(ROOT))


def measure(name: str, seed: int, seconds: float, trace: bool,
            run_dir: Path) -> dict:
    """One benchmark run of one workload; raises BenchmarkError on a
    wrong output."""
    workload = WORKLOADS[name]
    companion = workload.companion
    counter = iter(range(1 << 30))

    def run(which: str, traced: bool = False) -> Invocation:
        inv = invoke(which, seed, run_dir / f"inv{next(counter)}", traced)
        invocations.append(inv)
        if inv.digest != ref.digest:
            raise BenchmarkError(f"{name}: a {'traced ' * traced}{which} "
                                 f"invocation wrote different artifacts")
        return inv

    # the first invocation also compiles bytecode; it is not timed
    ref = invoke(name, seed, run_dir / f"inv{next(counter)}")
    invocations = [ref]
    if companion:
        run(companion)

    record: dict = {"provenance": provenance(seed, name)}
    timed: List[Invocation] = []
    traced: List[Invocation] = []
    fabric: List[Invocation] = []  # traced companion invocations
    setup: List[float] = []
    calibration: List[List[float]] = []  # per CPU
    setup_layer_metrics = setup_layer() if trace else {}
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(timed) < MIN_SAMPLES:
        timed.append(run(name))
        if not trace:
            # interleaved, so set-up time and the host's speed are
            # measured under the same load as the runs
            setup.append(_probe_s(SETUP_CODE))
            # about one sample of the host's speed per second of workload
            calibration += [calibrate()
                            for _ in range(math.ceil(timed[-1].wall_s))]
            continue
        traced.append(run(name, traced=True))
        if companion:
            fabric.append(run(companion, traced=True))
    while len(setup) < SETUP_SAMPLES and not trace:
        setup.append(_probe_s(SETUP_CODE))
    if not trace:
        # tracing must not perturb the outputs
        traced.append(run(name, traced=True))
    _check_exact(name, traced)
    _check_exact(companion or name, fabric)

    record["samples"] = len(timed)
    record["exact_counts"] = {k: traced[0].layers[k] for k in EXACT_COUNTS}
    record["attempted"] = sum(i.points + i.checks for i in invocations)
    record["failed"] = sum(i.failed for i in invocations)
    wall = summarize([i.wall_s for i in timed])
    if not trace:
        # the CPUs together run at the sum of their speeds, as a pool
        # balancing its points over them does: the harmonic mean of the
        # times per CPU
        host = [statistics.harmonic_mean(times) for times in calibration]
        record["calibration_s"] = summarize(host)
        record["raw_samples"] = {"wall_s": [i.wall_s for i in timed],
                                 "calibration_s": calibration}
        record["raw_end_to_end"] = {
            "wall_s": wall,
            "setup_s": summarize(setup),
            "cpu_s": summarize([i.cpu_s for i in timed]),
        }
        # seconds on the reference host.  The workload's time adds up
        # the host's slow phases as the calibrations' sum does, so the
        # means scale, not the medians
        scale = REFERENCE_WORK_S / statistics.mean(host)
        record["end_to_end"] = {
            key: summarize([value * scale for value in values])
            for key, values in (
                ("wall_s", [i.wall_s for i in timed]),
                ("setup_s", setup),
                ("cpu_s", [i.cpu_s for i in timed]))}
        for key in ("wall_s", "cpu_s"):
            row = record["end_to_end"][key]
            row["value"] = row["mean"]
        return record

    per_layer = _layer_values(traced)
    traced_wall = statistics.median(i.wall_s for i in traced)
    per_layer.update((key, summarize([value]))
                     for key, value in setup_layer_metrics.items())
    # the records table covers this workload's own invocations only
    record["layers"] = records_table(per_layer, traced_wall)
    fabric_wall = 0.0
    if fabric:
        # the fabric layer is measured on the companion: the same grid
        # scheduled on fabric workers instead of the pool
        per_layer.update((key, row)
                         for key, row in _layer_values(fabric).items()
                         if key.startswith("fabric."))
        fabric_wall = statistics.median(i.wall_s for i in fabric)
        record["fabric_trace"] = _write_trace(
            run_dir.parent / f"{run_dir.name}.{companion}.trace.json",
            fabric)
    per_layer["fabric.wall_ratio"] = summarize([fabric_wall / traced_wall])
    # kilobyte-exact and deterministic, so not a bounded metric
    per_layer["proc.peak_rss_mb"] = summarize(
        [i.peak_rss_mb for i in timed])
    # launch to first outcome is mostly interpreter start and import: as
    # noisy from run to run as setup_s, so unbounded, from untraced runs
    per_layer["runner.first_result_s"] = summarize(
        [i.first_result_s for i in timed])
    per_layer["trace.overhead"] = summarize([traced_wall / wall["median"]])
    record["per_layer"] = per_layer
    record["untraced_wall_s"] = wall
    record["traced_wall_s"] = summarize([i.wall_s for i in traced])
    record["chrome_trace"] = _write_trace(
        run_dir.parent / f"{run_dir.name}.trace.json", traced)
    return record


def records_table(per_layer: dict, wall_s: float) -> List[dict]:
    """One row per layer: absolute time and share of the traced wall_s
    (layer times sum over processes, so shares can exceed 100%)."""
    med = {key: row["median"] for key, row in per_layer.items()}
    rows = [{"layer": "setup",
             "s": med["setup.interpreter_s"] + med["setup.import_repro_s"]
             + med["setup.import_deps_s"]}]
    rows += [{"layer": layer, "s": sum(med[key] for key in keys)}
             for layer, keys in spans.LAYER_ROWS.items()]
    for row in rows:
        row["share_of_wall"] = row["s"] / wall_s
    return rows


def render(name: str, record: dict, trace: bool) -> str:
    prov = record["provenance"]
    lines = [f"## {name} (seed {prov['seed']}, {record['samples']} "
             f"samples, {prov['nproc']} x {prov['cpu']}, Python "
             f"{prov['python']}, commit {prov['commit']})", ""]
    metrics = record["per_layer"] if trace else record["end_to_end"]
    units = PER_LAYER if trace else END_TO_END
    lines += ["| metric | unit | value | median | q1 | q3 | n |",
              "| ------ | ---- | ----: | -----: | -: | -: | -: |"]
    for key, unit in units.items():
        row = metrics[key]
        lines.append(f"| `{key}` | {unit} | {row['value']:.6g} | "
                     f"{row['median']:.6g} | "
                     f"{row['q1']:.6g} | {row['q3']:.6g} | {row['n']} |")
    if trace:
        lines += ["", "| layer | time (s) | share of wall_s |",
                  "| ----: | -------: | --------------: |"]
        for row in record["layers"]:
            lines.append(f"| `{row['layer']}` | {row['s']:.4f} | "
                         f"{100 * row['share_of_wall']:.1f}% |")
        lines += ["", f"Chrome trace: {record['chrome_trace']}"]
        if "fabric_trace" in record:
            lines.append(f"Chrome trace of the fabric companion: "
                         f"{record['fabric_trace']}")
    return "\n".join(lines)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = measure(name, seed, seconds, trace, run_dir)
        record["correct"] = True
    except BenchmarkError as exc:
        record = {"correct": False, "error": str(exc),
                  "provenance": provenance(seed, name)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (OUT / f"{run_dir.name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)

    correct, attempted, failed, metrics = True, 0, 0, {}
    units = PER_LAYER if trace else END_TO_END
    section = "per_layer" if trace else "end_to_end"
    for name in names:
        record = run_one(name, args.seed, args.seconds, trace)
        if not record["correct"]:
            print(f"{name}: WRONG OUTPUT: {record['error']}", file=sys.stderr)
            correct = False
            continue
        print(render(name, record, trace) + "\n")
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, unit in units.items():
            metrics[prefix + key] = {
                "value": record[section][key]["value"], "unit": unit}
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
