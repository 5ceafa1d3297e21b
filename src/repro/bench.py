"""Kernel benchmark harness behind ``python -m repro bench``.

Every timed workload is one row of :data:`WORKLOADS`, in one of four
suites (``--suite {noc,gate,compiled,sweep,all}``):

* **noc** — cycles/sec of the activity-driven NoC cycle kernel
  (:mod:`repro.noc.network`) vs the frozen seed kernel
  (:mod:`repro.noc.reference`);
* **gate** — events/sec of the calendar-queue event kernel
  (:mod:`repro.sim`) vs the frozen seed kernel (:mod:`repro.sim.reference`)
  on serializer-link testbenches, a four-phase wire-buffer chain and a
  free-running ring oscillator;
* **compiled** — aggregate lane-steps/sec of the bit-parallel compiled
  backend (:mod:`repro.compiled`, 64 lanes per word) vs the optimized
  event kernel running one lane of the identical workload;
* **sweep** — points/sec of a no-op grid (``sweep-noop``) through the
  sweep fabric (:mod:`repro.fabric`) vs the bare engine: pure
  scheduling overhead.

A row's builder returns a fast and a reference *side*.  A side builds
its workload and returns ``(run, finish)``; only ``run()`` is timed (so
the NoC build, the compile and the fabric's worker start-up are outside
the clock), and ``finish(result)`` returns ``(work, fingerprint)``.
The rest is shared: best-of-N timing with the two sides taking turns,
the cross-check (``stats_match``: a fast kernel with wrong answers
fails the bench), ``speedup = lanes × reference_wall / fast_wall``, one
JSON record, an untimed counter replay and :func:`gate`.

:func:`gate` compares the *speedup ratio* against a committed
baseline, not absolute throughput: the ratio of two kernels timed on
the same host in the same process is stable across machines, where raw
throughput is dominated by whatever CPU the CI runner happened to get.
Rows with a floor are held to it whatever the baseline says.

The gate suite's speedup is the wall-clock ratio on the identical
workload.  The two kernels execute different event *counts* for the
same circuit: the seed runs superseded inertial drives as no-ops, and
schedules the no-op drives the optimized kernel elides, while the
optimized kernel cancels the former and never queues the latter.  So
both sides count ``work`` in the seed kernel's event currency
(:func:`_seed_events`), and a gate row's events/sec stays comparable
across kernel changes.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .link.behavioral import derive_link_params
from .obs import metrics as obs_metrics
from .noc import Network, Topology, build_run
from .noc.reference import ReferenceNetwork
from .tech import st012

#: bench schema version, bumped on incompatible JSON layout changes;
#: :func:`load_baseline` reads this schema only
SCHEMA = 5

#: ``--fast``: NoC points run at most this many cycles of an 8x8 mesh
#: (``FAST_CYCLES * 64`` node-cycles, so a 4x4 point runs 1200 cycles
#: and every point times a comparable amount of work), and every other
#: workload at most this fraction of its default size — the sizes the
#: committed baseline was recorded at
FAST_CYCLES = 300
FAST_SCALE = 0.5

#: least wall time a row's timing spends per ``--repeats``.  The two
#: sides take turns, run by run, so both see the same drift of a shared
#: host's speed, and a short row runs until the best of many runs is
#: stable (timed one side after the other, best of five runs each, a
#: ~10 ms row's speedup swung by up to 2x on a 2-vCPU host)
ROUND_S = 0.1

#: the NoC suite's (mesh_size, injection_rate, routing) points — the
#: nominal 4x4 point, the 8x8 low-load and saturation gates from the
#: perf acceptance criteria, and an 8x8 point under adaptive routing
NOC_POINTS: Sequence[Tuple[int, float, str]] = (
    (4, 0.10, "xy"), (8, 0.02, "xy"), (8, 0.35, "xy"),
    (8, 0.15, "west_first"),
)

#: a custom NoC grid's mesh sizes when it names only rates, and its
#: rates when it names only mesh sizes (``repro bench --rates/--mesh``)
GRID_MESHES: Sequence[int] = (4, 8)
GRID_RATES: Sequence[float] = (0.1,)

#: a side: builds its workload, returns ``(run, finish)``
Side = Callable[[], Tuple[Callable[[], object], Callable[[object], tuple]]]


@dataclass(frozen=True)
class Point:
    """One timed configuration: a :data:`WORKLOADS` row at one size.

    ``size`` is in the row's own unit and is recorded as ``cycles`` in
    the JSON.  Only the NoC rows read the mesh and traffic fields.
    """

    suite: str
    workload: str
    size: int
    mesh_size: int = 0
    injection_rate: float = 0.0
    pattern: str = "uniform"
    routing: str = "xy"
    kind: str = "I3"

    @property
    def key(self) -> str:
        """Stable identity used to match points across bench runs."""
        if self.suite == "noc":
            return (
                f"{self.mesh_size}x{self.mesh_size}"
                f"@{self.injection_rate:g}/{self.pattern}"
                f"/{self.routing}/{self.kind}"
            )
        return f"{self.suite}/{self.workload}@{self.size}"


@dataclass(frozen=True)
class Workload:
    """One row of :data:`WORKLOADS`."""

    suite: str
    name: str
    #: default size, and the floor scaling keeps it at or above
    size: int
    min_size: int
    #: unit of the fast side's ``lanes * work / wall_s``
    unit: str
    #: ``build(point) -> (fast_side, reference_side)``
    build: Callable[[Point], Tuple[Side, Side]]
    #: independent simulations the fast side evaluates per run
    lanes: int = 1
    #: speedup :func:`gate` demands whatever the baseline says
    floor: Optional[float] = None


# noc suite: the cycle kernels on a mesh under synthetic traffic
def _noc(point: Point):
    def setup(network_cls):
        # the paper's 300 MHz operating point and the default traffic seed
        network, traffic = build_run(
            network_cls, Topology(point.mesh_size, point.mesh_size),
            derive_link_params(st012(), point.kind, 300.0),
            point.injection_rate, pattern=point.pattern,
            routing=point.routing,
        )

        def finish(stats):
            return point.size, (stats.summary(), stats.packet_latencies)

        return partial(network.run, point.size, traffic), finish

    return partial(setup, Network), partial(setup, ReferenceNetwork)


# gate suite: each builder takes a simulator stack (the optimized
# ``repro.sim`` or the frozen ``repro.sim.reference``) and a size
def _seed_events(sim) -> int:
    """The events the seed kernel executes for the run ``sim`` made.

    On the seed kernel that is its own count.  The optimized kernel adds
    the drives it cancelled or elided, which the seed executes as
    no-ops; the two counts agree exactly on every gate row.
    """
    return (sim.events_executed + getattr(sim, "events_cancelled", 0)
            + getattr(sim, "drives_elided", 0))


def _gate_serializer(stack, n_flits: int, kind: str):
    """Serializer-link testbench workload; fingerprint pins delivery."""
    from .link import LinkConfig, LinkTestbench, build_i2, build_i3

    sim = stack.Simulator()
    clock = stack.Clock.from_mhz(sim, 300)
    builder = build_i3 if kind == "I3" else build_i2
    link = builder(sim, clock.signal, LinkConfig(), st012())
    bench = LinkTestbench(sim, clock, link)
    flits = [(0xA5A5A5A5, 0x5A5A5A5A)[i % 2] for i in range(n_flits)]

    def finish(measurement):
        return _seed_events(sim), (
            link.flits_accepted(),
            link.flits_delivered(),
            tuple(measurement.received_values),
            tuple(measurement.delivery_times_ps),
            tuple(
                (group, link.monitor.transitions(group))
                for group in sorted(link.monitor.groups)
            ),
        )

    return partial(bench.run, flits), finish


def _gate_fourphase(stack, n_tokens: int):
    """Four-phase wire-buffer-chain token pump."""
    from .link.wiring import AsyncWireBufferChain, wire
    from .sim.process import Delay, WaitValue

    tech = st012()
    sim = stack.Simulator()
    data_in = sim.bus(8, "din")
    req_in = sim.signal("req")
    chain = AsyncWireBufferChain(
        sim, data_in, req_in, 4,
        t_p_ps=tech.handshake.t_p_per_segment,
        delays=tech.gates,
        ctl_delay_ps=tech.handshake.t_wire_buffer_ctl,
        name="chain",
    )
    ack_back = sim.signal("ackback")
    wire(chain.ack_out, ack_back, tech.handshake.t_p_per_segment)
    received: List[int] = []

    def source():
        for i in range(n_tokens):
            data_in.set((0xA5 + i * 31) & 0xFF)
            yield Delay(tech.gates.mux2)
            req_in.set(1)
            yield WaitValue(ack_back, 1)
            req_in.set(0)
            yield WaitValue(ack_back, 0)

    def sink():
        for _ in range(n_tokens):
            yield WaitValue(chain.req_out, 1)
            received.append(chain.data_out.value)
            yield Delay(40)
            chain.ack_in.set(1)
            yield WaitValue(chain.req_out, 0)
            chain.ack_in.set(0)

    def run():
        stack.spawn(sim, source(), "src")
        stack.spawn(sim, sink(), "snk")
        sim.run(max_events=50_000_000)

    def finish(_result):
        return _seed_events(sim), (
            tuple(received),
            sim.now,
            chain.data_out.transitions,
            chain.req_out.transitions,
        )

    return run, finish


def _gate_ringosc(stack, duration_ns: int):
    """Free-running gated ring oscillator: pure kernel churn."""
    from .elements.ringosc import RingOscillator

    sim = stack.Simulator()
    enable = sim.signal("en")
    osc = RingOscillator(sim, enable, stages=5)
    enable.set(1)

    def finish(_result):
        return _seed_events(sim), (
            osc.out.transitions, osc.out.value, sim.now
        )

    return partial(sim.run, until=duration_ns * 1000), finish


def _gate(build):
    """A gate row's builder: ``build`` on the optimized stack is the
    fast side, on the frozen seed stack the reference."""

    def sides(point: Point):
        from . import sim as fast_stack
        from .sim import reference as reference_stack

        return (partial(build, fast_stack, point.size),
                partial(build, reference_stack, point.size))

    return sides


# compiled suite: the bit-parallel backend against one lane on the
# optimized event kernel.  Fault-batch lane layout: 16 seeds x (1
# golden + 3 stuck-net lanes) fill the 64-bit word exactly
_BATCH_SEEDS = 16
_BATCH_FAULTS = 3


def _compiled_fault_batch(point: Point):
    """64-lane fault-injection batch on the compilable i3 bench: all
    lanes on the compiled side, lane 0's projection of the identical
    stimulus on the reference side; both fingerprint lane-0 settled
    values and sampled-transition counters."""
    from .compiled import (MASK, StepOracle, build_bench, compile_component,
                           lane_phases, stimulus_phases)
    from .sim import Simulator

    group = 1 + _BATCH_FAULTS
    lane_seeds = [s for s in range(1, _BATCH_SEEDS + 1) for _ in range(group)]
    phases = stimulus_phases("i3", lane_seeds, point.size, 32)
    lane0 = lane_phases(phases, 0)

    def compiled():
        bench = build_bench(Simulator(), "i3", 32)
        circuit = compile_component(bench.root,
                                    forceable=bench.fault_sites)
        sites = bench.fault_sites
        for r in range(_BATCH_SEEDS):
            for j in range(1, group):
                circuit.force(sites[(r + j) % len(sites)], (j % 2) * MASK,
                              lanes=1 << (r * group + j))

        def run():
            for phase in phases:
                circuit.step(phase)

        def finish(_result):
            counts = circuit.counts()
            return len(phases), (circuit.lane_values(0),
                                 counts["rising0"], counts["falling0"])

        return run, finish

    def reference():
        sim = Simulator()
        oracle = StepOracle(sim, build_bench(sim, "i3", 32).root)

        def run():
            for phase in lane0:
                oracle.step(phase)

        def finish(_result):
            counts = oracle.counts()
            return len(lane0), (oracle.values(),
                                counts["rising"], counts["falling"])

        return run, finish

    return compiled, reference


def _compiled_ringosc(point: Point):
    """Single-lane ring oscillator: the compiled backend's worst case.

    No batch to amortize over — one free-running state element ticking
    ``point.size`` times — so the speedup here prices raw per-step
    overhead against the event kernel (the floor is only 1x).
    """
    from .compiled import MASK, compile_component
    from .elements.ringosc import RingOscillator
    from .sim import Simulator

    toggles = point.size

    def ring():
        sim = Simulator()
        enable = sim.signal("en")
        return sim, enable, RingOscillator(sim, enable, stages=5)

    def compiled():
        _sim, enable, osc = ring()
        circuit = compile_component(osc)
        circuit.poke(enable, MASK)
        circuit.settle()

        def finish(_result):
            counts = circuit.counts()
            return toggles, (circuit.lane(osc.out, 0),
                             counts["rising0"], counts["falling0"])

        return partial(circuit.tick, toggles), finish

    def reference():
        sim, enable, osc = ring()
        enable.set(1)

        def finish(_result):
            return toggles, (osc.out.value,
                             enable.rising + osc.out.rising,
                             enable.falling + osc.out.falling)

        return (partial(sim.run, until=toggles * osc.half_period + 1),
                finish)

    return compiled, reference


def _sweep_noop(point: Point):
    """Sweep suite: a no-op grid through a coordinator and one
    in-process worker thread, vs the bare engine.  The fabric clock
    covers the coordinator planning the grid through it seeing the last
    published result: leasing, executing, publishing and collecting.
    The worker starts, and waits for the plan, off the clock, each side
    starts from a collected heap, and the fabric directory sits on
    tmpfs where the host has one, so the row times the fabric's
    dispatch rather than thread start-up, a poll interval, a collection
    of what earlier rows left behind or the host disk's write
    latency."""
    import gc
    import tempfile
    import threading

    from .fabric import FileTransport, run_fabric_sweep, run_worker
    from .runner import engine, registry
    from .store import codec

    registry.load_builtin()
    # None is the platform's temporary directory
    fabric_dir = "/dev/shm" if Path("/dev/shm").is_dir() else None
    requests = [
        engine.RunRequest.create("sweep-noop", {"point": i})
        for i in range(point.size)
    ]

    def finish(outcomes):
        return point.size, [
            json.dumps(codec.strip_volatile(codec.outcome_to_record(o)),
                       sort_keys=True)
            for o in outcomes
        ]

    def fabric():
        gc.collect()
        workdir = tempfile.TemporaryDirectory(prefix="repro-bench-fabric-",
                                              dir=fabric_dir)
        transport = FileTransport(workdir.name)
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(fabric=transport, worker_id="bench-w0",
                        lease_ttl=10.0, poll_s=0.002, plan_timeout=30.0),
            daemon=True,
        )

        # the worker waits for the plan off the clock
        worker.start()

        def run():
            return run_fabric_sweep(
                transport, "sweep-noop", requests,
                workers=0, lease_ttl=10.0, poll_s=0.002, timeout=300.0,
            ).outcomes

        def join(outcomes):
            worker.join(timeout=10.0)
            workdir.cleanup()
            return finish(outcomes)

        return run, join

    def bare():
        gc.collect()
        return partial(engine.execute, requests, jobs=1), finish

    return fabric, bare


_ROWS = (
    Workload("noc", "mesh", 1500, 1, "cycles/sec", _noc),
    # gate sizes: flits for the serializer testbenches, tokens for the
    # four-phase chain, nanoseconds of oscillation for the ring.  A
    # serializer run ends at its last delivery, so its flit count alone
    # sets its length: at --fast scale each side takes ~40 ms, and
    # ~10 ms sides spread too widely for the 30% tolerance
    Workload("gate", "serializer-i3", 144, 4, "events/sec",
             _gate(partial(_gate_serializer, kind="I3"))),
    Workload("gate", "serializer-i2", 96, 4, "events/sec",
             _gate(partial(_gate_serializer, kind="I2"))),
    Workload("gate", "fourphase-chain", 40, 4, "events/sec",
             _gate(_gate_fourphase)),
    Workload("gate", "ringosc", 40_000, 4, "events/sec",
             _gate(_gate_ringosc)),
    # compiled sizes: stimulus vectors for the fault batch, output
    # toggles for the ring; the batch must beat one event-kernel lane
    # 4x over, the single lane must merely not lose
    Workload("compiled", "fault-batch", 12, 2, "lane-steps/sec",
             _compiled_fault_batch,
             lanes=_BATCH_SEEDS * (1 + _BATCH_FAULTS), floor=4.0),
    Workload("compiled", "ringosc", 20_000, 2, "lane-steps/sec",
             _compiled_ringosc, floor=1.0),
    # sweep size: grid points; the floor caps the fabric's dispatch
    # overhead at 500x the bare engine's time.  The bare engine's side
    # is a fraction of a millisecond, so the row is sized to keep it
    # clear of timer noise
    Workload("sweep", "noop", 128, 8, "points/sec", _sweep_noop,
             floor=0.002),
)

#: every timed workload, by ``(suite, name)``, in suite order
WORKLOADS: Dict[Tuple[str, str], Workload] = {
    (row.suite, row.name): row for row in _ROWS
}


def _row(point: Point) -> Workload:
    """The :data:`WORKLOADS` row ``point`` runs."""
    try:
        return WORKLOADS[point.suite, point.workload]
    except KeyError:
        raise ValueError(
            f"unknown bench workload {point.suite}/{point.workload}"
        ) from None


def noc_cycles(cycles: int, mesh_size: int, fast: bool) -> int:
    """Cycles a NoC point runs: ``cycles``, capped under ``fast`` at
    :data:`FAST_CYCLES` 8x8-mesh cycles' worth of node-cycles."""
    if not fast:
        return cycles
    return min(cycles, FAST_CYCLES * 64 // (mesh_size * mesh_size))


def default_points(fast: bool = False, scale: float = 1.0,
                   cycles: Optional[int] = None,
                   meshes: Sequence[int] = (), rates: Sequence[float] = (),
                   pattern: str = "uniform", kind: str = "I3",
                   routing: Optional[str] = None,
                   ) -> List[Point]:
    """The standard points of every suite, in suite order.

    NoC points run ``cycles`` (default: the row's size) at each of
    :data:`NOC_POINTS`, or, when ``meshes`` or ``rates`` is given, at
    every mesh x rate pair of that grid (missing side:
    :data:`GRID_MESHES` or :data:`GRID_RATES`) routed xy.  ``pattern``
    and ``kind`` shape every NoC point, and so does ``routing`` when
    given.  Every other row's size is multiplied by ``scale`` but kept
    at or above its minimum.  ``fast`` caps the two (:func:`noc_cycles`,
    :data:`FAST_SCALE`).
    """
    if fast:
        scale = min(scale, FAST_SCALE)
    noc = NOC_POINTS
    if meshes or rates:
        noc = [(mesh, rate, "xy") for mesh in meshes or GRID_MESHES
               for rate in rates or GRID_RATES]
    points: List[Point] = []
    for row in _ROWS:
        if row.suite != "noc":
            size = max(row.min_size, round(row.size * scale))
            points.append(Point(row.suite, row.name, size))
            continue
        n = cycles or row.size
        points += [
            Point(row.suite, row.name, noc_cycles(n, mesh, fast),
                  mesh_size=mesh, injection_rate=rate, pattern=pattern,
                  routing=routing or own, kind=kind)
            for mesh, rate, own in noc
        ]
    return points


def _measure(side: Side) -> Tuple[float, int, object]:
    """One run of ``side``: ``(wall_s, work, fingerprint)``."""
    run, finish = side()
    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    work, fingerprint = finish(result)
    return wall, work, fingerprint


def _best(sides: Sequence[Side],
          repeats: int) -> List[Tuple[float, int, object]]:
    """The fastest run of each of ``sides``.  The sides take turns, one
    run each, until every side ran ``repeats`` times and ``repeats`` x
    :data:`ROUND_S` of wall time has passed."""
    best: List[Tuple[float, int, object]] = []
    deadline = time.monotonic() + repeats * ROUND_S
    turns = 0
    while turns < repeats or time.monotonic() < deadline:
        runs = [_measure(side) for side in sides]
        best = runs if not best else [min(pair, key=lambda m: m[0])
                                      for pair in zip(best, runs)]
        turns += 1
    return best


def _sig(value: Optional[float]) -> Optional[float]:
    """``value`` to 4 significant figures."""
    return None if value is None else float(f"{value:.4g}")


def run_point(point: Point, reference: bool = True,
              repeats: int = 3) -> Dict[str, object]:
    """Time ``point``'s fast side (and its reference side), best of at
    least ``repeats`` runs each (:func:`_best`), cross-check their
    fingerprints and return the point's JSON record.

    ``rate`` is the fast side's ``lanes * work / wall_s`` in ``unit``
    and ``speedup`` is ``lanes * reference_wall_s / wall_s``; the
    reference fields stay None without a reference run.  Every float
    keeps 4 significant figures.
    """
    row = _row(point)
    best = _best(row.build(point)[:2 if reference else 1], repeats)
    wall, work, fingerprint = best[0]
    ref_wall = speedup = stats_match = None
    if reference:
        ref_wall, _work, ref_fingerprint = best[1]
        speedup = row.lanes * ref_wall / wall
        stats_match = fingerprint == ref_fingerprint
    record: Dict[str, object] = {
        "suite": point.suite,
        "workload": point.workload,
        "key": point.key,
        "cycles": point.size,
        "lanes": row.lanes,
        "unit": row.unit,
        "rate": _sig(row.lanes * work / wall),
        "wall_s": _sig(wall),
        "reference_wall_s": _sig(ref_wall),
        "speedup": _sig(speedup),
        "stats_match": stats_match,
    }
    if point.suite == "noc":
        record.update(
            mesh_size=point.mesh_size,
            injection_rate=point.injection_rate,
            pattern=point.pattern,
            routing=point.routing,
            kind=point.kind,
        )
    return record


def profile(point: Point, top: int = 15) -> str:
    """cProfile one run of ``point``'s fast side; a pstats table."""
    fast, _slow = _row(point).build(point)
    run, finish = fast()
    profiler = cProfile.Profile()
    finish(profiler.runcall(run))
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative").print_stats(top)
    return buf.getvalue()


def counters(point: Point) -> Dict[str, int]:
    """Kernel counter deltas from one extra *untimed* run of ``point``'s
    fast side, so instrumentation never contaminates the timings it
    annotates (the timed repeats run with metrics as the process left
    them: disabled, normally)."""
    fast, _slow = _row(point).build(point)
    with obs_metrics.collecting(reset=True) as registry:
        _measure(fast)
        return registry.counters()


def run_bench(
    points: Sequence[Point],
    reference: bool = True,
    repeats: int = 3,
    progress: Optional[Callable[[Dict[str, object]], None]] = None,
    collect_metrics: bool = True,
) -> Dict[str, object]:
    """Run every point; return the bench JSON document.

    With ``collect_metrics`` each record gains a ``metrics`` key — the
    :func:`counters` replay — which :func:`gate` ignores.
    """
    records = []
    for point in points:
        record = run_point(point, reference=reference, repeats=repeats)
        if progress is not None:
            progress(record)
        if collect_metrics:
            record["metrics"] = counters(point)
        records.append(record)
    return {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "repeats": repeats,
        "suites": list(dict.fromkeys(point.suite for point in points)),
        "points": records,
    }


def _major_minor(version: Optional[str]) -> Optional[str]:
    if not version:
        return None
    return ".".join(str(version).split(".")[:2])


def gate(
    document: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.30,
) -> List[str]:
    """Problems found checking a bench ``document`` against a baseline.

    Every point must match its reference (``stats_match`` not false)
    and clear its row's floor, if any, and the baseline's speedup for
    its key less ``tolerance`` (relative).  A point held to a bar with
    no recorded speedup is a problem, as are baseline points missing
    from ``document``, a size that differs from the baseline's (the
    speedups are not comparable) and an interpreter mismatch: the two
    kernels stress CPython differently, so the ratio is only stable
    within one major.minor version.  Baseline points of suites
    ``document`` did not run are skipped.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance {tolerance} is outside [0, 1)")
    problems: List[str] = []
    points = document.get("points", [])
    suites = set(document["suites"])
    base_python = _major_minor(baseline.get("python"))
    cur_python = _major_minor(document.get("python"))
    if base_python and cur_python and base_python != cur_python:
        problems.append(
            f"interpreter mismatch: bench ran on Python {cur_python} "
            f"but the baseline was recorded on {base_python} — kernel "
            f"speedup ratios are only comparable on the same "
            f"interpreter; regenerate the baseline"
        )
    keys = {p["key"] for p in points}
    gated = {}
    for base in baseline.get("points", []):
        if (base.get("speedup") is None
                or base["suite"] not in suites):
            continue
        if base["key"] in keys:
            gated[base["key"]] = base
        else:
            problems.append(
                f"{base['key']}: missing from current bench run"
            )
    for point in points:
        key, speedup = point["key"], point.get("speedup")
        if point.get("stats_match") is False:
            problems.append(
                f"{key}: optimized kernel diverged from reference stats"
            )
        bars = []
        row = WORKLOADS.get((point["suite"], point.get("workload")))
        if row is not None and row.floor is not None:
            bars.append((row.floor, f"the {row.floor:g}x floor"))
        base = gated.get(key)
        if base is not None and base.get("cycles") not in (
                None, point.get("cycles")):
            flag = "--cycles" if base["suite"] == "noc" else "--scale"
            problems.append(
                f"{key}: measured at size {point.get('cycles')} but the "
                f"baseline used {base['cycles']} — rerun with matching "
                f"{flag} (the committed baseline uses --fast) or "
                f"regenerate the baseline"
            )
        elif base is not None:
            bars.append((
                base["speedup"] * (1.0 - tolerance),
                f"baseline {base['speedup']:.4g}x - {tolerance:.0%} "
                f"tolerance",
            ))
        if bars and speedup is None:
            problems.append(
                f"{key}: no speedup recorded (ran with --no-reference?)"
            )
            continue
        for bar, reason in bars:
            if speedup < bar:
                problems.append(
                    f"{key}: speedup {speedup:.4g}x fell below "
                    f"{bar:.4g}x ({reason})"
                )
    return problems


def load_baseline(path: str) -> Dict[str, object]:
    """Read a committed bench document of schema :data:`SCHEMA`.

    Anything but an object with a list of keyed ``points`` is refused,
    as is any other schema: silently gating against a file this code
    does not understand would make the check vacuous.
    """
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    points = document.get("points") if isinstance(document, dict) else None
    if not isinstance(points, list) or not all(
            isinstance(p, dict) and isinstance(p.get("key"), str)
            for p in points):
        raise ValueError(
            "not a bench document (an object whose 'points' list holds "
            "keyed records)"
        )
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {schema}, but this code reads "
            f"only schema {SCHEMA}; regenerate the baseline"
        )
    return document


def write_json(document: Dict[str, object], path: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
