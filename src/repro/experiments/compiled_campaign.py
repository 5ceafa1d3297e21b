"""Monte Carlo fault campaign on the bit-parallel compiled backend.

One compiled evaluation carries 64 independent lanes; this campaign
spends them on a classic use: lane 0 runs the *golden* circuit, the
next ``faults`` lanes run the same stimulus with one net stuck per
lane, and detection is a bitwise XOR against the golden lane on the
output nets — one run prices a whole fault list.

The scenario registers a ``batch`` hook: sweep requests that differ
only in ``seed`` pack their lane groups side by side into one 64-bit
word (a request with 3 fault lanes occupies 4 bits), so a 16-seed
sweep costs one compiled run instead of sixteen.  The hook returns
per-request results identical to solo runs — the engine, store and
journal cannot tell the difference (``tests/test_compiled_runner.py``
pins that).

Checks are exact invariants, not tolerances:

* golden-lane readback — the de-serializer register slots (or the
  latched word and its parity for ``i1``) must reassemble exactly the
  stimulus that was driven, replayed independently in plain Python;
* the golden lane must actually toggle (a dead circuit detects
  nothing);
* fault coverage must clear a floor — stuck nets on active paths are
  observable at the outputs for any healthy stimulus set.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..design import Design
from ..obs.metrics import REGISTRY as _OBS
from ..runner.registry import ParamSpec, scenario
from ..sim.kernel import Simulator
from ..tech.technology import Technology
from .common import Check, ExperimentResult

#: lanes per packed word
_LANES = 64


def _fault_plan(seed: int, faults: int,
                sites: Sequence[str]) -> List[Tuple[str, int]]:
    """Seeded (site, stuck_value) choice for each fault lane."""
    rng = random.Random(f"campaign:{seed}")
    return [
        (sites[rng.randrange(len(sites))], rng.randrange(2))
        for _ in range(faults)
    ]


def _expected_readback(kind: str, phases: List[Dict[str, int]],
                       lane: int, width: int) -> Dict[str, int]:
    """Replay the stimulus in plain Python: expected final output bits.

    ``i1``: the latched word equals the last data vector, the parity
    net its xor-reduction.  ``i2``/``i3``: the 2-bit counter walks the
    slots in order, so register slot ``s`` holds slice ``s`` of the
    last data phase that preceded an edge at counter state ``s``.
    """
    expected: Dict[str, int] = {}
    if kind == "i1":
        data = {}
        for phase in phases:
            if any(name.startswith("i1.d[") for name in phase):
                data = phase
        parity = 0
        for b in range(width):
            bit = (data[f"i1.d[{b}]"] >> lane) & 1
            expected[f"i1.lat.q[{b}]"] = bit
            parity ^= bit
        # the parity tree's final xor output net
        expected[f"i1.x{width - 2}.out"] = parity
        return expected
    sw = max(1, width // 4)
    counter = 0
    last_data: Dict[str, int] = {}
    for phase in phases:
        if f"{kind}.rst" in phase and (phase[f"{kind}.rst"] >> lane) & 1:
            counter = 0
            continue
        if any(name.startswith(f"{kind}.s0[") for name in phase):
            last_data = phase
            continue
        if (f"{kind}.clk" in phase
                and (phase[f"{kind}.clk"] >> lane) & 1):
            # posedge: slot `counter` captures slice `counter`
            for b in range(sw):
                bit = (last_data[f"{kind}.s{counter}[{b}]"] >> lane) & 1
                expected[f"{kind}.r{counter}.q[{b}]"] = bit
            counter = (counter + 1) % 4
    return expected


def _run_campaign(param_sets: Sequence[Dict[str, object]]
                  ) -> List[ExperimentResult]:
    """Shared solo/batch core: pack requests into lanes, run once.

    Each request occupies ``1 + faults`` adjacent lanes (golden +
    fault lanes).  Requests beyond one word's capacity run in further
    compiled passes — callers never need to mind the 64-lane boundary.
    """
    # deferred: registering this scenario must not load the backend
    from ..compiled import ALL, build_bench, compile_component, \
        stimulus_phases

    first = param_sets[0]
    kind = str(first["kind"])
    faults = int(first["faults"])
    vectors = int(first["vectors"])
    width = int(first["width"])
    group = 1 + faults
    per_word = max(1, _LANES // group)

    results: List[ExperimentResult] = []
    for base in range(0, len(param_sets), per_word):
        chunk = param_sets[base:base + per_word]
        if _OBS.enabled:
            _OBS.histogram(
                "compiled.lanes_packed", (1, 4, 8, 16, 32, 64)
            ).observe(len(chunk) * group)
        sim = Simulator()
        bench = build_bench(sim, kind, width)
        circuit = compile_component(bench.root,
                                    forceable=bench.fault_sites)
        seeds = [int(p["seed"]) for p in chunk]
        lane_seeds: List[object] = []
        for seed in seeds:
            lane_seeds.extend([seed] * group)
        lane_seeds.extend([0] * (_LANES - len(lane_seeds)))
        phases = stimulus_phases(kind, lane_seeds, vectors, width)

        plans = [
            _fault_plan(seed, faults, bench.fault_sites)
            for seed in seeds
        ]
        for r, plan in enumerate(plans):
            offset = r * group
            for j, (site, stuck) in enumerate(plan, start=1):
                circuit.force(site, stuck * ALL,
                              lanes=1 << (offset + j))

        sub_mask = (1 << group) - 1
        detect = [0] * len(chunk)
        for phase in phases:
            circuit.step(phase)
            for name in bench.outputs:
                word = circuit.peek(name)
                for r in range(len(chunk)):
                    seg = (word >> (r * group)) & sub_mask
                    golden = seg & 1
                    detect[r] |= seg ^ (golden * sub_mask)

        counts = circuit.counts()
        for r, (params, plan, seed) in enumerate(
                zip(chunk, plans, seeds)):
            offset = r * group
            expected = _expected_readback(kind, phases, offset, width)
            matched = sum(
                1 for name, bit in expected.items()
                if circuit.lane(name, offset) == bit
            )
            readback = matched / max(1, len(expected))
            detected = [
                bool((detect[r] >> j) & 1)
                for j in range(1, group)
            ]
            coverage = (
                sum(detected) / faults if faults else 1.0
            )
            rows: List[Sequence[object]] = [
                [seed, j, site, f"stuck-at-{stuck}",
                 "yes" if hit else "no"]
                for j, ((site, stuck), hit) in enumerate(
                    zip(plan, detected), start=1)
            ]
            checks = [
                Check(
                    "golden-lane readback (replayed stimulus)",
                    readback, 1.0, 0.0,
                ),
                Check(
                    # boolean, not the raw count: the aggregate counter
                    # depends on how many lanes the word happened to
                    # carry, which must not leak into batch-vs-solo
                    # result identity
                    "circuit toggles under stimulus",
                    1.0 if counts["rising_all"] else 0.0,
                    1.0, 0.0, mode="at_least",
                ),
                Check(
                    "fault coverage on output nets",
                    coverage, 0.5, 0.0, mode="at_least",
                ),
            ]
            results.append(ExperimentResult(
                experiment_id="Compiled fault campaign",
                description=(
                    f"{kind} bench ({width} bit), seed {seed}, "
                    f"{vectors} vectors, {faults} stuck-net lanes; "
                    f"coverage {coverage:.0%}"
                ),
                headers=("seed", "lane", "fault site", "model",
                         "detected"),
                rows=rows,
                checks=checks,
            ))
    return results


def build_design(
    tech: Optional[Technology] = None,
    kind: str = "i3",
    width: int = 32,
    **_ignored,
) -> Design:
    """Structural view for ``repro inspect`` (and its compiled stats)."""
    from ..compiled import build_bench

    sim = Simulator()
    bench = build_bench(sim, kind, width)
    # the campaign's scoreboard reads exactly these nets; declaring
    # them keeps static analysis honest about what is observable
    return Design(bench.root, sim, watched=list(bench.outputs))


def _batch(tech: Optional[Technology] = None,
           param_sets: Sequence[Dict[str, object]] = ()
           ) -> List[ExperimentResult]:
    return _run_campaign(list(param_sets))


@scenario(
    "compiled-fault-campaign",
    description=(
        "Monte Carlo stuck-net campaign on the compiled backend: "
        "golden lane + fault lanes share one 64-bit word; sweep seeds "
        "pack into the spare lanes"
    ),
    tags=("compiled", "fault", "extension", "sweep"),
    params=(
        ParamSpec(
            "kind", str, "i3",
            help="compilable bench family",
            choices=("i1", "i2", "i3"),
        ),
        ParamSpec(
            "seed", int, 1,
            help="stimulus seed (the packable sweep axis)",
            sweep=(1, 2, 3, 4, 5, 6, 7, 8),
        ),
        ParamSpec(
            "vectors", int, 24,
            help="stimulus vectors (words driven through the bench)",
        ),
        ParamSpec(
            "faults", int, 3,
            help="stuck-net lanes per seed (0 = golden only)",
            choices=(0, 1, 2, 3, 7, 15),
        ),
        ParamSpec(
            "width", int, 32,
            help="bench data width in bits",
            choices=(8, 16, 32),
        ),
    ),
    fast_params={"vectors": 6, "width": 16},
    design=build_design,
    batch=_batch,
    batch_axis="seed",
    batch_lanes=16,
)
def run(
    tech: Optional[Technology] = None,
    kind: str = "i3",
    seed: int = 1,
    vectors: int = 24,
    faults: int = 3,
    width: int = 32,
) -> ExperimentResult:
    return _run_campaign([{
        "kind": kind, "seed": seed, "vectors": vectors,
        "faults": faults, "width": width,
    }])[0]
