"""Serial and multiprocess scenario execution.

The engine consumes :class:`RunRequest` values — picklable (scenario id,
parameter overrides, fast flag) triples — and produces
:class:`RunOutcome` values in *request order* regardless of worker
count, so ``--jobs 4`` output is byte-identical to a serial run.

Per-scenario isolation: every execution resets the global packet-id
counter and resolves its own technology object, so one scenario's
global state never leaks into the next whether they share a process
(serial mode) or not (worker pool).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..obs.metrics import REGISTRY as _OBS
from ..obs.metrics import snapshot_delta
from . import registry


@dataclass(frozen=True)
class RunRequest:
    """One scenario execution: id + sorted, hashable parameter overrides."""

    scenario_id: str
    params: Tuple[Tuple[str, object], ...] = ()
    fast: bool = False

    @classmethod
    def create(
        cls,
        scenario_id: str,
        params: Optional[Dict[str, object]] = None,
        fast: bool = False,
    ) -> "RunRequest":
        """Build a request, validating/coercing params against the spec."""
        sc = registry.get(scenario_id)
        coerced = {
            name: sc.param(name).coerce(raw)
            for name, raw in (params or {}).items()
        }
        return cls(
            scenario_id=scenario_id,
            params=tuple(sorted(coerced.items())),
            fast=fast,
        )

    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)


@dataclass
class RunOutcome:
    """Result (or captured failure) of one request.

    ``duration_s``/``t_mono``/``metrics`` are observability side-band:
    wall-clock execution time, the monotonic completion stamp, and (when
    the metrics registry is enabled) the kernel counter deltas this
    point caused.  They are volatile — two identical runs disagree on
    them — so the deterministic artifact writer ignores them and the
    journal codec quarantines them behind ``VOLATILE_FIELDS``.
    """

    request: RunRequest
    result: object = None  # ExperimentResult on success
    error: str = ""
    resolved_params: Dict[str, object] = field(default_factory=dict)
    duration_s: Optional[float] = None
    t_mono: Optional[float] = None
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error and getattr(self.result, "all_ok", False)


def _batch_key(request: RunRequest, axis: str) -> Tuple:
    """Grouping identity: everything about the request except the axis."""
    return (
        request.scenario_id,
        request.fast,
        tuple(kv for kv in request.params if kv[0] != axis),
    )


#: one unit of pool work: a solo request or a packed group
WorkItem = Tuple[str, object]


def execute_item(item: WorkItem) -> list[RunOutcome]:
    """Run one planned work item in the current process.

    ``("one", request)`` runs the scenario function once; ``("batch",
    requests)`` hands every request's resolved parameters to the
    scenario's batch hook at once, which may share work across the
    group (the compiled backend maps the requests onto bit-parallel
    lanes; fault-injection simulates the group's healthy reference
    mesh once) and must return one result per request, each identical
    to what a solo run would have produced.  A raising scenario fails
    the whole item: every outcome carries the same traceback.

    Public seam: the fabric worker executes leased items through this
    exact call, so a leased batch group runs its scenario's batch hook
    identically to a local sweep.
    """
    kind, payload = item
    requests = [payload] if kind == "one" else list(payload)
    registry.load_builtin()
    # isolate: global packet ids restart for every item so serial
    # and multiprocess execution observe identical counter state
    from ..noc import reset_packet_ids

    reset_packet_ids()
    before = _OBS.snapshot() if _OBS.enabled else None
    t0 = time.perf_counter()
    try:
        sc = registry.get(requests[0].scenario_id)
        resolved = [
            sc.resolve_params(r.params_dict(), fast=r.fast)
            for r in requests
        ]
        if kind == "one":
            results = [sc.func(tech=None, **resolved[0])]
        else:
            results = sc.batch(
                tech=None, param_sets=[dict(p) for p in resolved]
            )
            if results is None or len(results) != len(requests):
                raise RuntimeError(
                    f"batch hook of {sc.id!r} returned "
                    f"{0 if results is None else len(results)} results "
                    f"for {len(requests)} requests"
                )
        outcomes = [
            RunOutcome(request=r, result=res, resolved_params=p)
            for r, res, p in zip(requests, results, resolved)
        ]
    except Exception:
        import traceback

        error = traceback.format_exc()
        outcomes = [RunOutcome(request=r, error=error) for r in requests]
    # the item executed as one call: members share the wall clock
    # evenly, and the first member carries the whole item's kernel
    # counter delta (splitting it per-lane would invent precision)
    wall = time.perf_counter() - t0
    t_end = time.monotonic()
    for outcome in outcomes:
        outcome.duration_s = wall / len(outcomes)
        outcome.t_mono = t_end
    if before is not None:
        outcomes[0].metrics = snapshot_delta(before, _OBS.snapshot())
    return outcomes


def failed_outcomes(requests: Sequence[RunRequest],
                    error: str) -> list[RunOutcome]:
    """Fabricated failure outcomes for points the *infrastructure*
    abandoned (wall-clock timeout, quarantine after repeated executor
    deaths) rather than a scenario raising.  The error string is the
    structured reason; it must be deterministic for a given cause so
    replayed chaos runs journal identical failures."""
    t_end = time.monotonic()
    return [
        RunOutcome(request=request, error=error,
                   duration_s=0.0, t_mono=t_end)
        for request in requests
    ]


def _execute_indexed(pair: Tuple[int, WorkItem]
                     ) -> Tuple[int, list[RunOutcome]]:
    """Pool shim carrying each item's plan position through
    ``imap_unordered`` (top-level: picklable)."""
    index, item = pair
    return index, execute_item(item)


def plan_items(requests: Sequence[RunRequest]) -> list[WorkItem]:
    """Pack contiguous batchable requests into groups.

    Only *adjacent* requests sharing everything but the batch axis are
    grouped (capped at the scenario's ``batch_lanes``), which keeps
    outcome streaming strictly in request order — a group completes as
    a block exactly where its members sat in the sequence.
    """
    items: list[WorkItem] = []
    i = 0
    while i < len(requests):
        request = requests[i]
        sc = registry.get(request.scenario_id)
        if not sc.has_batch:
            items.append(("one", request))
            i += 1
            continue
        key = _batch_key(request, sc.batch_axis)
        group = [request]
        j = i + 1
        while (
            j < len(requests)
            and len(group) < sc.batch_lanes
            and requests[j].scenario_id == request.scenario_id
            and _batch_key(requests[j], sc.batch_axis) == key
        ):
            group.append(requests[j])
            j += 1
        if len(group) > 1:
            items.append(("batch", group))
        else:
            items.append(("one", request))
        i = j
    return items


def _request_cost(request: RunRequest) -> float:
    """The scenario's work estimate of one request: 0 without a
    ``cost`` hook, for a value not > 0, and when the lookup, parameter
    resolution or the hook raises (the point then fails in its own
    outcome when it runs)."""
    try:
        sc = registry.get(request.scenario_id)
        if sc.cost is None:
            return 0.0
        value = float(sc.cost(
            sc.resolve_params(request.params_dict(), fast=request.fast)
        ))
    except Exception:
        return 0.0
    return value if value > 0 else 0.0


def dispatch_order(items: Sequence[WorkItem]) -> list[int]:
    """Plan positions of ``items``, costliest first.

    An item's cost is the sum of its members' estimates.  Starting the
    longest items first (LPT list scheduling) keeps the last item from
    running alone while the other workers idle.  The sort is stable, so
    ties, and items of scenarios without a ``cost`` hook, keep their
    grid order.
    """
    costs = []
    for kind, payload in items:
        members = [payload] if kind == "one" else payload
        costs.append(sum(_request_cost(r) for r in members))
    return sorted(range(len(items)), key=lambda i: -costs[i])


def _pool_context():
    # fork (where available) spares workers the re-import of the whole
    # package and keeps sys.path handling out of the picture; the pool
    # is the only user of multiprocessing, so start-up never loads it
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def execute(
    requests: Sequence[RunRequest],
    jobs: int = 1,
    on_outcome: Optional[Callable[[RunOutcome], None]] = None,
) -> list[RunOutcome]:
    """Execute ``requests``; the returned list is in request order.

    ``jobs > 1`` fans work out over a process pool.  Scenario failures
    are captured per-outcome (``error``), never raised, so one broken
    point cannot sink a sweep.

    ``on_outcome`` is invoked in the parent process for each outcome
    *as it completes* — in completion order, not request order, when
    ``jobs > 1``.  The pool streams via ``imap_unordered`` so one slow
    point never head-of-line-blocks the journal flushes and progress
    display behind it; a reorder buffer reassembles the returned list
    in request order regardless.  Callers that persist incrementally
    (the journal) tolerate any completion order and normalize to
    canonical grid order when the sweep finishes, which keeps the
    final artifacts byte-identical to a serial run.

    Scenarios exposing a ``batch`` hook get adjacent requests that
    differ only in the batch axis packed into one call (up to
    ``batch_lanes`` per group); results unpack per-request, so stores
    and journals see exactly the outcomes a solo sweep would produce.

    Dispatch order: ``jobs == 1`` runs the items in grid order.  The
    pool is fed in :func:`dispatch_order`, costliest item first by the
    scenarios' ``cost`` estimates (grid order among ties and for
    scenarios without one); only the order work starts in changes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    requests = list(requests)
    # validate ids up front so a typo fails fast, not in a worker
    for request in requests:
        registry.get(request.scenario_id)
    items = plan_items(requests)
    if jobs == 1 or len(items) < 2:
        outcomes: list[RunOutcome] = []
        for item in items:
            for outcome in execute_item(item):
                if on_outcome is not None:
                    on_outcome(outcome)
                outcomes.append(outcome)
        return outcomes
    ctx = _pool_context()
    ordered: list[Optional[list[RunOutcome]]] = [None] * len(items)
    with ctx.Pool(processes=min(jobs, len(items))) as pool:
        for index, group in pool.imap_unordered(
            _execute_indexed,
            [(i, items[i]) for i in dispatch_order(items)],
        ):
            ordered[index] = group
            for outcome in group:
                if on_outcome is not None:
                    on_outcome(outcome)
    return [
        outcome
        for group in ordered
        if group is not None
        for outcome in group
    ]
