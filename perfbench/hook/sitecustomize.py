"""Span recorder loaded into traced ``python -m repro`` processes.

``perfbench/run.py`` puts this directory on ``PYTHONPATH`` and sets
``PERFBENCH_TRACE_DIR`` for its traced invocations only.  Python imports
``sitecustomize`` at start-up, so every process of the traced tree
loads it: the CLI, its forked pool children (which inherit it) and
spawned fabric workers (which inherit the environment).

Nothing in ``repro`` changes.  An import hook wraps the public
functions and methods listed in ``PATCHES`` right after their module
executes, before any importer binds them, and each wrapped call
records a span: name, start, end (``time.monotonic``, one clock for
every process), parent span and a few exact counts read from the
object.  A process appends its spans to ``<dir>/<pid>.jsonl``: the CLI
when it exits; pool children and fabric workers after every top-level
call (inside ``run_worker`` for a worker), because the pool and the
coordinator terminate them without running ``atexit``.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

_T_START = time.monotonic()
_lock = threading.Lock()
_local = threading.local()
_ids = itertools.count(1)
_spans: list = []
_aggs: dict = {}
_state = {"pid": os.getpid(), "ppid": os.getppid(),
          "role": "worker" if sys.argv[1:2] == ["worker"] else "cli",
          "t_start": _T_START}


#: stack depth at or below which a finished span is written out at once
#: (a worker's whole loop runs inside the ``fabric.worker`` span)
_FLUSH_DEPTH = {"pool": 0, "worker": 1}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _flush() -> None:
    with _lock:
        lines = [json.dumps(dict(_state, k="proc"))]
        lines += [json.dumps(rec) for rec in _spans]
        lines += [json.dumps({"k": "agg", "n": name, "count": c, "s": s})
                  for name, (c, s) in _aggs.items()]
        _spans.clear()
        path = os.path.join(_DIR, f"{_state['pid']}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _after_fork() -> None:
    # a pool child starts with a copy of the parent's buffers
    _spans.clear()
    _aggs.clear()
    _local.stack = []
    _state.update(pid=os.getpid(), ppid=os.getppid(), role="pool",
                  t_start=time.monotonic())


# -- count readers: (before(args) -> token, after(args, result, token)) --

def _noc_before(args):
    net = args[0]
    return net.cycle, net.stats.flits_ejected


def _noc_after(args, result, token):
    net = args[0]
    return {"cycles": net.cycle - token[0],
            "flits": net.stats.flits_ejected - token[1]}


def _sim_before(args):
    return args[0].events_executed


def _sim_after(args, result, token):
    return {"events": args[0].events_executed - token}


def _points(args, result, token):
    # the fabric may execute an item twice; its key lets a reader
    # count every item's simulated work once
    result = result or []
    return {"points": len(result), "key": repr(args[0][1]),
            "dur": sum(o.duration_s or 0.0 for o in result)}


def _items(args, result, token):
    return {"items": len(result or [])}


def _claim(args, result, token):
    return {"ok": result is not None}


def _publish(args, result, token):
    return {"fresh": bool(result)}


def _wrap(fn, name, counts=None, group=None):
    """Span-recording wrapper.  A span is *outer* unless a span of the
    same ``group`` (default: its name) is open in this thread; calls in
    an explicit group record outer spans only."""
    key = group or name
    before, after = counts or (None, None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _stack()
        outer = all(entry[1] != key for entry in stack)
        if group and not outer:
            return fn(*args, **kwargs)
        token = before(args) if before else None
        sid = next(_ids)
        parent = stack[-1][0] if stack else None
        stack.append((sid, key))
        result = None
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.monotonic()
            stack.pop()
            rec = {"k": "span", "n": name, "id": sid, "p": parent,
                   "t0": t0, "t1": t1, "o": outer}
            if after is not None:
                rec["a"] = after(args, result, token)
            _spans.append(rec)
            if len(stack) <= _FLUSH_DEPTH.get(_state["role"], -1):
                _flush()

    return traced


def _aggregate(fn, name):
    """Cheap wrapper for per-cycle calls: a count and a time, no span."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            count, total = _aggs.get(name, (0, 0.0))
            _aggs[name] = (count + 1, total + time.monotonic() - t0)

    return timed


_ANALYSIS = "*analysis"

#: module -> [(attribute path, span name, count readers or "agg" for a
#: per-call aggregate without spans)]; ``_ANALYSIS`` wraps every public
#: function of the module
PATCHES = {
    "repro.runner.registry": [("load_builtin", "setup.registry", None)],
    "repro.runner.engine": [
        ("execute", "runner.execute", None),
        ("execute_item", "runner.execute_item", (None, _points)),
        ("plan_items", "runner.plan_items", (None, _items)),
    ],
    "repro.runner.artifacts": [
        ("write_artifacts", "runner.artifacts", None)],
    "repro.noc.network": [
        ("Network.__init__", "noc.build", None),
        ("Network.run", "noc.run", (_noc_before, _noc_after)),
        ("Network.drain", "noc.drain", (_noc_before, _noc_after)),
    ],
    "repro.noc.traffic": [
        ("TrafficGenerator.packets_for_cycle", "noc.traffic", "agg")],
    "repro.sim.kernel": [
        ("Simulator.run", "sim.run", (_sim_before, _sim_after)),
        ("Simulator.run_ns", "sim.run", (_sim_before, _sim_after)),
    ],
    "repro.link.testbench": [
        ("LinkTestbench.__init__", "link.testbench_build", None),
        ("LinkTestbench.run", "link.testbench_run", None),
    ],
    "repro.design.mesh": [("MeshDesign.__init__", "design.mesh_build", None)],
    "repro.analysis.power": [(_ANALYSIS, "analysis", None)],
    "repro.analysis.area": [(_ANALYSIS, "analysis", None)],
    "repro.analysis.wires": [(_ANALYSIS, "analysis", None)],
    "repro.analysis.timing": [(_ANALYSIS, "analysis", None)],
    "repro.analysis.cost": [(_ANALYSIS, "analysis", None)],
    "repro.store.journal": [
        ("Journal.append", "store.journal_append", None),
        ("Journal.rewrite", "store.journal_rewrite", None),
    ],
    "repro.store.store": [("RunStore.put", "store.put", None)],
    "repro.obs.telemetry": [
        ("TelemetryWriter.start", "obs.telemetry", None),
        ("TelemetryWriter.append_point", "obs.telemetry", None),
        ("TelemetryWriter.finish", "obs.telemetry", None),
    ],
    "repro.fabric.transport": [
        ("FileTransport.try_claim", "fabric.claim", (None, _claim)),
        ("FileTransport.publish_result", "fabric.publish", (None, _publish)),
    ],
    "repro.fabric.coordinator": [
        ("run_fabric_sweep", "fabric.sweep", None)],
    "repro.fabric.worker": [("run_worker", "fabric.worker", None)],
}


def _patch(module) -> None:
    for attr, name, counts in PATCHES[module.__name__]:
        if attr == _ANALYSIS:
            for key, value in list(vars(module).items()):
                if (callable(value) and not isinstance(value, type)
                        and not key.startswith("_")
                        and getattr(value, "__module__", None)
                        == module.__name__):
                    setattr(module, key, _wrap(value, f"{name}.{key}",
                                               group=name))
            continue
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        fn = getattr(owner, fn_name)
        wrapped = (_aggregate(fn, name) if counts == "agg"
                   else _wrap(fn, name, counts))
        setattr(owner, fn_name, wrapped)


class _PatchingLoader(importlib.abc.Loader):
    """Delegates to the real loader, then patches the fresh module."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module) -> None:
        self._inner.exec_module(module)
        _patch(module)


class _PatchFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        if fullname not in PATCHES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None and spec.loader is not None:
                spec.loader = _PatchingLoader(spec.loader)
                return spec
        return None


if _DIR:
    sys.meta_path.insert(0, _PatchFinder())
    os.register_at_fork(after_in_child=_after_fork)
    atexit.register(_flush)
