#!/usr/bin/env python3
"""List the functions in ``src/repro`` that no product workflow calls.

    python tools/callers.py

Runs every workflow in :data:`WORKFLOWS` (each scenario, sweeps with a
store, a resume, the fabric and the lint pre-flight, ``diff``,
``fsck``, ``telemetry``, ``history``, ``inspect``, ``lint --all``,
``bench`` and every example) as a subprocess in one temporary
directory.  A ``sitecustomize`` hook placed first on ``PYTHONPATH``
installs a call hook in every Python process those workflows start:
forked pool workers inherit it, spawned fabric workers load it again.
The hook appends each ``src/repro`` code object the first time the
process enters it, so a process that leaves through ``os._exit`` or a
signal has already recorded what it ran.

An AST walk of ``src/repro`` then lists each function whose code
object was never entered, per file, and one total line.  A function's
code object starts at its first decorator line, so that is the line
compared.  Error and validation paths count as unreached, so the total
is an upper bound on dead code, not a list of it.  Any workflow that
exits non-zero fails the tool, naming the workflow.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
BASELINES = ROOT / "tests" / "baselines"
#: the repo's waivers: the workflows run elsewhere, where the default
#: ``./lint-waivers.toml`` does not exist
WAIVERS = ("--waivers", str(ROOT / "lint-waivers.toml"))

_MESH = ("--param", "mesh_size=2,3", "--set", "cycles=200")
_FAULTS = ("--param", "mesh_size=4", "--param", "injection_rate=0.10",
           "--param", "n_faults=0,3", "--set", "cycles=200")


def _repro(*args: str) -> Tuple[str, ...]:
    return ("-m", "repro", *args)


#: (name, interpreter arguments)
Workflow = Tuple[str, Sequence[str]]

#: run in order in one working directory: later steps read what
#: earlier ones wrote
WORKFLOWS: Tuple[Workflow, ...] = (
    ("list", _repro("list", "--verbose")),
    ("run paper", _repro("run", "--out", "paper")),
    ("run paper --fast", _repro("run", "--fast", "--jobs", "2")),
    ("run ablations", _repro("run", "--tags", "ablation")),
    ("sweep mesh --store", _repro("sweep", "mesh-design-space", *_MESH,
                                  "--jobs", "2", "--out", "mesh",
                                  "--store", "store")),
    ("sweep mesh --resume", _repro("sweep", "mesh-design-space", *_MESH,
                                   "--resume", "mesh")),
    ("sweep mesh --store again", _repro("sweep", "mesh-design-space",
                                        *_MESH, "--out", "mesh-reused",
                                        "--store", "store")),
    ("sweep mesh --workers", _repro("sweep", "mesh-design-space", *_MESH,
                                    "--workers", "2", "--fabric", "fabric",
                                    "--out", "mesh-fabric")),
    ("sweep fault-injection", _repro("sweep", "fault-injection", *_FAULTS,
                                     "--jobs", "2", "--out", "faults")),
    ("sweep gals-mesh", _repro("sweep", "gals-mesh", *_MESH,
                               "--out", "gals")),
    ("sweep traffic-hotspot", _repro("sweep", "traffic-hotspot", *_MESH,
                                     "--out", "hotspot")),
    ("sweep traffic-transpose", _repro("sweep", "traffic-transpose", *_MESH,
                                       "--out", "transpose")),
    ("sweep traffic-bit-complement", _repro(
        "sweep", "traffic-bit-complement", *_MESH, "--out", "complement")),
    ("sweep --lint --progress", _repro(
        "sweep", "compiled-fault-campaign", "--lint", "--fast",
        "--progress", "--out", "campaign")),
    ("sweep sweep-noop --workers", _repro(
        "sweep", "sweep-noop", "--param", "point=0,1,2,3",
        "--workers", "2", "--out", "noop")),
    ("diff", _repro("diff", str(BASELINES / "mesh-design-space"), "mesh")),
    ("fsck", _repro("fsck", "fabric")),
    ("fsck --dry-run", _repro("fsck", "mesh", "--dry-run")),
    ("fsck store", _repro("fsck", "store", "--dry-run")),
    ("telemetry", _repro("telemetry", "campaign")),
    ("telemetry --json", _repro("telemetry", "campaign", "--json", "-")),
    ("telemetry fabric", _repro("telemetry", "fabric")),
    ("telemetry paper", _repro("telemetry", "paper")),
    ("telemetry journal --csv", _repro("telemetry", "mesh/journal.jsonl",
                                       "--csv", "-")),
    ("history", _repro("history", "store")),
    ("inspect --tree", _repro("inspect", "gals-mesh", "--tree")),
    ("inspect", _repro("inspect", "throughput")),
    ("inspect --compiled", _repro("inspect", "compiled-fault-campaign",
                                  "--compiled", "--fast")),
    ("lint --all", _repro("lint", "--all", *WAIVERS,
                          "--fail-on", "warning")),
    ("lint --all --format sarif", _repro("lint", "--all", *WAIVERS,
                                         "--format", "sarif")),
    # --json, no --check: a timing ratio is not what this tool measures
    ("bench", _repro("bench", "--suite", "all", "--fast",
                     "--json", "bench.json")),
) + tuple(
    (f"example {path.name}", (str(path),))
    for path in sorted(EXAMPLES.glob("*.py"))
)

#: environment of every workflow on top of ours: the examples' CI size
EXTRA_ENV = {"REPRO_EXAMPLES_FAST": "1"}

_HOOK = '''\
import os
import sys
import threading

_ROOT = {root!r}
_FD = os.open({log!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = set()


def _enter(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_ROOT):
            os.write(_FD, ("%s:%d\\n" % (code.co_filename,
                                         code.co_firstlineno)).encode())


threading.settrace(_enter)
sys.settrace(_enter)
'''


def trace(package: Path,
          workflows: Sequence[Workflow]) -> Set[Tuple[str, int]]:
    """Run ``workflows`` under the call hook; return the ``(file,
    first line)`` of every code object under ``package`` they entered.

    ``package``'s parent directory goes on ``PYTHONPATH`` behind the
    hook.  Exits, naming the workflow, on the first non-zero exit.
    """
    package = package.resolve()
    with tempfile.TemporaryDirectory(prefix="callers-") as tmp:
        work = Path(tmp)
        hook_dir = work / "hook"
        hook_dir.mkdir()
        log = work / "calls.log"
        (hook_dir / "sitecustomize.py").write_text(_HOOK.format(
            root=str(package) + os.sep, log=str(log)))
        env = dict(os.environ, **EXTRA_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(package.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        run_dir = work / "run"
        run_dir.mkdir()
        for name, args in workflows:
            done = subprocess.run(
                [sys.executable, *args], cwd=run_dir, env=env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )
            if done.returncode != 0:
                sys.exit(f"callers: workflow {name!r} exited "
                         f"{done.returncode}:\n{done.stdout[-4000:]}")
        entered = set()
        if log.exists():
            for line in log.read_text().splitlines():
                path, _, lineno = line.rpartition(":")
                entered.add((path, int(lineno)))
    return entered


def functions(package: Path) -> List[Tuple[str, int, str, int]]:
    """``(file, first line, qualified name, line count)`` of every
    function and method under ``package``, the first line being the
    first decorator's."""
    found = []

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((path, first, name,
                              child.end_lineno - first + 1))
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(package.resolve().rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def report(package: Path, entered: Iterable[Tuple[str, int]]) -> str:
    """Unreached functions per file, then one total line."""
    everything = functions(package)
    entered = set(entered)
    missed = [row for row in everything if row[:2] not in entered]
    base = package.resolve().parent
    lines = []
    current = None
    for path, first, name, length in missed:
        if path != current:
            current = path
            lines.append(str(Path(path).relative_to(base)))
        lines.append(f"  {first:5d}  {name}  ({length} lines)")
    lines.append(
        f"unreached: {len(missed)} of {len(everything)} functions, "
        f"{sum(row[3] for row in missed)} of "
        f"{sum(row[3] for row in everything)} function lines")
    return "\n".join(lines)


def main() -> None:
    print(report(PACKAGE, trace(PACKAGE, WORKFLOWS)))


if __name__ == "__main__":
    main()
