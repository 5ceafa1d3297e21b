#!/usr/bin/env python3
"""List the functions in ``src/repro`` that no product workflow calls.

    python tools/callers.py

Runs every workflow in :data:`WORKFLOWS` (each scenario, solo runs of
the batched scenarios, sweeps with a store, a resume, the fabric, a
chaos-injected fabric and the lint pre-flight, ``diff``, ``fsck``,
``telemetry``, ``history``, ``inspect``, ``lint --all``, ``bench``
with and without ``--check`` and every example) as a subprocess in one
temporary directory.  A ``sitecustomize`` hook placed first on
``PYTHONPATH`` installs a call hook in every Python process those
workflows start: forked pool workers inherit it, spawned fabric workers
load it again.  The hook appends each ``src/repro`` code object the
first time the process enters it, so a process that leaves through
``os._exit`` or a signal has already recorded what it ran.

An AST walk of ``src/repro`` then lists each function whose code
object was never entered, per file, and one total line.  The frozen
oracles (:data:`ORACLES`) are listed first in a section of their own
with their own total: they are the reference the kernels are checked
against, not product code.  A function's code object starts at its
first decorator line, so that is the line compared.  Error and
validation paths count as unreached, so the total is an upper bound on
dead code, not a list of it.

Any workflow that exits non-zero fails the tool, naming the workflow.
So does an unreached count outside the oracles above :data:`CEILING`:
the count may only fall, and a change that lowers it lowers the
ceiling with it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
BASELINES = ROOT / "tests" / "baselines"
#: the repo's waivers: the workflows run elsewhere, where the default
#: ``./lint-waivers.toml`` does not exist
WAIVERS = ("--waivers", str(ROOT / "lint-waivers.toml"))

#: the frozen differential-testing oracles, relative to the package
ORACLES = ("sim/reference.py", "noc/reference.py")
#: the most functions outside :data:`ORACLES` the workflows may leave
#: unreached
CEILING = 90

_MESH = ("--param", "mesh_size=2,3", "--set", "cycles=200")
_FAULTS = ("--param", "mesh_size=4", "--param", "injection_rate=0.10",
           "--param", "n_faults=0,3", "--set", "cycles=200")


def _repro(*args: str) -> Tuple[str, ...]:
    return ("-m", "repro", *args)


#: the fault schedule of CI's chaos-smoke job (``tests/test_callers.py``
#: holds the two equal): every worker incarnation dies mid-item, claims
#: lose races, journal appends tear
_CHAOS = ("7:worker.item=die#2,transport.claim=race@0.2,"
          "journal.append=corrupt#3")


class Workflow(NamedTuple):
    name: str
    #: interpreter arguments
    args: Sequence[str]
    #: environment of this workflow alone, on top of :data:`EXTRA_ENV`
    env: Mapping[str, str] = {}


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
    # as CI's chaos-smoke: REPRO_CHAOS reaches the workers, and takeovers
    # re-execute instead of quarantining
    ("sweep sweep-noop --workers under chaos", _repro(
        "sweep", "sweep-noop", "--param",
        "point=" + ",".join(map(str, range(40))), "--workers", "2",
        "--fabric", "chaos-fabric", "--lease-ttl", "2",
        "--quarantine-after", "9", "--out", "chaos"),
     {"REPRO_CHAOS": _CHAOS}),
    # the batched scenarios' own run, outside a batch
    ("run fault-injection", _repro("run", "fault-injection")),
    ("run compiled-fault-campaign", _repro("run",
                                           "compiled-fault-campaign")),
    ("run sweep-noop", _repro("run", "sweep-noop")),
    ("diff", _repro("diff", str(BASELINES / "mesh-design-space"), "mesh")),
    ("fsck", _repro("fsck", "fabric")),
    ("fsck chaos-fabric", _repro("fsck", "chaos-fabric")),
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
    ("bench", _repro("bench", "--suite", "all", "--fast",
                     "--json", "bench.json")),
    # bench's regression gate, on the sweep rows, against the bench
    # above: same interpreter and same call hook, and a tolerance that
    # only a collapse trips, so the gate's outcome does not hang on
    # the host's timing (the row's fixed floor still applies)
    ("bench --check", _repro("bench", "--suite", "sweep", "--fast",
                             "--check", "bench.json",
                             "--tolerance", "0.9")),
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
        for name, args, own in (Workflow(*w) for w in workflows):
            done = subprocess.run(
                [sys.executable, *args], cwd=run_dir, env=dict(env, **own),
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


#: a function: (file, first line, qualified name, line count)
Row = Tuple[str, int, str, int]


def functions(package: Path) -> List[Row]:
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


def unreached(package: Path, entered: Iterable[Tuple[str, int]]
              ) -> Tuple[List[Row], List[Row], List[Row], List[Row]]:
    """Every function of ``package`` outside :data:`ORACLES`, the
    unreached ones among them, then the same two lists for the
    oracles."""
    package = package.resolve()
    oracle_files = {str(package / name) for name in ORACLES}
    entered = set(entered)
    product: List[Row] = []
    oracles: List[Row] = []
    for row in functions(package):
        (oracles if row[0] in oracle_files else product).append(row)
    return (product, [row for row in product if row[:2] not in entered],
            oracles, [row for row in oracles if row[:2] not in entered])


def _listing(package: Path, label: str, everything: Sequence[Row],
             missed: Sequence[Row]) -> List[str]:
    """``missed`` per file, then one total line against ``everything``."""
    base = package.resolve().parent
    lines = []
    current = None
    for path, first, name, length in missed:
        if path != current:
            current = path
            lines.append(str(Path(path).relative_to(base)))
        lines.append(f"  {first:5d}  {name}  ({length} lines)")
    lines.append(
        f"{label}: {len(missed)} of {len(everything)} functions, "
        f"{sum(row[3] for row in missed)} of "
        f"{sum(row[3] for row in everything)} function lines")
    return lines


def report(package: Path, entered: Iterable[Tuple[str, int]]) -> str:
    """The frozen oracles' unreached functions and their total, if the
    package has oracles, then every other unreached function per file
    and one total line."""
    product, missed, oracles, oracles_missed = unreached(package, entered)
    lines = []
    if oracles:
        lines += ["frozen oracles (the kernels' reference):"]
        lines += _listing(package, "oracles unreached", oracles,
                          oracles_missed)
        lines.append("")
    lines += _listing(package, "unreached", product, missed)
    return "\n".join(lines)


def ratchet(package: Path, entered: Iterable[Tuple[str, int]],
            ceiling: int) -> None:
    """Exit 1 if more than ``ceiling`` functions outside the oracles
    are unreached."""
    count = len(unreached(package, entered)[1])
    if count > ceiling:
        sys.exit(f"callers: {count} functions outside the oracles are "
                 f"unreached, above the ceiling of {ceiling}; give each "
                 f"new one a product caller or delete it")


def main() -> None:
    entered = trace(PACKAGE, WORKFLOWS)
    print(report(PACKAGE, entered))
    ratchet(PACKAGE, entered, CEILING)


if __name__ == "__main__":
    main()
