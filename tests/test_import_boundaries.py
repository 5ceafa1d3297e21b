"""Import boundaries of the ``python -m repro`` subcommands.

``run`` and ``list`` are the commands people start most, and a cold
start pays for every module they import.  Modules that only other
subcommands need (the compiled backend, lint, telemetry analysis, tree
diffing, the bench) must stay out of them, and the package has no
third-party runtime dependency at all.  Neither may they load the
standard-library modules that only the process pool, digests and
failure reports use.  Each check runs in a fresh interpreter, since this
test process has long imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: modules ``run`` and ``list`` must never load
OPTIONAL = (
    "networkx",
    "repro.bench",
    "repro.compiled",
    "repro.lint",
    "repro.obs.analyze",
    "repro.store.diff",
)

#: standard-library modules imported where they are used: the pool
#: (``multiprocessing``), store keys and slugs (``hashlib``) and a
#: failing scenario (``traceback``); a paper run needs none of them
DEFERRED = ("hashlib", "multiprocessing", "traceback")

PROBE = """
import contextlib, io, json, sys
{prelude}
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps({{
    "code": code,
    "loaded": sorted(m for m in {watch!r} if m in sys.modules),
}}))
"""


def _python(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _probe(argv, prelude="", watch=OPTIONAL):
    return _python(PROBE.format(prelude=prelude, argv=argv, watch=watch))


@pytest.mark.parametrize("argv", [
    ["run", "--fast"],
    ["list"],
], ids=["run", "list"])
def test_subcommand_loads_no_optional_module(argv):
    result = _probe(argv)
    assert result["code"] == 0
    assert result["loaded"] == []


@pytest.mark.parametrize("argv", [
    ["run", "--fast"],
    ["list"],
], ids=["run", "list"])
def test_subcommand_loads_no_deferred_stdlib_module(argv):
    # a site hook may load one of them before repro does; skip those
    bare = set(_python("import json, sys; "
                       "print(json.dumps(list(sys.modules)))"))
    result = _probe(argv, watch=DEFERRED)
    assert result["code"] == 0
    assert [m for m in result["loaded"] if m not in bare] == []


def test_run_works_with_networkx_blocked():
    # a None entry makes ``import networkx`` raise ImportError
    result = _probe(["run", "--fast"],
                    prelude="sys.modules['networkx'] = None")
    assert result["code"] == 0
