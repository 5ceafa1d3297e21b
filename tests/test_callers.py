"""``tools/callers.py``: which functions no workflow reaches.

A throwaway package with one plain call, one decorated call, one call
made only in a forked ``multiprocessing`` child (which leaves through
``os._exit``, so no exit hook of the child runs) and one function
nothing calls: the tool must report exactly the last, list the
package's frozen oracles apart, and exit when the unreached count
outside them rises above the ceiling.  The tool's chaos workflow must
inject the fault schedule of CI's chaos-smoke job.
"""

import importlib.util
import multiprocessing
import re
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "callers", REPO / "tools" / "callers.py")
callers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(callers)

PACKAGE = '''\
def tag(fn):
    return fn


def called():
    return 1


@tag
@tag
def decorated_called():
    return 2


def forked_only():
    return 3


def uncalled():
    return 4
'''

WORKFLOW = '''\
import multiprocessing

import toypkg

toypkg.called()
toypkg.decorated_called()
child = multiprocessing.get_context("fork").Process(
    target=toypkg.forked_only)
child.start()
child.join()
assert child.exitcode == 0
'''


@pytest.fixture
def toy(tmp_path):
    package = tmp_path / "src" / "toypkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE)
    script = tmp_path / "workflow.py"
    script.write_text(WORKFLOW)
    return package, script


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_reports_only_the_uncalled_function(toy):
    package, script = toy
    entered = callers.trace(package, [("toy", (str(script),))])
    assert callers.report(package, entered).splitlines() == [
        "toypkg/__init__.py",
        "     19  uncalled  (2 lines)",
        "unreached: 1 of 5 functions, 2 of 12 function lines",
    ]


def test_decorated_function_starts_at_its_first_decorator(toy):
    package, _script = toy
    rows = {name: first for _path, first, name, _n in
            callers.functions(package)}
    assert PACKAGE.splitlines()[rows["decorated_called"] - 1] == "@tag"


def test_failing_workflow_is_named(toy, tmp_path):
    package, _script = toy
    broken = tmp_path / "broken.py"
    broken.write_text(textwrap.dedent("""\
        import sys
        sys.exit(3)
    """))
    with pytest.raises(SystemExit, match="'broken' exited 3"):
        callers.trace(package, [("broken", (str(broken),))])


ORACLE = '''\
def checked():
    return 5


def spare():
    return 6
'''


@pytest.fixture
def entered(toy):
    """The toy workflow's entered code objects; needs fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    package, script = toy
    return callers.trace(package, [("toy", (str(script),))])


def test_oracles_listed_apart_with_their_own_total(toy, entered):
    package, _script = toy
    oracle = package / callers.ORACLES[0]
    oracle.parent.mkdir(parents=True, exist_ok=True)
    oracle.write_text(ORACLE)
    assert callers.report(package, entered).splitlines() == [
        "frozen oracles (the kernels' reference):",
        f"toypkg/{callers.ORACLES[0]}",
        "      1  checked  (2 lines)",
        "      5  spare  (2 lines)",
        "oracles unreached: 2 of 2 functions, 4 of 4 function lines",
        "",
        "toypkg/__init__.py",
        "     19  uncalled  (2 lines)",
        "unreached: 1 of 5 functions, 2 of 12 function lines",
    ]
    # the oracle's unreached functions do not count against the ceiling
    callers.ratchet(package, entered, ceiling=1)


def test_ratchet_exits_above_the_ceiling(toy, entered):
    package, _script = toy
    callers.ratchet(package, entered, ceiling=1)
    with pytest.raises(SystemExit, match="1 functions outside the oracles "
                                         "are unreached, above the "
                                         "ceiling of 0"):
        callers.ratchet(package, entered, ceiling=0)


def test_workflow_env_reaches_only_its_workflow(toy, tmp_path):
    package, _script = toy
    probe = tmp_path / "probe.py"
    probe.write_text(textwrap.dedent("""\
        import os
        import sys
        sys.exit(int(os.environ.get("TOY_EXIT", "0")))
    """))
    with pytest.raises(SystemExit, match="'own env' exited 4"):
        callers.trace(package, [
            ("shared env", (str(probe),)),
            callers.Workflow("own env", (str(probe),), {"TOY_EXIT": "4"}),
        ])
    callers.trace(package, [("shared env", (str(probe),))])


def test_chaos_workflow_runs_the_chaos_smoke_schedule():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert re.findall(r'REPRO_CHAOS: "([^"]*)"', ci) == [callers._CHAOS]
