"""``tools/callers.py``: which functions no workflow reaches.

A throwaway package with one plain call, one decorated call, one call
made only in a forked ``multiprocessing`` child (which leaves through
``os._exit``, so no exit hook of the child runs) and one function
nothing calls: the tool must report exactly the last.
"""

import importlib.util
import multiprocessing
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
