"""The end-to-end benchmark's span hook still finds what it wraps.

``perfbench/hook/sitecustomize.py`` wraps the functions and methods
named in its ``PATCHES`` table as their modules load.  It skips a
module that no longer exists, but an attribute missing from a module
that does exist raises inside the import, and the traced benchmark
run exits with an ``AttributeError``.  This test resolves every
listed attribute of every listed module that imports, so a rename or
deletion in ``src/repro`` fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

HOOK = (Path(__file__).resolve().parent.parent
        / "perfbench" / "hook" / "sitecustomize.py")


@pytest.fixture(scope="module")
def hook():
    """The hook module, loaded inert: with no trace directory it
    installs no import hook and no exit handler."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("PERFBENCH_TRACE_DIR", raising=False)
        spec = importlib.util.spec_from_file_location(
            "perfbench_hook_under_test", HOOK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    assert module._DIR is None
    return module


def _importable(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError as exc:
        if exc.name != name:
            raise  # the module exists but one of its imports is gone
        return None


def test_every_patched_attribute_resolves(hook):
    missing = []
    resolved = 0
    for module_name, patches in hook.PATCHES.items():
        module = _importable(module_name)
        if module is None:
            continue  # the hook skips a module that does not exist
        for attr, _span, _counts in patches:
            if attr == hook._ANALYSIS:
                continue
            owner = module
            try:
                for part in attr.split("."):
                    owner = getattr(owner, part)
            except AttributeError:
                missing.append(f"{module_name}.{attr}")
                continue
            assert callable(owner), f"{module_name}.{attr}"
            resolved += 1
    assert not missing, (
        f"perfbench's hook would crash on import: {missing}")
    assert resolved >= 20
