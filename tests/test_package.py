"""The package namespace: every public name resolves, on first access, to its home module's object."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvshare

#: every submodule of the package, read off its files
SUBMODULES = sorted(p.stem for p in Path(cvshare.__file__).parent.glob("*.py")
                    if p.stem != "__init__")


def test_all_has_no_duplicates():
    assert len(cvshare.__all__) == len(set(cvshare.__all__))


@pytest.mark.parametrize("name", cvshare.__all__)
def test_public_name_is_its_home_modules_object(name):
    value = getattr(cvshare, name)
    if name in ("__version__", "backend_name"):
        assert value is vars(cvshare)[name]
        return
    # the module that defines it, which the package's table must name
    home = sys.modules[value.__module__]
    assert home.__name__ == f"cvshare.{cvshare._HOME[name]}"
    assert getattr(home, name) is value


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from cvshare import *", namespace)
    assert set(cvshare.__all__) <= set(namespace)
    for name in cvshare.__all__:
        assert namespace[name] is getattr(cvshare, name)
    assert set(cvshare.__all__) <= set(dir(cvshare))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cvshare, "no_such_name")
    assert not hasattr(cvshare, "no_such_name")


# In a fresh interpreter: the submodules a bare import loads, then each submodule
# reached as an attribute of the package, and the modules loaded once it resolved.
_SUBMODULE_SCRIPT = """
import json, sys
import cvshare

def loaded():
    return sorted(m for m in sys.modules if m.startswith("cvshare."))

report = {"import": loaded(), "resolved": {}}
for name in json.loads(sys.argv[1]):
    module = getattr(cvshare, name)
    report["resolved"][name] = [module.__name__, module is sys.modules["cvshare." + name]]
report["after"] = loaded()
print(json.dumps(report))
"""


def test_submodules_resolve_after_a_bare_import():
    src = str(Path(cvshare.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _SUBMODULE_SCRIPT, json.dumps(SUBMODULES)],
                          env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == []
    assert report["resolved"] == {name: [f"cvshare.{name}", True] for name in SUBMODULES}
    assert report["after"] == [f"cvshare.{name}" for name in SUBMODULES]
