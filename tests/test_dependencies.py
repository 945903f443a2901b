"""The package imports nothing beyond the standard library and numpy.

``pyproject.toml`` declares numpy as the only runtime dependency; this
imports every ``repro`` module in a fresh interpreter whose import system
refuses any other top-level module, so an undeclared import fails here.
"""

import os
import subprocess
import sys

import repro

GUARDED_IMPORT = """
import importlib
import pkgutil
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


class RefuseUndeclared:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            raise ImportError(f"{name} is not a declared dependency")
        return None


sys.meta_path.insert(0, RefuseUndeclared())
import repro


def reraise(name):
    raise


names = [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.", onerror=reraise)]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_with_numpy_alone():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run([sys.executable, "-c", GUARDED_IMPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 100
