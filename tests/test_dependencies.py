"""numpy is the package's only runtime dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: the test session itself has hypothesis and pytest loaded.
# What the interpreter loaded before the package (site hooks included) is not counted.
PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import importlib, json, pkgutil
import contactformer
for info in pkgutil.iter_modules(contactformer.__path__):
    importlib.import_module(f"contactformer.{info.name}")
loaded = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(loaded - before)))
"""


def test_importing_every_module_loads_only_numpy_and_the_standard_library():
    out = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         check=True, capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "contactformer" in loaded and "numpy" in loaded
    # dunder aliases: concurrent.futures' process pool registers __mp_main__
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names and name not in ("numpy", "contactformer")
               and not (name.startswith("__") and name.endswith("__"))]
    assert foreign == []
