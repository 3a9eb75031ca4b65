"""Child interpreters that tests start (`python -m tdpairs.cli`) import
the package from this checkout's src/, as the tests themselves do through
the `pythonpath` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
