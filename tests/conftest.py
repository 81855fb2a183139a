"""Child interpreters started by the tests import the same altproj as the tests do."""

import os
from pathlib import Path

import altproj

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(altproj.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
