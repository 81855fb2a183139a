"""Shared test setup.

Child interpreters started by the tests import the same altproj as the tests
do.  The glued construction at the stated budgets is built once per session.
"""

import os
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import altproj
from altproj import divergence

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(altproj.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


class StatedBuild(NamedTuple):
    construction: divergence.GluedConstruction
    seconds: float


@pytest.fixture(scope="session")
def stated_build():
    """``glue(2, [1/32, 1/64], seed=0)`` with its own build time in seconds.

    Acceptance criteria 12 and 13 and the stated-budget tests read this one
    object; the rebuild test and the CLI test still build their own.
    """
    started = time.monotonic()
    try:
        construction = divergence.glue(2, [1 / 32, 1 / 64], seed=0)
    except divergence.ExponentCapExceeded as exc:
        pytest.fail(f"construction not realizable at desk scale: {exc}")
    return StatedBuild(construction, time.monotonic() - started)
