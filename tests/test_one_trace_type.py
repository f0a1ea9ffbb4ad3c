"""``src/`` holds one trace type: :class:`CompiledTrace`.

Object records (``BlockRecord``) and the entry points that took them
live only in the tests (``tests/workloads/records.py``); no ``repro``
module may bring them back as a second way in.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.frontend.engine import FrontEndSimulator
from repro.workloads.compiled import CompiledTrace

#: Names of the record API that no ``repro`` module may expose.
RECORD_API = ("BlockRecord", "simulate", "compile_trace", "trace_statistics")

#: Every ``repro`` module but ``repro.__main__``, which runs the CLI
#: when imported.
MODULES = sorted(info.name for info in pkgutil.walk_packages(
    repro.__path__, prefix="repro.") if info.name != "repro.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exposes_no_record_api(name):
    module = importlib.import_module(name)
    assert [api for api in RECORD_API if hasattr(module, api)] == []


def test_compiled_trace_has_no_record_view():
    assert not hasattr(CompiledTrace, "records")
    assert not hasattr(CompiledTrace, "from_records")


def test_simulator_replays_only_compiled_traces():
    assert not hasattr(FrontEndSimulator, "run")
    assert "run_compiled" in vars(FrontEndSimulator)
