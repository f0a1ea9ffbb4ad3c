"""Golden attribution artifacts and event-trace dumps, and a checker.

Attribution and the event trace are rendered from per-record outcome
rows after a run, on whichever engine ran the cell.  The digests below
pin what they must render, byte for byte:

* ``json.dumps(artifact, sort_keys=True)`` of the attribution artifact
  the harness stores for the voter and kafka cells at smoke scale, for
  the base, skia, skia-head, skia-tail and AirBTB configs (event counts
  and float resteer-cycle sums included);
* the :meth:`~repro.obs.trace.EventTrace.to_jsonl` dump (header plus the
  retained ring) of an event trace attached to one Skia cell and one
  comparator cell of voter at smoke scale.

The digests were taken on the code from before the rendering moved
after the run, when attribution rode on live event emission in the
per-record oracle.

``test_attribution_golden.py`` checks the table under pytest.  The
module also runs directly::

    PYTHONPATH=src python tests/harness/attribution_golden.py

It recomputes every digest and exits non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.frontend.batch import run_compiled_batched
from repro.frontend.config import FrontEndConfig, SkiaConfig
from repro.frontend.engine import FrontEndSimulator
from repro.harness.runner import ExperimentRunner
from repro.harness.scale import SCALES
from repro.obs import EventTrace
from repro.workloads.cache import WorkloadCache

SCALE = SCALES["smoke"]
WORKLOADS = ("voter", "kafka")

CONFIGS: dict[str, FrontEndConfig] = {
    "base": FrontEndConfig(),
    "skia": FrontEndConfig(skia=SkiaConfig()),
    "skia-head": FrontEndConfig(skia=SkiaConfig(decode_tails=False)),
    "skia-tail": FrontEndConfig(skia=SkiaConfig(decode_heads=False)),
    "airbtb": FrontEndConfig().with_comparator("airbtb"),
}

#: The cells whose event-trace dump is pinned: (workload, config label).
TRACE_CELLS = (("voter", "skia"), ("voter", "airbtb"))

#: Per ``workload/config``: SHA-256 of the sorted-key JSON artifact.
GOLDEN_ARTIFACTS: dict[str, str] = {
    "voter/base":
        "1cbf9d0530f454c272bedb5bfd16106200575bc5d528bc20e83a5e3a03146f9f",
    "voter/skia":
        "3db8670ad5ff86b74784b85ab7fd8849a940d4905e112a71e573dcf1003144c2",
    "voter/skia-head":
        "2f18569287d9009d1ac777d0b1625d7b5513502b5830c65c58900cde94cc3ad3",
    "voter/skia-tail":
        "791ccad4df91504d37ce33034cac12bae64034dfb3d790cddb8cee217fb91a6e",
    "voter/airbtb":
        "f06cedf01873a2d9da240a163e1b24f902892b649b4cb6b9009f5a7215e48f21",
    "kafka/base":
        "93d8e223961deac374aa8e305dcee064162e68f8e2a97c07fddc711b8d5a4987",
    "kafka/skia":
        "303ee9a7363f907d26114f277666f39e31f484d7a4930108e93ccd3adf00b208",
    "kafka/skia-head":
        "6d71aba02c42350be302144988842f588e36334ae800a49bea8f8e56f0bdbe5b",
    "kafka/skia-tail":
        "bbdb0afe9f1b761b8097202c4b807e435da0321308d3456e2d167c75325e84ba",
    "kafka/airbtb":
        "57eec1805ccf910f87cc25e206b433aa295ce5df96bdd98569fd20af06aea78e",
}

#: Per ``workload/config``: SHA-256 of the JSONL event dump.
GOLDEN_TRACES: dict[str, str] = {
    "voter/skia":
        "51daf119de242544c0a0647443f305822ef0a9c3a3ecc24dd875372ac61235f7",
    "voter/airbtb":
        "f05e56c3ffde2e1c87734a7c8aa7309503582caca749892499b29bf414db31ad",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_digests() -> dict[str, str]:
    """Digest of every pinned attribution artifact, by ``workload/config``."""
    runner = ExperimentRunner(scale=SCALE, cache=WorkloadCache(), store=None,
                              record_attribution=True)
    out = {}
    for workload in WORKLOADS:
        for label, config in CONFIGS.items():
            runner.run(workload, config)
            artifact = runner.attribution_for(workload, config)
            out[f"{workload}/{label}"] = _sha(
                json.dumps(artifact, sort_keys=True).encode())
    return out


def trace_digests() -> dict[str, str]:
    """Digest of every pinned event-trace dump, by ``workload/config``."""
    cache = WorkloadCache()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, label in TRACE_CELLS:
            program = cache.program(workload, seed=0)
            compiled = cache.compiled(workload, SCALE.records, seed=0)
            simulator = FrontEndSimulator(program, CONFIGS[label], seed=0)
            trace = EventTrace()
            simulator.attach_trace(trace)
            run_compiled_batched(simulator, compiled, warmup=SCALE.warmup)
            path = trace.to_jsonl(Path(tmp) / "trace.jsonl")
            out[f"{workload}/{label}"] = _sha(path.read_bytes())
    return out


def mismatches() -> list[str]:
    """Every digest that differs from its golden value."""
    checks = [(f"{name} artifact", got, GOLDEN_ARTIFACTS.get(name))
              for name, got in artifact_digests().items()]
    checks += [(f"{name} trace", got, GOLDEN_TRACES.get(name))
               for name, got in trace_digests().items()]
    return [f"{label}: {got}" for label, got, want in checks if got != want]


def main() -> int:
    failures = mismatches()
    for line in failures:
        print(f"MISMATCH {line}")
    count = len(WORKLOADS) * len(CONFIGS) + len(TRACE_CELLS)
    print(f"{'FAIL' if failures else 'OK'} ({count} golden attribution "
          f"artifacts and event-trace dumps)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
