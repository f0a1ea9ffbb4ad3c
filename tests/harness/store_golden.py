"""Golden store addresses and run-ledger cell ids, and a plain-Python checker.

Every persisted result lives at ``result_key(workload, config, seed,
scale, bolted)``, and every run-ledger record names its cell by
``cell_id_for(workload, config, seed, bolted)``.  Both hash
``repr(config_key(config))``, so any change to how a config is
flattened re-addresses the whole ``.repro_cache/`` and renames every
ledger cell.  The digests below pin both over every exhibit's cells
(each bolted flag, seeds 0 and 1) and over edge configs, so a faster
``config_key`` has to reproduce the old one byte for byte.

The package version and the code fingerprint are held at constants
while the keys are computed: those two change on every release and
every simulator edit, and re-address the store on purpose.  The schema
fingerprint (``SimStats`` fields, branch kinds, ``STORE_VERSION``) is
pinned on its own line, so a counter change fails one named check
instead of every key.

``test_store_golden.py`` checks the table under pytest.  This module
needs only the standard library, so it also runs directly::

    PYTHONPATH=src python tests/harness/store_golden.py

It recomputes every digest and exits non-zero on any mismatch.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from dataclasses import replace

from repro.frontend.config import FrontEndConfig
from repro.harness import store
from repro.harness.experiments import exhibit_cells
from repro.harness.scale import Scale
from repro.obs.ledger import cell_id_for

#: The scale every golden key is computed at (its name is only a label).
SCALE = Scale("golden", records=6_000, warmup=2_000)
#: Stand-ins for ``repro.__version__`` and ``code_fingerprint()``.
VERSION = "golden"
CODE = "golden-code"

#: Every exhibit name ``repro experiment`` accepts, plus the static
#: tables (which plan no cells).
EXHIBITS = ("ablation-index", "ablation-paths", "ablation-retired", "bogus",
            "bolt", "comparator-zoo", "fig1", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18", "fig3", "fig6", "table1", "table2")

#: Configs at the edges of ``config_key``: a non-default window, an int
#: next to the float default, a short history tuple, every comparator.
EDGE_CONFIGS: dict[str, FrontEndConfig] = {
    "default": FrontEndConfig(),
    "interval_size=500": FrontEndConfig(interval_size=500),
    "backend_effective_width=4": FrontEndConfig(backend_effective_width=4),
    "backend_effective_width=4.0": FrontEndConfig(
        backend_effective_width=4.0),
    "tage_history_lengths=(1, 2)": FrontEndConfig(
        tage_history_lengths=(1, 2)),
    "airbtb": FrontEndConfig().with_comparator("airbtb"),
    "boomerang": FrontEndConfig().with_comparator("boomerang"),
    "microbtb": FrontEndConfig().with_comparator("microbtb"),
    "fdip": FrontEndConfig().with_comparator("fdip"),
    "fdip8": replace(FrontEndConfig().with_fdip_depth(8),
                     fdip_buffer_entries=32),
}

#: ``schema_fingerprint()`` at ``STORE_VERSION``.
GOLDEN_SCHEMA = "907d3f2f07fd2a7d"

#: Per exhibit: SHA-256 over ``result_key`` of each of its cells, each
#: bolted flag and seeds 0 and 1, in that order, one key per line.
GOLDEN_EXHIBIT_KEYS: dict[str, str] = {
    "ablation-index":
        "52db0e1110f3f40011ff368e77b1d8db0e2533ed431b202dd178febb7da1973f",
    "ablation-paths":
        "f1231e9e11afe34b6227cdc5af8ea9a114568a30f5596bc8db1d34a4e707ab47",
    "ablation-retired":
        "f5efd8ebdeb3d12e0e8a0df8d9f5be36aa72441e3c437b933f91b146bb0b6257",
    "bogus":
        "1fb280ea67c63da069d49ca79ba42d66026832303766f279d367e294f696ca17",
    "bolt":
        "177010a1cf81bde37d43737833ba96cbf6917aa8f479ec93330fd70fecbf8885",
    "comparator-zoo":
        "69de275231762b336cceb2a93f00e09eea186368549779e767886c9bea8a5adc",
    "fig1":
        "00f46b33ec3602e8d9ae9006b0ada055264e76df8bed91bb9a767048a734bdc6",
    "fig13":
        "827b66681df65f79012ffc5d7f7c749a6026c0b737395c88cd36d5d2c7534d8c",
    "fig14":
        "743d02dcc675fc8f15a534640662b02310d184794a3ac223d7ca100ae771a202",
    "fig15":
        "827b66681df65f79012ffc5d7f7c749a6026c0b737395c88cd36d5d2c7534d8c",
    "fig16":
        "46664aad34cdaadb1fd97109d702ea3c86393204d22062ddf599d6341daad16d",
    "fig17":
        "12c3b9d883f4e262ad3ae8cb1e2c856a19b9884d9e60af2a9a23a3d083408d5a",
    "fig18":
        "1309a4688c41f56bade61333d89fdd30a95ca1f3d99e7fc817a5cd8f9d3c266d",
    "fig3":
        "4ebaaf8eebce858f271678d0c8d5448e016c2dcd77377b8f6acabfe9dccdd80b",
    "fig6":
        "827b66681df65f79012ffc5d7f7c749a6026c0b737395c88cd36d5d2c7534d8c",
    "table1":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "table2":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

#: Per exhibit: the same walk over ``cell_id_for``.
GOLDEN_EXHIBIT_IDS: dict[str, str] = {
    "ablation-index":
        "b7764de518fd2b06decdc94bcb8310a04362a7721f3556eb3d462311e6ccb149",
    "ablation-paths":
        "44b5ea98475350229aed189908959ee392867a7b804d704efd9a2c49fa9fb47e",
    "ablation-retired":
        "462a4f00b1b712d63f9cb5cd72cf468c5848d387f355f9ffae7643898dde33d4",
    "bogus":
        "7ee2adc0382c277e161ffc5a08c361725c600a175f86a3d2d0da474ee723fe2e",
    "bolt":
        "0dc09bcfa09acb4ecf0c1a806de6f569f4086e3880a170a20cfacba42955bc22",
    "comparator-zoo":
        "15c29332388d9550307607c86b1681014bd4b28f8c55056277d95adf72baa0e0",
    "fig1":
        "866be472f880e9023ebdf1f55e8a93413536c4f6c3f05395c2a31905223386ce",
    "fig13":
        "8912fd63dfb9c4bb7dc1e1b8b51271ff75ece56a1ac0cc06f5730a33bcdf381c",
    "fig14":
        "2c0e6188baaa92a7a137214cd4b1630f61c1fb85f85ec1f7d9ef78fde6ec7e53",
    "fig15":
        "8912fd63dfb9c4bb7dc1e1b8b51271ff75ece56a1ac0cc06f5730a33bcdf381c",
    "fig16":
        "3f4a6ed5609256820e5be61c519e9e8ab48272853a70a73f0affa1be3279131f",
    "fig17":
        "9066c479a3457a0b0e470a6653d2661ba6046bc8b2e81ca518677801601f00f4",
    "fig18":
        "8971a1cf85d83d0192a9e5eb6118f1244c8bcda175b3dce8252a1ac4587c1e61",
    "fig3":
        "d2c1f8238c6d2f67caaf9e7d126af09d68ba862b12a9870c2846f8e114f188bf",
    "fig6":
        "8912fd63dfb9c4bb7dc1e1b8b51271ff75ece56a1ac0cc06f5730a33bcdf381c",
    "table1":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "table2":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

#: Per edge config: ``result_key("voter", config, 0, SCALE)``.
GOLDEN_EDGE_KEYS: dict[str, str] = {
    "default":
        "334829534305979147b186e3b9826c0467d3d4bdb738a9226038613a4f8d56b1",
    "interval_size=500":
        "68585baddd9bfa00d496e08633cd2b682ef888d484858c4c2ad64882a7cc5fda",
    "backend_effective_width=4":
        "c17c3b033f5255aa25fc93ec86e3dedbe0b0933ad05d9ec72ee41422b350f53f",
    "backend_effective_width=4.0":
        "334829534305979147b186e3b9826c0467d3d4bdb738a9226038613a4f8d56b1",
    "tage_history_lengths=(1, 2)":
        "046fa404b23cec2d24be79c53d28c63dfd3ab33bb553ef5ca3dc78bdeeb8c466",
    "airbtb":
        "0c6aec0b07703f7a34570ef3dc2e4f80a7114c1748c342320740e1640608d3ed",
    "boomerang":
        "2854f8090603040b6634b546f797b558bb7cc6be04894c86e942ca32afa10deb",
    "microbtb":
        "b9522976a99e434301825b7446fe2dc3f6adcfa9cb4959273ba0fca2ee9bdc13",
    "fdip":
        "973d25453256aa47bc3c7a0b418cc006009ddb520ee46d14cfad77576081f1b9",
    "fdip8":
        "fd37ce4fbf58126bdd9ccd7103f370478ff65324f3e184a8cdda316dc3a1ee67",
}

#: Per edge config: ``cell_id_for("voter", config, 0, False)``.
GOLDEN_EDGE_IDS: dict[str, str] = {
    "default":
        "voter:s0:2322b7a1",
    "interval_size=500":
        "voter:s0:ec60f86c",
    "backend_effective_width=4":
        "voter:s0:283000ee",
    "backend_effective_width=4.0":
        "voter:s0:2322b7a1",
    "tage_history_lengths=(1, 2)":
        "voter:s0:97e18b1f",
    "airbtb":
        "voter:s0:8d063b65",
    "boomerang":
        "voter:s0:137a4866",
    "microbtb":
        "voter:s0:ca70d35e",
    "fdip":
        "voter:s0:0fca87c2",
    "fdip8":
        "voter:s0:224d8293",
}


@contextmanager
def pinned_code():
    """Hold the code fingerprint at :data:`CODE` while keys are made."""
    original = store.code_fingerprint
    store.code_fingerprint = lambda: CODE
    try:
        yield
    finally:
        store.code_fingerprint = original


def _walk(name: str):
    for cell in exhibit_cells(name):
        for bolted in (False, True):
            for seed in (0, 1):
                yield cell.workload, cell.config, seed, bolted


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def exhibit_keys_digest(name: str) -> str:
    with pinned_code():
        return _digest(store.result_key(workload, config, seed, SCALE,
                                        bolted=bolted, version=VERSION)
                       for workload, config, seed, bolted in _walk(name))


def exhibit_ids_digest(name: str) -> str:
    return _digest(cell_id_for(workload, config, seed, bolted)
                   for workload, config, seed, bolted in _walk(name))


def edge_key(label: str) -> str:
    with pinned_code():
        return store.result_key("voter", EDGE_CONFIGS[label], 0, SCALE,
                                version=VERSION)


def edge_id(label: str) -> str:
    return cell_id_for("voter", EDGE_CONFIGS[label], 0, False)


def mismatches() -> list[str]:
    """Every digest that differs from its golden value."""
    checks = [("schema", store.schema_fingerprint(), GOLDEN_SCHEMA)]
    checks += [(f"{name} keys", exhibit_keys_digest(name),
                GOLDEN_EXHIBIT_KEYS.get(name)) for name in EXHIBITS]
    checks += [(f"{name} ids", exhibit_ids_digest(name),
                GOLDEN_EXHIBIT_IDS.get(name)) for name in EXHIBITS]
    checks += [(f"{label} key", edge_key(label), GOLDEN_EDGE_KEYS.get(label))
               for label in EDGE_CONFIGS]
    checks += [(f"{label} id", edge_id(label), GOLDEN_EDGE_IDS.get(label))
               for label in EDGE_CONFIGS]
    return [f"{label}: {got}" for label, got, want in checks if got != want]


def main() -> int:
    failures = mismatches()
    for line in failures:
        print(f"MISMATCH {line}")
    count = 1 + 2 * (len(EXHIBITS) + len(EDGE_CONFIGS))
    print(f"{'FAIL' if failures else 'OK'} ({count} golden store "
          f"addresses and cell ids)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
