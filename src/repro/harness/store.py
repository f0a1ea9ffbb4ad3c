"""Persistent, content-addressed experiment result store.

The in-memory memo in :class:`~repro.harness.runner.ExperimentRunner`
dies with the process, so every pytest/bench invocation used to
re-simulate the whole evaluation grid from scratch.  This module keeps
finished :class:`~repro.frontend.stats.SimStats` on disk, keyed by a
SHA-256 of everything that determines the result:

* the repro package version, a schema fingerprint (the sorted
  ``SimStats`` field names plus the branch-kind vocabulary), and a code
  fingerprint (a hash of every simulator source file) -- so stale
  entries self-invalidate whenever the counters change shape *or* any
  behaviour-affecting code changes, with no migration logic;
* the workload name, program seed, ``bolted`` flag;
* the scale's record/warm-up counts (the name is just a label);
* :func:`config_key`, the order-stable identity of the configuration.

Values are plain JSON under ``.repro_cache/`` (override with
``REPRO_CACHE_DIR``), written atomically so parallel workers can share
one store.  ``REPRO_NO_STORE=1`` disables the layer entirely.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

from repro import __version__
from repro.frontend.stats import SimStats
from repro.harness.scale import Scale
from repro.isa.branch import BranchKind
from repro.obs.profiler import PROFILER

#: Bump to invalidate every stored result regardless of schema shape
#: (e.g. after a simulator behaviour fix that keeps the counters).
STORE_VERSION = 1

#: Default on-disk location, relative to the current working directory.
DEFAULT_ROOT = ".repro_cache"


def config_key(config) -> tuple:
    """A hashable, order-stable identity for a configuration.

    The config, its nested dataclasses and dict fields are flattened to
    ``(name, value)`` pairs in sorted-name order and list fields become
    tuples, so two configs that compare equal produce equal keys no
    matter how their mappings were built up.  Every store address and
    run-ledger cell id hashes its ``repr``, so the output must not change
    by a byte (``tests/harness/store_golden.py`` pins it).
    """
    return _flatten(config)


#: Value types ``config_key`` keeps as they are, checked first because
#: nearly every field holds one.
_ATOMS = frozenset((int, float, str, bool, type(None)))


@functools.cache
def _sorted_field_names(cls: type) -> tuple[str, ...]:
    return tuple(sorted(field.name for field in fields(cls)))


def _flatten(value):
    cls = type(value)
    if cls in _ATOMS:
        return value
    if isinstance(value, dict):
        return tuple([(key, _flatten(value[key])) for key in sorted(value)])
    if isinstance(value, list):
        return tuple(value)
    if is_dataclass(cls):
        return tuple([(name, _flatten(getattr(value, name)))
                      for name in _sorted_field_names(cls)])
    return value


# ----------------------------------------------------------------------
# SimStats (de)serialisation
# ----------------------------------------------------------------------

@functools.cache
def _kind_fields() -> tuple[str, ...]:
    """SimStats fields holding per-BranchKind counter dicts."""
    probe = SimStats()
    names = []
    for field in fields(SimStats):
        value = getattr(probe, field.name)
        if isinstance(value, dict) and value and all(
                isinstance(key, BranchKind) for key in value):
            names.append(field.name)
    return tuple(names)


def stats_to_jsonable(stats: SimStats) -> dict:
    """A JSON-safe dict round-trippable via :func:`stats_from_jsonable`."""
    data = asdict(stats)
    for name in _kind_fields():
        data[name] = {kind.value: count for kind, count in data[name].items()}
    return data


def stats_from_jsonable(data: dict) -> SimStats:
    kwargs = dict(data)
    for name in _kind_fields():
        kwargs[name] = {BranchKind(value): count
                        for value, count in data[name].items()}
    return SimStats(**kwargs)


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """A hash of every simulator source file that can affect results.

    Covers the ISA, workload generation, front-end and Skia packages (not
    the harness itself: rendering or orchestration changes do not change
    simulation output).  Any edit to those files re-addresses the whole
    store, so a stale entry can never be read back as current.
    """
    import repro.core
    import repro.frontend
    import repro.isa
    import repro.workloads

    digest = hashlib.sha256()
    for package in (repro.isa, repro.workloads, repro.frontend, repro.core):
        root = Path(package.__file__).parent
        for path in sorted(root.glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@functools.cache
def schema_fingerprint(store_version: int = STORE_VERSION) -> str:
    """Identity of the stored value's shape.

    Any change to the ``SimStats`` field set or the branch-kind
    vocabulary changes the fingerprint, so old entries simply stop being
    addressed -- no migration logic, no stale reads.
    """
    shape = [store_version,
             sorted(field.name for field in fields(SimStats)),
             sorted(kind.value for kind in BranchKind)]
    digest = hashlib.sha256(json.dumps(shape).encode())
    return digest.hexdigest()[:16]


def result_key(workload: str, config, seed: int, scale: Scale,
               bolted: bool = False, version: str | None = None,
               store_version: int = STORE_VERSION) -> str:
    """The content address of one (workload, config, seed, scale) cell."""
    payload = {
        "repro": version if version is not None else __version__,
        "code": code_fingerprint(),
        "schema": schema_fingerprint(store_version),
        "workload": workload,
        "seed": seed,
        "bolted": bolted,
        "records": scale.records,
        "warmup": scale.warmup,
        "config": repr(config_key(config)),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

def _part(payload: dict | None, name: str) -> dict | None:
    """The dict stored under ``name`` in an entry, if any."""
    value = None if payload is None else payload.get(name)
    return value if isinstance(value, dict) else None


class ResultStore:
    """Content-addressed SimStats storage under one root directory.

    Files live two levels deep (``<root>/<key[:2]>/<key>.json``) to keep
    directory fan-out sane on big grids.  Reads tolerate missing or
    corrupt files (they count as misses); writes are atomic
    (temp file + ``os.replace``) so concurrent workers never expose a
    half-written entry.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_ROOT):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def key(self, workload: str, config, seed: int, scale: Scale,
            bolted: bool = False, version: str | None = None) -> str:
        return result_key(workload, config, seed, scale, bolted=bolted,
                          version=version)

    def _read(self, key: str) -> dict | None:
        """The parsed entry at ``key``; ``None`` when missing or corrupt."""
        try:
            with open(self._path(key), encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _stats(self, payload: dict | None) -> SimStats | None:
        """The entry's stats, counted as a hit or a miss."""
        try:
            stats = stats_from_jsonable(payload["stats"])
        except (ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def get(self, key: str) -> SimStats | None:
        with PROFILER.section("store.get"):
            return self._stats(self._read(key))

    def get_metrics(self, key: str) -> dict[str, float] | None:
        """The metric snapshot stored alongside a result, if any.

        Uncounted (piggy-backs on a result already addressed by ``get``);
        returns ``None`` for entries written before snapshots existed or
        by callers that had none to persist.
        """
        return _part(self._read(key), "metrics")

    def get_attribution(self, key: str) -> dict | None:
        """The attribution artifact stored alongside a result, if any.

        Returns the JSON-able aggregator payload (rebuild it with
        ``AttributionAggregator.from_jsonable``); ``None`` for entries
        written without attribution recording.  Uncounted, like
        :meth:`get_metrics`.
        """
        return _part(self._read(key), "attribution")

    def get_intervals(self, key: str) -> dict | None:
        """The interval series stored alongside a result, if any.

        Returns the JSON-able series payload (rebuild it with
        ``IntervalSeries.from_jsonable``); ``None`` for entries written
        without interval telemetry.  Uncounted, like :meth:`get_metrics`.
        """
        return _part(self._read(key), "intervals")

    def get_complete(self, key: str, config, attribution: bool = False
                     ) -> tuple[SimStats, dict | None, dict | None,
                                dict[str, float] | None] | None:
        """``(stats, attribution, intervals, metrics)`` of a complete
        entry, else ``None``; one read and one parse of the entry.

        The one completeness rule of a cell: its stats are present, the
        attribution artifact too when ``attribution`` is asked for, and
        the interval series when ``config.interval_size > 0``.  An entry
        missing any of them is a miss, so the cell re-simulates and the
        rewrite backfills the artifact.  The metric snapshot is returned
        when stored but never required.
        """
        with PROFILER.section("store.get"):
            payload = self._read(key)
            stats = self._stats(payload)
        if stats is None:
            return None
        recorded = None
        if attribution:
            recorded = _part(payload, "attribution")
            if recorded is None:
                return None
        intervals = None
        if config.interval_size > 0:
            intervals = _part(payload, "intervals")
            if intervals is None:
                return None
        return stats, recorded, intervals, _part(payload, "metrics")

    def put(self, key: str, stats: SimStats,
            metrics: dict[str, float] | None = None,
            attribution: dict | None = None,
            intervals: dict | None = None) -> Path:
        with PROFILER.section("store.put"):
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "repro": __version__,
                "schema": schema_fingerprint(),
                "stats": stats_to_jsonable(stats),
            }
            if metrics is not None:
                payload["metrics"] = dict(metrics)
            if attribution is not None:
                payload["attribution"] = attribution
            if intervals is not None:
                payload["intervals"] = intervals
            descriptor, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json")
            try:
                with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                    # One dumps call runs the C encoder; json.dump to a
                    # file takes the pure-Python iterencode path.
                    handle.write(json.dumps(payload))
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        self.writes += 1
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        """Delete every stored entry (leaves the root directory)."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
            except OSError:
                pass


def store_enabled() -> bool:
    """False when ``REPRO_NO_STORE`` is set to a truthy value."""
    return os.environ.get("REPRO_NO_STORE", "").lower() not in (
        "1", "true", "yes", "on")


def default_store(root: str | os.PathLike | None = None) -> ResultStore | None:
    """The store the harness should use, or ``None`` when opted out."""
    if not store_enabled():
        return None
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)
    return ResultStore(root)
