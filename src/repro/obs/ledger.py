"""The run ledger: harness-level run identity and cell lifecycle.

The obs stack below this module sees deeply inside *one* simulation;
the ledger makes the harness itself observable.  Every ledgered harness
invocation (``repro experiment``, ``stats``, ``attrib``, ``bench``)
gets a **run id** and a directory under ``.repro_cache/runs/<run_id>/``
holding:

* ``manifest.jsonl`` -- the append-only, schema-versioned run manifest:
  a header record (command, config/code/schema fingerprints, host), one
  ``grid`` record per submitted batch, a lifecycle record per cell
  (``queued -> store_probe -> prepare -> simulate -> invariants ->
  store_write -> done``, or ``error``), ``group``/``heartbeat``/
  ``straggler`` records, and a ``finish`` footer.  Records are written
  one ``os.write`` each on an ``O_APPEND`` descriptor, so parallel
  workers share the file safely and a crashed run is diagnosable from
  its partial manifest (every line already written is complete).
* ``spans.jsonl`` -- harness spans, one per profiler section popped in
  any process of the run, the only host-timing record
  (:mod:`repro.obs.profiler`, read by :mod:`repro.obs.spans`).
* ``timeline-<cell>.json`` -- optional pipeline timelines, merged with
  the spans by ``repro runs show --perfetto``.

Lifecycle phases are **semantically identical between serial and
parallel runs** (ordering and host-specific fields aside) -- the
agreement suite normalises both down to per-cell phase/outcome sets and
asserts equality, the same contract the stats layer already enforces.

Nothing is ledgered by default: the harness consults
:func:`active_ledger`, which is ``None`` unless a CLI entry point (or a
test) opened a run via :func:`start_run`.  ``REPRO_LEDGER=0`` disables
the layer even for the CLI.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.profiler import PROFILER

#: Bump when the manifest record shape changes; readers refuse nothing
#: (append-only JSONL stays readable) but tools can gate on it.
LEDGER_SCHEMA_VERSION = 1

#: Cell lifecycle phases, in nominal order.  ``done``/``error`` are the
#: terminal states every cell must reach in a complete run.
CELL_PHASES = ("queued", "store_probe", "prepare", "simulate",
               "invariants", "store_write", "straggler", "done", "error")
TERMINAL_PHASES = frozenset({"done", "error"})

#: A completed cell wall time this many times the run median flags the
#: cell as a straggler (in the ledger and the logs).
STRAGGLER_FACTOR = 4.0

#: Straggler flagging needs at least this many completed walls before a
#: median is meaningful.
STRAGGLER_MIN_SAMPLES = 5


def ledger_enabled() -> bool:
    """False when ``REPRO_LEDGER`` is set to a falsy value."""
    return os.environ.get("REPRO_LEDGER", "").lower() not in (
        "0", "false", "no", "off")


def runs_root(root: str | os.PathLike | None = None) -> Path:
    """Where run directories live (honours ``REPRO_CACHE_DIR``)."""
    if root is not None:
        return Path(root)
    cache = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return Path(cache) / "runs"


def new_run_id() -> str:
    """Sortable-by-creation, collision-safe run identifier."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:6]}"


def cell_id_for(workload: str, config, seed: int, bolted: bool) -> str:
    """A stable, human-scannable cell identity.

    The config digest hashes the same order-stable
    :func:`~repro.harness.store.config_key` spelling the store address
    hashes, so serial and parallel runs (and reruns) agree on ids.
    """
    import hashlib

    from repro.harness.store import config_key

    digest = hashlib.sha256(
        repr(config_key(config)).encode()).hexdigest()[:8]
    bolt = "+bolt" if bolted else ""
    return f"{workload}{bolt}:s{seed}:{digest}"


class RunLedger:
    """Append-only JSONL manifest writer for one run."""

    def __init__(self, run_dir: str | os.PathLike, run_id: str):
        self.run_dir = Path(run_dir)
        self.run_id = run_id
        self._fd: int | None = None
        self._last_heartbeat: dict[int, float] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def create(cls, command: str, root: str | os.PathLike | None = None,
               run_id: str | None = None,
               meta: Mapping[str, object] | None = None) -> "RunLedger":
        """Create the run directory and write the manifest header."""
        from repro import __version__
        from repro.harness.store import code_fingerprint, schema_fingerprint

        run_id = run_id or new_run_id()
        ledger = cls(runs_root(root) / run_id, run_id)
        ledger.run_dir.mkdir(parents=True, exist_ok=True)
        header = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "run_id": run_id,
            "command": command,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "repro": __version__,
            "code": code_fingerprint(),
            "schema": schema_fingerprint(),
        }
        if meta:
            header["meta"] = dict(meta)
        ledger.record("run_header", **header)
        return ledger

    @classmethod
    def attach(cls, run_dir: str | os.PathLike) -> "RunLedger":
        """Open an existing run for appending (pool workers)."""
        run_dir = Path(run_dir)
        return cls(run_dir, run_dir.name)

    # -- paths -----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.jsonl"

    @property
    def spans_path(self) -> Path:
        return self.run_dir / "spans.jsonl"

    def timeline_path(self, cell_id: str) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "+-_." else "_"
                       for ch in cell_id)
        return self.run_dir / f"timeline-{safe}.json"

    # -- writing ---------------------------------------------------------

    def record(self, kind: str, **fields) -> None:
        """Append one manifest record (a single atomic ``os.write``)."""
        if self._fd is None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.manifest_path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        payload = {"kind": kind, "ts": round(time.time(), 6),
                   "pid": os.getpid()}
        payload.update(fields)
        os.write(self._fd, (json.dumps(payload, sort_keys=True) + "\n")
                 .encode("utf-8"))

    def cell(self, cell_id: str, phase: str, **fields) -> None:
        """One lifecycle record for ``cell_id``."""
        self.record("cell", cell=cell_id, phase=phase, **fields)

    def group(self, cells: Iterable[str]) -> None:
        """One ``harness.cell`` section opened, covering ``cells``."""
        cells = list(cells)
        self.record("group", cells=cells, n=len(cells))

    def submit(self, cells: Iterable[str], submitted: int,
               jobs: int) -> None:
        """One batch handed to the harness: its shape (``grid``), then
        a ``queued`` record per distinct cell."""
        cells = list(cells)
        self.record("grid", cells=len(cells), submitted=submitted,
                    jobs=jobs)
        for cell_id in cells:
            self.cell(cell_id, "queued")

    def heartbeat(self, min_interval: float = 5.0, **fields) -> None:
        """A rate-limited per-worker liveness record."""
        now = time.monotonic()
        pid = os.getpid()
        last = self._last_heartbeat.get(pid)
        if last is not None and now - last < min_interval:
            return
        self._last_heartbeat[pid] = now
        self.record("heartbeat", **fields)

    def finish(self, status: str = "complete", **fields) -> None:
        self.record("finish", status=status, **fields)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


# ----------------------------------------------------------------------
# The active ledger (what the harness consults)
# ----------------------------------------------------------------------

_ACTIVE: RunLedger | None = None
_ACTIVE_PID: int | None = None


def active_ledger() -> RunLedger | None:
    """The process's active ledger, or ``None``.

    Pid-guarded: a forked pool worker inherits the parent's module
    state, but its spans must be attributed to its *own* pid -- so the
    inherited active ledger reads as ``None`` and the worker attaches
    its own telemetry to the shared run directory.
    """
    if _ACTIVE is None or _ACTIVE_PID != os.getpid():
        return None
    return _ACTIVE


def set_active(ledger: RunLedger | None) -> None:
    global _ACTIVE, _ACTIVE_PID
    _ACTIVE = ledger
    _ACTIVE_PID = None if ledger is None else os.getpid()


@contextmanager
def start_run(command: str, root: str | os.PathLike | None = None,
              meta: Mapping[str, object] | None = None,
              enable: bool = True):
    """Open a ledgered run for the duration of the ``with`` block.

    Creates the run directory, attaches the profiler to the run's
    ``spans.jsonl`` (which enables it: spans need sections), and
    exposes the ledger via :func:`active_ledger` for the harness to
    emit cell lifecycle records.  Yields ``None`` -- and changes
    nothing -- when disabled (``enable=False`` / ``REPRO_LEDGER=0``)
    or when a run is already active (nested harness entry points reuse
    the outer run).
    """
    if not enable or not ledger_enabled() or active_ledger() is not None:
        yield None
        return
    ledger = RunLedger.create(command, root=root, meta=meta)
    previous_enabled = PROFILER.enabled
    PROFILER.attach(ledger.spans_path)
    set_active(ledger)
    started = time.monotonic()
    status = "complete"
    try:
        yield ledger
    except BaseException:
        status = "error"
        raise
    finally:
        try:
            flag_stragglers(ledger)
            ledger.finish(status=status,
                          wall_s=round(time.monotonic() - started, 6))
        finally:
            set_active(None)
            PROFILER.detach()
            PROFILER.enabled = previous_enabled
            ledger.close()


# ----------------------------------------------------------------------
# Reading + summarising
# ----------------------------------------------------------------------

def read_manifest(path: str | os.PathLike) -> list[dict]:
    """Load a manifest; tolerates a torn final line (crashed run)."""
    path = Path(path)
    if not path.is_file():
        return []
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


@dataclass
class CellState:
    """One cell's lifecycle, folded from its manifest records."""

    cell_id: str
    phases: list[str] = field(default_factory=list)
    fields: dict = field(default_factory=dict)
    straggler: bool = False

    @property
    def terminal(self) -> str | None:
        for phase in self.phases:
            if phase in TERMINAL_PHASES:
                return phase
        return None

    @property
    def wall_s(self) -> float | None:
        return self.fields.get("wall_s")


@dataclass
class RunSummary:
    """A folded view of one run's manifest."""

    run_id: str
    run_dir: Path
    command: str = ""
    created: str = ""
    schema_version: int | None = None
    cells: dict[str, CellState] = field(default_factory=dict)
    grid_cells: int = 0
    groups: int = 0
    group_cells: int = 0
    heartbeat_pids: set = field(default_factory=set)
    finish: dict | None = None

    @property
    def incomplete(self) -> list[str]:
        """Cells that never reached a terminal state."""
        return sorted(cell_id for cell_id, state in self.cells.items()
                      if state.terminal is None)

    @property
    def stragglers(self) -> list[str]:
        return sorted(cell_id for cell_id, state in self.cells.items()
                      if state.straggler)

    @property
    def status(self) -> str:
        if self.finish is None:
            return "running/crashed"
        if self.incomplete:
            return f"{self.finish.get('status', '?')} (incomplete)"
        return str(self.finish.get("status", "?"))

    def results(self) -> dict[str, int]:
        """Terminal outcome histogram (``simulated``/``store_hit``/...)."""
        out: dict[str, int] = {}
        for state in self.cells.values():
            terminal = state.terminal
            if terminal is None:
                continue
            label = (state.fields.get("result", "error")
                     if terminal == "done" else "error")
            out[label] = out.get(label, 0) + 1
        return out


def summarize(records: Iterable[Mapping],
              run_dir: str | os.PathLike = ".") -> RunSummary:
    """Fold manifest records into a :class:`RunSummary`."""
    summary = RunSummary(run_id=Path(run_dir).name, run_dir=Path(run_dir))
    for record in records:
        kind = record.get("kind")
        if kind == "run_header":
            summary.command = str(record.get("command", ""))
            summary.created = str(record.get("created", ""))
            summary.schema_version = record.get("schema_version")
            summary.run_id = str(record.get("run_id", summary.run_id))
        elif kind == "grid":
            summary.grid_cells += int(record.get("cells", 0))
        elif kind == "group":
            summary.groups += 1
            summary.group_cells += int(record.get("n", 0))
        elif kind == "heartbeat":
            summary.heartbeat_pids.add(record.get("pid"))
        elif kind == "finish":
            summary.finish = dict(record)
        elif kind == "cell":
            cell_id = str(record.get("cell"))
            state = summary.cells.get(cell_id)
            if state is None:
                state = summary.cells[cell_id] = CellState(cell_id)
            phase = str(record.get("phase"))
            state.phases.append(phase)
            if phase == "straggler":
                state.straggler = True
            for key, value in record.items():
                if key not in ("kind", "ts", "pid", "cell", "phase"):
                    state.fields[key] = value
    return summary


def load_run(run_id: str,
             root: str | os.PathLike | None = None) -> RunSummary:
    run_dir = runs_root(root) / run_id
    return summarize(read_manifest(run_dir / "manifest.jsonl"), run_dir)


def list_runs(root: str | os.PathLike | None = None) -> list[RunSummary]:
    """Summaries of every run under the runs root, newest first."""
    base = runs_root(root)
    if not base.is_dir():
        return []
    summaries = []
    for run_dir in sorted(base.iterdir(), reverse=True):
        if not run_dir.is_dir():
            continue
        summaries.append(
            summarize(read_manifest(run_dir / "manifest.jsonl"), run_dir))
    return summaries


def latest_run_id(root: str | os.PathLike | None = None) -> str | None:
    base = runs_root(root)
    if not base.is_dir():
        return None
    run_dirs = sorted((d for d in base.iterdir() if d.is_dir()),
                      reverse=True)
    return run_dirs[0].name if run_dirs else None


# ----------------------------------------------------------------------
# Straggler flagging (post-hoc: parallel cell walls live in the ledger)
# ----------------------------------------------------------------------

def flag_stragglers(ledger: RunLedger,
                    factor: float = STRAGGLER_FACTOR,
                    min_samples: int = STRAGGLER_MIN_SAMPLES) -> list[str]:
    """Flag the cells of groups whose wall exceeds ``factor`` x median.

    Reads the run's own manifest (workers already appended their
    ``done`` records with walls).  Kernel lanes of one ``harness.cell``
    section share one wall (``shared_wall``), so they count as one
    group timed by its longest ``done`` wall; every other timed cell is
    a group of one.  The median is over group walls, and every cell of
    an outlier group not already flagged live by the progress reporter
    gets a ``straggler`` record.
    """
    import logging

    records = read_manifest(ledger.manifest_path)
    section_of: dict[str, int] = {}
    groups: dict[object, tuple[float, list[str]]] = {}
    flagged: set[str] = set()
    for index, record in enumerate(records):
        if record.get("kind") == "group":
            for cell_id in record.get("cells", ()):
                section_of[str(cell_id)] = index
        if record.get("kind") != "cell":
            continue
        cell_id = str(record.get("cell"))
        phase = record.get("phase")
        if phase == "straggler":
            flagged.add(cell_id)
        elif phase == "done" and record.get("wall_s") is not None:
            key = (section_of.get(cell_id, cell_id)
                   if record.get("shared_wall") else cell_id)
            wall, cells = groups.get(key, (0.0, []))
            groups[key] = (max(wall, float(record["wall_s"])),
                           cells + [cell_id])
    if len(groups) < min_samples:
        return []
    median = statistics.median(wall for wall, _ in groups.values())
    if median <= 0:
        return []
    newly = []
    log = logging.getLogger("repro.ledger")
    for wall, cells in groups.values():
        if wall <= factor * median:
            continue
        for cell_id in sorted(cells):
            if cell_id in flagged:
                continue
            ledger.cell(cell_id, "straggler", wall_s=round(wall, 6),
                        median_s=round(median, 6), factor=factor)
            log.warning("straggler cell %s: %.3fs vs median %.3fs "
                        "(> %.1fx)", cell_id, wall, median, factor)
            newly.append(cell_id)
    return newly
