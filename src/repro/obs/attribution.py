"""Per-branch / per-cache-line attribution of front-end events.

The metrics registry answers *how much* (one number per counter); this
module answers *who*: which static branches cause the BTB misses, which
of them Skia rescues (and through which SBB half), which cache lines'
shadow bytes the SBD actually decodes, and where the resteer cycles go.
That is the per-PC form of the paper's central claims -- the ~75%
shadow-resident BTB-miss fraction of Figures 1/15 and the rescued-branch
population behind Figure 14 -- made inspectable and diffable per branch
instead of as one geomean.

:class:`AttributionAggregator` folds the structured event stream of
:mod:`repro.obs.trace` (``btb`` / ``sbb`` / ``comparator`` / ``sbd`` /
``resteer`` events).  Attach it via
``FrontEndSimulator.attach_attribution``: either engine then keeps one
outcome row per record and the aggregator folds every row's events
after the run, never through the trace's ring, so it drops nothing.
Or rebuild it offline from a JSONL dump with
:meth:`AttributionAggregator.from_trace_jsonl` (which warns when the
dump's header records drops, because a truncated dump under-attributes).

Events carry the record index of the block being replayed, so the
aggregator applies the same warm-up gate as ``SimStats``: only events
with ``record >= warmup`` are counted.  The rollup sums are therefore
*exactly* the aggregate counters -- ``attrib.btb_misses ==
sim.btb_misses_total`` and friends -- which
:mod:`repro.obs.invariants` checks whenever an attribution snapshot is
merged into a metric snapshot (the conservation guarantee that keeps
attribution from silently drifting off the numbers the figures are
built on).

Three outputs:

* **per-branch records** keyed by stable branch identity (workload, pc,
  kind): BTB lookups/misses, shadow-resident misses, U-/R-SBB hit
  split, resteer counts and cycles by cause, and the branch's static
  head/tail shadow position from
  :func:`repro.workloads.analysis.shadow_positions`;
* **per-line coverage maps**: bytes decoded by SBD head vs tail
  (exact byte masks), decode/discard counts, shadow branches found,
  and branches rescued vs missed per line;
* **top-N offender tables** ranked by resteer cycles, rendered as
  markdown or HTML (``repro attrib report``) and compared per-branch
  with regression thresholds (``repro attrib diff``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import DroppedEventsWarning

#: Artifact schema version; bump when the JSON layout changes shape.
ATTRIBUTION_SCHEMA = 1

#: Default diff gates: a branch is flagged when its total resteer-cycle
#: attribution grows by more than ``DIFF_MIN_CYCLES`` *and* by more than
#: ``DIFF_MIN_PCT`` percent of its before-value.
DIFF_MIN_CYCLES = 100.0
DIFF_MIN_PCT = 10.0


# ----------------------------------------------------------------------
# Rollup records
# ----------------------------------------------------------------------

@dataclass
class BranchAttribution:
    """Everything attributed to one static branch (one PC)."""

    pc: int
    kind: str | None = None
    #: Static shadow position: "head", "tail", "head+tail", "none", or
    #: "?" when no census was supplied.
    shadow: str = "?"
    btb_lookups: int = 0
    btb_misses: int = 0
    btb_miss_l1i_hit: int = 0
    sbb_hits_u: int = 0
    sbb_hits_r: int = 0
    sbb_misses: int = 0
    #: BTB misses a Section 7.1 comparator design claimed instead of the
    #: SBB -- the cross-design analogue of an SBB rescue.
    comparator_hits: int = 0
    decode_resteers: int = 0
    exec_resteers: int = 0
    resteer_counts: dict[str, int] = field(default_factory=dict)
    resteer_cycles: dict[str, float] = field(default_factory=dict)

    @property
    def sbb_hits(self) -> int:
        return self.sbb_hits_u + self.sbb_hits_r

    @property
    def rescues(self) -> int:
        """BTB misses *some* covering structure absorbed (SBB half or a
        comparator design) -- the design-agnostic rescue count that
        makes offender tables comparable across designs."""
        return self.sbb_hits_u + self.sbb_hits_r + self.comparator_hits

    @property
    def resteers(self) -> int:
        return self.decode_resteers + self.exec_resteers

    @property
    def cycles(self) -> float:
        return sum(self.resteer_cycles.values())

    @property
    def top_cause(self) -> str:
        if not self.resteer_cycles:
            return "-"
        return max(self.resteer_cycles, key=lambda c: self.resteer_cycles[c])

    def to_jsonable(self) -> dict:
        out: dict = {"pc": self.pc, "kind": self.kind, "shadow": self.shadow}
        for name in ("btb_lookups", "btb_misses", "btb_miss_l1i_hit",
                     "sbb_hits_u", "sbb_hits_r", "sbb_misses",
                     "comparator_hits", "decode_resteers", "exec_resteers"):
            value = getattr(self, name)
            if value:
                out[name] = value
        if self.resteer_counts:
            out["resteer_counts"] = {cause: self.resteer_counts[cause]
                                     for cause in sorted(self.resteer_counts)}
        if self.resteer_cycles:
            out["resteer_cycles"] = {cause: self.resteer_cycles[cause]
                                     for cause in sorted(self.resteer_cycles)}
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "BranchAttribution":
        out = cls(pc=data["pc"], kind=data.get("kind"),
                  shadow=data.get("shadow", "?"))
        for name in ("btb_lookups", "btb_misses", "btb_miss_l1i_hit",
                     "sbb_hits_u", "sbb_hits_r", "sbb_misses",
                     "comparator_hits", "decode_resteers", "exec_resteers"):
            setattr(out, name, data.get(name, 0))
        out.resteer_counts = dict(data.get("resteer_counts", {}))
        out.resteer_cycles = dict(data.get("resteer_cycles", {}))
        return out


@dataclass
class LineAttribution:
    """Shadow coverage and rescue accounting for one cache line."""

    line: int
    btb_lookups: int = 0
    btb_misses: int = 0
    sbb_hits: int = 0
    sbb_misses: int = 0
    comparator_hits: int = 0
    head_decodes: int = 0
    tail_decodes: int = 0
    head_discarded: int = 0
    #: Bitmasks of byte offsets the SBD decoded (bit ``i`` == offset
    #: ``i``): head decodes cover ``[0, entry_offset)``, tail decodes
    #: cover ``[exit_offset, line_size)``.
    head_mask: int = 0
    tail_mask: int = 0
    shadow_branches_found: int = 0

    @property
    def head_bytes(self) -> int:
        return self.head_mask.bit_count()

    @property
    def tail_bytes(self) -> int:
        return self.tail_mask.bit_count()

    @property
    def covered_bytes(self) -> int:
        return (self.head_mask | self.tail_mask).bit_count()

    @property
    def rescued(self) -> int:
        """Dynamic BTB misses on this line covered by an SBB or
        comparator hit."""
        return self.sbb_hits + self.comparator_hits

    @property
    def missed(self) -> int:
        """Dynamic BTB misses on this line nothing rescued."""
        return self.btb_misses - self.sbb_hits - self.comparator_hits

    def to_jsonable(self) -> dict:
        out: dict = {"line": self.line}
        for name in ("btb_lookups", "btb_misses", "sbb_hits", "sbb_misses",
                     "comparator_hits", "head_decodes", "tail_decodes",
                     "head_discarded", "head_mask", "tail_mask",
                     "shadow_branches_found"):
            value = getattr(self, name)
            if value:
                out[name] = value
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "LineAttribution":
        out = cls(line=data["line"])
        for name in ("btb_lookups", "btb_misses", "sbb_hits", "sbb_misses",
                     "comparator_hits", "head_decodes", "tail_decodes",
                     "head_discarded", "head_mask", "tail_mask",
                     "shadow_branches_found"):
            setattr(out, name, data.get(name, 0))
        return out


# ----------------------------------------------------------------------
# The aggregator
# ----------------------------------------------------------------------

class AttributionAggregator:
    """Event fold building per-branch and per-line rollups.

    ``warmup`` gates counting exactly as the simulator gates ``SimStats``
    (events whose ``record`` index precedes it are observed but not
    counted), so rollup sums equal the aggregate counters.
    ``shadow_positions`` (pc -> :class:`ShadowPosition`, or directly
    pc -> its label as :attr:`~repro.workloads.program.Program.shadow_labels`
    gives it) stamps each branch record with its static head/tail
    shadow candidacy.
    """

    def __init__(self, workload: str = "?", warmup: int = 0,
                 line_size: int = 64, shadow_positions: dict | None = None,
                 meta: dict | None = None):
        if line_size < 1:
            raise ValueError("line_size must be positive")
        self.workload = workload
        self.warmup = warmup
        self.line_size = line_size
        self.meta = dict(meta or {})
        self.branches: dict[int, BranchAttribution] = {}
        self.lines: dict[int, LineAttribution] = {}
        self.events_seen = 0
        self.events_counted = 0
        #: Events the *source* lost before we saw it (JSONL readers only;
        #: rendered outcome rows never drop).
        self.source_dropped = 0
        self._positions = shadow_positions or {}

    @classmethod
    def for_simulation(cls, program, config, warmup: int = 0,
                       meta: dict | None = None) -> "AttributionAggregator":
        """Build an aggregator wired to one program + configuration.

        Stamps every branch record with its head/tail candidacy from
        the program's static shadow census (computed once per program).
        """
        return cls(workload=program.name, warmup=warmup,
                   line_size=config.line_size,
                   shadow_positions=program.shadow_labels, meta=meta)

    # -- event intake --------------------------------------------------

    def observe(self, event: dict) -> None:
        """Consume one trace event (a JSONL line or an
        :class:`EventTrace` sink call)."""
        self.events_seen += 1
        record = event.get("record")
        if record is not None and record < self.warmup:
            return
        kind = event.get("kind")
        if kind == "btb":
            self._on_btb(event["pc"], event["hit"], event.get("branch_kind"),
                         event.get("resident"))
        elif kind == "sbb":
            self._on_sbb(event["pc"], event["hit"], event.get("which"))
        elif kind == "comparator":
            self._on_comparator(event["pc"], event["hit"])
        elif kind == "sbd":
            self._on_sbd(event.get("side"), event["pc"],
                         event.get("branches", 0), event.get("discarded"))
        elif kind == "resteer":
            self._on_resteer(event["pc"], event.get("stage"),
                             event.get("cause", "unattributed"),
                             event.get("latency", 0.0))
        else:
            return
        self.events_counted += 1

    def observe_outcomes(self, events) -> None:
        """Consume one run's ``(record, kind, values)`` events, as
        :func:`repro.obs.trace.outcome_events` renders them from the
        run's outcome rows -- no event dict is built."""
        handlers = {"btb": self._on_btb, "comparator": self._on_comparator,
                    "sbb": self._on_sbb, "sbd": self._on_sbd,
                    "resteer": self._on_resteer}
        warmup = self.warmup
        for record, kind, values in events:
            self.events_seen += 1
            if record >= warmup:
                handlers[kind](*values)
                self.events_counted += 1

    def _branch(self, pc: int) -> BranchAttribution:
        branch = self.branches.get(pc)
        if branch is None:
            branch = BranchAttribution(pc=pc, shadow=self._shadow_of(pc))
            self.branches[pc] = branch
        return branch

    def _shadow_of(self, pc: int) -> str:
        if not self._positions:
            return "?"
        position = self._positions.get(pc, "none")
        return position if isinstance(position, str) else position.label

    def _line(self, pc: int) -> LineAttribution:
        address = pc & ~(self.line_size - 1)
        line = self.lines.get(address)
        if line is None:
            line = LineAttribution(line=address)
            self.lines[address] = line
        return line

    def _on_btb(self, pc: int, hit: bool, branch_kind: str | None,
                resident: bool | None) -> None:
        branch = self._branch(pc)
        if branch.kind is None:
            branch.kind = branch_kind
        line = self._line(pc)
        branch.btb_lookups += 1
        line.btb_lookups += 1
        if not hit:
            branch.btb_misses += 1
            line.btb_misses += 1
            if resident:
                branch.btb_miss_l1i_hit += 1

    def _on_sbb(self, pc: int, hit: bool, which: str | None) -> None:
        branch = self._branch(pc)
        line = self._line(pc)
        if hit:
            if which == "u":
                branch.sbb_hits_u += 1
            else:
                branch.sbb_hits_r += 1
            line.sbb_hits += 1
        else:
            branch.sbb_misses += 1
            line.sbb_misses += 1

    def _on_comparator(self, pc: int, hit: bool) -> None:
        # Emitted on every BTB miss when a comparator design is active;
        # only hits roll up (a comparator miss is not an extra event
        # population -- the SBB/undetected path accounts for the branch).
        if hit:
            self._branch(pc).comparator_hits += 1
            self._line(pc).comparator_hits += 1

    def _on_sbd(self, side: str | None, pc: int, branches: int,
                discarded: bool | None, valid_paths: int = 0) -> None:
        # ``valid_paths`` rides on head events but is not rolled up.
        line = self._line(pc)
        offset = pc % self.line_size
        if side == "head":
            line.head_decodes += 1
            if discarded:
                line.head_discarded += 1
            # Head decodes sweep the bytes before the entry point.
            line.head_mask |= (1 << offset) - 1
        else:
            line.tail_decodes += 1
            # Tail decodes sweep from the exit point to the line end.
            full = (1 << self.line_size) - 1
            line.tail_mask |= full ^ ((1 << offset) - 1)
        line.shadow_branches_found += branches

    def _on_resteer(self, pc: int, stage: str | None, cause: str,
                    latency: float) -> None:
        branch = self._branch(pc)
        if stage == "decode":
            branch.decode_resteers += 1
        else:
            branch.exec_resteers += 1
        branch.resteer_counts[cause] = branch.resteer_counts.get(cause, 0) + 1
        branch.resteer_cycles[cause] = (branch.resteer_cycles.get(cause, 0.0)
                                        + latency)

    # -- rollup sums ---------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Sums over every branch/line record.

        Each sum equals (by construction, and by declared invariant) the
        corresponding aggregate ``SimStats`` counter of the same run.
        """
        out: dict[str, float] = {
            "branches": len(self.branches),
            "lines": len(self.lines),
            "btb_lookups": 0, "btb_misses": 0, "btb_miss_l1i_hit": 0,
            "sbb_hits_u": 0, "sbb_hits_r": 0, "sbb_misses": 0,
            "comparator_hits": 0,
            "decode_resteers": 0, "exec_resteers": 0,
            "resteer_cycles_total": 0.0,
            "sbd_head_decodes": 0, "sbd_tail_decodes": 0,
            "sbd_head_discarded": 0, "shadow_branches_found": 0,
        }
        causes: dict[str, int] = {}
        for branch in self.branches.values():
            out["btb_lookups"] += branch.btb_lookups
            out["btb_misses"] += branch.btb_misses
            out["btb_miss_l1i_hit"] += branch.btb_miss_l1i_hit
            out["sbb_hits_u"] += branch.sbb_hits_u
            out["sbb_hits_r"] += branch.sbb_hits_r
            out["sbb_misses"] += branch.sbb_misses
            out["comparator_hits"] += branch.comparator_hits
            out["decode_resteers"] += branch.decode_resteers
            out["exec_resteers"] += branch.exec_resteers
            out["resteer_cycles_total"] += branch.cycles
            for cause, count in branch.resteer_counts.items():
                causes[cause] = causes.get(cause, 0) + count
        for line in self.lines.values():
            out["sbd_head_decodes"] += line.head_decodes
            out["sbd_tail_decodes"] += line.tail_decodes
            out["sbd_head_discarded"] += line.head_discarded
            out["shadow_branches_found"] += line.shadow_branches_found
        out["sbb_hits"] = out["sbb_hits_u"] + out["sbb_hits_r"]
        out["sbb_lookups"] = out["sbb_hits"] + out["sbb_misses"]
        out["resteers_total"] = (out["decode_resteers"]
                                 + out["exec_resteers"])
        for cause in sorted(causes):
            out[f"resteer_causes.{cause}"] = causes[cause]
        return out

    @property
    def shadow_resident_fraction(self) -> float:
        """Shadow-resident BTB-miss fraction from per-branch records.

        The per-PC reconstruction of Figure 1/15: the integer sums match
        ``SimStats.btb_miss_l1i_hit / total_btb_misses`` exactly.
        """
        totals = self.totals()
        misses = totals["btb_misses"]
        return totals["btb_miss_l1i_hit"] / misses if misses else 0.0

    def snapshot(self) -> dict[str, float]:
        """The rollup sums as ``attrib.*`` snapshot keys.

        Merge this into a simulator's metric snapshot to activate the
        ``attribution_*_conservation`` invariants.
        """
        return {f"attrib.{name}": value
                for name, value in self.totals().items()}

    def top_branches(self, n: int = 20,
                     key: str = "cycles") -> list[BranchAttribution]:
        """The ``n`` worst offenders, ranked by ``key`` (descending)."""
        return sorted(self.branches.values(),
                      key=lambda b: (-getattr(b, key), b.pc))[:n]

    def top_lines(self, n: int = 20,
                  key: str = "missed") -> list[LineAttribution]:
        return sorted(self.lines.values(),
                      key=lambda l: (-getattr(l, key), l.line))[:n]

    # -- persistence ---------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "schema": ATTRIBUTION_SCHEMA,
            "workload": self.workload,
            "warmup": self.warmup,
            "line_size": self.line_size,
            "meta": dict(self.meta),
            "events": {"seen": self.events_seen,
                       "counted": self.events_counted,
                       "source_dropped": self.source_dropped},
            "totals": self.totals(),
            "branches": [self.branches[pc].to_jsonable()
                         for pc in sorted(self.branches)],
            "lines": [self.lines[address].to_jsonable()
                      for address in sorted(self.lines)],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "AttributionAggregator":
        schema = data.get("schema")
        if schema != ATTRIBUTION_SCHEMA:
            raise ValueError(
                f"attribution schema {schema!r} != {ATTRIBUTION_SCHEMA}")
        out = cls(workload=data.get("workload", "?"),
                  warmup=data.get("warmup", 0),
                  line_size=data.get("line_size", 64),
                  meta=data.get("meta"))
        events = data.get("events", {})
        out.events_seen = events.get("seen", 0)
        out.events_counted = events.get("counted", 0)
        out.source_dropped = events.get("source_dropped", 0)
        for payload in data.get("branches", ()):
            out.branches[payload["pc"]] = (
                BranchAttribution.from_jsonable(payload))
        for payload in data.get("lines", ()):
            out.lines[payload["line"]] = (
                LineAttribution.from_jsonable(payload))
        return out

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_jsonable(), sort_keys=True)
                        + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "AttributionAggregator":
        return cls.from_jsonable(
            json.loads(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def from_trace_jsonl(cls, path: str | Path, warmup: int = 0,
                         workload: str = "?", line_size: int = 64,
                         shadow_positions: dict | None = None,
                         ) -> "AttributionAggregator":
        """Rebuild attribution offline from an EventTrace JSONL dump.

        A ring-buffered dump may have dropped its oldest events; the
        header makes that explicit, and so does this reader -- a
        truncated stream *under-attributes*, so ``dropped > 0`` raises a
        :class:`DroppedEventsWarning` instead of passing silently.
        """
        out = cls(workload=workload, warmup=warmup, line_size=line_size,
                  shadow_positions=shadow_positions)
        path = Path(path)
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                event = json.loads(raw)
                if event.get("kind") == "trace_header":
                    dropped = event.get("dropped", 0)
                    if dropped:
                        out.source_dropped = dropped
                        warnings.warn(
                            f"{path}: trace header reports {dropped} "
                            f"dropped events; attribution rollups will "
                            f"under-count (re-dump with a larger "
                            f"--trace-capacity)", DroppedEventsWarning,
                            stacklevel=2)
                    continue
                out.observe(event)
        return out


# ----------------------------------------------------------------------
# Reports (markdown / HTML)
# ----------------------------------------------------------------------

def _branch_rows(aggregator: AttributionAggregator, top: int) -> list[list]:
    rows = []
    for branch in aggregator.top_branches(top):
        rows.append([
            f"0x{branch.pc:x}", branch.kind or "?", branch.shadow,
            branch.btb_misses, branch.btb_miss_l1i_hit,
            branch.sbb_hits_u, branch.sbb_hits_r, branch.resteers,
            round(branch.cycles, 1), branch.top_cause,
        ])
    return rows


def _line_rows(aggregator: AttributionAggregator, top: int) -> list[list]:
    rows = []
    for line in aggregator.top_lines(top):
        rows.append([
            f"0x{line.line:x}", line.head_decodes, line.tail_decodes,
            line.head_bytes, line.tail_bytes, line.shadow_branches_found,
            line.rescued, line.missed,
        ])
    return rows


_BRANCH_HEADERS = ["pc", "kind", "shadow", "btb_miss", "resident_miss",
                   "u_hits", "r_hits", "resteers", "cycles", "top_cause"]
_LINE_HEADERS = ["line", "head_dec", "tail_dec", "head_bytes", "tail_bytes",
                 "found", "rescued", "missed"]


def _summary_pairs(aggregator: AttributionAggregator) -> list[tuple[str, str]]:
    totals = aggregator.totals()
    misses = int(totals["btb_misses"])
    resident = int(totals["btb_miss_l1i_hit"])
    hits = int(totals["sbb_hits"])
    fraction = resident / misses if misses else 0.0
    rescue = hits / misses if misses else 0.0
    pairs = [
        ("workload", aggregator.workload),
        ("static branches attributed", str(int(totals["branches"]))),
        ("cache lines touched", str(int(totals["lines"]))),
        ("BTB misses", str(misses)),
        ("shadow-resident misses (L1I hit)",
         f"{resident} ({fraction:.1%})"),
        ("SBB rescues (U + R)",
         f"{hits} = {int(totals['sbb_hits_u'])} + "
         f"{int(totals['sbb_hits_r'])} ({rescue:.1%} of misses)"),
    ]
    comparator_hits = int(totals.get("comparator_hits", 0))
    if comparator_hits:
        comparator_rescue = comparator_hits / misses if misses else 0.0
        pairs.append(("comparator rescues",
                      f"{comparator_hits} "
                      f"({comparator_rescue:.1%} of misses)"))
    pairs += [
        ("resteers (decode + exec)",
         f"{int(totals['resteers_total'])} = "
         f"{int(totals['decode_resteers'])} + "
         f"{int(totals['exec_resteers'])}"),
        ("resteer cycles", f"{totals['resteer_cycles_total']:.0f}"),
        ("SBD decodes (head / tail)",
         f"{int(totals['sbd_head_decodes'])} / "
         f"{int(totals['sbd_tail_decodes'])}"),
    ]
    return pairs


def _cause_rows(aggregator: AttributionAggregator) -> list[list]:
    counts: dict[str, int] = {}
    cycles: dict[str, float] = {}
    for branch in aggregator.branches.values():
        for cause, count in branch.resteer_counts.items():
            counts[cause] = counts.get(cause, 0) + count
        for cause, total in branch.resteer_cycles.items():
            cycles[cause] = cycles.get(cause, 0.0) + total
    return [[cause, counts[cause], round(cycles.get(cause, 0.0), 1)]
            for cause in sorted(counts, key=lambda c: -cycles.get(c, 0.0))]


def render_markdown(aggregator: AttributionAggregator,
                    top: int = 20) -> str:
    """The attribution report as GitHub-flavoured markdown."""
    from repro.harness.reporting import format_markdown_table

    parts = [f"# Attribution report: {aggregator.workload}", ""]
    parts.append("| metric | value |")
    parts.append("| --- | --- |")
    for name, value in _summary_pairs(aggregator):
        parts.append(f"| {name} | {value} |")
    parts.append("")
    parts.append(f"## Top {top} branches by resteer cycles")
    parts.append("")
    parts.append(format_markdown_table(_BRANCH_HEADERS,
                                       _branch_rows(aggregator, top)))
    parts.append("")
    parts.append("## Resteer causes")
    parts.append("")
    parts.append(format_markdown_table(["cause", "resteers", "cycles"],
                                       _cause_rows(aggregator)))
    parts.append("")
    parts.append(f"## Top {top} cache lines by unrescued misses")
    parts.append("")
    parts.append(format_markdown_table(_LINE_HEADERS,
                                       _line_rows(aggregator, top)))
    parts.append("")
    return "\n".join(parts)


def _html_table(headers: list[str], rows: list[list]) -> str:
    head = "".join(f"<th>{header}</th>" for header in headers)
    body = "\n".join(
        "<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>"
        for row in rows)
    return (f"<table>\n<thead><tr>{head}</tr></thead>\n"
            f"<tbody>\n{body}\n</tbody>\n</table>")


def render_html(aggregator: AttributionAggregator, top: int = 20) -> str:
    """Self-contained single-file HTML report."""
    summary = _html_table(["metric", "value"],
                          [list(pair) for pair in _summary_pairs(aggregator)])
    branches = _html_table(_BRANCH_HEADERS, _branch_rows(aggregator, top))
    causes = _html_table(["cause", "resteers", "cycles"],
                         _cause_rows(aggregator))
    lines = _html_table(_LINE_HEADERS, _line_rows(aggregator, top))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Attribution report: {aggregator.workload}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2rem; }}
table {{ border-collapse: collapse; margin-bottom: 1.5rem; }}
th, td {{ border: 1px solid #bbb; padding: 0.25rem 0.6rem;
         text-align: right; font-variant-numeric: tabular-nums; }}
th {{ background: #eee; }}
td:first-child, th:first-child {{ text-align: left;
                                  font-family: monospace; }}
h1, h2 {{ font-weight: 600; }}
</style>
</head>
<body>
<h1>Attribution report: {aggregator.workload}</h1>
{summary}
<h2>Top {top} branches by resteer cycles</h2>
{branches}
<h2>Resteer causes</h2>
{causes}
<h2>Top {top} cache lines by unrescued misses</h2>
{lines}
</body>
</html>
"""


def render_report(aggregator: AttributionAggregator, fmt: str = "markdown",
                  top: int = 20) -> str:
    if fmt in ("markdown", "md"):
        return render_markdown(aggregator, top=top)
    if fmt == "html":
        return render_html(aggregator, top=top)
    raise ValueError(f"unknown report format {fmt!r}")


# ----------------------------------------------------------------------
# Per-branch diff (the A/B story)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BranchDelta:
    """One branch's attribution movement between two runs."""

    pc: int
    kind: str | None
    shadow: str
    before_cycles: float
    after_cycles: float
    before_misses: int
    after_misses: int
    before_rescues: int
    after_rescues: int
    flagged: bool

    @property
    def delta_cycles(self) -> float:
        return self.after_cycles - self.before_cycles


@dataclass
class AttributionDiff:
    """All per-branch deltas, most-moved first."""

    deltas: list[BranchDelta]
    min_cycles: float
    min_pct: float

    @property
    def regressions(self) -> list[BranchDelta]:
        return [delta for delta in self.deltas if delta.flagged]

    def render(self, top: int = 20) -> str:
        from repro.harness.reporting import format_table
        rows = []
        for delta in self.deltas[:top]:
            rows.append([
                f"0x{delta.pc:x}", delta.kind or "?", delta.shadow,
                round(delta.before_cycles, 1), round(delta.after_cycles, 1),
                round(delta.delta_cycles, 1),
                delta.after_misses - delta.before_misses,
                delta.after_rescues - delta.before_rescues,
                "REGRESSED" if delta.flagged else "",
            ])
        table = format_table(
            ["pc", "kind", "shadow", "cycles_before", "cycles_after",
             "delta", "d_miss", "d_rescue", ""], rows,
            title=(f"per-branch attribution deltas (flag: > "
                   f"{self.min_cycles:g} cycles and > {self.min_pct:g}%)"))
        summary = (f"{len(self.deltas)} branches moved, "
                   f"{len(self.regressions)} regressed past thresholds")
        return f"{table}\n{summary}"


def diff_attributions(before: AttributionAggregator,
                      after: AttributionAggregator,
                      min_cycles: float = DIFF_MIN_CYCLES,
                      min_pct: float = DIFF_MIN_PCT) -> AttributionDiff:
    """Per-branch comparison of two attribution artifacts.

    A branch is *flagged* when its resteer-cycle attribution grew by
    more than ``min_cycles`` absolute cycles *and* more than ``min_pct``
    percent of its before-value (a branch absent before regresses on the
    absolute gate alone).  ``repro attrib diff`` exits non-zero when any
    branch is flagged.
    """
    deltas = []
    for pc in sorted(set(before.branches) | set(after.branches)):
        b = before.branches.get(pc)
        a = after.branches.get(pc)
        before_cycles = b.cycles if b else 0.0
        after_cycles = a.cycles if a else 0.0
        if b is None and a is None:  # pragma: no cover - unreachable
            continue
        reference = a or b
        delta = after_cycles - before_cycles
        flagged = (delta > min_cycles
                   and delta > (min_pct / 100.0) * before_cycles)
        if before_cycles == after_cycles and b and a:
            # Unmoved branch: keep the diff focused on movement.
            # ``rescues`` folds SBB and comparator hits together, so a
            # cross-design diff (e.g. Skia vs Micro-BTB) still surfaces
            # a branch whose coverage merely changed hands.
            if (b.btb_misses == a.btb_misses
                    and b.rescues == a.rescues):
                continue
        deltas.append(BranchDelta(
            pc=pc, kind=reference.kind, shadow=reference.shadow,
            before_cycles=before_cycles, after_cycles=after_cycles,
            before_misses=b.btb_misses if b else 0,
            after_misses=a.btb_misses if a else 0,
            before_rescues=b.rescues if b else 0,
            after_rescues=a.rescues if a else 0,
            flagged=flagged))
    deltas.sort(key=lambda delta: (-abs(delta.delta_cycles), delta.pc))
    return AttributionDiff(deltas=deltas, min_cycles=min_cycles,
                           min_pct=min_pct)
