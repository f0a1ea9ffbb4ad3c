"""Declared cross-checks over metric snapshots.

Each invariant is a named, documented predicate over the flat snapshot
dict (see :mod:`repro.obs.registry`).  Counter identities that must hold
for *any* correct simulation are checked whenever their inputs are
present; identities that only hold for particular configurations (Skia
enabled, no comparator) are gated on ``config.*`` flags the snapshot
carries.

Two kinds of keys appear in a snapshot:

* ``sim.*`` -- the post-warm-up ``SimStats`` counters (always available,
  including from stored results), via :func:`snapshot_from_stats`;
* component scopes (``btb.*``, ``ras.*``, ``sbb.u.*``, ``sbb.r.*``,
  ``engine.*``) -- whole-run structure counters, available
  when the snapshot was taken from a live simulator.  Because structure
  counters include the warm-up region and ``sim.*`` does not, cross-layer
  checks are inequalities (``sim`` never exceeds the structure).

The paper mapping: the SBB probe partition and hit/miss partition settle
whether the Section 3/4 coverage claims are counted rather than assumed;
the resteer-cause partition is the Figure 7 accounting; the RAS and SBB
structure accounting pin the Section 4.2/4.3 replacement semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Number
from typing import Callable, Mapping

Snapshot = Mapping[str, float]


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


@dataclass(frozen=True)
class Invariant:
    name: str
    description: str
    check: Callable[[Snapshot], str | None]
    #: Keys that must be present for the invariant to apply.
    requires: tuple[str, ...] = ()
    #: Keys that must be present *and truthy* (configuration gates).
    flags: tuple[str, ...] = ()

    def applies(self, snapshot: Snapshot) -> bool:
        if any(key not in snapshot for key in self.requires):
            return False
        return all(snapshot.get(key) for key in self.flags)


# ----------------------------------------------------------------------
# Snapshot construction from SimStats
# ----------------------------------------------------------------------

def snapshot_from_stats(stats, skia_enabled: bool | None = None,
                        comparator: str | None = None) -> dict[str, float]:
    """Flatten a ``SimStats`` into ``sim.*`` snapshot entries.

    Works generically over the dataclass fields so new counters join the
    snapshot (and become checkable) without touching this module.  Dict
    fields flatten to ``sim.<field>.<key>`` plus a ``sim.<field>_total``
    sum.  ``skia_enabled``/``comparator`` add ``config.*`` gates for the
    configuration-dependent invariants.
    """
    out: dict[str, float] = {}
    for field in fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, dict):
            total = 0
            for key, count in value.items():
                name = getattr(key, "value", key)
                out[f"sim.{field.name}.{name}"] = count
                total += count
            out[f"sim.{field.name}_total"] = total
        elif isinstance(value, Number):
            out[f"sim.{field.name}"] = value
    # Totals the invariants reference under their conventional names.
    out["sim.sbb_hits_total"] = stats.sbb_hits_u + stats.sbb_hits_r
    out["sim.sbb_insertions_total"] = (stats.sbb_insertions_u
                                       + stats.sbb_insertions_r)
    out["sim.resteers_total"] = stats.decode_resteers + stats.exec_resteers
    if skia_enabled is not None:
        out["config.skia_enabled"] = float(bool(skia_enabled))
    if comparator is not None:
        out["config.comparator_enabled"] = 1.0
    return out


# ----------------------------------------------------------------------
# The invariants
# ----------------------------------------------------------------------

def _eq(snapshot: Snapshot, left: str, right: float,
        describe: str) -> str | None:
    value = snapshot[left]
    if value != right:
        return f"{left}={value} but {describe}={right}"
    return None


def _le(snapshot: Snapshot, small: str, big: str) -> str | None:
    if snapshot[small] > snapshot[big]:
        return (f"{small}={snapshot[small]} exceeds "
                f"{big}={snapshot[big]}")
    return None


def _check_btb_lookups(s: Snapshot) -> str | None:
    return _eq(s, "sim.btb_lookups", s["sim.branches_total"],
               "sim.branches_total")


def _check_miss_l1i_bounded(s: Snapshot) -> str | None:
    return _le(s, "sim.btb_miss_l1i_hit", "sim.btb_misses_total")


def _check_cache_monotone(s: Snapshot) -> str | None:
    for small, big in (("sim.l3_misses", "sim.l2_misses"),
                       ("sim.l2_misses", "sim.l1i_misses"),
                       ("sim.l1i_misses", "sim.l1i_accesses")):
        message = _le(s, small, big)
        if message:
            return message
    return None


def _check_mispredicts_bounded(s: Snapshot) -> str | None:
    for name in ("cond", "indirect", "ras"):
        message = _le(s, f"sim.{name}_mispredicts",
                      f"sim.{name}_predictions")
        if message:
            return message
    return None


def _check_ras_underflows(s: Snapshot) -> str | None:
    # A pop on an empty RAS can never produce the right target, so every
    # counted underflow is also a counted mispredict.
    return _le(s, "sim.ras_underflows", "sim.ras_mispredicts")


def _check_resteer_causes(s: Snapshot) -> str | None:
    attributed = sum(value for key, value in s.items()
                     if key.startswith("sim.resteer_causes."))
    total = s["sim.resteers_total"]
    if attributed != total:
        return (f"resteer causes sum to {attributed}, but "
                f"decode+exec resteers = {total}")
    return None


def _check_resteers_bounded(s: Snapshot) -> str | None:
    return _le(s, "sim.resteers_total", "sim.branches_total")


def _check_sbb_probe_partition(s: Snapshot) -> str | None:
    # The BPU probes the SBB exactly on BTB misses the comparator did
    # not claim: btb_miss == sbb_lookups + comparator_hits, hence the
    # headline form btb_miss == sbb_hit + sbb_miss (+ comparator hits).
    expected = s["sim.btb_misses_total"] - s.get("sim.comparator_hits", 0)
    return _eq(s, "sim.sbb_lookups", expected,
               "btb_misses_total - comparator_hits")


def _check_sbb_hit_miss_partition(s: Snapshot) -> str | None:
    observed = (s["sim.sbb_hits_u"] + s["sim.sbb_hits_r"]
                + s["sim.sbb_misses"])
    return _eq(s, "sim.sbb_lookups", observed,
               "sbb_hits_u + sbb_hits_r + sbb_misses")


def _check_comparator_hits_bounded(s: Snapshot) -> str | None:
    # The comparator is probed only on BTB misses, so its counted hits
    # can never exceed them.
    return _le(s, "sim.comparator_hits", "sim.btb_misses_total")


def _check_comparator_structure_bounds(s: Snapshot) -> str | None:
    # Structure hits are a subset of structure probes, and the
    # post-warm-up counted hits are a subset of whole-run structure hits
    # (same cross-layer reasoning as cross_layer_bounds).
    message = _le(s, "comparator.hits", "comparator.lookups")
    if message:
        return message
    return _le(s, "sim.comparator_hits", "comparator.hits")


def _check_attribution_comparator(s: Snapshot) -> str | None:
    return _eq(s, "attrib.comparator_hits", s["sim.comparator_hits"],
               "sim.comparator_hits")


def _check_trace_drop_accounting(s: Snapshot) -> str | None:
    # The ring drops exactly what it emitted but no longer retains;
    # drops can never go negative and never exceed emissions.
    dropped = s["trace.dropped_events"]
    expected = s["trace.emitted"] - s["trace.retained"]
    if dropped != expected:
        return (f"trace.dropped_events={dropped} but emitted - retained "
                f"= {expected}")
    if dropped < 0:
        return f"trace.dropped_events={dropped} is negative"
    return _le(s, "trace.dropped_events", "trace.emitted")


def _check_sbb_outcomes_bounded(s: Snapshot) -> str | None:
    for small in ("sim.sbb_wrong_target", "sim.sbb_retired_marks"):
        message = _le(s, small, "sim.sbb_hits_total")
        if message:
            return message
    return None


def _check_sbb_bogus_bounded(s: Snapshot) -> str | None:
    return _le(s, "sim.sbb_bogus_insertions", "sim.sbb_insertions_total")


def _check_sbd_discard_bounded(s: Snapshot) -> str | None:
    return _le(s, "sim.sbd_head_discarded", "sim.sbd_head_decodes")


def _check_sbb_structure_accounting(s: Snapshot) -> str | None:
    # Every eviction and every live entry traces back to an insertion
    # (re-insertion payload refreshes make this an inequality).
    for half in ("sbb.u", "sbb.r"):
        insertions = s[f"{half}.insertions"]
        accounted = (s[f"{half}.evictions_bogus_first"]
                     + s[f"{half}.evictions_lru"]
                     + s[f"{half}.occupancy"])
        if insertions < accounted:
            return (f"{half}: insertions={insertions} < evictions + "
                    f"occupancy = {accounted}")
        message = _le(s, f"{half}.hits", f"{half}.lookups")
        if message:
            return message
        if s[f"{half}.occupancy"] > s[f"{half}.entries"]:
            return (f"{half}: occupancy {s[f'{half}.occupancy']} exceeds "
                    f"capacity {s[f'{half}.entries']}")
    return None


def _check_ras_structure_accounting(s: Snapshot) -> str | None:
    # Circular-stack conservation: every push either raises occupancy or
    # overwrites; every successful pop lowers it.
    expected = (s["ras.pushes"] - s["ras.overflow_overwrites"]
                - (s["ras.pops"] - s["ras.underflows"]))
    message = _eq(s, "ras.occupancy", expected,
                  "pushes - overwrites - successful pops")
    if message:
        return message
    if s["ras.occupancy"] > s["ras.depth"]:
        return (f"ras occupancy {s['ras.occupancy']} exceeds depth "
                f"{s['ras.depth']}")
    return None


def _check_btb_structure_bounds(s: Snapshot) -> str | None:
    message = _le(s, "btb.hits", "btb.lookups")
    if message:
        return message
    if not s.get("btb.infinite") and s["btb.occupancy"] > s["btb.entries"]:
        return (f"btb occupancy {s['btb.occupancy']} exceeds capacity "
                f"{s['btb.entries']}")
    return None


def _check_cross_layer_bounds(s: Snapshot) -> str | None:
    # sim.* counts the post-warm-up region only; structure counters
    # cover the whole run, so sim can never exceed them.
    pairs = [("sim.btb_lookups", "btb.lookups")]
    if "sbb.u.hits" in s:
        total_hits = s["sbb.u.hits"] + s["sbb.r.hits"]
        if s["sim.sbb_hits_total"] > total_hits:
            return (f"sim.sbb_hits_total={s['sim.sbb_hits_total']} exceeds "
                    f"structure hits {total_hits}")
    if "ras.underflows" in s:
        pairs.append(("sim.ras_underflows", "ras.underflows"))
    for small, big in pairs:
        message = _le(s, small, big)
        if message:
            return message
    return None


def _check_attribution_btb(s: Snapshot) -> str | None:
    # The attribution rollup applies the same warm-up gate as SimStats,
    # so per-branch sums equal the aggregate counters *exactly* -- any
    # drift means attribution is silently lying about the population the
    # Figure 1/15 fraction is computed over.
    for attrib, sim in (("attrib.btb_lookups", "sim.btb_lookups"),
                        ("attrib.btb_misses", "sim.btb_misses_total"),
                        ("attrib.btb_miss_l1i_hit",
                         "sim.btb_miss_l1i_hit")):
        message = _eq(s, attrib, s[sim], sim)
        if message:
            return message
    return None


def _check_attribution_sbb(s: Snapshot) -> str | None:
    for attrib, sim in (("attrib.sbb_lookups", "sim.sbb_lookups"),
                        ("attrib.sbb_hits_u", "sim.sbb_hits_u"),
                        ("attrib.sbb_hits_r", "sim.sbb_hits_r"),
                        ("attrib.sbb_misses", "sim.sbb_misses")):
        message = _eq(s, attrib, s[sim], sim)
        if message:
            return message
    return None


def _check_attribution_resteers(s: Snapshot) -> str | None:
    for attrib, sim in (("attrib.resteers_total", "sim.resteers_total"),
                        ("attrib.decode_resteers", "sim.decode_resteers"),
                        ("attrib.exec_resteers", "sim.exec_resteers")):
        message = _eq(s, attrib, s[sim], sim)
        if message:
            return message
    # Per-cause equality over the union of both key sets, so a cause
    # present on one side and absent on the other is itself a violation.
    causes = {key.split(".", 2)[2] for key in s
              if key.startswith("attrib.resteer_causes.")}
    causes |= {key.split(".", 2)[2] for key in s
               if key.startswith("sim.resteer_causes.")}
    for cause in sorted(causes):
        attributed = s.get(f"attrib.resteer_causes.{cause}", 0)
        counted = s.get(f"sim.resteer_causes.{cause}", 0)
        if attributed != counted:
            return (f"attrib.resteer_causes.{cause}={attributed} but "
                    f"sim.resteer_causes.{cause}={counted}")
    return None


def _check_attribution_sbd(s: Snapshot) -> str | None:
    for attrib, sim in (("attrib.sbd_head_decodes", "sim.sbd_head_decodes"),
                        ("attrib.sbd_tail_decodes", "sim.sbd_tail_decodes"),
                        ("attrib.sbd_head_discarded",
                         "sim.sbd_head_discarded")):
        message = _eq(s, attrib, s[sim], sim)
        if message:
            return message
    return None


def _check_interval_conservation(s: Snapshot) -> str | None:
    # Every ``intervals.X`` total must equal the matching aggregate
    # ``sim.X`` counter exactly: the window rows partition the counted
    # region, so their column sums telescope to the whole-run value.
    for name in sorted(s):
        if not name.startswith("intervals."):
            continue
        field = name[len("intervals."):]
        if field in ("windows", "interval_size"):
            continue
        sim_key = f"sim.{field}"
        if sim_key not in s:
            continue
        expected = s[sim_key]
        if field == "cycles" and s.get("sim.instructions", 0) == 0:
            # No record retired inside the counted region: the engine
            # epilogue reports a degenerate cycle figure (the whole-run
            # clock, or an epsilon clamp, so rates stay finite) while
            # the series records the true zero counted-region sum.
            continue
        if s[name] != expected:
            return f"{name}={s[name]} but {sim_key}={expected}"
    return None


_SIM_BASE = ("sim.btb_lookups", "sim.branches_total")
_SBB_SIM = ("sim.sbb_lookups", "sim.sbb_misses", "sim.sbb_hits_u",
            "sim.sbb_hits_r")

INVARIANTS: tuple[Invariant, ...] = (
    Invariant("btb_lookups_cover_branches",
              "every executed branch probes the BTB exactly once",
              _check_btb_lookups, requires=_SIM_BASE),
    Invariant("btb_miss_l1i_hit_bounded",
              "shadow-resident misses are a subset of all BTB misses",
              _check_miss_l1i_bounded,
              requires=("sim.btb_miss_l1i_hit", "sim.btb_misses_total")),
    Invariant("cache_hierarchy_monotone",
              "miss counts shrink down the hierarchy",
              _check_cache_monotone,
              requires=("sim.l1i_accesses", "sim.l1i_misses",
                        "sim.l2_misses", "sim.l3_misses")),
    Invariant("mispredicts_bounded",
              "mispredictions never exceed predictions per predictor",
              _check_mispredicts_bounded,
              requires=("sim.cond_predictions", "sim.cond_mispredicts",
                        "sim.indirect_predictions",
                        "sim.indirect_mispredicts",
                        "sim.ras_predictions", "sim.ras_mispredicts")),
    Invariant("ras_underflows_are_mispredicts",
              "a pop on an empty RAS always counts as a mispredict",
              _check_ras_underflows,
              requires=("sim.ras_underflows", "sim.ras_mispredicts")),
    Invariant("resteer_causes_partition",
              "per-cause resteer attribution sums to total resteers",
              _check_resteer_causes, requires=("sim.resteers_total",)),
    Invariant("resteers_bounded",
              "at most one resteer per executed branch",
              _check_resteers_bounded,
              requires=("sim.resteers_total", "sim.branches_total")),
    Invariant("sbb_probe_partition",
              "btb_miss == sbb_hit + sbb_miss (+ comparator hits)",
              _check_sbb_probe_partition,
              requires=_SBB_SIM + ("sim.btb_misses_total",),
              flags=("config.skia_enabled",)),
    Invariant("sbb_hit_miss_partition",
              "every SBB probe is exactly one hit or one miss",
              _check_sbb_hit_miss_partition, requires=_SBB_SIM,
              flags=("config.skia_enabled",)),
    Invariant("comparator_hits_bounded",
              "comparator hits are a subset of BTB misses (the probe "
              "happens only on a miss)",
              _check_comparator_hits_bounded,
              requires=("sim.comparator_hits", "sim.btb_misses_total"),
              flags=("config.comparator_enabled",)),
    Invariant("comparator_structure_bounds",
              "comparator structure hits bounded by probes; counted "
              "post-warm-up hits bounded by whole-run structure hits",
              _check_comparator_structure_bounds,
              requires=("comparator.hits", "comparator.lookups",
                        "sim.comparator_hits")),
    Invariant("sbb_outcomes_bounded",
              "wrong-target and retired-mark events are subsets of hits",
              _check_sbb_outcomes_bounded,
              requires=("sim.sbb_wrong_target", "sim.sbb_retired_marks",
                        "sim.sbb_hits_total")),
    Invariant("trace_drop_accounting",
              "event-trace ring drops equal emitted minus retained and "
              "stay within [0, emitted]",
              _check_trace_drop_accounting,
              requires=("trace.emitted", "trace.retained",
                        "trace.dropped_events")),
    Invariant("sbb_bogus_bounded",
              "bogus insertions are a subset of all insertions",
              _check_sbb_bogus_bounded,
              requires=("sim.sbb_bogus_insertions",
                        "sim.sbb_insertions_total")),
    Invariant("sbd_discards_bounded",
              "discarded head decodes are a subset of head decodes",
              _check_sbd_discard_bounded,
              requires=("sim.sbd_head_discarded", "sim.sbd_head_decodes")),
    Invariant("sbb_structure_accounting",
              "SBB insertions cover evictions plus live occupancy",
              _check_sbb_structure_accounting,
              requires=("sbb.u.insertions", "sbb.u.evictions_bogus_first",
                        "sbb.u.evictions_lru", "sbb.u.occupancy",
                        "sbb.u.hits", "sbb.u.lookups", "sbb.u.entries",
                        "sbb.r.insertions", "sbb.r.evictions_bogus_first",
                        "sbb.r.evictions_lru", "sbb.r.occupancy",
                        "sbb.r.hits", "sbb.r.lookups", "sbb.r.entries")),
    Invariant("ras_structure_accounting",
              "circular-stack conservation of pushes/pops/overwrites",
              _check_ras_structure_accounting,
              requires=("ras.pushes", "ras.pops", "ras.underflows",
                        "ras.overflow_overwrites", "ras.occupancy",
                        "ras.depth")),
    Invariant("btb_structure_bounds",
              "BTB hits bounded by lookups, occupancy by capacity",
              _check_btb_structure_bounds,
              requires=("btb.hits", "btb.lookups", "btb.occupancy",
                        "btb.entries")),
    Invariant("cross_layer_bounds",
              "post-warm-up (sim.*) counters never exceed whole-run "
              "structure counters",
              _check_cross_layer_bounds,
              requires=("sim.btb_lookups", "btb.lookups")),
    Invariant("attribution_btb_conservation",
              "per-branch BTB attribution sums exactly to the aggregate "
              "miss counters (the Figure 1/15 population)",
              _check_attribution_btb,
              requires=("attrib.btb_lookups", "attrib.btb_misses",
                        "attrib.btb_miss_l1i_hit", "sim.btb_lookups",
                        "sim.btb_misses_total", "sim.btb_miss_l1i_hit")),
    Invariant("attribution_sbb_conservation",
              "per-branch U/R-SBB attribution sums exactly to the "
              "aggregate SBB counters",
              _check_attribution_sbb,
              requires=("attrib.sbb_lookups", "attrib.sbb_hits_u",
                        "attrib.sbb_hits_r", "attrib.sbb_misses")
              + _SBB_SIM,
              flags=("config.skia_enabled",)),
    Invariant("attribution_comparator_conservation",
              "per-branch comparator attribution sums exactly to the "
              "aggregate comparator hit counter",
              _check_attribution_comparator,
              requires=("attrib.comparator_hits", "sim.comparator_hits"),
              flags=("config.comparator_enabled",)),
    Invariant("attribution_resteer_conservation",
              "per-branch resteer attribution (total, per stage, per "
              "cause) sums exactly to the aggregate resteer counters",
              _check_attribution_resteers,
              requires=("attrib.resteers_total", "attrib.decode_resteers",
                        "attrib.exec_resteers", "sim.resteers_total",
                        "sim.decode_resteers", "sim.exec_resteers")),
    Invariant("attribution_sbd_conservation",
              "per-line SBD attribution sums exactly to the aggregate "
              "shadow-decode counters",
              _check_attribution_sbd,
              requires=("attrib.sbd_head_decodes",
                        "attrib.sbd_tail_decodes",
                        "attrib.sbd_head_discarded",
                        "sim.sbd_head_decodes", "sim.sbd_tail_decodes",
                        "sim.sbd_head_discarded"),
              flags=("config.skia_enabled",)),
    Invariant("interval_conservation",
              "per-window interval-series column sums equal the "
              "aggregate post-warm-up counters exactly",
              _check_interval_conservation,
              requires=("intervals.windows",)),
)


def check_snapshot(snapshot: Snapshot) -> list[Violation]:
    """Run every applicable invariant; return the violations."""
    violations = []
    for invariant in INVARIANTS:
        if not invariant.applies(snapshot):
            continue
        message = invariant.check(snapshot)
        if message is not None:
            violations.append(Violation(invariant.name, message))
    return violations


def applicable_invariants(snapshot: Snapshot) -> list[str]:
    """Names of the invariants this snapshot can be checked against."""
    return [invariant.name for invariant in INVARIANTS
            if invariant.applies(snapshot)]
