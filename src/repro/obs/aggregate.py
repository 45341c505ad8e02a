"""Cluster-wide aggregation: one merged per-run report from N ranks.

Each rank's :class:`~repro.obs.instrument.Instrumentation` snapshots to a
plain dict; merging is pure data work (no live objects), so it can happen
two ways:

* **in-process** — the :class:`~repro.cluster.world.World` owns every
  rank's instrumentation (ranks are threads) and merges after the run;
* **collective** — :func:`cluster_snapshot` JSON-encodes each rank's
  snapshot and gathers them at a root with
  :func:`repro.mp.collectives.gather_bytes`, the way a real distributed
  deployment must.

Merged counters keep both the cluster total and the per-rank breakdown
(a retransmit storm on one rank should not hide inside a sum).  Spans
and events from all ranks interleave onto one timeline ordered by
``(ts, rank, seq)`` — meaningful under the virtual clock, whose Lamport
merges make cross-rank timestamps causally consistent.
"""

from __future__ import annotations

import json


def merge_snapshots(snaps: list[dict]) -> dict:
    """Merge per-rank snapshots into one cluster report."""
    ranks = sorted(s.get("rank", i) for i, s in enumerate(snaps))
    counters: dict[str, dict] = {}
    hists: dict[str, dict] = {}
    spans: list[dict] = []
    events: list[dict] = []
    for i, snap in enumerate(snaps):
        rank = snap.get("rank", i)
        for name, value in snap.get("counters", {}).items():
            entry = counters.setdefault(name, {"total": 0, "by_rank": {}})
            entry["total"] += value
            entry["by_rank"][rank] = value
        for name, h in snap.get("hists", {}).items():
            entry = hists.setdefault(
                name,
                {"count": 0, "total": 0.0, "min": None, "max": None, "buckets": {}},
            )
            entry["count"] += h["count"]
            entry["total"] += h["total"]
            for bound in ("min", "max"):
                v = h.get(bound)
                if v is not None:
                    cur = entry[bound]
                    pick = min if bound == "min" else max
                    entry[bound] = v if cur is None else pick(cur, v)
            for b, c in h.get("buckets", {}).items():
                entry["buckets"][b] = entry["buckets"].get(b, 0) + c
        spans.extend(snap.get("spans", []))
        events.extend(snap.get("events", []))
    spans.sort(key=lambda s: (s["ts"], s["rank"], s.get("seq", 0)))
    events.sort(key=lambda e: (e["ts"], e["rank"], e.get("seq", 0)))
    return {
        "ranks": ranks,
        "counters": counters,
        "hists": hists,
        "spans": spans,
        "events": events,
    }


def cluster_snapshot(engine, comm, inst, root: int = 0) -> dict | None:
    """Collective: gather every rank's snapshot at ``root`` and merge.

    Every rank of ``comm`` must call (it runs on :func:`gather_bytes`);
    the root returns the merged report, everyone else ``None``.
    """
    from repro.mp import collectives

    blob = json.dumps(inst.snapshot()).encode()
    blobs = collectives.gather_bytes(engine, comm, blob, root)
    if blobs is None:
        return None
    return merge_snapshots([json.loads(b) for b in blobs])


def render_report(merged: dict) -> str:
    """One printable per-run report: counters table + timeline head."""
    from repro.obs.export import render_metrics, render_timeline

    parts = [
        f"# cluster report: ranks {merged.get('ranks', [])}",
        render_metrics(merged).rstrip(),
    ]
    if merged.get("spans") or merged.get("events"):
        parts.append("")
        parts.append(render_timeline(merged, limit=40).rstrip())
    return "\n".join(parts) + "\n"
