"""Render a stored trace as a human-readable report.

Views of the same JSONL trace:

* a **flame-style tree** — each span indented under its parent with its
  duration, share of the root's wall-clock, and interesting tags.  Wide
  fan-outs (a module issuing hundreds of invocations) are elided after
  ``max_children`` entries with a one-line rollup so the report stays
  readable at any trace size;
* a **per-module self-time table** — each pipeline module's wall-clock,
  the time covered by its child spans, and the remainder (its own
  bookkeeping).  Child coverage is the *union* of the children's
  ``[start, end)`` intervals, not their sum: under ``--jobs N`` the probe
  scheduler records parallel invocation spans that overlap in wall-clock
  time, and summing them double-counts the overlap (producing "busy" times
  exceeding the module's wall-clock and negative self-times);
* a **cache / worker summary** — plan-cache and invocation-cache hit rates
  plus isolation worker-pool counters, read from the root span's ``caches``
  tag when the pipeline recorded one;
* a **top-N slowest queries** table — engine-query spans ranked by
  duration, with their rows-scanned / rows-emitted counts.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.trace import Span

#: tags rendered inline next to a span line, in this order (``module`` and
#: ``statement`` are omitted — the span label already carries them)
_INLINE_TAGS = (
    "tables",
    "rows_scanned",
    "rows_emitted",
    "rows_affected",
    "invocations",
    "error",
)


def _build_tree(spans: Iterable[Span]):
    """(roots, children-by-parent-id), children ordered by start time."""
    spans = list(spans)
    children: dict[Optional[int], list[Span]] = {}
    ids = {span.span_id for span in spans}
    roots: list[Span] = []
    for span in spans:
        if span.parent_id is None or span.parent_id not in ids:
            roots.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: s.start)
    roots.sort(key=lambda s: s.start)
    return roots, children


def _format_tags(span: Span) -> str:
    parts = []
    for key in _INLINE_TAGS:
        if key in span.tags:
            value = span.tags[key]
            if isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            parts.append(f"{key}={value}")
    return f"  [{' '.join(parts)}]" if parts else ""


def _render_span(
    span: Span,
    depth: int,
    total: float,
    children: dict,
    max_children: int,
    lines: list[str],
) -> None:
    share = f"{100.0 * span.duration / total:5.1f}%" if total > 0 else "    -"
    label = f"{'  ' * depth}{span.kind}:{span.name}"
    pad = max(1, 48 - len(label))
    lines.append(f"{label} {'.' * pad} {span.duration:9.4f}s {share}{_format_tags(span)}")

    kids = children.get(span.span_id, [])
    shown = kids[:max_children]
    for child in shown:
        _render_span(child, depth + 1, total, children, max_children, lines)
    hidden = kids[max_children:]
    if hidden:
        hidden_seconds = sum(c.duration for c in hidden)
        lines.append(
            f"{'  ' * (depth + 1)}… {len(hidden)} more child spans "
            f"({hidden_seconds:.4f}s total)"
        )


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    last_end: Optional[float] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def _module_table(spans: list[Span], children: dict) -> list[str]:
    """Per-module wall/busy/self-time rows, aggregated by span id/parent.

    ``busy`` is the interval union of each module span's direct children
    (clamped to the module's own window), so overlapping parallel invocation
    spans recorded under ``--jobs N`` count each wall-clock second once.
    ``self`` is the module's wall-clock not covered by any child.
    """
    modules: dict[str, dict] = {}
    order: list[str] = []
    for span in spans:
        # verifier phases (kind "verify") earn a row alongside the pipeline
        # modules: certify time is extraction time the user waits for
        if span.kind not in ("module", "verify") or span.end is None:
            continue
        kids = [c for c in children.get(span.span_id, []) if c.end is not None]
        busy = _interval_union(
            [(max(c.start, span.start), min(c.end, span.end)) for c in kids]
        )
        row = modules.get(span.name)
        if row is None:
            row = modules[span.name] = {
                "wall": 0.0,
                "busy": 0.0,
                "invocations": 0,
            }
            order.append(span.name)
        row["wall"] += span.duration
        row["busy"] += busy
        row["invocations"] += sum(
            1 for c in kids if c.kind in ("invocation", "worker")
        )
    if not modules:
        return []
    lines = ["per-module self-time", "-" * 20]
    lines.append(
        f"{'module':<18} {'wall':>10} {'busy':>10} {'self':>10} "
        f"{'invocations':>12}"
    )
    for name in order:
        row = modules[name]
        self_time = max(0.0, row["wall"] - row["busy"])
        lines.append(
            f"{name:<18} {row['wall']:>9.4f}s {row['busy']:>9.4f}s "
            f"{self_time:>9.4f}s {row['invocations']:>12}"
        )
    return lines


def _cache_lines(roots: list[Span]) -> list[str]:
    """Cache hit rates and worker-pool counters from the root span's tag."""
    lines: list[str] = []
    for root in roots:
        caches = root.tags.get("caches")
        if not isinstance(caches, dict):
            continue
        parts = []
        for label, key in (("plan", "plan_cache"), ("invocation", "invocation_cache")):
            stats = caches.get(key)
            if isinstance(stats, dict) and "hit_rate" in stats:
                keying = (
                    f", {stats['key_seconds']:.3f}s keying"
                    if "key_seconds" in stats
                    else ""
                )
                parts.append(
                    f"{label} {stats['hit_rate']:.0%} hit"
                    f" ({stats.get('hits', 0)} hits{keying})"
                )
        if parts:
            lines.append("caches: " + ", ".join(parts))
        workers = caches.get("workers")
        if isinstance(workers, dict):
            lines.append(
                f"workers: {workers.get('invocations', 0)} invocations, "
                f"{workers.get('crashes', 0)} crashes, "
                f"{workers.get('kills', 0)} kills, "
                f"{workers.get('respawns', 0)} respawns, "
                f"{workers.get('quarantined', 0)} quarantined"
            )
    return lines


def _slowest_queries(spans: list[Span], top: int) -> list[str]:
    queries = sorted(
        (s for s in spans if s.kind == "query"),
        key=lambda s: s.duration,
        reverse=True,
    )[:top]
    if not queries:
        return []
    lines = [f"top {len(queries)} slowest engine queries", "-" * 34]
    header = f"{'#':>3} {'seconds':>10} {'scanned':>9} {'emitted':>9}  statement"
    lines.append(header)
    for rank, span in enumerate(queries, 1):
        scanned = span.tags.get("rows_scanned", "-")
        emitted = span.tags.get("rows_emitted", span.tags.get("rows_affected", "-"))
        statement = span.tags.get("statement", span.name)
        tables = span.tags.get("tables")
        if tables:
            if isinstance(tables, (list, tuple)):
                tables = ",".join(str(t) for t in tables)
            statement = f"{statement}({tables})"
        lines.append(
            f"{rank:>3} {span.duration:>10.4f} {scanned!s:>9} {emitted!s:>9}  {statement}"
        )
    return lines


def render_trace_report(
    spans: Iterable[Span],
    top_queries: int = 10,
    max_children: int = 8,
) -> str:
    """The full report: summary header, span tree, slowest-query table."""
    spans = list(spans)
    if not spans:
        return "trace report: no spans recorded"

    roots, children = _build_tree(spans)
    total = sum(root.duration for root in roots)
    by_kind: dict[str, int] = {}
    for span in spans:
        by_kind[span.kind] = by_kind.get(span.kind, 0) + 1

    lines = [
        "trace report",
        "============",
        f"spans: {len(spans)} "
        f"({', '.join(f'{kind}={n}' for kind, n in sorted(by_kind.items()))})",
        f"wall-clock: {total:.4f}s across {len(roots)} root span(s)",
        "",
    ]
    cache_lines = _cache_lines(roots)
    if cache_lines:
        lines.extend(cache_lines)
        lines.append("")
    for root in roots:
        _render_span(root, 0, total, children, max_children, lines)

    module_lines = _module_table(spans, children)
    if module_lines:
        lines.append("")
        lines.extend(module_lines)

    slow = _slowest_queries(spans, top_queries)
    if slow:
        lines.append("")
        lines.extend(slow)
    return "\n".join(lines)
