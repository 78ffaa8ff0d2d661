"""Per-phase time attribution from a JSONL span trace.

Turns a trace produced by :mod:`repro.obs.trace` (e.g. via
``bench_hotpath.py --trace`` or ``python -m repro fit --trace``) into
the table that answers "where do a trial's milliseconds go":

* **self-time accounting** — every span is charged its own duration
  minus its direct children's, so a plane code-build that happens
  lazily *inside* ``model.fit`` is attributed to the ``bin`` phase,
  not double-counted under ``fit``;
* **phase roll-up** — span names map onto the five trial phases
  (``bin`` / ``construct`` / ``fit`` / ``score`` / ``metric``); the
  remainder of the trial wall (controller/evaluate glue, RNG setup)
  shows up honestly as ``(other)``;
* **coverage** — the fraction of total trial wall the named phases
  explain, the number the acceptance gate reads.

``python -m repro trace summarize TRACE.jsonl`` prints the table;
:func:`attribute` returns the raw dict for programmatic use.
"""

from __future__ import annotations

import json

__all__ = ["PHASES", "attribute", "format_table", "load_spans",
           "summarize_file"]

#: trial phases in pipeline order
PHASES = ("bin", "construct", "fit", "score", "metric")

#: span name -> phase.  ``plane.*`` spans fire inside the binned-data
#: plane on cache misses (possibly nested under ``trial.fit`` when a
#: learner materialises its codes lazily) — self-time accounting
#: charges them to ``bin`` either way.  A span is charged to its phase
#: only when a ``trial`` span is among its ancestors: the same names
#: also fire outside any trial (the winner's retrain bins through
#: ``plane.codes``, the parent splits and transforms before the trial
#: loop), and that time is no part of the trial wall.
PHASE_OF = {
    "trial.bin": "bin",
    "plane.split": "bin",
    "plane.codes": "bin",
    "plane.transform": "bin",
    "trial.construct": "construct",
    "trial.fit": "fit",
    "trial.score": "score",
    "trial.metric": "metric",
}


def load_spans(path: str) -> list[dict]:
    """Parse a JSONL trace file (blank lines ignored)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """(span, self_duration) with direct children's time subtracted."""
    child_sum: dict[str, float] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None:
            child_sum[parent] = child_sum.get(parent, 0.0) + rec["dur"]
    return [
        (rec, max(0.0, rec["dur"] - child_sum.get(rec.get("span"), 0.0)))
        for rec in spans
    ]


def _under_trial(rec: dict, by_id: dict) -> bool:
    """Whether a ``trial`` span is among ``rec``'s ancestors."""
    seen = set()
    parent = rec.get("parent")
    while parent is not None and parent not in seen:
        seen.add(parent)
        anc = by_id.get(parent)
        if anc is None:
            return False
        if anc.get("name") == "trial":
            return True
        parent = anc.get("parent")
    return False


def attribute(spans: list[dict]) -> dict:
    """Per-phase attribution over the ``trial`` spans in a trace.

    Returns a dict with per-phase ``{seconds, calls, share}`` (share of
    total trial wall), the unattributed ``other`` remainder, the
    ``coverage`` fraction the named phases explain, and bookkeeping
    (span/trial counts, distinct pids — worker-shipped buffers show up
    here).
    """
    trials = [rec for rec in spans if rec.get("name") == "trial"]
    wall = sum(rec["dur"] for rec in trials)
    phase_s = {p: 0.0 for p in PHASES}
    phase_n = {p: 0 for p in PHASES}
    # spans outside any trial (http.request, or a phase span such as the
    # retrain's plane.codes) are grouped separately
    trial_ids = {rec.get("span") for rec in trials}
    by_id = {rec.get("span"): rec for rec in spans}
    extra: dict[str, dict] = {}
    for rec, self_dur in _self_times(spans):
        name = rec.get("name")
        phase = PHASE_OF.get(name)
        if phase is not None and _under_trial(rec, by_id):
            phase_s[phase] += self_dur
            phase_n[phase] += 1
        elif name != "trial":
            slot = extra.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += self_dur
            slot["calls"] += 1
    attributed = sum(phase_s.values())
    return {
        "trials": len(trials),
        "spans": len(spans),
        "pids": len({rec.get("pid") for rec in spans}),
        "wall_s": wall,
        "phases": {
            p: {
                "seconds": phase_s[p],
                "calls": phase_n[p],
                "share": (phase_s[p] / wall) if wall else 0.0,
            }
            for p in PHASES
        },
        "other_s": max(0.0, wall - attributed),
        "coverage": (attributed / wall) if wall else 0.0,
        "extra": extra,
        "trial_span_ids": len(trial_ids),
    }


def format_table(att: dict) -> str:
    """Render an :func:`attribute` result as an aligned text table."""
    lines = [
        f"{'phase':<14} {'calls':>7} {'total_s':>10} {'% of trial wall':>16}",
        "-" * 50,
    ]
    for p in PHASES:
        row = att["phases"][p]
        lines.append(
            f"{p:<14} {row['calls']:>7} {row['seconds']:>10.3f} "
            f"{100.0 * row['share']:>15.1f}%"
        )
    wall = att["wall_s"]
    other_share = (att["other_s"] / wall) if wall else 0.0
    lines.append(
        f"{'(other)':<14} {'':>7} {att['other_s']:>10.3f} "
        f"{100.0 * other_share:>15.1f}%"
    )
    lines.append("-" * 50)
    lines.append(
        f"{'trial wall':<14} {att['trials']:>7} {wall:>10.3f} "
        f"{'(coverage ' + format(100.0 * att['coverage'], '.1f') + '%)':>16}"
    )
    for name, row in sorted(att["extra"].items()):
        lines.append(
            f"{name:<14} {row['calls']:>7} {row['seconds']:>10.3f} "
            f"{'(outside trials)':>16}"
        )
    lines.append(
        f"spans: {att['spans']}  pids: {att['pids']}"
    )
    return "\n".join(lines)


def summarize_file(path: str) -> tuple[dict, str]:
    """Load, attribute, and format a JSONL trace file."""
    att = attribute(load_spans(path))
    return att, format_table(att)
