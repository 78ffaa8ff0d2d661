"""Per-phase attribution: self-time accounting and the summary table."""

from __future__ import annotations

import json

import pytest

from repro.obs.summarize import (
    PHASES,
    attribute,
    format_table,
    load_spans,
    summarize_file,
)


def _span(name, dur, span, parent=None, pid=1):
    return {"name": name, "t": 0.0, "dur": dur, "pid": pid, "thread": "t",
            "span": span, "parent": parent, "trace": "tr"}


class TestAttribute:
    def test_phases_and_other_sum_to_wall(self):
        spans = [
            _span("trial", 1.0, "1-1"),
            _span("trial.bin", 0.1, "1-2", parent="1-1"),
            _span("trial.fit", 0.6, "1-3", parent="1-1"),
            _span("trial.score", 0.1, "1-4", parent="1-1"),
            _span("trial.metric", 0.05, "1-5", parent="1-1"),
        ]
        att = attribute(spans)
        assert att["trials"] == 1
        assert att["wall_s"] == pytest.approx(1.0)
        total = sum(att["phases"][p]["seconds"] for p in PHASES)
        assert total + att["other_s"] == pytest.approx(1.0)
        assert att["other_s"] == pytest.approx(0.15)
        assert att["coverage"] == pytest.approx(0.85)

    def test_nested_plane_span_charges_bin_not_fit(self):
        """A lazy plane code-build inside model.fit is self-time-charged
        to the bin phase and subtracted from fit — no double counting."""
        spans = [
            _span("trial", 1.0, "1-1"),
            _span("trial.fit", 0.8, "1-2", parent="1-1"),
            _span("plane.codes", 0.3, "1-3", parent="1-2"),
        ]
        att = attribute(spans)
        assert att["phases"]["fit"]["seconds"] == pytest.approx(0.5)
        assert att["phases"]["bin"]["seconds"] == pytest.approx(0.3)
        # the trial's own self-time is wall minus its direct children
        assert att["other_s"] == pytest.approx(0.2)

    def test_spans_outside_trials_grouped_as_extra(self):
        spans = [
            _span("trial", 0.5, "1-1"),
            _span("trial.fit", 0.5, "1-2", parent="1-1"),
            _span("http.request", 0.2, "1-9"),
        ]
        att = attribute(spans)
        assert att["wall_s"] == pytest.approx(0.5)  # http not trial wall
        assert att["extra"]["http.request"]["calls"] == 1

    def test_phase_spans_outside_trials_are_not_trial_time(self):
        """A plane span outside any trial (the winner's retrain binning
        in the parent) is listed under extra, not charged to ``bin``,
        so coverage cannot pass 100%.  A phase span nested deeper under
        a trial still counts."""
        spans = [
            _span("trial", 1.0, "1-1"),
            _span("trial.fit", 0.9, "1-2", parent="1-1"),
            _span("plane.codes", 0.2, "1-3", parent="1-2"),
            _span("automl.retrain", 2.0, "1-4"),
            _span("plane.codes", 0.5, "1-5", parent="1-4"),
            _span("plane.transform", 0.1, "1-6"),
        ]
        att = attribute(spans)
        assert att["coverage"] <= 1.0
        assert att["coverage"] == pytest.approx(0.9)
        assert att["phases"]["bin"]["seconds"] == pytest.approx(0.2)
        assert att["phases"]["bin"]["calls"] == 1
        assert att["extra"]["plane.codes"] == {"seconds": 0.5, "calls": 1}
        assert att["extra"]["plane.transform"]["calls"] == 1
        assert att["extra"]["automl.retrain"]["seconds"] == pytest.approx(1.5)

    def test_multi_pid_traces_counted(self):
        spans = [
            _span("trial", 0.5, "1-1", pid=1),
            _span("trial", 0.5, "2-1", pid=2),
        ]
        att = attribute(spans)
        assert att["trials"] == 2
        assert att["pids"] == 2

    def test_empty_trace(self):
        att = attribute([])
        assert att["wall_s"] == 0.0
        assert att["coverage"] == 0.0


class TestTable:
    def test_format_table_lists_every_phase(self):
        spans = [
            _span("trial", 1.0, "1-1"),
            _span("trial.fit", 0.9, "1-2", parent="1-1"),
        ]
        table = format_table(attribute(spans))
        for phase in PHASES:
            assert phase in table
        assert "(other)" in table
        assert "coverage" in table

    def test_summarize_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spans = [
            _span("trial", 2.0, "1-1"),
            _span("trial.fit", 1.5, "1-2", parent="1-1"),
        ]
        path.write_text("".join(json.dumps(s) + "\n" for s in spans))
        att, table = summarize_file(str(path))
        assert att["phases"]["fit"]["seconds"] == pytest.approx(1.5)
        assert "fit" in table
        assert load_spans(str(path)) == spans
