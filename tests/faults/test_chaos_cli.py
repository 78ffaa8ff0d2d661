"""`python -m repro chaos` smoke: the drill passes end-to-end, twice
with the same seed, and reports machine-readable results."""

import json

import pytest

from repro import cli
from repro.faults import active, install
from repro.faults.chaos import parse_budget


@pytest.fixture(autouse=True)
def no_leftover_plan():
    prev = install(None)
    yield
    install(prev)


class TestParseBudget:
    def test_units(self):
        assert parse_budget("30s") == 30.0
        assert parse_budget("500ms") == 0.5
        assert parse_budget("2m") == 120.0
        assert parse_budget("1.5") == 1.5  # bare seconds

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="budget"):
            parse_budget("soon")


class TestChaosCommand:
    def test_drill_passes_on_thread_backend(self, capsys):
        rc = cli.main(["chaos", "--seed", "0", "--budget", "60s",
                       "--backend", "thread"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "CHAOS DRILL PASS" in out
        # the drill must not leave a fault plan installed
        assert active() is None

    def test_drill_passes_on_process_backend(self, capsys):
        """The default backend, where the shared-memory plane lives: the
        infra phase's shm fault must degrade that search to the thread
        backend, and no segment may leak."""
        rc = cli.main(["chaos", "--seed", "0", "--budget", "60s", "--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads(out)
        assert report["passed"] is True, report["problems"]
        assert report["backend"] == "process"
        assert report["search"]["backend"] == "process"
        assert report["infra"]["backend"] == "thread"
        assert report["shm_leaked_segments"] == []
        assert active() is None

    def test_json_report(self, capsys):
        rc = cli.main(["chaos", "--seed", "0", "--budget", "60s",
                       "--backend", "serial", "--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads(out)
        assert report["passed"] is True
        assert report["seed"] == 0
        assert report["problems"] == []
        assert report["search"]["backend"] == "serial"
        assert report["infra"]["backend"] == "serial"
        assert report["search"]["deterministic"] is True
        assert report["search"]["crashes_absorbed"] is True
        assert report["shm_leaked_segments"] == []
        assert report["registry"]["quarantined"] is True
        assert report["registry"]["fallback_served"] is True
        assert report["serving"]["recovered"] is True
        assert report["serving"]["shed"] > 0

    def test_skip_serving_omits_those_phases(self, capsys):
        rc = cli.main(["chaos", "--seed", "0", "--budget", "60s",
                       "--backend", "serial", "--skip-serving", "--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        report = json.loads(out)
        assert report["passed"] is True
        assert "serving" not in report
        assert "registry" not in report
