"""``benchmarks/hot_path_profile.py`` at tiny scale: a 1-test campaign."""

from __future__ import annotations

import gc
import importlib.util
import json
import signal
from pathlib import Path

import pytest

from repro.sim import Simulator

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "hot_path_profile.py"


@pytest.fixture(scope="module")
def profiler():
    spec = importlib.util.spec_from_file_location("hot_path_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_test_round_reports_self_time_and_collector(profiler, capsys):
    run, callbacks = Simulator.run, list(gc.callbacks)
    handler = signal.getsignal(signal.SIGPROF)
    assert profiler.main(["--budget", "1", "--interval-ms", "0.5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tests"] == 1 and report["events"] > 10_000
    assert report["samples"] > 0
    assert sum(report["self_share"].values()) == pytest.approx(1.0)
    assert any("Simulator._run_loop" in name for name in report["self_share"])
    collector = report["collector"]
    assert all(len(collector[key]) == 3 for key in ("cpu_s", "passes", "freed"))
    assert collector["freed_per_test"] == sum(collector["freed"]) / report["tests"]
    assert report["peak_rss_mb"] > 0
    text = profiler.format_report(report, top=5)
    assert "self time by function (top 5)" in text
    assert "cyclic collector by generation" in text
    assert f"collector freed per test: {collector['freed_per_test']:,.1f} objects" in text
    assert f"peak RSS (ru_maxrss): {report['peak_rss_mb']:.1f} MB" in text
    # No hook is left behind.
    assert Simulator.run is run and gc.callbacks == callbacks
    assert signal.getsignal(signal.SIGPROF) == handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_bad_arguments_exit_2(profiler):
    for argv in (["--budget", "0"], ["--interval-ms", "0"]):
        with pytest.raises(SystemExit) as raised:
            profiler.main(argv)
        assert raised.value.code == 2
