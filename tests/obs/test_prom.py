"""Prometheus exposition, the live HTTP endpoint, and the terminal
snapshot tooling (``obs top`` / ``obs diff``)."""

import json
import os
import subprocess
import sys
import textwrap
import threading
import urllib.request

import pytest

from repro.obs import (
    MetricsRegistry,
    PromFileWriter,
    diff_snapshots,
    format_diff,
    format_top,
    load_snapshot_file,
    serve_http,
    to_prometheus,
    write_prom_file,
)
from repro.obs.prom import sanitize_name


def _registry():
    reg = MetricsRegistry()
    reg.counter("engine.solves", backend="numpy").inc(3)
    reg.gauge("engine.shm.worker.shard_cells", proc="worker-0").set(128)
    h = reg.histogram("engine.session.latency_s", backend="numpy")
    for v in (0.001, 0.002, 0.3, 1.5):
        h.observe(v)
    return reg


def _parse_exposition(text):
    """Scrape-parse exposition text: {sample_name+labels: value} plus
    the '# TYPE' declarations -- the format contract a Prometheus
    scraper relies on."""
    samples, types = {}, {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(maxsplit=3)
            types[name] = kind
            continue
        assert not line.startswith("#"), line
        key, value = line.rsplit(" ", 1)
        assert key not in samples, f"duplicate sample {key}"
        samples[key] = float(value)
    return samples, types


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_name("engine.session.latency_s") == (
            "engine_session_latency_s"
        )

    def test_leading_digit_prefixed(self):
        assert sanitize_name("9lives")[0] == "_"


class TestExposition:
    def test_counter_total_suffix(self):
        samples, types = _parse_exposition(to_prometheus(_registry().snapshot()))
        assert samples['engine_solves_total{backend="numpy"}'] == 3
        assert types["engine_solves_total"] == "counter"

    def test_gauge_with_min_max_companions(self):
        samples, types = _parse_exposition(to_prometheus(_registry().snapshot()))
        sel = '{proc="worker-0"}'
        assert samples[f"engine_shm_worker_shard_cells{sel}"] == 128
        assert samples[f"engine_shm_worker_shard_cells_min{sel}"] == 128
        assert samples[f"engine_shm_worker_shard_cells_max{sel}"] == 128
        assert types["engine_shm_worker_shard_cells"] == "gauge"

    def test_unset_gauge_omitted(self):
        reg = MetricsRegistry()
        reg.gauge("idle")
        assert to_prometheus(reg.snapshot()).strip() == ""

    def test_histogram_buckets_cumulative(self):
        samples, types = _parse_exposition(to_prometheus(_registry().snapshot()))
        sel = 'backend="numpy"'
        assert types["engine_session_latency_s"] == "histogram"
        assert samples[f'engine_session_latency_s_count{{{sel}}}'] == 4
        assert samples[
            f'engine_session_latency_s_bucket{{{sel},le="+Inf"}}'
        ] == 4
        # cumulative counts never decrease along the ladder
        buckets = sorted(
            (float(k.split('le="')[1].rstrip('"}')), v)
            for k, v in samples.items()
            if "_bucket" in k and "+Inf" not in k
        )
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)
        assert counts[-1] <= 4

    def test_valid_sample_lines(self):
        # every non-comment line is "<name>{...} <float>"
        text = to_prometheus(_registry().snapshot())
        _parse_exposition(text)  # raises on malformed lines
        assert text.endswith("\n")


class TestFileTransport:
    def test_write_and_reload(self, tmp_path):
        path = str(tmp_path / "metrics.prom")
        text = write_prom_file(path, _registry())
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == text
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]

    def test_source_can_be_callable(self, tmp_path):
        path = str(tmp_path / "m.prom")
        write_prom_file(path, lambda: _registry().snapshot())
        samples, _ = _parse_exposition(open(path, encoding="utf-8").read())
        assert samples['engine_solves_total{backend="numpy"}'] == 3

    def test_file_writer_writes_final_snapshot(self, tmp_path):
        path = str(tmp_path / "w.prom")
        writer = PromFileWriter(path, _registry(), interval_s=60.0)
        writer.start()
        writer.stop()  # long interval: only the stop() write happens
        assert os.path.exists(path)

    def test_load_snapshot_file_accepts_both_shapes(self, tmp_path):
        snap = _registry().snapshot()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(snap))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"metrics": snap, "other": 1}))
        assert load_snapshot_file(str(bare)) == snap
        assert load_snapshot_file(str(wrapped)) == snap


class TestHttpEndpoint:
    @pytest.fixture()
    def server(self):
        srv = serve_http(_registry(), port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)

    def _get(self, server, path):
        port = server.server_address[1]
        return urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        )

    def test_scrape_parses(self, server):
        resp = self._get(server, "/metrics")
        assert resp.status == 200
        assert "version=0.0.4" in resp.headers["Content-Type"]
        samples, types = _parse_exposition(resp.read().decode("utf-8"))
        assert samples['engine_solves_total{backend="numpy"}'] == 3
        assert types["engine_session_latency_s"] == "histogram"

    def test_root_serves_metrics_too(self, server):
        assert self._get(server, "/").status == 200

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as info:
            self._get(server, "/nope")
        assert info.value.code == 404


def test_default_solves_never_import_http_server():
    """``http.server`` (and the ``email`` package it loads) is imported
    by :func:`serve_http` alone: a fresh interpreter's default solves
    of every family leave both unimported."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    code = textwrap.dedent(
        """
        import sys
        from repro.core import FLOAT_ADD
        from repro.core.moebius import AffineRecurrence
        from repro.core.workloads import (
            fibonacci_gir_system, random_gir_system, random_ordinary_system,
            scatter_system,
        )
        from repro.engine import solve

        solve(random_ordinary_system(64, seed=0, op=FLOAT_ADD))
        solve(AffineRecurrence.build(
            [0.5] * 65, range(1, 65), range(64), [0.5] * 64, [0.25] * 64))
        solve(random_gir_system(64, extra_cells=64, seed=0))
        solve(fibonacci_gir_system(300))
        solve(scatter_system(200, 16, seed=2))
        print(sorted(m for m in sys.modules if m in ("http.server", "email")))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestTop:
    def test_sections_and_counts(self):
        text = format_top(_registry().snapshot(), title="t=1")
        assert "t=1" in text
        assert "3 series (1 counters, 1 gauges, 1 histograms)" in text
        assert "HISTOGRAM" in text and "COUNTER" in text and "GAUGE" in text
        assert "engine.solves{backend=numpy}" in text

    def test_empty_snapshot(self):
        assert "0 series" in format_top([])


class TestDiff:
    def test_counter_delta_and_statuses(self):
        before = _registry()
        after = _registry()
        after.counter("engine.solves", backend="numpy").inc(2)
        after.counter("fresh").inc()
        rows = diff_snapshots(before.snapshot(), after.snapshot())
        by_name = {(r["name"], r["status"]): r for r in rows}
        assert by_name[("engine.solves", "changed")]["delta"] == 2
        assert ("fresh", "added") in by_name
        assert by_name[("engine.session.latency_s", "unchanged")]["delta"] == 0

    def test_removed_series(self):
        rows = diff_snapshots(_registry().snapshot(), [])
        assert {r["status"] for r in rows} == {"removed"}

    def test_format_diff_hides_unchanged(self):
        snap = _registry().snapshot()
        rows = diff_snapshots(snap, snap)
        assert format_diff(rows) == "0 series changed"
        assert "unchanged-ish" not in format_diff(rows, include_unchanged=True)
        assert "3 series" in format_diff(rows, include_unchanged=True)
