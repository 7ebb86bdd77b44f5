"""End-to-end HTTP tests for ``repro.serve``: registration, solving,
coalescing over the wire, admission control, error mapping, and the
metrics/stats/health surfaces."""

import concurrent.futures
import json

import pytest

from repro.core.moebius import AffineRecurrence
from repro.core.serialize import system_to_dict
from repro.core.workloads import random_gir_system
from repro.engine import EngineOptions
from repro.serve import ServeClient, ServeConfig, ServeError, ServeRejected

from .conftest import running_server


def affine(n=16, a=2.0, b=1.0):
    return AffineRecurrence.build(
        [1.0] * (n + 1),
        g=list(range(1, n + 1)),
        f=list(range(0, n)),
        a=[a] * n,
        b=[b] * n,
    )


def oracle(rec, values):
    out = list(values)
    for i in range(rec.n):
        out[int(rec.g[i])] = rec.a[i] * out[int(rec.f[i])] + rec.b[i]
    return out


@pytest.fixture(scope="module")
def server():
    rec = affine()
    with running_server(
        register=[(rec, EngineOptions(backend="numpy"))]
    ) as running:
        running.rec = rec
        running.fingerprint = next(iter(running.server._by_fingerprint))
        yield running


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class TestLifecycle:
    def test_health(self, server, client):
        doc = client.health()
        assert doc["ok"] is True

    def test_register_over_http(self, server, client):
        rec = affine(8, a=3.0)
        doc = client.register(
            system_to_dict(rec), options={"backend": "numpy"}
        )
        assert doc["family"] == "moebius"
        assert doc["backend"] == "numpy"
        assert doc["batch_capable"] is True
        assert doc["n"] == 9
        # registering the same problem again is idempotent
        again = client.register(
            system_to_dict(rec), options={"backend": "numpy"}
        )
        assert again["fingerprint"] == doc["fingerprint"]

    def test_register_unknown_option_key_is_400(self, server, client):
        with pytest.raises(ServeError) as exc:
            client.register(
                system_to_dict(affine(4)), options={"bogus": 1}
            )
        assert exc.value.status == 400
        assert "bogus" in str(exc.value)
        assert "backend" in str(exc.value)  # names the valid set

    def test_register_unknown_backend_option_is_400(self, server, client):
        with pytest.raises(ServeError) as exc:
            client.register(
                system_to_dict(affine(4)), options={"backend_options": {"bogus": 1}}
            )
        assert exc.value.status == 400
        assert "bogus" in str(exc.value)
        assert "valid keys: guard, path" in str(exc.value)

    def test_register_gir_eval_is_400(self, server, client):
        # GIR trace evaluation has no option: every backend sweeps a
        # level plan, and a table plan picks its evaluator itself
        gir = random_gir_system(20, seed=1)
        with pytest.raises(ServeError) as exc:
            client.register(
                system_to_dict(gir),
                options={"backend_options": {"gir_eval": "batched"}},
            )
        assert exc.value.status == 400
        assert "gir_eval" in str(exc.value)

    def test_unknown_route_is_404(self, server, client):
        with pytest.raises(ServeError) as exc:
            client._request("GET", "/v1/nope")
        assert exc.value.status == 404


class TestSolve:
    def test_solve_is_oracle_exact(self, server, client):
        values = [float(i) for i in range(17)]
        doc = client.solve(server.fingerprint, values=values)
        assert doc["values"] == oracle(server.rec, values)
        assert doc["family"] == "moebius"
        assert doc["backend"] == "numpy"
        assert doc["latency_s"] >= 0.0

    def test_solve_base_values(self, server, client):
        doc = client.solve(server.fingerprint)
        assert doc["values"] == oracle(server.rec, [1.0] * 17)

    def test_patch_and_digest_reply(self, server, client):
        patched = [1.0] * 17
        patched[0] = 5.0
        full = client.solve(server.fingerprint, values=patched)
        sparse = client.solve(
            server.fingerprint, patch={0: 5.0}, reply="digest"
        )
        assert "values" not in sparse
        assert sparse["n"] == 17
        ref = client.solve(
            server.fingerprint, values=patched, reply="digest"
        )
        assert sparse["digest"] == ref["digest"]
        for idx, val in sparse["sample"]:
            assert full["values"][idx] == val

    def test_values_and_patch_together_is_400(self, server, client):
        with pytest.raises(ServeError) as exc:
            client._request(
                "POST",
                "/v1/solve",
                {
                    "fingerprint": server.fingerprint,
                    "values": [1.0] * 17,
                    "patch": {"0": 2.0},
                },
            )
        assert exc.value.status == 400
        assert "not both" in str(exc.value)

    def test_unregistered_fingerprint_is_404(self, server, client):
        with pytest.raises(ServeError) as exc:
            client.solve("f" * 32, values=[1.0] * 17)
        assert exc.value.status == 404

    def test_bad_patch_index_is_400(self, server, client):
        with pytest.raises(ServeError) as exc:
            client.solve(server.fingerprint, patch={99: 1.0})
        assert exc.value.status == 400
        assert "patch index" in str(exc.value)

    def test_malformed_json_is_400(self, server, client):
        with pytest.raises(ServeError) as exc:
            client._request("POST", "/v1/solve", raw=b"{nope")
        assert exc.value.status == 400


class TestCoalescingOverHttp:
    def test_concurrent_requests_coalesce(self, server):
        values = [2.0] * 17
        expected = oracle(server.rec, values)

        def one(i):
            with ServeClient(server.host, server.port) as c:
                return c.solve(
                    server.fingerprint, values=values, request_id=f"q{i}"
                )

        with concurrent.futures.ThreadPoolExecutor(16) as pool:
            docs = list(pool.map(one, range(16)))
        assert all(doc["values"] == expected for doc in docs)
        assert {doc["request_id"] for doc in docs} == {
            f"q{i}" for i in range(16)
        }
        # at least some of a 16-wide burst must share a window
        assert any(doc["coalesced"] for doc in docs)
        assert all(doc["queue_wait_s"] >= 0.0 for doc in docs)


class TestAdmissionControl:
    def test_tenant_quota_rejects_with_429(self):
        rec = affine(8)
        config = ServeConfig(
            port=0, tenant_quota=1, window_ms=200.0
        )
        with running_server(
            config, register=[(rec, EngineOptions(backend="numpy"))]
        ) as running:
            fp = next(iter(running.server._by_fingerprint))

            def one(i):
                with ServeClient(running.host, running.port) as c:
                    try:
                        return c.solve(
                            fp, values=[float(i)] * 9, tenant="bob"
                        )
                    except ServeRejected as exc:
                        return exc

            # the long gather window holds the first request in flight
            # while the rest of the burst arrives
            with concurrent.futures.ThreadPoolExecutor(6) as pool:
                outcomes = list(pool.map(one, range(6)))
            rejected = [
                o for o in outcomes if isinstance(o, ServeRejected)
            ]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert rejected, "quota of 1 must reject part of a 6-burst"
            assert served, "quota must not starve the tenant entirely"
            assert all(o.status == 429 for o in rejected)
            assert all(o.reason == "quota" for o in rejected)

    def test_infeasible_deadline_rejected_up_front(self):
        rec = affine(8)
        config = ServeConfig(port=0, window_ms=100.0)
        with running_server(
            config, register=[(rec, EngineOptions(backend="numpy"))]
        ) as running:
            fp = next(iter(running.server._by_fingerprint))
            with ServeClient(running.host, running.port) as c:
                # deadline far below the 100ms gather window: admission
                # control rejects before queueing
                with pytest.raises(ServeRejected) as exc:
                    c.solve(fp, values=[1.0] * 9, deadline_s=0.001)
                assert exc.value.status == 503
                assert exc.value.reason == "deadline"
                # a feasible deadline sails through
                doc = c.solve(fp, values=[1.0] * 9, deadline_s=30.0)
                assert doc["values"] == oracle(rec, [1.0] * 9)


class TestObservability:
    def test_metrics_exposition(self, server, client):
        client.solve(server.fingerprint, values=[3.0] * 17)
        text = client.metrics_text()
        assert "serve_request_latency_s" in text
        assert "serve_coalesce_width" in text

    def test_stats_surface(self, server, client):
        client.solve(server.fingerprint, values=[4.0] * 17)
        doc = client.stats()
        assert doc["pool"]["sessions"] >= 1
        lanes = doc["lanes"]
        assert any(
            lane["fingerprint"] == server.fingerprint[:12]
            for lane in lanes
        )
        assert doc["config"]["max_pending"] >= 1


class TestClientRawHelpers:
    def test_request_supports_raw_bodies(self, server, client):
        # the raw= escape hatch used above must bypass JSON encoding
        doc = client._request(
            "POST",
            "/v1/solve",
            raw=json.dumps(
                {"fingerprint": server.fingerprint, "values": [1.0] * 17}
            ).encode(),
        )
        assert doc["values"] == oracle(server.rec, [1.0] * 17)
