"""HTTP layer: routing, JSON error mapping, live-server round trips."""

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import PlannerService, create_server

_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 2,
    "seq_len": "8k",
    "schedules": ["1f1b"],
    "options": False,
}


@pytest.fixture()
def server():
    service = PlannerService()
    srv = create_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def _error(server, method, path, payload=None):
    try:
        if method == "GET":
            _get(server, path)
        else:
            _post(server, path, payload or {})
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())
    raise AssertionError(f"{method} {path} unexpectedly succeeded")


class TestRouting:
    def test_healthz(self, server):
        status, body = _get(server, "/v1/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["cache_entries"] == 0

    def test_unknown_path_is_404_json(self, server):
        code, body = _error(server, "GET", "/v1/nope")
        assert code == 404 and "unknown endpoint" in body["error"]

    def test_wrong_method_is_405_json(self, server):
        code, body = _error(server, "GET", "/v1/plan")
        assert code == 405 and "not allowed" in body["error"]
        code, body = _error(server, "POST", "/v1/stats")
        assert code == 405

    def test_keep_alive_responses_are_not_delayed(self, server):
        # Sequential requests on one keep-alive connection: a response
        # written as two segments under Nagle's algorithm waits for the
        # client's delayed ACK (~40 ms on Linux).
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            elapsed = []
            for _ in range(20):
                t0 = time.perf_counter()
                conn.request("GET", "/v1/healthz")
                resp = conn.getresponse()
                body = json.loads(resp.read())
                elapsed.append(time.perf_counter() - t0)
                assert resp.status == 200 and body["status"] == "ok"
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.010, elapsed

    def test_trailing_slash_is_tolerated(self, server):
        status, _ = _get(server, "/v1/healthz/")
        assert status == 200


class TestPlanEndpoint:
    def test_plan_round_trip_and_stats(self, server):
        status, body = _post(server, "/v1/plan", _BODY)
        assert status == 200
        assert body["outcome"] == "cold" and body["best"]["feasible"]
        assert body["best"]["schedule"] == "1f1b"

        status, again = _post(server, "/v1/plan", _BODY)
        assert again["outcome"] == "warm"
        assert again["plans"] == body["plans"]

        _, stats = _get(server, "/v1/stats")
        telemetry = stats["telemetry"]
        assert telemetry["plans"] == 2
        assert telemetry["plans_cold"] == 1 and telemetry["plans_warm"] == 1
        assert telemetry["by_endpoint"]["/v1/plan"] == 2
        assert stats["cache"]["disk_hits"] == 0

    def test_validation_error_is_400_json(self, server):
        code, body = _error(server, "POST", "/v1/plan", {"model": "70T"})
        assert code == 400 and "unknown model preset" in body["error"]
        code, body = _error(server, "POST", "/v1/plan", {"bogus": 1})
        assert code == 400 and "unknown plan request field" in body["error"]
        _, stats = _get(server, "/v1/stats")
        assert stats["telemetry"]["errors"] == 2

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/plan"),
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_empty_body_uses_defaults_but_is_validated(self, server):
        # An empty body is the all-defaults plan request (64k x p=8); we
        # only check it parses -- evaluating it would be a slow sweep --
        # by sending a tiny neighbouring request instead.
        status, body = _post(server, "/v1/plan", dict(_BODY, top=1))
        assert status == 200 and len(body["plans"]) == 1


class TestCoalescedErrors:
    def test_leader_internal_error_is_500_for_every_follower(self, server):
        """An internal (non-ValueError) leader failure keeps its class
        across coalesced followers: 500 for all, never 400."""
        service = server.service
        n = 4

        def failing_evaluate(query, workload):
            key = query.dedup_key(workload)
            for _ in range(2000):  # wait until every follower has joined
                with service._inflight_lock:
                    if service._inflight[key].waiters == n - 1:
                        break
                threading.Event().wait(0.005)
            raise RuntimeError("internal failure")

        service._evaluate = failing_evaluate
        results = []
        lock = threading.Lock()

        def request():
            code, body = _error(server, "POST", "/v1/plan", _BODY)
            with lock:
                results.append((code, body["error"]))

        threads = [threading.Thread(target=request) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert results == [(500, "RuntimeError: internal failure")] * n
        _, stats = _get(server, "/v1/stats")
        assert stats["telemetry"]["plans_coalesced"] == 0
        assert stats["telemetry"]["errors"] == n


class TestSweepEndpoint:
    def test_sweep_launch_and_poll(self, server):
        status, started = _post(
            server,
            "/v1/sweep",
            {
                "seq_lens": ["8k"],
                "pipeline_sizes": [2],
                "schedules": ["1f1b"],
                "options": False,
            },
        )
        assert status == 202 and started["points"] == 1
        for _ in range(200):
            _, body = _get(server, "/v1/sweeps")
            record = body["sweeps"][0]
            if record["state"] != "running":
                break
            threading.Event().wait(0.05)
        assert record["state"] == "done"
        # The sweep pre-filled the shared cache: the matching plan
        # request is served warm.
        _, plan = _post(server, "/v1/plan", _BODY)
        assert plan["outcome"] == "warm"
