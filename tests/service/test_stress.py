"""Concurrency stress and shutdown: the ISSUE's lost-update regression net.

The storm drives one :class:`PlannerService` over a sqlite-backed cache
with >=8 threads mixing ``/v1/plan`` and ``/v1/sweep`` traffic exactly
the way the HTTP layer does (``record_request`` on entry, ``record_error``
on failure) and then checks two conservation laws:

- telemetry counters balance: every request is accounted cold, warm,
  coalesced or error -- a lost update under ``ServiceTelemetry._lock``
  (or an unlocked ``CostCache`` publish) breaks the equality;
- no cache write is lost: after the storm every plan answer is warm and
  every in-memory entry reached the sqlite store's write-through.

The shutdown class covers the graceful-drain contract ``repro serve``
relies on: close() joins sweep threads, rejects late sweeps, closes the
store's connections, and is idempotent.
"""

import sys
import threading
import time

import pytest

from repro.service import PlannerService
from repro.tuner import CostCache, SweepTelemetry

_PLAN_BODIES = [
    {
        "model": "7B",
        "gpu": "H20",
        "p": 2,
        "seq_len": seq,
        "schedules": ["1f1b"],
        "options": False,
    }
    for seq in ("4k", "8k")
]

_SWEEP_BODY = {
    "model": "7B",
    "seq_lens": ["4k", "8k"],
    "pipeline_sizes": [2],
    "schedules": ["1f1b"],
    "options": False,
}


@pytest.fixture
def service(tmp_path):
    path = tmp_path / "stress.sqlite"
    cache = CostCache.open(path)
    svc = PlannerService(cache, save_path=str(path), save_backend="sqlite")
    yield svc
    svc.close()


class TestStressStorm:
    def test_counter_conservation_and_no_lost_writes(self, service):
        n_plan_threads, plans_each = 8, 3
        errors: list[BaseException] = []
        err_lock = threading.Lock()
        gate = threading.Barrier(n_plan_threads + 2)

        def plan_worker(idx):
            gate.wait()
            for i in range(plans_each):
                body = _PLAN_BODIES[(idx + i) % len(_PLAN_BODIES)]
                service.telemetry.record_request("/v1/plan")
                try:
                    service.plan(body)
                except BaseException as err:
                    service.telemetry.record_error()
                    with err_lock:
                        errors.append(err)

        def sweep_worker():
            gate.wait()
            service.telemetry.record_request("/v1/sweep")
            try:
                service.start_sweep(_SWEEP_BODY)
            except BaseException as err:
                service.telemetry.record_error()
                with err_lock:
                    errors.append(err)

        def bad_worker():
            gate.wait()
            service.telemetry.record_request("/v1/plan")
            try:
                service.plan({"model": "no-such-model"})
            except ValueError:
                service.telemetry.record_error()

        threads = [
            threading.Thread(target=plan_worker, args=(i,))
            for i in range(n_plan_threads)
        ]
        threads.append(threading.Thread(target=sweep_worker))
        threads.append(threading.Thread(target=bad_worker))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        # Conservation: requests == cold + warm + coalesced + errors.
        # (The sweep request is counted on /v1/sweep but produces no plan
        # outcome, so balance plan-endpoint traffic specifically.)
        tele = service.telemetry.as_dict()
        plan_requests = tele["by_endpoint"]["/v1/plan"]
        outcomes = (
            tele["plans_cold"]
            + tele["plans_warm"]
            + tele["plans_coalesced"]
            + tele["errors"]
        )
        assert plan_requests == n_plan_threads * plans_each + 1
        assert outcomes == plan_requests
        assert tele["errors"] == 1  # exactly the seeded bad request
        # Dedup really coalesced or warmed duplicates: only one cold
        # evaluation can exist per distinct body.
        assert tele["plans_cold"] <= len(_PLAN_BODIES)

        # No lost cache writes, part 1: everything answers warm now.
        for body in _PLAN_BODIES:
            assert service.plan(body)["outcome"] == "warm"
        # Part 2: every in-memory entry reached the sqlite store.
        assert service.cache.store is not None
        for key, _record in service.cache.entries():
            assert key in service.cache.store

    def test_identical_burst_coalesces_to_one_cold_eval(self, service):
        n = 8
        gate = threading.Barrier(n)
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker():
            gate.wait()
            out = service.plan(_PLAN_BODIES[0])["outcome"]
            with lock:
                outcomes.append(out)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == n
        assert outcomes.count("cold") == 1
        assert set(outcomes) <= {"cold", "warm", "coalesced"}


def _wait_until(predicate, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"


class TestSnapshotsUnderTraffic:
    """Readers never see a half-published sweep record or telemetry."""

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _stop(self, stop, threads):
        stop.set()
        for t in threads:
            t.join(60)
            assert not t.is_alive()

    def _traffic(self, service, stop):
        def plans():
            while not stop.is_set():
                for body in _PLAN_BODIES:
                    service.plan(body)
                    service.plan(dict(body, p=4))

        threads = [threading.Thread(target=plans) for _ in range(2)]
        for t in threads:
            t.start()
        return threads

    def test_sweep_records_are_published_whole(self, service):
        stop = threading.Event()
        threads = self._traffic(service, stop)
        seen = []
        for _ in range(4):
            service.start_sweep(_SWEEP_BODY)

        def finished():
            records = service.sweeps()
            seen.extend(records)
            return all(r["state"] != "running" for r in records)

        _wait_until(finished)
        self._stop(stop, threads)
        for r in seen:
            if r["state"] == "running":
                assert r["candidates"] is None and r["elapsed_s"] is None
            else:
                assert r["state"] == "done", r["error"]
                assert r["candidates"] > 0 and r["elapsed_s"] is not None
        assert any(r["state"] == "running" for r in seen)

    def test_sweep_telemetry_is_touched_only_under_its_lock(self, service):
        """Sweeps and cold plans fill private telemetry and merge it under
        the service's lock; stats() snapshots under the same lock, so a
        snapshot never shows a sweep in progress."""
        lock = service._telemetry_lock
        unlocked = []

        class Guarded(SweepTelemetry):
            def __setattr__(self, name, value):
                if not lock.locked():
                    unlocked.append(name)
                super().__setattr__(name, value)

            def as_dict(self):
                if not lock.locked():
                    unlocked.append("as_dict")
                return super().as_dict()

        with lock:
            service.sweep_telemetry = Guarded()
        stop = threading.Event()
        threads = self._traffic(service, stop)
        for _ in range(4):
            service.start_sweep(_SWEEP_BODY)
        snapshots = []

        def finished():
            snapshots.append(service.stats()["sweep_telemetry"])
            return all(r["state"] != "running" for r in service.sweeps())

        _wait_until(finished)
        self._stop(stop, threads)
        snapshots.append(service.stats()["sweep_telemetry"])
        assert unlocked == []
        assert snapshots[-1]["simulated"] > 0
        for snap in snapshots:
            # eval_s covers build and simulate time once a sweep is merged.
            assert snap["eval_s"] >= snap["build_s"] + snap["simulate_s"]


class TestGracefulShutdown:
    def test_close_drains_sweeps_and_reports_save_count(self, tmp_path):
        path = tmp_path / "drain.sqlite"
        service = PlannerService(
            CostCache.open(path), save_path=str(path), save_backend="sqlite"
        )
        service.start_sweep(_SWEEP_BODY)
        saved = service.close()
        # The sweep thread was joined before the final save, so its
        # results are included and its record reached a terminal state.
        assert saved is not None and saved > 0
        (record,) = service.sweeps()
        assert record["state"] in ("done", "failed")
        assert record["state"] == "done"

    def test_close_joins_sweeps_started_concurrently(self, tmp_path, monkeypatch):
        """Sweeps accepted while other sweeps start and close() runs are
        joined, not dropped: when close() returns, every accepted sweep
        has finished.  A slow Thread.start widens the window in which a
        sweep thread is registered but not yet started."""
        real_start = threading.Thread.start

        def slow_start(thread):
            time.sleep(0.01)
            real_start(thread)

        service = PlannerService(CostCache.open(tmp_path / "race.sqlite"))
        gate = threading.Barrier(4)

        def starter():
            gate.wait()
            for _ in range(3):
                try:
                    service.start_sweep(_SWEEP_BODY)
                except ValueError:  # rejected after close()
                    return

        threads = [threading.Thread(target=starter) for _ in range(4)]
        for t in threads:
            t.start()
        monkeypatch.setattr(threading.Thread, "start", slow_start)
        _wait_until(lambda: len(service.sweeps()) >= 4)
        service.close()
        states = [r["state"] for r in service.sweeps()]
        monkeypatch.undo()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert "running" not in states

    def test_sweep_after_close_is_rejected(self, tmp_path):
        service = PlannerService(CostCache.open(tmp_path / "c.sqlite"))
        service.close()
        with pytest.raises(ValueError, match="shutting down"):
            service.start_sweep(_SWEEP_BODY)

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "idem.sqlite"
        service = PlannerService(
            CostCache.open(path), save_path=str(path), save_backend="sqlite"
        )
        assert service.close() == service.close()

    def test_close_without_save_path_returns_none(self):
        service = PlannerService(CostCache())
        assert service.close() is None

    def test_close_closes_store_connections(self, tmp_path):
        path = tmp_path / "fds.sqlite"
        service = PlannerService(
            CostCache.open(path), save_path=str(path), save_backend="sqlite"
        )
        service.plan(_PLAN_BODIES[0])
        store = service.cache.store
        assert store._all_conns
        service.close()
        assert store._all_conns == []
