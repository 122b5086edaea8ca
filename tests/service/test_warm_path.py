"""Warm plans: lock-free, store-free, and invisible to the shared telemetry.

A plan whose candidates are all cached is answered by a lock-free
attempt over a read-only view of the cost cache; only a cache miss
falls through to the serialized ``_eval_lock`` path.  Background sweeps
take that lock once per grid point.
"""

import threading

from repro.service import PlannerService, parse_plan_request
from repro.tuner import CostCache, SqliteCostStore, autotune

_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 2,
    "seq_len": "8k",
    "schedules": ["1f1b"],
    "options": False,
}

# Several schedules, so the sweep prunes candidates: each pruned
# candidate used to cost a store membership query.
_WIDE_BODY = {"model": "7B", "gpu": "H20", "p": 4, "seq_len": "32k"}


class _CountingLock:
    """A lock that counts how often it was taken."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


def test_warm_plan_answers_while_eval_lock_is_held():
    service = PlannerService()
    cold = service.plan(_BODY)
    results = []
    with service._eval_lock:
        thread = threading.Thread(target=lambda: results.append(service.plan(_BODY)))
        thread.start()
        thread.join(30)
        assert not thread.is_alive(), "warm plan waited on _eval_lock"
    assert results[0]["outcome"] == "warm"
    assert results[0]["plans"] == cold["plans"]


def test_cold_plan_takes_the_serialized_path():
    service = PlannerService()
    service._eval_lock = lock = _CountingLock()
    assert service.plan(_BODY)["outcome"] == "cold"
    assert lock.acquired == 1
    assert service.plan(_BODY)["outcome"] == "warm"
    assert lock.acquired == 1


def test_warm_plan_makes_no_store_probes_after_first_touch(tmp_path, monkeypatch):
    path = tmp_path / "plans.sqlite"
    writer = PlannerService(CostCache.open(path))
    writer.plan(_WIDE_BODY)
    writer.close()

    service = PlannerService(CostCache.open(path))
    first = service.plan(_WIDE_BODY)  # first touch: records come off the store
    assert first["outcome"] == "warm" and first["cache"]["disk_hits"] > 0
    assert any((r["reason"] or "").startswith("pruned") for r in first["plans"])

    calls = []
    for name in ("get", "__contains__", "put"):
        original = getattr(SqliteCostStore, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(SqliteCostStore, name, counted)
    again = service.plan(_WIDE_BODY)
    assert again["outcome"] == "warm"
    assert again["plans"] == first["plans"]
    assert calls == []
    service.close()


def test_warm_plan_counts_hits_but_leaves_sweep_telemetry_alone():
    service = PlannerService()
    service.plan(_BODY)
    telemetry = service.stats()["sweep_telemetry"]
    hits = service.cache.stats.hits
    warm = service.plan(_BODY)
    assert warm["outcome"] == "warm"
    assert service.cache.stats.hits > hits
    assert service.stats()["sweep_telemetry"] == telemetry


def test_failed_warm_attempt_leaves_no_counts_behind():
    """The aborted lock-free attempt is dropped: a cold plan's hits,
    misses and pruned counts are those of the serialized sweep alone."""
    service = PlannerService()
    service.plan(_WIDE_BODY)
    direct = CostCache()
    query = parse_plan_request(_WIDE_BODY)
    wl = query.workload()
    autotune(wl, query.memory_cap_bytes(wl), cache=direct)
    assert service.cache.stats == direct.stats


def test_sweep_takes_the_eval_lock_once_per_point():
    service = PlannerService()
    service._eval_lock = lock = _CountingLock()
    service.start_sweep(
        {
            "seq_lens": ["4k", "8k"],
            "pipeline_sizes": [2, 4],
            "schedules": ["1f1b"],
            "options": False,
        }
    )
    service.close()
    (record,) = service.sweeps()
    assert record["state"] == "done" and record["points"] == 4
    assert lock.acquired == 4
