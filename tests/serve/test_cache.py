"""Content-addressed cache keys and the LRU result cache."""

import pytest

from .conftest import DIAG, make_trial
from repro.perfdmf import PerfDMF
from repro.serve import ResultCache, cache_key, rulebase_fingerprint


class TestCacheKey:
    def test_deterministic(self):
        a = cache_key("diagnose", {"app": "A", "trial": "t"}, ["h1"])
        b = cache_key("diagnose", {"trial": "t", "app": "A"}, ["h1"])
        assert a == b  # params are canonicalized, insertion order moot

    def test_sensitive_to_kind_params_and_trial_hash(self):
        base = cache_key("diagnose", {"app": "A"}, ["h1"])
        assert cache_key("compare", {"app": "A"}, ["h1"]) != base
        assert cache_key("diagnose", {"app": "B"}, ["h1"]) != base
        assert cache_key("diagnose", {"app": "A"}, ["h2"]) != base

    def test_sensitive_to_code_and_rulebase_versions(self):
        base = cache_key("diagnose", {}, [], code_version="1.0",
                         rulebase_version="r1")
        assert cache_key("diagnose", {}, [], code_version="1.1",
                         rulebase_version="r1") != base
        assert cache_key("diagnose", {}, [], code_version="1.0",
                         rulebase_version="r2") != base

    def test_rulebase_fingerprint_is_stable_in_process(self):
        assert rulebase_fingerprint() == rulebase_fingerprint()
        assert len(rulebase_fingerprint()) == 16


class TestTrialContentHash:
    """The trial component: row-id independent, content sensitive."""

    def test_identical_reupload_hashes_identically(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("t1"))
            first = db.content_hash("A", "E", "t1")
            db.delete_trial("A", "E", "t1")
            db.save_trial("A", "E", make_trial("t1"))  # new row ids
            assert db.content_hash("A", "E", "t1") == first

    def test_changed_data_changes_hash(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("t1"))
            first = db.content_hash("A", "E", "t1")
            db.save_trial("A", "E", make_trial("t1", skew=3.0), replace=True)
            assert db.content_hash("A", "E", "t1") != first

    def test_metadata_changes_hash(self):
        with PerfDMF() as db:
            db.save_trial("A", "E", make_trial("t1"))
            first = db.content_hash("A", "E", "t1")
            trial = make_trial("t1")
            trial.metadata["compiler"] = "O3"
            db.save_trial("A", "E", trial, replace=True)
            assert db.content_hash("A", "E", "t1") != first


class TestResultCache:
    def test_get_put_roundtrip_and_stats(self):
        cache = ResultCache()
        hit, _ = cache.get("k")
        assert not hit
        cache.put("k", {"answer": 42})
        hit, value = cache.get("k")
        assert hit and value == {"answer": 42}
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")       # touch a; b is now least recent
        cache.put("c", 3)    # evicts b
        assert cache.get("a") == (True, 1)
        assert cache.get("b") == (False, None)
        assert cache.get("c") == (True, 3)
        assert cache.snapshot()["evictions"] == 1

    def test_invalidate_trial_drops_dependent_entries_only(self):
        cache = ResultCache()
        cache.put("k1", 1, coords=[("A", "E", "t1")])
        cache.put("k2", 2, coords=[("A", "E", "t2")])
        cache.put("k3", 3, coords=[("A", "E", "t1"), ("A", "E", "t2")])
        assert cache.invalidate_trial("A", "E", "t1") == 2
        assert cache.get("k1")[0] is False
        assert cache.get("k2")[0] is True
        assert cache.get("k3")[0] is False
        assert cache.snapshot()["invalidations"] == 2

    def test_attach_invalidates_on_save_and_delete(self):
        cache = ResultCache()
        with PerfDMF() as db:
            cache.attach(db)
            db.save_trial("A", "E", make_trial("t1"))
            cache.put("k", 1, coords=[("A", "E", "t1")])
            db.save_trial("A", "E", make_trial("t1", skew=2.0), replace=True)
            assert cache.get("k")[0] is False
            cache.put("k2", 2, coords=[("A", "E", "t1")])
            db.delete_trial("A", "E", "t1")
            assert cache.get("k2")[0] is False

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", 1, coords=[("A", "E", "t1")])
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidate_trial("A", "E", "t1") == 0


class TestStaleResultWindow:
    """The cache key is taken at dispatch and the handler loads later.  A
    re-upload inside that window, reverted before the handler returns,
    must not leave the other version's result under the reverted
    content's key."""

    def test_reupload_and_revert_during_the_handler_is_not_cached(
            self, service, monkeypatch):
        # The newest trial: without AUTOINCREMENT its replacements would
        # get its id back, and the dispatch-time stamp would match again.
        service.db.save_trial("App", "Exp", make_trial("t3"))
        view = service._db_ro
        load = view.load_trial

        def load_inside_window(app, exp, trial):
            monkeypatch.setattr(view, "load_trial", load)  # only once
            service.db.save_trial(app, exp, make_trial(trial, skew=6.0),
                                  replace=True)
            loaded = load(app, exp, trial)
            service.db.save_trial(app, exp, make_trial(trial), replace=True)
            return loaded

        monkeypatch.setattr(view, "load_trial", load_inside_window)
        diag = {**DIAG, "trial": "t3"}
        raced = service.submit("diagnose", diag)
        assert raced.wait(10.0) and raced.status == "done"

        again = service.submit("diagnose", diag)
        assert again.wait(10.0) and again.status == "done"
        assert not again.cache_hit
        assert again.result["recommendations"] != \
            raced.result["recommendations"]  # raced saw the skewed upload

        warm = service.submit("diagnose", diag)
        assert warm.wait(10.0) and warm.cache_hit
        assert warm.result == again.result
