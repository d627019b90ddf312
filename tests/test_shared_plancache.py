"""The plan cache shared across replicas and jobs: digest keying, scoping,
end-to-end reuse."""

from repro.core.config import ExtractionConfig
from repro.engine.database import PlanCache
from repro.serve.service import build_instance


class TestCatalogDigest:
    def test_identical_instances_share_a_digest(self):
        db_a = build_instance("tpch", 0.0005, 11)
        db_b = build_instance("tpch", 0.0005, 11)
        assert db_a.catalog_digest() == db_b.catalog_digest()
        # data seeds differ but the catalog is the same shape
        db_c = build_instance("tpch", 0.0005, 12)
        assert db_a.catalog_digest() == db_c.catalog_digest()

    def test_different_catalogs_get_different_digests(self):
        tpch = build_instance("tpch", 0.0005, 11)
        imdb = build_instance("job", 0.0005, 11)
        assert tpch.catalog_digest() != imdb.catalog_digest()

    def test_ddl_changes_the_digest(self):
        db = build_instance("tpch", 0.0005, 11)
        before = db.catalog_digest()
        db.drop_table("region")
        assert db.catalog_digest() != before


def _key(db, sql="SELECT 1"):
    """The plan-cache key ``db`` looks ``sql`` up under."""
    return (sql, db.catalog_version, db.catalog_digest())


class TestSharedPlanCache:
    def test_cross_scope_hit_on_matching_digest(self):
        shared = PlanCache(capacity=16)
        db_a = build_instance("tpch", 0.0005, 11)
        db_b = build_instance("tpch", 0.0005, 12)
        assert shared.get(_key(db_a), "job-a") is None  # cold miss, registers scope
        shared.put(_key(db_a), ("stmt", "plan"), "job-a")
        assert shared.get(_key(db_b), "job-b") == ("stmt", "plan")
        stats = shared.stats()
        assert stats["cross_scope_hits"] == 1
        assert stats["scopes"] == 2
        assert shared.stats("job-b")["hits"] == 1
        assert shared.stats("job-b")["cross_scope_hits"] == 1

    def test_no_aliasing_across_catalog_digests(self):
        shared = PlanCache(capacity=16)
        tpch = build_instance("tpch", 0.0005, 11)
        imdb = build_instance("job", 0.0005, 11)
        shared.put(("SELECT 1", 0, tpch.catalog_digest()), ("stmt", "plan"), "a")
        # same SQL, same version number, different catalog: must miss
        assert shared.get(("SELECT 1", 0, imdb.catalog_digest()), "b") is None

    def test_lru_eviction_purges_ownership(self):
        shared = PlanCache(capacity=2)
        db = build_instance("tpch", 0.0005, 11)
        shared.put(_key(db, "q1"), ("s1", "p1"), "s")
        shared.put(_key(db, "q2"), ("s2", "p2"), "s")
        shared.put(_key(db, "q3"), ("s3", "p3"), "s")  # evicts q1
        assert shared.get(_key(db, "q1"), "s") is None
        assert shared.get(_key(db, "q3"), "s") == ("s3", "p3")
        assert shared.stats()["entries"] == 2
        assert shared._owners.keys() == shared._entries.keys()

    def test_replica_shares_the_cache(self):
        db = build_instance("tpch", 0.0005, 11)
        db.plan_cache = PlanCache(capacity=16)
        db.plan_cache_scope = "s"
        replica = db.replica(db.snapshot())
        assert replica.plan_cache is db.plan_cache
        assert replica.plan_cache_scope == "s"
        assert _key(replica) == _key(db)  # same version, same digest
        sql = "select r_name from region"
        db.execute(sql)
        hits = db.plan_cache.hits
        assert replica.execute(sql).rows == db.execute(sql).rows
        assert db.plan_cache.hits == hits + 2
        assert db.plan_cache.stats()["cross_scope_hits"] == 0

    def test_scope_stats_count_only_that_scopes_evictions(self):
        shared = PlanCache(capacity=2)
        db = build_instance("tpch", 0.0005, 11)
        shared.put(_key(db, "a1"), ("s", "p"), "job-a")
        shared.put(_key(db, "b1"), ("s", "p"), "job-b")
        shared.put(_key(db, "b2"), ("s", "p"), "job-b")  # evicts job-a's a1
        shared.put(_key(db, "b3"), ("s", "p"), "job-b")  # evicts job-b's b1
        job_a, job_b = shared.stats("job-a"), shared.stats("job-b")
        assert (job_a["evictions"], job_a["entries"]) == (1, 0)
        assert (job_b["evictions"], job_b["entries"]) == (1, 2)
        total = shared.stats()
        assert (total["evictions"], total["entries"]) == (2, 2)

    def test_concurrent_scopes_keep_consistent_counts(self):
        import sys
        import threading

        cache = PlanCache(capacity=8)
        threads, rounds = 6, 400
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def hammer(scope):
            for i in range(rounds):
                key = (f"q{i % 12}", 0, "d")
                if cache.get(key, scope) is None:
                    cache.put(key, ("s", "p"), scope)

        try:
            workers = [
                threading.Thread(target=hammer, args=(f"job-{n % 3}",))
                for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(switch)
        total = cache.stats()
        scopes = [cache.stats(f"job-{n}") for n in range(3)]
        assert total["hits"] + total["misses"] == threads * rounds
        for field in ("hits", "misses", "evictions", "entries", "cross_scope_hits"):
            assert total[field] == sum(scope[field] for scope in scopes), field
        assert total["entries"] == 8
        assert cache._owners.keys() == cache._entries.keys()

    def test_replica_and_restore_reuse_the_catalog_digest(self, monkeypatch):
        from repro.engine import database

        db = build_instance("tpch", 0.0005, 11)
        token = db.snapshot()
        db.execute("select r_name from region")
        calls = []
        original = database._catalog_digest

        def counting(catalog):
            calls.append(catalog)
            return original(catalog)

        monkeypatch.setattr(database, "_catalog_digest", counting)
        for _ in range(5):
            db.replica(token).execute("select r_name from region")
            db.restore(token)
            db.execute("select r_name from region")
        assert calls == []
        db.drop_table("region")  # a new catalog version is hashed once
        db.catalog_digest()
        db.replica(db.snapshot()).catalog_digest()
        assert len(calls) == 1


class TestEndToEndSharing:
    def test_two_extractions_share_plans_and_stay_byte_identical(self):
        from repro.apps.executable import SQLExecutable
        from repro.core.pipeline import UnmasqueExtractor
        from repro.workloads import tpch_queries

        sql = tpch_queries.QUERIES["Q6"].sql
        baseline = UnmasqueExtractor(
            build_instance("tpch", 0.0005, 11),
            SQLExecutable(sql, obfuscate_text=True),
            ExtractionConfig(fail_fast=False),
        ).extract().sql

        shared = PlanCache(capacity=2048)
        outcomes = []
        for scope in ("job-1", "job-2"):
            outcomes.append(UnmasqueExtractor(
                build_instance("tpch", 0.0005, 11),
                SQLExecutable(sql, obfuscate_text=True),
                ExtractionConfig(
                    fail_fast=False,
                    shared_plan_cache=shared,
                    plan_cache_scope=scope,
                ),
            ).extract().sql)
        # the shared cache is an optimisation, never a semantic input
        assert outcomes[0] == baseline
        assert outcomes[1] == baseline
        stats = shared.stats()
        assert stats["scopes"] == 2
        # the second run replays the first run's probes: cross-scope reuse
        assert stats["cross_scope_hits"] > 0
