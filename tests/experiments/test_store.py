"""Tests for the content-addressed result store and suite resumability."""

from __future__ import annotations

import json

import pytest

from repro.experiments import run_suite
from repro.experiments.ablation import epsilon_ablation_spec
from repro.experiments.chaos import chaos_sweep_spec
from repro.experiments.store import STORE_SCHEMA, ResultStore, payload_checksum
from repro.experiments.table1 import table1_spec


def _specs():
    return [
        table1_spec(sizes=(40, 80), sample_pairs=40),
        epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=40),
    ]


class TestResultStore:
    def test_put_then_get(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"rows": [{"a": 1}]}
        store.put("scenario", "k" * 32, payload, params={"x": 1}, seed=7,
                  workload_fingerprint="fp", version="1")
        assert store.get("scenario", "k" * 32) == payload

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get("scenario", "missing") is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("s", "a" * 32, {"v": 1}, params={}, seed=0,
                         workload_fingerprint="", version="1")
        path.write_text("{not json", encoding="utf-8")
        assert store.get("s", "a" * 32) is None

    def test_key_changes_with_every_component(self):
        base = ResultStore.task_key("s", {"x": 1}, "fp", "1")
        assert base == ResultStore.task_key("s", {"x": 1}, "fp", "1")
        assert base != ResultStore.task_key("s", {"x": 2}, "fp", "1")
        assert base != ResultStore.task_key("t", {"x": 1}, "fp", "1")
        assert base != ResultStore.task_key("s", {"x": 1}, "fp2", "1")
        assert base != ResultStore.task_key("s", {"x": 1}, "fp", "2")

    def test_put_records_payload_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {"rows": [{"a": 1}]}
        path = store.put("s", "c" * 32, payload, params={}, seed=0,
                         workload_fingerprint="", version="1")
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["schema"] == STORE_SCHEMA
        assert entry["payload_sha256"] == payload_checksum(payload)

    def test_bit_flip_in_payload_is_a_miss_and_auto_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("s", "b" * 32, {"v": 1}, params={}, seed=0,
                         workload_fingerprint="", version="1")
        # Valid JSON, but the payload no longer matches its checksum.
        path.write_text(path.read_text(encoding="utf-8").replace('"v": 1', '"v": 2'),
                        encoding="utf-8")
        assert store.get("s", "b" * 32) is None
        assert not path.exists()

    def test_unparseable_entry_auto_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("s", "d" * 32, {"v": 1}, params={}, seed=0,
                         workload_fingerprint="", version="1")
        path.write_text("{not json", encoding="utf-8")
        assert store.get("s", "d" * 32) is None
        assert not path.exists()

    def test_stale_schema_auto_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put("s", "e" * 32, {"v": 1}, params={}, seed=0,
                         workload_fingerprint="", version="1")
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = "repro-result-store/v1"
        del entry["payload_sha256"]
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert store.get("s", "e" * 32) is None
        assert not path.exists()

    def test_audit_reports_and_removes_only_corrupt_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("s", "1" * 32, {"v": 1}, params={}, seed=0,
                  workload_fingerprint="", version="1")
        bad = store.put("s", "2" * 32, {"v": 2}, params={}, seed=0,
                        workload_fingerprint="", version="1")
        bad.write_text("garbage", encoding="utf-8")
        assert store.audit() == [("s", "2" * 32)]
        assert store.get("s", "1" * 32) == {"v": 1}
        assert store.size() == 1
        assert store.audit() == []

    def test_entries_and_prune(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("a", "1" * 32, {}, params={}, seed=0, workload_fingerprint="", version="1")
        store.put("b", "2" * 32, {}, params={}, seed=0, workload_fingerprint="", version="1")
        assert store.size() == 2
        assert store.size("a") == 1
        assert store.prune("a") == 1
        assert store.size() == 1


class TestHotLayer:
    """The in-memory verified-entry cache (PR 9's serving-tier hit path)."""

    def _put(self, store, key, payload):
        return store.put("s", key, payload, params={}, seed=0,
                         workload_fingerprint="", version="1")

    def test_repeated_get_skips_the_reread(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        self._put(store, "a" * 32, {"v": 1})
        assert store.get("s", "a" * 32) == {"v": 1}
        # Any further disk read would crash: the hot layer must answer.
        monkeypatch.setattr(
            type(tmp_path), "read_text",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("hot miss")),
        )
        assert store.get("s", "a" * 32) == {"v": 1}

    def test_put_warms_the_hot_layer(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        self._put(store, "b" * 32, {"v": 2})
        monkeypatch.setattr(
            type(tmp_path), "read_text",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("hot miss")),
        )
        assert store.get("s", "b" * 32) == {"v": 2}

    def test_hot_hits_return_fresh_objects(self, tmp_path):
        store = ResultStore(tmp_path)
        self._put(store, "c" * 32, {"rows": [1, 2]})
        first = store.get("s", "c" * 32)
        first["rows"].append(99)  # a caller mutating its copy...
        second = store.get("s", "c" * 32)
        assert second == {"rows": [1, 2]}  # ...cannot corrupt later reads

    def test_file_rewrite_invalidates_the_hot_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._put(store, "d" * 32, {"v": 1})
        assert store.get("s", "d" * 32) == {"v": 1}
        # Another writer replaces the entry (new mtime/size): the hot layer
        # must notice and re-verify from disk.
        self._put(store, "d" * 32, {"v": 2})
        assert store.get("s", "d" * 32) == {"v": 2}
        # Corruption after a hot hit is also caught via the signature.
        path.write_text("garbage!!", encoding="utf-8")
        assert store.get("s", "d" * 32) is None

    def test_file_deletion_drops_the_hot_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._put(store, "e" * 32, {"v": 1})
        assert store.get("s", "e" * 32) == {"v": 1}
        path.unlink()
        assert store.get("s", "e" * 32) is None

    def test_audit_bypasses_the_hot_layer(self, tmp_path):
        store = ResultStore(tmp_path)
        path = self._put(store, "f" * 32, {"v": 1})
        assert store.get("s", "f" * 32) == {"v": 1}  # hot now
        # Corrupt the file while keeping its stat signature plausible is
        # fiddly; what matters is that audit re-reads regardless of warmth.
        text = path.read_text(encoding="utf-8").replace('"v": 1', '"v": 9')
        path.write_text(text, encoding="utf-8")
        assert store.audit() == [("s", "f" * 32)]
        assert store.get("s", "f" * 32) is None

    def test_prune_drops_hot_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        self._put(store, "1" * 32, {"v": 1})
        store.get("s", "1" * 32)
        assert store.prune() == 1
        assert store.get("s", "1" * 32) is None


class TestSuiteResume:
    def test_second_resume_run_recomputes_zero_tasks(self, tmp_path):
        first = run_suite(_specs(), store=tmp_path, resume=True)
        second = run_suite(_specs(), store=tmp_path, resume=True)
        m1, m2 = first.manifest(), second.manifest()
        assert m1["total_computed"] == m1["total_tasks"]
        assert m2["total_computed"] == 0
        assert m2["total_cache_hits"] == m2["total_tasks"]
        # cache hits are byte-for-byte indistinguishable from fresh results
        for name in first.records:
            assert (
                first.records[name].to_canonical_json()
                == second.records[name].to_canonical_json()
            )

    def test_without_resume_store_is_write_only(self, tmp_path):
        run_suite(_specs(), store=tmp_path)
        rerun = run_suite(_specs(), store=tmp_path)
        assert rerun.manifest()["total_cache_hits"] == 0
        assert rerun.manifest()["total_computed"] == rerun.manifest()["total_tasks"]

    def test_parameter_change_invalidates_only_affected_tasks(self, tmp_path):
        spec = epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=40)
        run_suite([spec], store=tmp_path, resume=True)
        grown = epsilon_ablation_spec(epsilons=(0.1, 0.3, 0.5), sample_pairs=40)
        result = run_suite([grown], store=tmp_path, resume=True)
        manifest = result.manifest()["scenarios"][0]
        assert manifest["cache_hits"] == 2  # the two unchanged grid points
        assert manifest["computed"] == 1  # only the new epsilon

    def test_sample_pairs_change_invalidates_everything(self, tmp_path):
        spec = epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=40)
        run_suite([spec], store=tmp_path, resume=True)
        changed = epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=60)
        result = run_suite([changed], store=tmp_path, resume=True)
        manifest = result.manifest()["scenarios"][0]
        assert manifest["cache_hits"] == 0
        assert manifest["computed"] == 2

    def test_version_bump_invalidates(self, tmp_path):
        import dataclasses

        spec = epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=40)
        run_suite([spec], store=tmp_path, resume=True)
        bumped = dataclasses.replace(spec, version=spec.version + "-bumped")
        result = run_suite([bumped], store=tmp_path, resume=True)
        assert result.manifest()["scenarios"][0]["cache_hits"] == 0

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: epsilon_ablation_spec(epsilons=(0.1, 0.3), sample_pairs=40),
            chaos_sweep_spec,
        ],
        ids=["ablation", "chaos-sweep"],
    )
    def test_corrupted_entry_recomputed_on_resume(self, tmp_path, make_spec):
        spec = make_spec()
        first = run_suite([spec], store=tmp_path, resume=True)
        assert first.ok
        store = ResultStore(tmp_path)
        scenario, key = next(iter(store.entries()))
        path = store._path(scenario, key)
        path.write_text(path.read_text(encoding="utf-8")[:-40], encoding="utf-8")
        second = run_suite([spec], store=tmp_path, resume=True)
        assert second.ok
        manifest = second.manifest()["scenarios"][0]
        assert manifest["cache_hits"] == manifest["tasks"] - 1
        assert manifest["computed"] == 1
        # The recomputed payload is stored again, and records stay identical.
        assert store.get(scenario, key) is not None
        assert (
            first.records[spec.name].to_canonical_json()
            == second.records[spec.name].to_canonical_json()
        )

    def test_resume_with_parallel_jobs_identical_to_fresh_serial(self, tmp_path):
        specs = _specs()
        fresh = run_suite(specs, jobs=1)
        run_suite(specs, jobs=2, store=tmp_path, resume=True)
        resumed = run_suite(specs, jobs=2, store=tmp_path, resume=True)
        assert resumed.manifest()["total_computed"] == 0
        for name in fresh.records:
            assert (
                fresh.records[name].to_canonical_json()
                == resumed.records[name].to_canonical_json()
            )
