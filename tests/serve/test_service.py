"""Tests for the serving tier's request broker (:mod:`repro.serve.service`).

Pool-backed paths run on an injected ``ThreadPoolExecutor`` so the tests stay
fast (no process spawn); the task functions are pure, so the payloads are
identical either way.  The real ``ProcessPoolExecutor`` path is covered by the
``repro serve`` CLI test and the mixed-load test in ``test_loadgen.py``.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro import algorithms
from repro.analysis.stretch import evaluate_stretch
from repro.experiments import ResultStore, validate_failure_manifest
from repro.experiments.pipeline import canonicalize_payload
from repro.experiments.registry import canonical_json
from repro.graphs import make_workload
from repro.serve import (
    BuildRequest,
    DistanceQuery,
    SpannerService,
    StretchQuery,
    default_catalogue,
    generate_requests,
)


BUILD = BuildRequest.create("new-centralized", family="gnp", size=48, seed=3)


def _service(**kwargs):
    kwargs.setdefault("executor", ThreadPoolExecutor(max_workers=2))
    return SpannerService(**kwargs)


class StalledExecutor:
    """Executor stub whose futures never complete (backpressure/timeout tests)."""

    def __init__(self):
        self.futures = []

    def submit(self, *args, **kwargs):
        future = Future()
        self.futures.append(future)
        return future


class TestBuildPath:
    def test_miss_then_hit(self):
        service = _service()
        first = service.resolve(service.submit(BUILD))
        second = service.resolve(service.submit(BUILD))
        assert first.status == "computed"
        assert second.status == "hit"
        assert second.provenance["source"] == "memory"
        assert first.payload == second.payload
        assert service.stats["pool_submissions"] == 1

    def test_payload_matches_direct_build(self):
        service = _service()
        response = service.resolve(service.submit(BUILD))
        graph = make_workload(BUILD.family, BUILD.size, seed=BUILD.seed)
        run = algorithms.build(BUILD.algorithm, graph, seed=BUILD.seed)
        assert response.payload == canonicalize_payload(run.to_dict())

    @pytest.mark.parametrize(
        "build, fan", [(BUILD, 4), (default_catalogue(0)[0], 6)], ids=["gnp48", "catalogue-head"]
    )
    def test_identical_inflight_builds_coalesce_to_one_computation(self, build, fan):
        service = _service()
        tickets = [service.submit(build) for _ in range(fan)]
        responses = [service.resolve(ticket) for ticket in tickets]
        statuses = [response.status for response in responses]
        assert statuses.count("computed") == 1
        assert statuses.count("coalesced") == fan - 1
        assert service.stats["pool_submissions"] == 1
        payloads = {canonical_json(response.payload) for response in responses}
        assert len(payloads) == 1

    def test_provenance_rides_outside_the_payload(self):
        service = _service()
        response = service.resolve(service.submit(BUILD))
        for field in ("status", "kind", "source", "batch_size", "queue_seconds", "compute_seconds"):
            assert field in response.provenance
            assert field not in ("",) and field not in response.payload
        assert response.provenance["kind"] == "build"

    def test_store_layer_survives_a_fresh_service(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with _service(store=store) as service:
            first = service.resolve(service.submit(BUILD))
        with _service(store=ResultStore(tmp_path / "store")) as fresh:
            second = fresh.resolve(fresh.submit(BUILD))
            assert second.status == "hit"
            assert second.provenance["source"] == "store"
            assert fresh.stats["pool_submissions"] == 0
        assert first.payload == second.payload

    def test_failed_build_is_typed_and_quarantined(self):
        service = _service()
        bogus = BuildRequest.create("no-such-algorithm", family="gnp", size=32, seed=0)
        response = service.resolve(service.submit(bogus))
        assert response.status == "failed"
        assert response.payload is None
        assert not response.ok
        manifest = service.failure_manifest()
        validate_failure_manifest(manifest)
        assert manifest["count"] == 1
        assert service.stats["failed"] == 1


class TestQueries:
    def test_stretch_payload_matches_direct_evaluation(self):
        service = _service()
        query = StretchQuery(BUILD, num_pairs=50, pair_seed=1)
        response = service.resolve(service.submit(query))
        assert response.status == "computed"
        graph = make_workload(BUILD.family, BUILD.size, seed=BUILD.seed)
        run = algorithms.build(BUILD.algorithm, graph, seed=BUILD.seed)
        # n = 48 <= 60: evaluate_run_stretch's exhaustive branch.
        report = evaluate_stretch(graph, run.spanner, guarantee=run.guarantee)
        assert response.payload == canonicalize_payload(report.to_dict())

    def test_repeated_stretch_query_hits_the_memo(self):
        service = _service()
        query = StretchQuery(BUILD, num_pairs=50, pair_seed=1)
        first = service.resolve(service.submit(query))
        second = service.resolve(service.submit(query))
        assert first.status == "computed"
        assert second.status == "hit"
        assert first.payload == second.payload

    def test_stretch_without_warm_build_waits_on_the_dispatch(self):
        service = _service()
        query = StretchQuery(BUILD, num_pairs=50, pair_seed=0)
        response = service.resolve(service.submit(query))
        assert response.status == "computed"
        assert service.stats["pool_submissions"] == 1
        # The build it forced is now warm.
        assert service.resolve(service.submit(BUILD)).status == "hit"

    def test_distance_query_is_exact(self):
        service = _service()
        pairs = ((0, 1), (0, 47), (5, 5))
        query = DistanceQuery.create(BUILD.family, BUILD.size, BUILD.seed, pairs)
        response = service.resolve(service.submit(query))
        graph = make_workload(BUILD.family, BUILD.size, seed=BUILD.seed)
        expected = [graph.distance_cache().vector(u)[v] for u, v in pairs]
        assert response.payload["distances"] == expected
        assert response.payload["pairs"] == [[u, v] for u, v in pairs]

    def test_distance_query_turns_warm_after_first_sweep(self):
        service = _service()
        query = DistanceQuery.create(BUILD.family, BUILD.size, BUILD.seed, ((2, 9),))
        first = service.resolve(service.submit(query))
        second = service.resolve(service.submit(query))
        assert first.status == "computed"
        assert second.status == "hit"
        assert second.provenance["source"] == "distance-cache"
        assert first.payload == second.payload

    def test_queries_batch_against_one_snapshot(self):
        service = _service()
        service.resolve(service.submit(BUILD))  # warm the snapshot
        queries = [StretchQuery(BUILD, num_pairs=40, pair_seed=s) for s in range(3)]
        responses = service.serve(queries)
        assert all(response.ok for response in responses)
        assert {response.provenance["batch_size"] for response in responses} == {3}
        assert service.stats["max_batch"] >= 3
        assert service.stats["batches"] >= 1

    def test_identical_queries_in_one_batch_coalesce(self):
        service = _service()
        service.resolve(service.submit(BUILD))
        query = StretchQuery(BUILD, num_pairs=40, pair_seed=0)
        responses = service.serve([query, query, query])
        statuses = [response.status for response in responses]
        assert statuses.count("computed") == 1
        assert statuses.count("coalesced") == 2
        assert len({canonical_json(r.payload) for r in responses}) == 1


class TestBackpressureAndTimeouts:
    def test_admission_queue_rejects_beyond_the_limit(self):
        service = SpannerService(executor=StalledExecutor(), queue_limit=2)
        streams = [
            BuildRequest.create("new-centralized", family="gnp", size=32, seed=s)
            for s in range(3)
        ]
        tickets = [service.submit(request) for request in streams]
        rejected = service.resolve(tickets[2])
        assert rejected.status == "rejected"
        assert rejected.payload is None
        assert "Backpressure" in rejected.error
        manifest = service.failure_manifest()
        validate_failure_manifest(manifest)
        assert manifest["count"] == 1
        assert manifest["failures"][0]["error"].startswith("Backpressure")
        assert service.stats["rejected"] == 1

    def test_rejection_frees_no_slots_and_resolution_does(self):
        executor = StalledExecutor()
        service = SpannerService(executor=executor, queue_limit=1)
        first = service.submit(BUILD)
        second = service.submit(
            BuildRequest.create("new-centralized", family="gnp", size=32, seed=9)
        )
        assert service.resolve(second).status == "rejected"
        # Complete the stalled build; resolving it frees its admission slot.
        from repro.serve import tasks as serve_tasks

        executor.futures[0].set_result(
            (serve_tasks.build_task(BUILD.task_params(), BUILD.seed), 0.0)
        )
        assert service.resolve(first).status == "computed"
        third = service.submit(
            BuildRequest.create("new-centralized", family="gnp", size=32, seed=9)
        )
        assert third.response is None or third.response.status != "rejected"

    def test_request_timeout_is_typed_and_quarantined(self):
        service = SpannerService(executor=StalledExecutor(), request_timeout=0.05)
        response = service.resolve(service.submit(BUILD))
        assert response.status == "timeout"
        assert response.payload is None
        assert "TaskTimeout" in response.error
        manifest = service.failure_manifest()
        validate_failure_manifest(manifest)
        assert manifest["count"] == 1
        assert service.stats["timeout"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SpannerService(workers=0)
        with pytest.raises(ValueError):
            SpannerService(queue_limit=0)
        with pytest.raises(ValueError):
            SpannerService(request_timeout=0)
        with pytest.raises(ValueError):
            SpannerService(max_warm_entries=0)


class TestDeterminism:
    """Served payloads are pure functions of (request, seed)."""

    def _payload_log(self, requests, **service_kwargs):
        with _service(**service_kwargs) as service:
            responses = service.serve(requests)
        assert all(response.ok for response in responses)
        return [canonical_json(response.payload) for response in responses]

    def test_payloads_identical_across_concurrency_and_cache_state(self):
        requests = generate_requests(40, seed=5)
        serial = self._payload_log(requests, executor=ThreadPoolExecutor(max_workers=1))
        wide = self._payload_log(requests, executor=ThreadPoolExecutor(max_workers=4))
        assert serial == wide

    def test_control_plane_is_deterministic_for_a_fixed_stream(self):
        requests = generate_requests(40, seed=5)

        def statuses():
            with _service() as service:
                return [response.status for response in service.serve(requests)]

        assert statuses() == statuses()


class TestCatalogue:
    def test_default_catalogue_algorithms_are_registered(self):
        for request in default_catalogue():
            assert request.algorithm in algorithms.algorithm_names()

    def test_default_catalogue_rejects_inexact_families(self):
        with pytest.raises(ValueError):
            default_catalogue(families=("grid",))
