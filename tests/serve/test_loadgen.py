"""Tests for the seeded load generator and closed-loop driver."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    BuildRequest,
    DistanceQuery,
    LoadReport,
    SpannerService,
    StretchQuery,
    default_catalogue,
    generate_requests,
    run_load,
    zipf_weights,
)


class TestSeedPurity:
    def test_same_seed_same_stream(self):
        assert generate_requests(80, seed=4) == generate_requests(80, seed=4)

    def test_different_seeds_differ(self):
        assert generate_requests(80, seed=4) != generate_requests(80, seed=5)

    def test_stream_is_not_affected_by_global_random_state(self):
        import random

        random.seed(123)
        first = generate_requests(30, seed=0)
        random.seed(999)
        second = generate_requests(30, seed=0)
        assert first == second

    def test_count_validation(self):
        assert generate_requests(0) == []
        with pytest.raises(ValueError):
            generate_requests(-1)
        with pytest.raises(ValueError):
            generate_requests(5, catalogue=[])


class TestStreamShape:
    def test_mixes_all_three_kinds(self):
        kinds = {request.kind for request in generate_requests(200, seed=0)}
        assert kinds == {"build", "stretch-query", "distance-query"}

    def test_every_request_targets_a_catalogue_key(self):
        # generate_requests(seed=2) builds its default catalogue with seed 2.
        catalogue = default_catalogue(2)
        keys = {request.graph_key() for request in catalogue}
        for request in generate_requests(100, seed=2):
            assert request.graph_key() in keys

    def test_zipf_skew_concentrates_on_the_head(self):
        catalogue = default_catalogue(0)
        requests = generate_requests(400, seed=0)
        hottest = sum(
            1 for r in requests
            if isinstance(r, BuildRequest) and r == catalogue[0]
            or isinstance(r, StretchQuery) and r.build == catalogue[0]
            or isinstance(r, DistanceQuery) and r.graph_key() == catalogue[0].graph_key()
        )
        # Zipf(s=1.1) over 12 keys puts ~1/3 of the mass on rank 0; even a
        # loose floor proves the skew reached the stream.  (Other catalogue
        # entries share rank 0's graph key, so this undercounts if anything.)
        assert hottest >= 400 * 0.15

    def test_zipf_weights_are_decreasing_and_validated(self):
        weights = zipf_weights(6, 1.1)
        assert weights == sorted(weights, reverse=True)
        with pytest.raises(ValueError):
            zipf_weights(0)


class TestRunLoad:
    def test_closed_loop_answers_everything(self):
        requests = generate_requests(60, seed=1)
        with SpannerService(executor=ThreadPoolExecutor(max_workers=2)) as service:
            report = run_load(service, requests, concurrency=6)
        assert report.requests == 60
        assert report.dropped == 0
        assert report.responses == 60
        assert sum(report.status_counts.values()) == 60
        assert report.failures["count"] == 0

    def test_mixed_zipf_load_hits_and_coalesces_on_the_process_pool(self):
        # 1500 Zipf-skewed requests repeat the 12-key catalogue's head many
        # times over; the 30 s budget (well under a second on a laptop) only
        # catches an accidental serial-recompute path.
        requests = generate_requests(1500, seed=0)
        start = time.perf_counter()
        with SpannerService(workers=2) as service:
            report = run_load(service, requests, concurrency=8)
        seconds = time.perf_counter() - start
        summary = report.to_dict()
        assert seconds <= 30.0, f"mixed load took {seconds:.2f}s (budget 30.0s)"
        assert summary["dropped"] == 0
        assert summary["failure_count"] == 0
        assert not summary["status_counts"].get("failed")
        assert not summary["status_counts"].get("rejected")
        assert summary["hit_rate"] > 0.5
        assert summary["status_counts"].get("coalesced", 0) > 0
        # Single flight + memoization: every distinct build computes at most once.
        assert summary["stats"]["pool_submissions"] <= len(default_catalogue(0))

    def test_report_dict_separates_timing_from_counters(self):
        requests = generate_requests(30, seed=1)
        with SpannerService(executor=ThreadPoolExecutor(max_workers=2)) as service:
            report = run_load(service, requests, concurrency=4)
        summary = report.to_dict()
        for key in (
            "requests", "responses", "dropped", "throughput_rps", "latency_ms",
            "hit_rate", "coalesce_rate", "status_counts", "kind_counts",
            "max_batch", "failure_count",
        ):
            assert key in summary
        assert set(summary["latency_ms"]) == {"p50", "p99", "max"}
        assert summary["latency_ms"]["p50"] <= summary["latency_ms"]["p99"]

    def test_concurrency_validation(self):
        with SpannerService(executor=ThreadPoolExecutor(max_workers=1)) as service:
            with pytest.raises(ValueError):
                run_load(service, [], concurrency=0)

    def test_empty_report_rates_are_zero(self):
        report = LoadReport(requests=0, elapsed_seconds=0.0)
        assert report.hit_rate == 0.0
        assert report.coalesce_rate == 0.0
        assert report.to_dict()["throughput_rps"] == 0.0
