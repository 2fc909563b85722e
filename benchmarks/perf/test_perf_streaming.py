"""Streaming subsystem: tier-1 smoke + measured drift-scenario lane.

The unmarked smoke runs in the default tier-1 collection: a tiny schedule
drives the full loop — score, drift detection (thresholds forced low so the
monitor must fire), incremental adaptation with atomic re-export and hot
reload, continual onboarding of an unseen domain — and asserts the
subsystem's invariants without timing anything.

The ``perf``-marked lanes (``pytest benchmarks/perf --run-perf -q -s``)
measure sustained scoring throughput over the stream path, the latency of
one adaptation cycle (feedback fold + fine-tune epoch + re-export + reload)
and of one domain onboarding (expand + re-export + reload), and the cost of
one :meth:`DriftMonitor.observe`, and record them into
``BENCH_streaming.json`` via :func:`record_bench`.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
import pytest

from _bench_utils import record_bench

from repro.data import DataLoader, make_weibo21_like
from repro.encoders import FrozenPretrainedEncoder, stock_channels
from repro.experiments.stream_schedule import (
    StreamScheduleConfig,
    generate_stream_schedule,
)
from repro.models import ModelConfig, build_model
from repro.serve import Pipeline
from repro.streaming import (
    AdapterConfig,
    DriftConfig,
    DriftMonitor,
    OnlineAdapter,
    StreamConfig,
    StreamRunner,
    population_stability_index,
)
from repro.tensor import default_dtype

PLM_DIM = 16
MAX_LENGTH = 16
SCALE = 0.03
BUFFER_ROWS = 32

_SCHEDULE = None


def _schedule():
    """One small three-phase schedule (seed -> drift -> novel), built once."""
    global _SCHEDULE
    if _SCHEDULE is None:
        _SCHEDULE = generate_stream_schedule(StreamScheduleConfig(
            scale=SCALE, seed=2024, seed_events=48, drift_events=48,
            novel_events=12, novel_labeled=6))
    return _SCHEDULE


def _build_stack(dtype: str, export_path: str):
    """Pipeline + ring loader + adapter + monitor + runner, all tiny."""
    dataset = make_weibo21_like(scale=SCALE, seed=7)
    vocab = dataset.build_vocabulary()
    with default_dtype(dtype):
        encoder = FrozenPretrainedEncoder(len(vocab), output_dim=PLM_DIM, seed=3)
        config = ModelConfig(plm_dim=PLM_DIM, num_domains=dataset.num_domains,
                             cnn_channels=8, kernel_sizes=(1, 2, 3),
                             hidden_dim=16, mlp_hidden=(16,), seed=5)
        model = build_model("textcnn_s", config)
        pipeline = Pipeline.from_training(model, vocab, encoder,
                                          max_length=MAX_LENGTH,
                                          domain_names=dataset.domain_names)
        ring = dataset.__class__(dataset.items[:BUFFER_ROWS],
                                 domain_names=dataset.domain_names,
                                 name="stream-ring")
        loader = DataLoader(ring, vocab, max_length=MAX_LENGTH, batch_size=16,
                            shuffle=True, seed=0,
                            channels=stock_channels(encoder))
    adapter = OnlineAdapter(pipeline, loader, AdapterConfig(
        export_path=export_path, min_feedback=4))
    # Tiny windows + a zero PSI threshold: the monitor must fire on this
    # schedule, so the smoke exercises the adapt/reload path every run.
    monitor = DriftMonitor(pipeline.domain_names, DriftConfig(
        window=16, min_window=8, reference_size=8, min_labeled=8,
        cooldown=24, psi_threshold=0.0, bias_threshold=0.4))
    predictor = pipeline.predictor()
    runner = StreamRunner(predictor, monitor, adapter,
                          StreamConfig(max_batch=8, warmup_min_labeled=3))
    return runner


def test_streaming_smoke_full_loop():
    """Score -> drift -> adapt -> reload -> onboard, all invariants held."""
    events, _ = _schedule()
    with tempfile.TemporaryDirectory() as scratch:
        runner = _build_stack("float64", os.path.join(scratch, "artifact"))
        report = runner.run(events)

    assert report.events == len(events)
    assert report.failed == 0
    assert report.served == len(events)
    assert report.skipped_unknown_domain == 0
    # The forced-low PSI threshold guarantees drift; drift plus labeled
    # feedback guarantees at least one adaptation and hot reload.
    assert report.drift_events, "monitor never fired despite psi_threshold=0"
    assert report.adaptations
    assert runner.predictor.reloads >= len(report.adaptations)
    # The unseen phase-C domain was onboarded and served.
    assert len(report.onboardings) == 1
    assert report.onboardings[0]["domain"] == "crypto"
    assert runner.predictor.pipeline.model_config.num_domains == 10
    assert report.served_by_domain.get("crypto", 0) > 0
    # The served weights are exactly the adapter's last export.
    assert report.final_fingerprint == runner.adapter.pipeline.fingerprint()
    assert runner.predictor.last_reload_fingerprint == report.final_fingerprint


@pytest.mark.perf
def test_perf_streaming_drift_scenario():
    """Measured lane: throughput + adaptation/onboarding latency."""
    events, _ = _schedule()
    entries = []
    with tempfile.TemporaryDirectory() as scratch:
        # Pure scoring throughput (monitoring on, no adapter) per dtype.
        for dtype in ("float64", "float32"):
            runner = _build_stack(dtype, os.path.join(scratch, f"a-{dtype}"))
            score_runner = StreamRunner(
                runner.predictor, DriftMonitor(
                    runner.predictor.pipeline.domain_names,
                    DriftConfig(window=16, min_window=8, reference_size=8)),
                adapter=None, config=StreamConfig(max_batch=8))
            servable = [event for event in events if event.domain != "crypto"]
            start = time.perf_counter()
            report = score_runner.run(servable)
            elapsed = time.perf_counter() - start
            assert report.failed == 0
            entries.append({
                "name": f"stream_score_throughput_{dtype}",
                "events": report.events,
                "events_per_s": round(report.events / elapsed, 1),
                "drift_events": len(report.drift_events),
            })

        # Full drift scenario: adaptation + onboarding latencies included.
        runner = _build_stack("float32", os.path.join(scratch, "adapted"))
        start = time.perf_counter()
        report = runner.run(events)
        elapsed = time.perf_counter() - start
        assert report.adaptations and report.onboardings
        adapt_start = time.perf_counter()
        for item in list(runner.adapter.loader.dataset.items[:8]):
            runner.adapter.ingest(item)
        runner.adapter.adapt("perf_lane", ordinal=len(events))
        runner.predictor.reload(runner.adapter.config.export_path)
        adapt_s = time.perf_counter() - adapt_start
        entries.append({
            "name": "stream_drift_scenario_float32",
            "events": report.events,
            "events_per_s": round(report.events / elapsed, 1),
            "drift_events": len(report.drift_events),
            "adaptations": len(report.adaptations),
            "onboardings": len(report.onboardings),
            "adaptation_cycle_s": round(adapt_s, 4),
        })

    path = record_bench("streaming", entries)
    print(f"\nrecorded {len(entries)} entries -> {path}")


def _observe_stream(count: int, domains: int, seed: int = 0) -> list[tuple]:
    """Seeded labeled traffic: (domain, score, predicted, label) per event."""
    rng = np.random.default_rng(seed)
    scores = rng.random(count)
    labels = rng.integers(0, 2, count)
    flips = rng.random(count) < 0.2
    return [(f"d{int(domain)}", float(score), int(label ^ flip), int(label))
            for domain, score, label, flip in zip(
                rng.integers(0, domains, count), scores, labels, flips)]


@pytest.mark.perf
def test_perf_monitor_observe():
    """Per-event monitor cost with both checks running on every event.

    Every event is labeled and the thresholds sit above any reachable value,
    so after warm-up (references frozen, windows and the labeled window full,
    every domain past ``min_labeled``) each observe evicts from both windows
    and runs the PSI and bias checks; nothing fires, so no cooldown skips a
    check.  The from-scratch reference adds, per event, what ``observe``
    did before its state became incremental: re-histogramming the reference
    and the window with :func:`population_stability_index` and rebuilding
    :meth:`DriftMonitor.bias_report` from the labeled window.
    """
    domains, events = 9, 20_000
    config = DriftConfig(psi_threshold=float("inf"), bias_threshold=2.0)
    names = [f"d{index}" for index in range(domains)]
    stream = _observe_stream(events, domains)

    def incremental() -> float:
        monitor = DriftMonitor(names, config)
        observe = monitor.observe
        start = time.perf_counter()
        for ordinal, (domain, score, predicted, label) in enumerate(stream):
            observe(ordinal, domain, score, predicted, label)
        elapsed = time.perf_counter() - start
        assert not monitor.drift_events
        return elapsed / events * 1e6

    def from_scratch() -> float:
        monitor = DriftMonitor(names, config)
        tracks = monitor._tracks
        start = time.perf_counter()
        for ordinal, (domain, score, predicted, label) in enumerate(stream[:4000]):
            monitor.observe(ordinal, domain, score, predicted, label)
            track = tracks[domain]
            if track.reference_share is not None and track.scores:
                population_stability_index(track.reference, list(track.scores))
            monitor.bias_report()
        return (time.perf_counter() - start) / 4000 * 1e6

    incremental()  # warm-up
    observe_us = min(incremental() for _ in range(3))
    scratch_us = min(from_scratch() for _ in range(3))
    speedup = scratch_us / observe_us
    record_bench("streaming", [{
        "name": "streaming/monitor_observe_us",
        "events": events,
        "domains": domains,
        "observe_us": round(observe_us, 2),
        "from_scratch_us": round(scratch_us, 2),
        "speedup": round(speedup, 2),
    }])
    print(f"\nmonitor observe: {observe_us:.1f} us/event "
          f"(from scratch {scratch_us:.1f} us, {speedup:.1f}x)")
    assert speedup >= 3.0, f"incremental observe only {speedup:.2f}x"
