"""``stream_drift``: replay a seeded domain-shift day through ``StreamRunner``.

A DTDBD-distilled float32 ``textcnn_s`` (teachers: DAT-IE unbiased, MDFEND
clean; M3FEND cannot be onboarded onto a new domain bit-identically, so it
refuses expansion) serves schedules from ``generate_stream_schedule``:
steady traffic, then one domain drifting, then an unseen domain.  Each
schedule keeps the generator's default shape (phase sizes, labeled shares,
few-shot budget of the unseen domain), every count scaled by
``SCHEDULE_FACTOR``.  A run draws ``SCHEDULES`` of them from ``--seed``, about
2 x 10^4 events in all, and replays them in turn: how many adaptations a
schedule triggers depends on its draw, and adaptation is most of the replay
time, so one schedule per run would make the event rate follow the seed.
The replay stack is the one
``repro stream --adapt`` builds, with its defaults: the feedback ring is
``repro.cli._stream_ring_loader`` (64 rows prefilled from the schedule's
labeled events), the monitor and adapter use their default thresholds, and
the runner flushes batches of 16.  Unlike the command line, the adapter is
fed by both teachers, so adaptations run the DTDBD loss.

Reads go through the in-process ``MicroBatcher``/``predict_safe`` path;
writes run beside them: ``OnlineAdapter`` fine-tunes on labeled feedback,
saves the pipeline and the predictor hot-reloads it, and the unseen domain
is onboarded.  Each replay starts from the same exported student and copies
of the same teachers, so every replay of a schedule must give the same drift
log and the same final fingerprint.
"""

from __future__ import annotations

import copy
import hashlib
import os
import time

import numpy as np

from layers import SETUP_ROOT, TIMED_ROOT
from tracer import region

SCALE = 0.1
EPOCHS = 2
#: the generator's default schedule (184 events) times this: 4968 events
SCHEDULE_FACTOR = 27
#: schedules per run, each replayed in turn and at least ``MIN_CYCLES`` times
SCHEDULES = 4
MIN_CYCLES = 2
#: ``repro stream`` defaults: feedback ring rows and micro-batch size
RING_ROWS = 64
MAX_BATCH = 16


def prepare(seed: int, workdir: str) -> dict:
    """Distil the student from both teachers; pre-generate the schedule."""
    from repro.experiments import (
        StreamScheduleConfig,
        default_chinese_config,
        generate_stream_schedule,
        prepare_data,
        train_baseline,
        train_dtdbd_student,
        train_unbiased,
    )

    config = default_chinese_config(scale=SCALE, epochs=EPOCHS, dtype="float32")
    bundle = prepare_data(config)
    clean, _ = train_baseline("mdfend", bundle, seed_offset=78)
    unbiased, _ = train_unbiased(bundle, student_name="textcnn_s")
    student, _, _ = train_dtdbd_student(bundle, unbiased, clean,
                                        student_name="textcnn_s")
    artifact = bundle.export_pipeline(student, os.path.join(workdir, "student"))
    shape = StreamScheduleConfig()
    schedules = []
    for index in range(SCHEDULES):
        schedule_seed = seed * SCHEDULES + index
        events, _ = generate_stream_schedule(StreamScheduleConfig(
            scale=SCALE, seed=schedule_seed,
            seed_events=shape.seed_events * SCHEDULE_FACTOR,
            drift_events=shape.drift_events * SCHEDULE_FACTOR,
            novel_events=shape.novel_events * SCHEDULE_FACTOR,
            novel_labeled=shape.novel_labeled * SCHEDULE_FACTOR))
        schedules.append({"events": events, "seed": schedule_seed})
    return {
        "artifact": artifact,
        "workdir": workdir,
        "schedules": schedules,
        "teachers": (unbiased, clean),
    }


def _build(inputs: dict, schedule: dict, export_path: str):
    """A fresh stack: student, teacher copies, ring loader, adapter, runner."""
    from repro.cli import _stream_ring_loader
    from repro.serve import load_pipeline
    from repro.streaming import (
        AdapterConfig,
        DriftConfig,
        DriftMonitor,
        OnlineAdapter,
        StreamConfig,
        StreamRunner,
    )
    from repro.tensor import default_dtype

    pipeline = load_pipeline(inputs["artifact"])
    unbiased, clean = (copy.deepcopy(teacher) for teacher in inputs["teachers"])
    # Ring arrays in the pipeline's dtype, as a float32 ``repro stream`` run
    # (REPRO_DTYPE=float32) stores them.
    with default_dtype(pipeline.dtype):
        loader = _stream_ring_loader(pipeline, schedule["events"], RING_ROWS,
                                     seed=schedule["seed"])
    adapter = OnlineAdapter(pipeline, loader, AdapterConfig(export_path=export_path),
                            unbiased_teacher=unbiased, clean_teacher=clean)
    monitor = DriftMonitor(list(pipeline.domain_names), DriftConfig())
    predictor = load_pipeline(export_path).predictor()
    return StreamRunner(predictor, monitor, adapter, StreamConfig(max_batch=MAX_BATCH))


def run(inputs: dict, seconds: float, tracer=None, repeats=None) -> dict:
    from repro.tensor import graph_nodes_created

    schedules = inputs["schedules"]
    setups, durations, replayed, latencies = [], [], [], []
    logs = [set() for _ in schedules]
    fingerprints = [set() for _ in schedules]
    attempted = failed = 0
    elapsed = 0.0
    nodes = 0
    cycle_counts = {"drift_events": 0, "adaptations": 0, "onboardings": 0}
    while True:
        replay = len(durations)
        index = replay % len(schedules)
        events = schedules[index]["events"]
        export_path = os.path.join(inputs["workdir"],
                                   f"replay-{replay}-{int(tracer is not None)}")
        started = time.perf_counter()
        with region(tracer, SETUP_ROOT):
            runner = _build(inputs, schedules[index], export_path)
        setups.append(time.perf_counter() - started)
        tickets = []
        submit = runner.batcher.submit

        def submit_and_keep(text, domain=None):
            ticket = submit(text, domain)
            tickets.append(ticket)
            return ticket

        runner.batcher.submit = submit_and_keep
        nodes_before = graph_nodes_created()
        started = time.perf_counter()
        with region(tracer, TIMED_ROOT):
            report = runner.run(events)
        took = time.perf_counter() - started
        nodes += graph_nodes_created() - nodes_before
        elapsed += took
        durations.append(took)
        replayed.append(report.events)
        latencies.append([ticket.result.latency_ms for ticket in tickets])
        logs[index].add(hashlib.sha256(report.drift_log.encode()).hexdigest())
        fingerprints[index].add(report.final_fingerprint)
        if replay < len(schedules):
            cycle_counts["drift_events"] += len(report.drift_events)
            cycle_counts["adaptations"] += len(report.adaptations)
            cycle_counts["onboardings"] += len(report.onboardings)
        attempted += len(events)
        failed += report.failed + report.skipped_unknown_domain + (
            len(events) - report.events)
        done = len(durations)
        # Whole cycles only, so every schedule weighs the same.
        if done % len(schedules):
            continue
        if (repeats is not None and done >= repeats) or (
                repeats is None and done >= MIN_CYCLES * len(schedules)
                and elapsed >= seconds):
            break
    replays_agree = all(len(found) == 1 for found in logs + fingerprints)
    # The gated latency is the time to replay one schedule, the event rate
    # nearly inverted.  An event's own latency (submission to verdict) is
    # reported but not gated: its spread over ten seeds exceeded 0.25 of the
    # median in two of four sets on a 2-vCPU VM.
    latencies = np.concatenate(latencies)
    # Events per second of each cycle (every schedule once); the median over
    # cycles leaves out a cycle caught in a fast or slow phase of the host.
    cycles = len(schedules)
    rate = float(np.median([sum(replayed[i:i + cycles]) / sum(durations[i:i + cycles])
                            for i in range(0, len(durations), cycles)]))
    return {
        "wall_s": elapsed,
        "repeats": len(durations),
        "setup_s": float(np.median(setups)),
        "setups_s": setups,
        "throughput_per_s": rate,
        "latency_ms": float(np.median(durations)) * 1e3,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and replays_agree,
        "workload_metrics": {
            "stream.events_per_s": (rate, "1/s"),
            "stream.event_p50_ms": (float(np.median(latencies)), "ms"),
            "stream.event_p99_ms": (float(np.percentile(latencies, 99)), "ms"),
        },
        "replay_seconds": durations,
        "drift_log_sha256": [sorted(found) for found in logs],
        "final_fingerprint": [sorted(found) for found in fingerprints],
        # over one replay of every schedule
        **cycle_counts,
        "layer_extra": {
            "tensor.graph_nodes": nodes,
            "streaming.drift_events": cycle_counts["drift_events"],
            "streaming.adaptations": cycle_counts["adaptations"],
            "serve.microbatch.batch_fill": (
                runner.batcher.items_flushed
                / max(runner.batcher.batches_flushed, 1) / MAX_BATCH),
        },
    }
