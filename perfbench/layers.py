"""Which public callables the traced run wraps, and the per-layer metrics.

Layer names follow the ``src/repro`` modules.  Times are absolute, read from
the spans of the measured region — the timed region, or for
``serve_open_loop`` the in-process replay of its batches (the live requests
are scored in a worker process the trace does not enter):

* ``*_ms`` and ``*_us``: mean inclusive time per call;
* ``*_s``: inclusive time per pass of the region (the whole timed region on
  ``train_table8``, one replay on ``stream_drift``), or per set-up for the
  set-up layers;
* counts and ratios read from the program's own ledgers.

A layer a workload never reaches reads 0 (the serving workload runs no
backward pass, the training workload no predictor).  Totals, self times and
per-call p50/max of every span are in the result file's ``spans`` table.
"""

from __future__ import annotations

#: (metric name, unit) in the order BENCHMARK.json lists them
PER_LAYER: tuple[tuple[str, str], ...] = (
    # training layers
    ("data.loader.next_batch_ms", "ms"),
    ("models.forward_ms", "ms"),
    ("nn.losses.ce_ms", "ms"),
    ("core.distill.add_ms", "ms"),
    ("core.distill.dkd_ms", "ms"),
    ("core.distill.teacher_lookup_ms", "ms"),
    ("core.distill.teacher_materialise_s", "s"),
    ("core.distill.live_teacher_forwards", "count"),
    ("core.distill.cache_serve_ratio", "ratio"),
    ("tensor.backward_ms", "ms"),
    ("tensor.graph_nodes_per_step", "count"),
    ("nn.optim.clip_ms", "ms"),
    ("nn.optim.adam_step_ms", "ms"),
    ("core.trainer.evaluate_s", "s"),
    ("core.dat.fit_s", "s"),
    ("core.trainer.fit_s", "s"),
    ("core.dtdbd.fit_s", "s"),
    # setup layers
    ("experiments.prepare_data_s", "s"),
    ("encoders.channel.extract_s.plm", "s"),
    ("encoders.channel.extract_s.style", "s"),
    ("encoders.channel.extract_s.emotion", "s"),
    ("serve.server.start_s", "s"),
    # serving layers
    ("serve.predictor.predict_ms", "ms"),
    ("serve.predictor.encode_batch_ms", "ms"),
    ("data.encode_texts_ms", "ms"),
    ("encoders.channel.plm_ms", "ms"),
    ("encoders.channel.style_ms", "ms"),
    ("encoders.channel.emotion_ms", "ms"),
    ("models.predict_proba_ms", "ms"),
    ("serve.predictor.package_ms", "ms"),
    ("serve.server.batch_fill", "ratio"),
    ("serve.server.flush_full_share", "ratio"),
    ("serve.server.flush_latency_share", "ratio"),
    ("serve.server.queue_ipc_p50_ms", "ms"),
    ("serve.server.queue_ipc_p99_ms", "ms"),
    ("serve.server.shed", "count"),
    ("serve.server.expired", "count"),
    ("serve.server.redispatched", "count"),
    # streaming layers
    ("streaming.monitor.observe_us", "us"),
    ("streaming.adapter.adapt_p50_ms", "ms"),
    ("streaming.adapter.adapt_max_ms", "ms"),
    ("streaming.adapter.onboard_ms", "ms"),
    ("serve.pipeline.save_ms", "ms"),
    ("serve.predictor.reload_ms", "ms"),
    ("core.distill.recomputed_windows", "count"),
    ("serve.microbatch.batch_fill", "ratio"),
    ("streaming.drift_events", "count"),
    ("streaming.adaptations", "count"),
    # the trace itself
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
)

#: per-call metric -> (span name, scale from ms)
_PER_CALL = {
    "data.loader.next_batch_ms": ("data.loader.next_batch", 1.0),
    "models.forward_ms": ("models.forward", 1.0),
    "nn.losses.ce_ms": ("nn.losses.ce", 1.0),
    "core.distill.add_ms": ("core.distill.add", 1.0),
    "core.distill.dkd_ms": ("core.distill.dkd", 1.0),
    "core.distill.teacher_lookup_ms": ("core.distill.teacher_lookup", 1.0),
    "tensor.backward_ms": ("tensor.backward", 1.0),
    "nn.optim.clip_ms": ("nn.optim.clip", 1.0),
    "nn.optim.adam_step_ms": ("nn.optim.adam_step", 1.0),
    "serve.predictor.predict_ms": ("serve.predictor.predict", 1.0),
    "serve.predictor.encode_batch_ms": ("serve.predictor.encode_batch", 1.0),
    "data.encode_texts_ms": ("data.encode_texts", 1.0),
    "encoders.channel.plm_ms": ("encoders.channel.plm", 1.0),
    "encoders.channel.style_ms": ("encoders.channel.style", 1.0),
    "encoders.channel.emotion_ms": ("encoders.channel.emotion", 1.0),
    "models.predict_proba_ms": ("models.predict_proba", 1.0),
    "streaming.monitor.observe_us": ("streaming.monitor.observe", 1e3),
    "streaming.adapter.onboard_ms": ("streaming.adapter.onboard", 1.0),
    "serve.pipeline.save_ms": ("serve.pipeline.save", 1.0),
    "serve.predictor.reload_ms": ("serve.predictor.reload", 1.0),
}
#: per-pass metric -> span name, over the measured region
_PER_PASS = {
    "core.distill.teacher_materialise_s": "core.distill.teacher_materialise",
    "core.trainer.evaluate_s": "core.trainer.evaluate",
    "core.dat.fit_s": "core.dat.fit",
    "core.trainer.fit_s": "core.trainer.fit",
    "core.dtdbd.fit_s": "core.dtdbd.fit",
}
#: per-set-up metric -> span name
_PER_SETUP = {
    "experiments.prepare_data_s": "experiments.prepare_data",
    "encoders.channel.extract_s.plm": "encoders.channel.extract.plm",
    "encoders.channel.extract_s.style": "encoders.channel.extract.style",
    "encoders.channel.extract_s.emotion": "encoders.channel.extract.emotion",
    "serve.server.start_s": "serve.server.start",
}

#: roots the benchmark opens around its own phases
SETUP_ROOT = "bench.setup"
TIMED_ROOT = "bench.timed"
REPLAY_ROOT = "bench.replay"


def install(tracer) -> None:
    """Wrap every callable a per-layer metric reads (traced run only)."""
    from repro.core import dat, distill
    from repro.core.dtdbd import DTDBDTrainer
    from repro.core.trainer import Trainer, evaluate_model
    from repro.data.dataset import encode_texts
    from repro.data.loader import DataLoader
    from repro.encoders.channels import EmotionChannel, PLMChannel, StyleChannel
    from repro.experiments.runner import prepare_data
    from repro.models.base import FakeNewsDetector
    from repro.nn.losses import CrossEntropyLoss
    from repro.nn.optim import Adam, GradientClipper
    from repro.serve.pipeline import save_pipeline
    from repro.serve.predictor import Predictor
    from repro.streaming.adapter import OnlineAdapter
    from repro.streaming.monitor import DriftMonitor
    from repro.tensor import Tensor

    wrap = tracer.wrap_method
    wrap(DataLoader, "iter_from", "data.loader.next_batch", generator=True)
    for cls in (FakeNewsDetector, dat.DomainAdversarialModel):
        wrap(cls, "forward", "models.forward")
        wrap(cls, "forward_with_features", "models.forward")
        wrap(cls, "predict_proba", "models.predict_proba")
    wrap(CrossEntropyLoss, "forward", "nn.losses.ce")
    tracer.wrap_function(distill.adversarial_debiasing_distillation_loss,
                         "core.distill.add")
    tracer.wrap_function(distill.domain_knowledge_distillation_loss,
                         "core.distill.dkd")
    tracer.wrap_function(distill.teacher_forward,
                         "core.distill.teacher_forward")
    caches = tracer.caches
    lookup = distill.TeacherCache.__dict__["lookup"]

    def lookup_name(args):
        cache = args[0]
        caches[id(cache)] = cache
        return ("core.distill.teacher_lookup" if cache.materialised
                else "core.distill.teacher_materialise")

    tracer.patch(distill.TeacherCache, "lookup", tracer.timed(lookup_name, lookup))
    wrap(Tensor, "backward", "tensor.backward")
    wrap(GradientClipper, "clip", "nn.optim.clip")
    wrap(Adam, "step", "nn.optim.adam_step")
    tracer.wrap_function(evaluate_model, "core.trainer.evaluate")
    tracer.wrap_function(dat.train_unbiased_teacher, "core.dat.fit")
    wrap(Trainer, "fit", "core.trainer.fit")
    wrap(DTDBDTrainer, "fit", "core.dtdbd.fit")

    tracer.wrap_function(prepare_data, "experiments.prepare_data")
    tracer.wrap_function(encode_texts, "data.encode_texts")
    for cls, channel in ((PLMChannel, "plm"), (StyleChannel, "style"),
                         (EmotionChannel, "emotion")):
        wrap(cls, "extract", f"encoders.channel.extract.{channel}")
        wrap(cls, "serve", f"encoders.channel.{channel}")
    wrap(Predictor, "predict", "serve.predictor.predict")
    wrap(Predictor, "encode_batch", "serve.predictor.encode_batch")
    wrap(Predictor, "reload", "serve.predictor.reload")
    tracer.wrap_function(save_pipeline, "serve.pipeline.save")
    wrap(DriftMonitor, "observe", "streaming.monitor.observe")
    wrap(OnlineAdapter, "adapt", "streaming.adapter.adapt")
    wrap(OnlineAdapter, "onboard_domain", "streaming.adapter.onboard")


def metrics(tracer, extra: dict) -> dict[str, float]:
    """Every per-layer metric from the spans plus workload-supplied values.

    ``extra`` holds the values spans cannot give (server ledger ratios,
    queue/IPC times, stream counts, tracing overhead, and the raw
    ``tensor.graph_nodes`` created in the timed region).
    """
    region_root = REPLAY_ROOT if REPLAY_ROOT in tracer.names else TIMED_ROOT
    region = tracer.layer_table((region_root,))
    setup = tracer.layer_table((SETUP_ROOT,))
    passes = region[region_root]["calls"]
    setups = setup[SETUP_ROOT]["calls"]

    def per_call(span: str) -> float:
        entry = region.get(span)
        return entry["total_ms"] / entry["calls"] if entry else 0.0

    values: dict[str, float] = {}
    for metric, (span, scale) in _PER_CALL.items():
        values[metric] = per_call(span) * scale
    for metric, span in _PER_PASS.items():
        values[metric] = region.get(span, {}).get("total_ms", 0.0) / 1e3 / passes
    for metric, span in _PER_SETUP.items():
        values[metric] = setup.get(span, {}).get("total_ms", 0.0) / 1e3 / setups
    predict = region.get("serve.predictor.predict")
    values["serve.predictor.package_ms"] = (
        predict["self_ms"] / predict["calls"] if predict else 0.0)
    adapt = region.get("streaming.adapter.adapt")
    values["streaming.adapter.adapt_p50_ms"] = adapt["p50_ms"] if adapt else 0.0
    values["streaming.adapter.adapt_max_ms"] = adapt["max_ms"] if adapt else 0.0
    lookups = sum(region.get(name, {}).get("calls", 0)
                  for name in ("core.distill.teacher_lookup",
                               "core.distill.teacher_materialise"))
    live = region.get("core.distill.teacher_forward", {}).get("calls", 0)
    values["core.distill.live_teacher_forwards"] = live
    values["core.distill.cache_serve_ratio"] = (
        lookups / (lookups + live) if lookups + live else 0.0)
    steps = region.get("nn.optim.adam_step", {}).get("calls", 0)
    nodes = extra.pop("tensor.graph_nodes", 0)
    values["tensor.graph_nodes_per_step"] = nodes / steps if steps else 0.0
    values["core.distill.recomputed_windows"] = sum(
        cache.recomputed_windows for cache in tracer.caches.values())
    values["trace.uncovered_s"] = region[region_root]["self_ms"] / 1e3 / passes
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _ in PER_LAYER}
