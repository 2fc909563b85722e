"""Property-based tests of the incremental drift monitor (hypothesis).

:class:`repro.streaming.DriftMonitor` keeps its PSI histograms and labeled
confusion counts up to date incrementally.  The oracle here recomputes every
check from scratch over the same windows — :func:`population_stability_index`
over the frozen reference and ``list(scores)``, and
:func:`repro.metrics.rolling_domain_bias` over the pooled labeled window — and
the two must fire the same events with bit-identical values and details.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics import rolling_domain_bias
from repro.streaming import (
    DriftConfig,
    DriftEvent,
    DriftMonitor,
    population_stability_index,
)

BINS = 10
#: scores at exact bin edges (both spellings of k/10), out of [0, 1], and NaN
EDGE_SCORES = sorted({*np.linspace(0.0, 1.0, BINS + 1).tolist(),
                      *(k / BINS for k in range(BINS + 1))}) + [
    -0.25, 1.25, -0.0, float("inf"), float("-inf"), float("nan")]


class ScratchMonitor:
    """Windows kept as plain sequences; every check recomputed from them."""

    def __init__(self, domain_names, config: DriftConfig):
        self.config = config
        self.domain_names = list(domain_names)
        self.reference = {name: [] for name in domain_names}
        self.scores = {name: deque(maxlen=config.window) for name in domain_names}
        self.labeled = deque(maxlen=config.window)
        self.last_fired = {name: {} for name in domain_names}

    def register_domain(self, name):
        self.domain_names.append(name)
        self.reference[name] = []
        self.scores[name] = deque(maxlen=self.config.window)
        self.last_fired[name] = {}

    def reset_domain(self, name):
        index = self.domain_names.index(name)
        self.reference[name] = []
        self.scores[name].clear()
        self.labeled = deque((entry for entry in self.labeled if entry[0] != index),
                             maxlen=self.config.window)
        self.last_fired[name] = {}

    def _cooled(self, ordinal, domain, kind):
        last = self.last_fired[domain].get(kind)
        return last is None or ordinal - last >= self.config.cooldown

    def observe(self, ordinal, domain, score, predicted, label):
        cfg = self.config
        reference, scores = self.reference[domain], self.scores[domain]
        if len(reference) < cfg.reference_size:
            reference.append(float(score))
        else:
            scores.append(float(score))
        index = self.domain_names.index(domain)
        if label is not None:
            self.labeled.append((index, int(label), int(predicted)))
        fired = []
        if (len(reference) >= cfg.reference_size and len(scores) >= cfg.min_window
                and self._cooled(ordinal, domain, "score_drift")):
            psi = population_stability_index(reference, list(scores),
                                             bins=cfg.psi_bins)
            if psi > cfg.psi_threshold:
                self.last_fired[domain]["score_drift"] = ordinal
                fired.append(DriftEvent(
                    ordinal=ordinal, domain=domain, kind="score_drift", value=psi,
                    threshold=cfg.psi_threshold, window=len(scores),
                    details={"reference_size": len(reference)}))
        domain_labeled = sum(1 for entry in self.labeled if entry[0] == index)
        if (len(self.labeled) >= cfg.min_labeled
                and self._cooled(ordinal, domain, "bias_drift")
                and domain_labeled >= cfg.min_labeled):
            report = self.bias_report()
            deviation = report.deviation(domain)
            if deviation > cfg.bias_threshold:
                self.last_fired[domain]["bias_drift"] = ordinal
                fired.append(DriftEvent(
                    ordinal=ordinal, domain=domain, kind="bias_drift",
                    value=deviation, threshold=cfg.bias_threshold,
                    window=len(self.labeled),
                    details={
                        "domain_labeled": domain_labeled,
                        "fnr_domain": report.fnr_per_domain[domain],
                        "fpr_domain": report.fpr_per_domain[domain],
                        "fnr_overall": report.fnr_overall,
                        "fpr_overall": report.fpr_overall,
                    }))
        return fired

    def bias_report(self):
        domains, y_true, y_pred = (
            np.array([entry[field] for entry in self.labeled], dtype=np.int64)
            for field in range(3))
        return rolling_domain_bias(y_true, y_pred, domains, self.domain_names,
                                   window=self.config.window)


scores = st.one_of(st.sampled_from(EDGE_SCORES),
                   st.floats(0.0, 1.0, allow_nan=False))
#: (action, domain, score, predicted, label); action 0 resets the domain,
#: 1 registers a new one, anything else observes
operations = st.lists(
    st.tuples(st.integers(0, 24), st.integers(0, 3), scores, st.integers(0, 1),
              st.one_of(st.none(), st.integers(0, 1))),
    min_size=40, max_size=300)
configs = st.builds(
    lambda window, min_window, reference_size, min_labeled, cooldown, psi, bias:
        DriftConfig(window=window, min_window=min(min_window, window),
                    reference_size=reference_size, min_labeled=min_labeled,
                    cooldown=cooldown, psi_bins=BINS, psi_threshold=psi,
                    bias_threshold=bias),
    st.integers(2, 12), st.integers(2, 12), st.integers(2, 6), st.integers(1, 6),
    st.integers(0, 8), st.sampled_from([0.0, 0.05, 0.25]),
    st.sampled_from([0.0, 0.1, 0.25]))


class TestIncrementalMonitorMatchesScratch:
    @given(configs, operations)
    @settings(max_examples=150, deadline=None)
    def test_events_equal_from_scratch_recomputation(self, config, ops):
        names = ["d0", "d1"]
        monitor = DriftMonitor(names, config)
        scratch = ScratchMonitor(names, config)
        fired = []
        for ordinal, (action, slot, score, predicted, label) in enumerate(ops):
            if action == 1:
                name = f"d{len(monitor.domain_names)}"
                monitor.register_domain(name)
                scratch.register_domain(name)
                continue
            domain = monitor.domain_names[slot % len(monitor.domain_names)]
            if action == 0:
                monitor.reset_domain(domain)
                scratch.reset_domain(domain)
                continue
            got = monitor.observe(ordinal, domain, score, predicted, label)
            expected = scratch.observe(ordinal, domain, score, predicted, label)
            assert [event.as_dict() for event in got] == \
                [event.as_dict() for event in expected]
            fired.extend(got)
        assert monitor.drift_events == fired
        assert monitor.bias_report().as_dict() == scratch.bias_report().as_dict()
