"""Model base class and shared configuration for the fake-news model zoo.

Every detector follows the same contract:

* :meth:`FakeNewsDetector.extract_features` maps a :class:`repro.data.Batch` to
  the intermediate representation (used by the classifier, by the adversarial
  de-biasing distillation of Eq. 5–6, and by the t-SNE analysis of Fig. 2);
* :meth:`FakeNewsDetector.forward` returns binary classification logits;
* :meth:`FakeNewsDetector.compute_loss` returns the training loss — models with
  auxiliary objectives (EANN / EDDFN domain adversaries) override it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from repro.data.loader import Batch
from repro.encoders.features import EMOTION_FEATURE_DIM, STYLE_FEATURE_DIM
from repro.nn import MLP, CrossEntropyLoss, Module
from repro.tensor import Tensor, functional as F, fused, no_grad


@dataclass
class ModelConfig:
    """Hyper-parameters shared by the model zoo.

    The defaults are the paper's architecture choices scaled down so that all
    experiments run on CPU: e.g. the paper's TextCNN-S uses five kernel sizes
    with 64 channels on 768-d BERT features, here the same structure runs on
    the frozen encoder's ``plm_dim`` features with configurable channels.
    """

    plm_dim: int = 32
    num_domains: int = 9
    num_classes: int = 2
    cnn_channels: int = 24
    kernel_sizes: tuple[int, ...] = (1, 2, 3, 5)
    rnn_hidden: int = 24
    hidden_dim: int = 48
    mlp_hidden: tuple[int, ...] = (48,)
    num_experts: int = 4
    expert_hidden: int = 32
    memory_dim: int = 32
    domain_embedding_dim: int = 16
    dropout: float = 0.2
    style_dim: int = STYLE_FEATURE_DIM
    emotion_dim: int = EMOTION_FEATURE_DIM
    seed: int = 0
    #: Route the padding mask into the recurrent encoders so padded steps
    #: carry the previous state instead of consuming pad embeddings.  Off by
    #: default: the paper-table reproductions are pinned to the seed
    #: behaviour (encoders consume the padded sequence; pooling masks it out).
    mask_padding: bool = False

    def with_overrides(self, **overrides) -> "ModelConfig":
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelConfig":
        """Rebuild a config saved by :meth:`to_dict` (tuples survive JSON lists)."""
        known = {field_.name for field_ in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown ModelConfig fields {unknown}; known: {sorted(known)}")
        values = dict(payload)
        for name in ("kernel_sizes", "mlp_hidden"):
            if name in values and values[name] is not None:
                values[name] = tuple(values[name])
        return cls(**values)


class FakeNewsDetector(Module):
    """Base class for all detectors in the zoo."""

    #: short name used by the registry / result tables
    name: str = "base"
    #: channels of the Batch this model reads; the serving Predictor
    #: featurises exactly these, so every ``batch.feature`` name must be here
    required_features: tuple[str, ...] = ("plm",)
    #: whether repro.models.expand.expand_domains can grow the domain axis
    #: while keeping existing domains' outputs bit-identical (models whose
    #: numerics renormalise across domains set this False)
    domain_expandable: bool = True

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config
        self._criterion = CrossEntropyLoss()

    # ------------------------------------------------------------------ #
    # Contract                                                             #
    # ------------------------------------------------------------------ #
    @property
    def feature_dim(self) -> int:
        raise NotImplementedError

    def extract_features(self, batch: Batch) -> Tensor:
        """Intermediate representation ``(batch, feature_dim)``."""
        raise NotImplementedError

    def classify(self, features: Tensor) -> Tensor:
        """Map intermediate features to logits; default uses ``self.classifier``."""
        return self.classifier(features)

    def forward(self, batch: Batch) -> Tensor:
        return self.classify(self.extract_features(batch))

    def forward_with_features(self, batch: Batch) -> tuple[Tensor, Tensor]:
        features = self.extract_features(batch)
        return self.classify(features), features

    # ------------------------------------------------------------------ #
    # Training / inference helpers                                         #
    # ------------------------------------------------------------------ #
    def compute_loss(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """Return ``(loss, logits)`` for one batch; default is cross-entropy."""
        logits = self.forward(batch)
        return self._criterion(logits, batch.labels), logits

    def predict_proba(self, batch: Batch) -> np.ndarray:
        with no_grad():
            was_training = self.training
            self.eval()
            probabilities = F.softmax(self.forward(batch), axis=-1).numpy()
            if was_training:
                self.train()
        return probabilities

    def predict(self, batch: Batch) -> np.ndarray:
        return self.predict_proba(batch).argmax(axis=1)

    # ------------------------------------------------------------------ #
    def _build_classifier(self, input_dim: int, rng: np.random.Generator) -> MLP:
        dims = [input_dim, *self.config.mlp_hidden]
        return MLP(dims, self.config.num_classes, dropout=self.config.dropout, rng=rng)


def mix_experts(expert_outputs, gate_weights: Tensor) -> Tensor:
    """Gate-weighted sum of per-expert features.

    ``expert_outputs`` is a sequence of ``(batch, dim)`` tensors — or an
    already lane-stacked ``(batch, num_experts, dim)`` tensor, as produced by
    the fused expert scan — and ``gate_weights`` a ``(batch, num_experts)``
    softmax; shared by the mixture-of-experts detectors (MDFEND / MMoE /
    MoSE / M3FEND adapters).  On the fused fast path the mixture runs as the
    single-node :func:`repro.tensor.fused.mix_experts` kernel.
    """
    if isinstance(expert_outputs, Tensor):
        stacked = expert_outputs
    else:
        stacked = Tensor.stack(list(expert_outputs), axis=1)  # (batch, experts, dim)
    if fused.is_fused_enabled():
        return fused.mix_experts(stacked, gate_weights)
    return (stacked * gate_weights.unsqueeze(2)).sum(axis=1)


def pooled_plm(batch: Batch) -> Tensor:
    """Masked mean pooling of the frozen-encoder channel → ``(batch, plm_dim)``."""
    plm = Tensor(batch.feature("plm"))
    return F.masked_mean(plm, batch.mask, axis=1)


def plm_sequence(batch: Batch) -> Tensor:
    """The frozen-encoder channel as a ``(batch, seq, plm_dim)`` tensor."""
    return Tensor(batch.feature("plm"))
