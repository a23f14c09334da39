"""Majority-vote ensemble of kNN, naive Bayes and Hoeffding tree with a
confidence-gated semi-supervised self-update.

Each member votes its argmax class; the ensemble label is the majority vote
(ties broken by the highest summed posterior). Confidence is the mean
posterior of the members voting for the winner, scaled by the fraction of
members that voted for it, so it reaches 1.0 only under unanimous, fully
confident agreement. During online semi-supervised runs an instance is
trained back into all members iff its confidence is strictly above the gate
threshold (default 0.99).
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from dataclasses import dataclass

import numpy as np

from .features import N_FEATURES
from .learners import (GaussianNbClassifier, HoeffdingTreeClassifier,
                       KnnClassifier, _check_distribution)

MODES = ("supervised_frozen", "semi_supervised")


class EnsembleError(Exception):
    pass


@dataclass(frozen=True)
class Prediction:
    label: int
    confidence: float
    member_distributions: tuple  # one probability vector per member, for audit


@dataclass
class LearnerParams:
    """Hyperparameters for the three members, all overridable from the CLI."""
    k: int = 5
    knn_capacity: int = 5000
    vfdt_delta: float = 1e-7
    vfdt_tie_threshold: float = 0.05
    vfdt_grace_period: int = 200
    confidence_threshold: float = 0.99


@dataclass
class AuditRecord:
    true_label: int
    predicted_label: int
    confidence: float
    updated: bool


class Ensemble:
    """Three-member ensemble with confidence-gated self-training."""

    def __init__(self, classes, params=None):
        params = params or LearnerParams()
        if np.isnan(params.confidence_threshold):
            raise EnsembleError("confidence_threshold must not be NaN")
        self.classes = tuple(classes)
        self.confidence_threshold = params.confidence_threshold
        self.members = [
            KnnClassifier(classes, N_FEATURES, k=params.k,
                          capacity=params.knn_capacity),
            GaussianNbClassifier(classes, N_FEATURES),
            HoeffdingTreeClassifier(classes, N_FEATURES,
                                    delta=params.vfdt_delta,
                                    tie_threshold=params.vfdt_tie_threshold,
                                    grace_period=params.vfdt_grace_period),
        ]
        self._trained = False

    def clone(self):
        return copy.deepcopy(self)

    def state_hash(self):
        """Digest of all mutable model state, for gate-soundness audits."""
        payload = pickle.dumps(
            [(m.__class__.__name__, m.__dict__) for m in self.members])
        return hashlib.sha256(payload).hexdigest()

    def train_offline(self, instances):
        """Fit all members on labeled instances, in stream order."""
        instances = list(instances)
        if not instances:
            raise EnsembleError("empty training set")
        for fv in instances:
            for member in self.members:
                member.train(fv.values, fv.label)
        self._trained = True
        return self

    def classify(self, fv) -> Prediction:
        if not self._trained:
            raise EnsembleError("classify on untrained ensemble")
        # members x classes; argmax = fixed class order
        dists = np.stack([_check_distribution(m.predict(fv.values))
                          for m in self.members])
        votes = dists.argmax(axis=1)
        counts = np.bincount(votes, minlength=len(self.classes))
        tied = np.flatnonzero(counts == counts.max())
        # tied columns summed down the rows, in member order
        winner = tied[dists[:, tied].sum(axis=0).argmax()]
        voting = dists[votes == winner, winner]
        confidence = float(voting.mean() * len(voting) / len(self.members))
        return Prediction(label=self.classes[winner], confidence=confidence,
                          member_distributions=tuple(dists))

    def self_update(self, fv, prediction) -> bool:
        """Train the predicted label back in iff confidence beats the gate."""
        if prediction.confidence <= self.confidence_threshold:
            return False
        for member in self.members:
            member.train(fv.values, prediction.label)
        return True

    def run_online(self, instances, mode):
        """The audit of a stream's classification: one record per instance,
        in order; in semi_supervised mode each may self-update the model.

        True labels on the instances are never shown to the model; they are
        carried into the audit records for scoring only.
        """
        if mode not in MODES:
            raise EnsembleError(f"unknown mode {mode!r}, expected one of {MODES}")
        audit = []
        for fv in instances:
            pred = self.classify(fv)
            updated = mode == "semi_supervised" and self.self_update(fv, pred)
            audit.append(AuditRecord(true_label=fv.label,
                                     predicted_label=pred.label,
                                     confidence=pred.confidence,
                                     updated=updated))
        return audit
