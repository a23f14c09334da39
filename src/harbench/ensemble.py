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
                       KnnClassifier, LearnerError, _check_distribution,
                       _check_rows, _row_chunks)

MODES = ("supervised_frozen", "semi_supervised")
STREAK_ROWS, MAX_BLOCK_ROWS = 8, 4096  # run_blocks' streak gate


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

    def classify_rows(self, X):
        """classify's label and confidence for each row of X, as two lists
        in row order. Each member row is checked as classify checks it, and
        the vote is the same, as array operations over a rows x members x
        classes stack, a chunk of rows at a time."""
        if not self._trained:
            raise EnsembleError("classify on untrained ensemble")
        X = np.asarray(X, dtype=np.float64)
        n_members, n_classes = len(self.members), len(self.classes)
        winners, confidences = [], []
        for chunk in _row_chunks(len(X), n_members * n_classes):
            rows = X[chunk]
            dists = np.stack([_check_rows(m.predict_rows(rows))
                              for m in self.members], axis=1)
            votes = dists.argmax(axis=2)
            counts = (votes[..., None] == np.arange(n_classes)).sum(axis=1)
            tied = counts == counts.max(axis=1, keepdims=True)
            # tied columns summed down each row's members, in member order
            winner = np.where(tied, dists.sum(axis=1), -np.inf).argmax(axis=1)
            voting = votes == winner[:, None]
            n_voting = voting.sum(axis=1)
            share = np.take_along_axis(dists, winner[:, None, None], axis=2)
            # the voting members' mean share, as classify sums it
            summed = np.where(voting, share[..., 0], 0.0).sum(axis=1)
            winners += winner.tolist()
            confidences += (summed / n_voting * n_voting / n_members).tolist()
        return [self.classes[i] for i in winners], confidences

    def _gate(self, values, label, confidence):
        """The self-update rule: train label back into every member iff
        confidence beats the gate."""
        if confidence <= self.confidence_threshold:
            return False
        for member in self.members:
            member.train(values, label)
        return True

    def self_update(self, fv, prediction) -> bool:
        """Train the predicted label back in iff confidence beats the gate."""
        return self._gate(fv.values, prediction.label, prediction.confidence)

    def run_online(self, instances, mode):
        """The audit of a stream's classification: one record per instance,
        in order; in semi_supervised mode each may self-update the model.

        True labels on the instances are never shown to the model; they are
        carried into the audit records for scoring only.
        """
        update = _updates(mode)
        audit = []
        for fv in instances:
            pred = self.classify(fv)
            updated = update and self.self_update(fv, pred)
            audit.append(AuditRecord(true_label=fv.label,
                                     predicted_label=pred.label,
                                     confidence=pred.confidence,
                                     updated=updated))
        return audit

    def run_blocks(self, instances, mode):
        """run_online's audit and updates over a sequence of instances, in
        speculative blocks: the model changes only at an update, so a block
        scored by classify_rows is classify's up to and including the first
        row that passes the gate, and scoring resumes after it. A frozen run
        is one block (classify per row below STREAK_ROWS rows). A
        semi-supervised one uses classify until STREAK_ROWS rows in a row
        fail the gate, then blocks the size of that run, and classify again
        after an update. A block that raises is scored again a window at a
        time, to raise at run_online's row and state."""
        update = _updates(mode)
        audit, streak, careful = [], 0, 0
        while len(audit) < len(instances):
            i = len(audit)
            size = min(streak, MAX_BLOCK_ROWS) if update else len(instances)
            if i < careful or size < STREAK_ROWS:
                pred = self.classify(instances[i])
                rows = [(pred.label, pred.confidence)]
            else:
                try:
                    rows = zip(*self.classify_rows(np.stack(
                        [fv.values for fv in instances[i:i + size]])))
                except LearnerError:
                    careful = i + size
                    continue
            for label, confidence in rows:
                fv = instances[len(audit)]
                updated = update and self._gate(fv.values, label, confidence)
                audit.append(AuditRecord(fv.label, label, confidence, updated))
                streak = 0 if updated else streak + 1
                if updated:
                    break
        return audit


def _updates(mode):
    """Whether an online run in this mode self-updates the model."""
    if mode not in MODES:
        raise EnsembleError(f"unknown mode {mode!r}, expected one of {MODES}")
    return mode == "semi_supervised"
