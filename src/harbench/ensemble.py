"""Majority-vote ensemble of kNN, naive Bayes and Hoeffding tree with a
confidence-gated semi-supervised self-update.

Each member votes its argmax class; the ensemble label is the majority vote
(ties broken by the highest summed posterior). Confidence is the mean
posterior of the members voting for the winner, scaled by the fraction of
members that voted for it, so it reaches 1.0 only under unanimous, fully
confident agreement. During online semi-supervised runs an instance is
trained back into all members iff its confidence is strictly above the gate
threshold (default 0.99); a run's step per row is that rule's one entry.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import operator
import pickle
from dataclasses import dataclass

import numpy as np

from .features import N_FEATURES
from .learners import (GaussianNbClassifier, HoeffdingTreeClassifier,
                       KnnClassifier, LearnerError, _check_rows, _row_chunks)

MODES = ("supervised_frozen", "semi_supervised")
STREAK_ROWS, MAX_BLOCK_ROWS = 8, 4096  # run_blocks' streak gate


class EnsembleError(Exception):
    pass


@dataclass(frozen=True)
class Prediction:
    label: int
    confidence: float
    member_distributions: np.ndarray  # members x classes posteriors, for audit


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

    def clone(self):
        return copy.deepcopy(self)

    def state_hash(self):
        """Digest of all mutable model state, for gate-soundness audits."""
        payload = pickle.dumps(
            [(m.__class__.__name__, m.__dict__) for m in self.members])
        return hashlib.sha256(payload).hexdigest()

    def train_offline(self, instances):
        """Fit all members on labeled instances, in stream order: train_rows
        of their feature vectors, stacked a chunk of rows at a time."""
        instances = list(instances)
        if not instances:
            raise EnsembleError("empty training set")
        for chunk in _row_chunks(len(instances), N_FEATURES):
            part = instances[chunk]
            self.train_rows(np.array([fv.values for fv in part], np.float64),
                            [fv.label for fv in part])
        return self

    def train_rows(self, X, labels):
        """Train each row of X, a float64 array, with its label, into every
        member, in order, through each member's train_rows, which leaves
        the bits of train per row; no rows leave the model as it was. Rows
        and labels of different lengths are refused first. Then a row that
        kNN's train refuses, one with an unknown label or a NaN or infinite
        value, raises its error after every member has trained the rows
        before it."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) != len(labels):
            raise EnsembleError(f"{len(X)} rows for {len(labels)} labels")
        index = {c: i for i, c in enumerate(self.classes)}
        # int64 for no labels too: naive Bayes bincounts them
        y = np.array([index.get(label, -1) for label in labels], np.int64)
        n = _first_refused(X, y)
        for member in self.members:
            member.train_rows(X[:n], y[:n])
        if n < len(labels):  # raises, and changes no member
            self.members[0].train(X[n], labels[n])
        return self

    def classify(self, fv) -> Prediction:
        return self.classify_row(fv.values)

    def classify_row(self, x) -> Prediction:
        if self.members[0].size == 0:  # every member trains each row
            raise EnsembleError("classify on untrained ensemble")
        # members x classes; argmax = fixed class order
        dists = np.stack([m.predict(x) for m in self.members])
        # the vote over Python floats: each member's first largest class
        rows = dists.tolist()
        # rows summing within 1e-10 of 1 here sum within 1e-9 in numpy's
        # order too; a NaN sums to NaN; _check_rows decides the rest
        if not all(min(r) >= 0 and abs(sum(r) - 1.0) <= 1e-10 for r in rows):
            _check_rows(dists)
        votes = [row.index(max(row)) for row in rows]
        top = max(map(votes.count, votes))
        tied = sorted({v for v in votes if votes.count(v) == top})
        # tied columns summed down the rows, in member order
        winner = tied[0] if len(tied) == 1 else tied[
            dists[:, tied].sum(axis=0).argmax()]
        voting = [row[winner] for row, v in zip(rows, votes) if v == winner]
        # their mean, added left to right as numpy adds a few values
        # (not sum(), which compensates from Python 3.12)
        n = len(voting)
        mean = functools.reduce(operator.add, voting) / n
        confidence = mean * n / len(self.members)
        return Prediction(label=self.classes[winner], confidence=confidence,
                          member_distributions=dists)

    def classify_rows(self, X):
        """classify's Prediction for each row of X, with the same bits.
        Each member row is checked as classify checks it, and the vote is
        the same, as array operations over a rows x members x classes
        stack, a chunk of rows at a time."""
        if self.members[0].size == 0:  # every member trains each row
            raise EnsembleError("classify on untrained ensemble")
        X = np.asarray(X, dtype=np.float64)
        n_members, n_classes = len(self.members), len(self.classes)
        predictions = []
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
            confidences = summed / n_voting * n_voting / n_members
            labels = [self.classes[i] for i in winner.tolist()]
            predictions += map(Prediction, labels, confidences.tolist(), dists)
        return predictions

    def self_update(self, fv, prediction) -> bool:
        """Train the predicted label back in iff confidence beats the gate."""
        return self._step(fv.values, fv.label, prediction, True).updated

    def _step(self, x, label, pred, update):
        """A scored row's audit record, each run's one step per row: it trains
        the predicted label back in iff the run updates and the gate passes,
        through each member's one-row train."""
        updated = update and pred.confidence > self.confidence_threshold
        if updated:
            for member in self.members:
                member.train(x, pred.label)
        return AuditRecord(label, pred.label, pred.confidence, updated)

    def run_online(self, instances, mode):
        """The audit of a stream's classification: one record per instance,
        in order; in semi_supervised mode each may self-update the model.
        An instance's true label goes into its audit record only, never
        into the model."""
        update = _updates(mode)
        return [self._step(fv.values, fv.label, self.classify(fv), update)
                for fv in instances]

    def run_blocks(self, X, labels, mode, frozen=()):
        """run_online's audit and updates over the rows of X and a list of
        their labels, in speculative blocks: the model changes only at an
        update, so a block scored by classify_rows is classify_row's up to and
        including the first row that passes the gate, and scoring resumes after
        it. A frozen run is one block (classify_row per row below STREAK_ROWS
        rows). A semi-supervised one uses classify_row until STREAK_ROWS rows
        in a row fail the gate, then blocks the size of that run, and
        classify_row again after an update, as at its start. frozen, the
        audit of a frozen run of this model over the first rows, is the first
        block, its records standing for those rows' predictions: they are not
        scored again. A block that raises is scored again a row at a time, to
        raise at run_online's row and state."""
        update = _updates(mode)
        if len(X) != len(labels):
            raise EnsembleError(f"{len(X)} rows for {len(labels)} labels")
        if len(frozen) > len(labels):
            raise EnsembleError(f"a frozen audit of {len(frozen)} records "
                                f"for {len(labels)} rows")
        audit, streak, careful = [], 0, 0
        while len(audit) < len(labels):
            i = len(audit)
            size = min(streak, MAX_BLOCK_ROWS) if update else len(labels)
            if frozen and i == 0:
                preds = [Prediction(rec.predicted_label, rec.confidence, None)
                         for rec in frozen]
            elif i < careful or size < STREAK_ROWS:
                preds = [self.classify_row(X[i])]
            else:
                try:
                    preds = self.classify_rows(X[i:i + size])
                except LearnerError:
                    careful = i + size
                    continue
            for k, pred in enumerate(preds, i):
                audit.append(self._step(X[k], labels[k], pred, update))
                if audit[-1].updated:
                    streak = 0
                    break
                streak += 1
        return audit


def _first_refused(X, y):
    """The first row kNN's train refuses, with a class index y of -1 or a
    NaN or infinite value, or len(X); a chunk of rows at a time."""
    for chunk in _row_chunks(len(X), N_FEATURES):
        ok = np.isfinite(X[chunk]).all(axis=1) & (y[chunk] >= 0)
        if not ok.all():
            return chunk.start + int(ok.argmin())
    return len(X)


def _updates(mode):
    """Whether an online run in this mode self-updates the model."""
    if mode not in MODES:
        raise EnsembleError(f"unknown mode {mode!r}, expected one of {MODES}")
    return mode == "semi_supervised"
