"""Streaming human-activity-recognition benchmark harness.

Pipeline: PAMAP2 (or synthetic) sensor streams -> overlapping windows ->
81 time-domain features -> three-member incremental ensemble with a
confidence-gated semi-supervised update -> leave-one-user-out sweeps over
window size and overlap, with phase timing and energy estimation.
"""

from .dataset import (PROTOCOL_ACTIVITIES, SensorStream, SyntheticSpec,
                      filter_protocol_activities, generate_synthetic,
                      parse_subject_file, sample_counts)
from .ensemble import Ensemble, LearnerParams, Prediction
from .evaluation import (FoldResult, emit_reports, evaluate_fold, louo_split,
                         sweep)
from .features import FeatureVector, extract, extract_stream
from .learners import (GaussianNbClassifier, HoeffdingTreeClassifier,
                       KnnClassifier, hoeffding_bound)
from .profiling import PowerModel, TimingBreakdown, estimate_energy, timed_run
from .windowing import (Window, WindowConfig, classification_count,
                        label_window, labeled_windows, segment)

__version__ = "0.1.0"
