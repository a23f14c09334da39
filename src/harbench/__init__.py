"""Streaming human-activity-recognition benchmark harness.

Pipeline: PAMAP2 (or synthetic) sensor streams -> overlapping windows ->
81 time-domain features -> three-member incremental ensemble with a
confidence-gated semi-supervised update -> leave-one-user-out sweeps over
window size and overlap, with phase timing and energy estimation.
"""

__version__ = "0.1.0"
