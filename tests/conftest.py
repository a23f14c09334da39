import numpy as np
import pytest

from harbench.dataset import SyntheticSpec, generate_synthetic


def make_line(ts, activity, hr="NaN", fill=1.0, n_imu_cols=51):
    """One PAMAP2-format line; fill is used for every IMU column."""
    tokens = [str(ts), str(activity), str(hr)]
    tokens += [str(fill)] * n_imu_cols
    return " ".join(tokens)


def make_imu_line(ts, activity, hr, blocks):
    """blocks: list of 3 lists of 17 column values (use 'NaN' for missing)."""
    tokens = [str(ts), str(activity), str(hr)]
    for block in blocks:
        assert len(block) == 17
        tokens += [str(v) for v in block]
    return " ".join(tokens)


@pytest.fixture(scope="session")
def small_spec():
    return SyntheticSpec.default(class_count=3, samples_per_class=600,
                                 users=(1, 2, 3), seed=7)


@pytest.fixture(scope="session")
def small_streams(small_spec):
    return generate_synthetic(small_spec)


@pytest.fixture(scope="session")
def hard_spec():
    """Close, noisy classes and shifted users: self-updates change scores."""
    return SyntheticSpec.default(class_count=3, samples_per_class=600,
                                 users=(1, 2, 3), class_sep=0.3,
                                 noise_sigma=1.0,
                                 user_offsets={1: 0.0, 2: 0.3, 3: -0.3},
                                 seed=7)


@pytest.fixture(scope="session")
def hard_streams(hard_spec):
    return generate_synthetic(hard_spec)


class FakeWindow:
    """Minimal window stand-in: direct channel data, no stream backing."""

    def __init__(self, channels, label=1, user_id=1):
        self.channels = np.asarray(channels, dtype=np.float64)
        self.label = label
        self.user_id = user_id


def random_window(rng, w=32):
    return FakeWindow(rng.normal(size=(w, 27)))
