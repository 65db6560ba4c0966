"""Golden-matrix regression lock.

A fixed-seed simulated trace is featurised and the SHA-256 of the exact
bytes of the Table II matrix is compared against a checked-in digest.  Any
silent numeric drift in featurisation — a reordered reduction, a changed
default, an accidental dtype change — fails loudly here, whereas metric-
level tests could quietly absorb it.

If a deliberate featurisation change lands, regenerate the digests with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.workload import WorkloadConfig, generate_trace
    from repro.features.pipeline import FeaturePipeline
    r, c = generate_trace(WorkloadConfig(n_jobs=2000, seed=42, load=0.4,
                                         cluster_scale=0.05))
    fm = FeaturePipeline(c).compute(r.jobs)
    print(hashlib.sha256(fm.X.tobytes()).hexdigest())
    print(hashlib.sha256(fm.queue_time_min.tobytes()).hexdigest())"
"""

from __future__ import annotations

import hashlib

import pytest

from repro.features.pipeline import FeaturePipeline
from repro.workload import WorkloadConfig, generate_trace

GOLDEN_X_SHA256 = "30f921c93f21b69ec418575b6a79fe1ca9206dde24ee3c02f36b2cd5cc6e6871"
GOLDEN_Q_SHA256 = "3c8eb759f1bcf22895fced0f1a5bb70d9857491bf2925d8a3790e43eedbe91d1"


@pytest.fixture(scope="module")
def golden_trace():
    return generate_trace(
        WorkloadConfig(n_jobs=2000, seed=42, load=0.4, cluster_scale=0.05)
    )


def _digests(fm) -> tuple[str, str]:
    return (
        hashlib.sha256(fm.X.tobytes()).hexdigest(),
        hashlib.sha256(fm.queue_time_min.tobytes()).hexdigest(),
    )


def test_golden_matrix_serial(golden_trace):
    result, cluster = golden_trace
    fm = FeaturePipeline(cluster).compute(result.jobs)
    assert fm.X.shape == (2000, 33)
    x_sha, q_sha = _digests(fm)
    assert x_sha == GOLDEN_X_SHA256, "feature matrix bytes drifted"
    assert q_sha == GOLDEN_Q_SHA256, "queue-time target bytes drifted"
