"""pytest-benchmark smoke test: the timing harness runs on the hot kernel.

It asserts no timing. Run `pytest tests/test_bench_smoke.py
--benchmark-only` to see the numbers.
"""

import numpy as np

from fedsim.datasets import FcubeSpec, fcube_generate
from fedsim.engine import MlpObjective
from fedsim.nn import MlpArch


def test_loss_grad_on_fcube_batch(benchmark):
    train, _, _ = fcube_generate(FcubeSpec(n_train=256, n_test=16, seed=0))
    objective = MlpObjective(MlpArch((3, 32, 16, 8, 2)))
    w = objective.init_params(0).values
    features, labels = train.features[:64], train.labels[:64]
    loss, grad = benchmark.pedantic(
        objective.loss_grad, args=(w, features, labels, 0.01, w),
        rounds=5, iterations=10,
    )
    assert np.isfinite(loss) and grad.shape == w.shape
