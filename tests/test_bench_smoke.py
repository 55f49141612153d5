"""pytest-benchmark smoke tests: the timing harness runs on the hot kernels.

They assert no timing. Run `pytest tests/test_bench_smoke.py
--benchmark-only` to see the numbers.
"""

import numpy as np

from fedsim.compensated import combine_updates
from fedsim.datasets import fcube_generate
from fedsim.engine import MlpObjective
from fedsim.nn import MlpArch, momentum_update

WIDE = MlpArch((784, 200, 10)).n_params()  # 159,010 coordinates


def test_loss_grad_on_fcube_batch(benchmark):
    train, _ = fcube_generate(256, 16, seed=0)
    objective = MlpObjective(MlpArch((3, 32, 16, 8, 2)))
    w = objective.init_params(0)
    features, labels = train.features[:64], train.labels[:64]
    loss, grad = benchmark.pedantic(
        objective.loss_grad, args=(w, features, labels, 0.01, w),
        rounds=5, iterations=10,
    )
    assert np.isfinite(loss) and grad.shape == w.shape


def test_combine_updates_ten_wide_parties(benchmark):
    rng = np.random.default_rng(0)
    base = rng.normal(size=WIDE)
    finals = [base + 1e-3 * rng.normal(size=WIDE) for _ in range(10)]
    coeffs = list(rng.dirichlet(np.ones(10)))
    out = benchmark.pedantic(
        combine_updates, args=(base, coeffs, finals, 1.0), rounds=3, iterations=1
    )
    assert out.shape == base.shape and np.isfinite(out).all()


def test_momentum_update_wide(benchmark):
    rng = np.random.default_rng(1)
    w, grad = rng.normal(size=WIDE), rng.normal(size=WIDE)
    velocity, out = np.zeros(WIDE), np.empty(WIDE)
    benchmark.pedantic(
        momentum_update, args=(w, grad, velocity, 0.01, 0.9, out), rounds=5, iterations=10
    )
    assert np.isfinite(out).all() and np.isfinite(velocity).all()
