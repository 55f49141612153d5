"""One measured process of the benchmark; run.py starts one per sample.

    python3 perfbench/probe.py setup CONFIG      time to round 1 in a fresh process
    python3 perfbench/probe.py run CONFIG OUT    one untraced harness.cmd_run
    python3 perfbench/probe.py trace CONFIG OUT  one harness.cmd_run, traced (instrument.py)

Each prints one JSON object on its last stdout line. fedsim is imported from
the checkout's src/ directory, ahead of any installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CAL_CHUNKS = 10


def calibrate() -> dict:
    """Wall and CPU seconds of a fixed numpy kernel that shares no code with fedsim.

    It makes many calls on tiny arrays (a 3-32-16-2 net on 64 rows), the
    regime of fcube and sweep steps. It runs in CAL_CHUNKS pieces and the
    median piece is scaled up, so one preemption does not move the result.
    """
    import numpy as np

    generator = np.random.default_rng(0)
    x = generator.standard_normal((64, 3))
    w1, w2, w3 = (generator.standard_normal(s) for s in ((3, 32), (32, 16), (16, 2)))

    def kernel():
        for _ in range(300):
            h1 = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            out = h2 @ w3
            out = np.exp(out - out.max(axis=1, keepdims=True))
            out /= out.sum(axis=1, keepdims=True)
            d2 = (out @ w3.T) * (h2 > 0)
            d1 = (d2 @ w2.T) * (h1 > 0)
            np.concatenate([(x.T @ d1).ravel(), (h1.T @ d2).ravel(), (h2.T @ out).ravel()])

    walls, cpus = [], []
    for _ in range(CAL_CHUNKS):
        wall, cpu = time.perf_counter(), time.process_time()
        kernel()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    middle = CAL_CHUNKS // 2
    return {"cal_s": sorted(walls)[middle] * CAL_CHUNKS,
            "cal_cpu_s": sorted(cpus)[middle] * CAL_CHUNKS}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup(config_path: str) -> dict:
    """import fedsim + parse the config + build the dataset, the first cell's
    party views and its initial model: everything before round 1 can start."""
    started = time.perf_counter()
    from fedsim import rng
    from fedsim.config import load_config
    from fedsim.harness import build_dataset
    from fedsim.nn import MlpArch, init_mlp
    from fedsim.partition import build_views

    config = load_config(config_path)
    train, _ = build_dataset(config)
    cell_seed = rng.derive_seed(config.fed.master_seed, rng.TAG_TRIAL, 0)
    build_views(
        train, config.partition, config.fed.n_parties,
        rng.derive_seed(cell_seed, rng.TAG_PARTITION),
    )
    arch = MlpArch((train.n_features, *config.hidden, train.n_classes))
    init_mlp(arch, rng.derive_seed(cell_seed, rng.TAG_INIT))
    setup_s = time.perf_counter() - started
    # The kernel runs only after the measured section: before it, it would
    # import numpy, which setup_s must include.
    return {"setup_s": setup_s, **calibrate()}


def run(config_path: str, out_dir: str) -> dict:
    from fedsim.config import load_config
    from fedsim.harness import cmd_run

    config = load_config(config_path)
    # The kernel brackets the run; its mean over both sides tracks the
    # machine's speed during the run better than either side alone.
    before = calibrate()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    cmd_run(config, out_dir)
    sample = {
        "run_s": time.perf_counter() - started,
        "cpu_s": _cpu_seconds() - cpu_before,
        "peak_rss_mb": _peak_rss_mb(),
    }
    after = calibrate()
    sample.update({key: (before[key] + after[key]) / 2 for key in after})
    return sample


def trace(config_path: str, out_dir: str) -> dict:
    """One harness.cmd_run with fedsim's public calls timed (instrument.py)."""
    from fedsim.config import load_config
    from fedsim.harness import cmd_run

    from instrument import Spans, instrumented

    spans = Spans()
    started = time.perf_counter()
    config = load_config(config_path)
    spans.add("config.parse", started)
    with instrumented(spans):
        started = time.perf_counter()
        cmd_run(config, out_dir)
        run_s = time.perf_counter() - started
    return {"run_s": run_s, "seconds": spans.seconds, "counts": spans.counts}


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    modes = {"setup": setup, "run": run, "trace": trace}
    if not argv or argv[0] not in modes:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(modes[argv[0]](*argv[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
