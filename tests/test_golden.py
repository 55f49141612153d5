"""Golden outputs: two small runs whose results.jsonl must not change.

The SHA-256 values were recorded from the code before the local-training
loop moved onto raw arrays. Any change to the numbers a run writes (losses,
accuracies, bytes, divergence flags) changes a hash; only `wall_ms` is
masked. The scaffold run diverges in its last rounds and still finishes.
"""

import hashlib
import json
import re

from fedsim.config import parse_config
from fedsim.harness import cmd_run

FCUBE_FEDPROX = {
    "dataset": {"type": "fcube", "n_train": 400, "n_test": 100, "seed": 3},
    "partition": {"type": "fcube_pairs"},
    "arch": {"hidden": [16, 8]},
    "fed": {"algorithms": ["fedprox"], "rounds": 5, "parties": 4, "local_epochs": 3,
            "batch_size": 32, "prox_mu": 0.01, "seed": 7},
}
BLOBS_SCAFFOLD = {
    "dataset": {"type": "blobs", "n_classes": 10, "n_per_class": 40, "dim": 32,
                "spread": 0.3, "seed": 3},
    "partition": {"type": "quantity_dirichlet", "beta": 0.5},
    "arch": {"hidden": [32, 16, 8]},
    "fed": {"algorithms": ["scaffold"], "rounds": 12, "parties": 5, "local_epochs": 5,
            "batch_size": 64, "seed": 11},
}
GOLDEN = {
    "fcube_fedprox": "91b918e67003feba26af7fad8e03458c6e0b95f272204dec1e5fdd00c452a161",
    "blobs_scaffold": "37399a744f6d81b5725e0e63a0db9e64a39c36ff25dd21960d8cb849219eb663",
}


def masked_results(raw, out_dir):
    cmd_run(parse_config(raw), out_dir)
    text = (out_dir / "results.jsonl").read_text(encoding="ascii")
    return re.sub(r'"wall_ms": \d+', '"wall_ms": 0', text)


def test_fcube_fedprox_golden(tmp_path):
    text = masked_results(FCUBE_FEDPROX, tmp_path)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["fcube_fedprox"]


def test_blobs_scaffold_diverges_and_matches_golden(tmp_path):
    text = masked_results(BLOBS_SCAFFOLD, tmp_path)
    flags = [json.loads(line)["diverged"] for line in text.splitlines()]
    assert len(flags) == 13 and flags[-2:] == [True, True] and not any(flags[:-2])
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == GOLDEN["blobs_scaffold"]
