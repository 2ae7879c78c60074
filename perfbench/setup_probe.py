"""Time fullkl's set-up in a fresh interpreter: import, config load, dataset build and split.

Usage: python3 setup_probe.py SRC_DIR [CONFIG.json ...]

Prints one JSON line ``{"setup_s": ...}``.  With no config (the verify
workload) only the import is timed.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from fullkl import data, runner
    from fullkl.model import derive_seeds

    datasets = {}
    for path in sys.argv[2:]:
        cfg = runner.load_config(path)
        key = json.dumps(runner.config_to_dict(cfg)["dataset"], sort_keys=True)
        if key not in datasets:
            datasets[key] = runner.build_dataset(cfg.dataset, cfg.grid)
            for seed in cfg.seeds:
                data.split(datasets[key], cfg.train.val_fraction, derive_seeds(seed)[0])
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
