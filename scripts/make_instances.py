#!/usr/bin/env python3
"""Generate the seeded benchmark instance sets used by the experiment
commands (`carptdsc bench`, `ablate-*`, `time-to-target`).

The published time-dependent parameters are not available, so each set is
derived from seeded random classic base graphs (small / medium / large)
crossed with both function shapes and two slope magnitudes. Re-running
with the same seeds reproduces the files byte for byte.
"""

import argparse
from pathlib import Path

from carptdsc import (
    generate_td_parameters,
    random_classic_instance,
    write_instance,
)

SIZES = {
    "small": dict(n_vertices=8, n_edges=13, capacity=15),
    "medium": dict(n_vertices=20, n_edges=40, capacity=20),
    "large": dict(n_vertices=40, n_edges=100, capacity=30),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data/generated", help="output directory")
    ap.add_argument("--seeds", type=int, default=3,
                    help="instances per size/type/slope cell")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    count = 0
    for size, kw in SIZES.items():
        for itype in ("2LP", "3LP"):
            for slope in (0.5, 2.0):
                for seed in range(args.seeds):
                    base = random_classic_instance(seed=seed, **kw)
                    inst = generate_td_parameters(base, itype, slope,
                                                  seed=seed)
                    stem = (f"{size}_{itype.lower()}_k"
                            f"{str(slope).replace('.', '')}_s{seed}")
                    write_instance(inst, out / f"{stem}.dat")
                    count += 1
    print(f"wrote {count} instances to {out}")


if __name__ == "__main__":
    main()
