#!/usr/bin/env python3
"""Reference counts quoted in README.md, recomputed with the tracer.

Usage (from the root of a checkout): python3 perfbench/reference.py

Prints, for the criterion-9 settings (budget 3, horizon 16, seed 0) and for
the hierarchy workload's cells: how many of UGATT's flows repeat a flow
UGAS already ran on the UGATT example, and the escapes and accepted steps
of UGAS on scalar (ii) at magnitude 64.  Then the size of the switched
pair's expm cache after the criterion-6 protocol's 200 V_k evaluations.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workload import HIER, HIER_GRID, SCALAR_II_CELL, STABLE_PAIR, UGATT_CELL  # noqa: E402

tracer = Tracer().install()

from nclyap.converse import ConverseConfig, construct_vk_integral  # noqa: E402
from nclyap.models import (build_scalar_example, build_switched_linear,  # noqa: E402
                           build_ugatt_example)
from nclyap.probes import probe_attractivity  # noqa: E402


def delta(fn):
    keys = ("systems.flow.calls", "systems.flow.repeat_calls", "systems.flow.escapes",
            "systems.flow.steps")
    before = tracer.metrics()
    fn()
    after = tracer.metrics()
    return {k.rsplit(".", 1)[1]: after[k] - before[k] for k in keys}


def hierarchy(label, horizon_ugatt, horizon_ii, seed):
    ugatt = build_ugatt_example()
    mag_ugatt, mag_ii = UGATT_CELL[0], SCALAR_II_CELL[0]
    common = dict(r_grid=HIER_GRID, seed=seed, **HIER)
    delta(lambda: probe_attractivity(ugatt, "UGAS", horizon=horizon_ugatt,
                                     magnitude=mag_ugatt, **common))
    d = delta(lambda: probe_attractivity(ugatt, "UGATT", eps_grid=(0.1,),
                                         horizon=horizon_ugatt, magnitude=mag_ugatt,
                                         stability_rel=0.25, **common))
    print(f"{label}: UGATT on the UGATT example repeats {d['repeat_calls']} "
          f"of its {d['calls']} flows")
    d = delta(lambda: probe_attractivity(build_scalar_example("ii"), "UGAS",
                                         horizon=horizon_ii, magnitude=mag_ii, **common))
    print(f"{label}: UGAS on scalar (ii) at magnitude {mag_ii:g}: {d['escapes']} escapes in "
          f"{d['steps']} accepted steps over {d['calls']} flows")


def expm_cache():
    pair = build_switched_linear(STABLE_PAIR)
    probe = probe_attractivity(pair.system, "UGAS", r_grid=(0.5, 1.0, 2.0), budget=6, horizon=12.0,
                               seed=0, step=2e-2)
    cfg = ConverseConfig.from_kl_bound(probe.tables["beta"], k_max=2, disturbance_budget=6,
                                       quadrature_step=5e-3, seed=0, R=2.0)
    vk = construct_vk_integral(pair.system, 2, cfg)
    before = len(pair._expm_cache)
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = rng.normal(size=2)
        vk(u / np.linalg.norm(u) * rng.uniform(0.05, 2.0))
    print(f"criterion 6: 200 V_k evaluations grow the switched expm cache from "
          f"{before} to {len(pair._expm_cache)} entries")


if __name__ == "__main__":
    hierarchy("criterion 9 settings (horizon 16, seed 0)", 16.0, 16.0, 0)
    hierarchy("hierarchy workload cells (seed 0)", UGATT_CELL[1], SCALAR_II_CELL[1], 0)
    expm_cache()
