"""One benchmark workload, run in a fresh process by ``run.py``.

Usage: python3 perfbench/workload.py --workload NAME --seed N --seconds S
                                     --out DIR [--trace] [--rounds R]

The BLAS and OpenMP pools are pinned to one thread before numpy is first
imported.  Everything after the imports and model building belongs to
rounds; each round repeats the workload's operations on inputs drawn from
``(seed, round index)``, so no round repeats an earlier round's inputs.
Only the task calls are timed, each scaled to the reference speed of
``calibrate.py`` by the kernel runs around it.  The outputs are written to DIR for
``run.py`` to check in another process, which never imports nclyap.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402

# -- workload parameters (see README.md) -----------------------------------

HIER_GRID = (0.5, 1.0, 2.0)
HIER = dict(budget=3, step=2e-2)
# (magnitude, UGAS/UGATT horizon) of the hierarchy cells; the scalar (ii)
# horizon equals the RFC tau grid's end and the REP h
UGATT_CELL = (1.0, 2.0)
SCALAR_II_CELL = (64.0, 0.5)
BLOCK_N = 120
BLOCK_EPS = (0.0, 0.25)
BLOCK_RADII = (0.5, 1.0, 2.0)
BLOCK_TIMES = (0.5, 2.0)
STABLE_PAIR = [[[-1.0, 0.0], [0.0, -2.0]], [[-1.5, 0.5], [0.0, -0.8]]]
VK_RADII = (0.25, 0.5, 1.0, 1.5, 2.0)
VK_DIRECTIONS = 5
LINEAR_W_POINTS = (0.5, 1.0, 2.0, 4.0)
LINEAR_FLOW_TIMES = (0.0, 0.6, 1.2)


def round_seed(seed, k):
    return (int(seed) * 100003 + int(k)) % (2**31 - 1)


def round_rng(seed, k):
    return np.random.default_rng([int(seed) % 2**32, int(k)])


class Rounds:
    """Bookkeeping of task calls: counts, failures and their times.

    Every call is bracketed by runs of the workload's reference kernel
    (``calibrate.py``); a call's time is scaled to the reference speed by
    ``ref_s`` over the mean of the kernel times just before and after it.
    """

    def __init__(self, kernel, ref_s):
        self.kernel, self.ref_s = kernel, ref_s
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.kernel_s = None
        self.raw = 0.0
        self.scaled = 0.0
        self.op_seconds = {}

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        if self.kernel_s is None:
            self.kernel_s = self.kernel()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            result = None
        seconds = time.perf_counter() - start
        after = self.kernel()
        scaled = seconds * self.ref_s / (0.5 * (self.kernel_s + after))
        self.kernel_s = after
        self.raw += seconds
        self.scaled += scaled
        self.op_seconds[label] = self.op_seconds.get(label, 0.0) + scaled
        return result

    def cli(self, label, argv):
        from nclyap.cli import main

        status = self.call(label, main, argv)
        if status not in (0, None):
            self.failed += 1
            self.errors.append(f"{label}: exit status {status}")
        return status

    def take_wall(self):
        """(scaled, raw) time of the round's calls, and its scaled time per label."""
        walls = (self.scaled, self.raw)
        self.scaled = self.raw = 0.0
        ops, self.op_seconds = self.op_seconds, {}
        return walls, ops


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _report(report):
    if report is None:
        return None
    data = json.loads(report.to_json())
    return {"verdict": data["verdict"], "witnesses": data["witnesses"]}


# -- hierarchy ----------------------------------------------------------------

class Hierarchy:
    def __init__(self, out):
        from nclyap.models import build_scalar_example, build_ugatt_example

        self.out = out
        self.cells = [
            ("ugatt", build_ugatt_example(), *UGATT_CELL),
            ("scalar-ii", build_scalar_example("ii"), *SCALAR_II_CELL),
        ]

    def round(self, ops, k, seed):
        from nclyap.probes import classify_rep, classify_rfc, probe_attractivity

        s = round_seed(seed, k)
        result = {"probe_seed": s, "cells": {}}
        for name, model, mag, horizon in self.cells:
            common = dict(seed=s, step=HIER["step"])
            reports = {
                "UGAS": ops.call(f"{name} UGAS", probe_attractivity, model, "UGAS",
                                 r_grid=HIER_GRID, budget=HIER["budget"],
                                 horizon=horizon, magnitude=mag, **common),
                "UGATT": ops.call(f"{name} UGATT", probe_attractivity, model, "UGATT",
                                  r_grid=HIER_GRID, eps_grid=(0.1,), budget=HIER["budget"],
                                  horizon=horizon, magnitude=mag,
                                  stability_rel=0.25, **common),
                "RFC": ops.call(f"{name} RFC", classify_rfc, model, C_grid=HIER_GRID,
                                tau_grid=(0.0, 0.25, 0.5), budget=HIER["budget"],
                                magnitudes=(mag,), **common),
                "REP": ops.call(f"{name} REP", classify_rep, model, budget=HIER["budget"],
                                h_grid=(0.5,), eps_grid=(0.5,), magnitudes=(mag,),
                                **common),
            }
            result["cells"][name] = {
                "magnitude": mag, "horizon": horizon,
                "homogeneous": bool(model.homogeneous),
                "reports": reports,
            }
        return result

    def serialize(self, k, result):
        for cell in result["cells"].values():
            cell["reports"] = {p: _report(r) for p, r in cell["reports"].items()}
        return result


# -- block --------------------------------------------------------------------

class Block:
    def __init__(self, out):
        from nclyap.models import build_l2_block_model

        self.out = out
        self.block = build_l2_block_model(BLOCK_N, 0.0)
        self.system = self.block.system

    def round(self, ops, k, seed):
        from nclyap.lyapunov import coercivity_profile
        from nclyap.models import build_l2_block_model
        from nclyap.systems import flow

        s = round_seed(seed, k)
        dirs = {}
        for eps in BLOCK_EPS:
            d = self.out / f"r{k}" / f"ex62_eps{eps}"
            dirs[str(eps)] = str(d)
            ops.cli(f"ex62 eps={eps}", ["reproduce", "ex62", "--n", str(BLOCK_N),
                                         "--epsilon", str(eps), "--seed", str(s),
                                         "--out", str(d)])

        def profile():
            return coercivity_profile(self.block.candidate, self.system, BLOCK_RADII,
                                      direction_budget=16, seed=s,
                                      witness_directions=self.block.witness_directions())

        prof = ops.call("coercivity_profile", profile)
        rng = round_rng(seed, k)
        flows = []
        for eps in BLOCK_EPS:
            # a fresh model per round, so that no round starts from the expm
            # cache an earlier round filled
            block = ops.call(f"build eps={eps}", build_l2_block_model, BLOCK_N, eps)
            system = None if block is None else block.system
            for t in BLOCK_TIMES:
                x = _unit(rng, self.system.dim)
                traj = None if system is None else ops.call(
                    f"flow eps={eps} t={t}", flow, system, t, x, step=1e-2)
                # copied: final_state is a view that would keep every state alive
                flows.append((eps, t, x, None if traj is None else traj.final_state.copy()))
        return {"probe_seed": s, "ex62_dirs": dirs, "profile": prof, "flows": flows}

    def serialize(self, k, result):
        prof = result.pop("profile")
        result["profile"] = None if prof is None else {
            "radii": prof.radii.tolist(), "inf": prof.inf_estimates.tolist(),
            "sup": prof.sup_estimates.tolist(), "noncoercive": prof.noncoercive_flag}
        flows = []
        for j, (eps, t, x, y) in enumerate(result.pop("flows")):
            entry = {"epsilon": eps, "t": t, "file": None}
            if y is not None:
                path = self.out / f"r{k}" / f"flow{j}.npz"
                path.parent.mkdir(parents=True, exist_ok=True)
                np.savez(path, x=x, y=y)
                entry["file"] = str(path)
            flows.append(entry)
        result["flows"] = flows
        result["n"] = BLOCK_N
        return result


# -- converse -----------------------------------------------------------------

class Converse:
    def __init__(self, out):
        self.out = out
        self.config = out / "construct.json"
        out.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps({
            "task": "construct",
            "model": {"kind": "switched_linear", "modes": STABLE_PAIR},
            "params": {"k_max": 2, "budget": 3, "grid_points": 6,
                       "lipschitz_budget": 3, "horizon": 10.0, "R": 1.0},
        }))

    def round(self, ops, k, seed):
        from nclyap.comparison import identity_table
        from nclyap.converse import (ConverseConfig, assemble_w, construct_vk_integral,
                                     invert_table)
        from nclyap.models import build_linear, build_switched_linear
        from nclyap.probes import probe_attractivity
        from nclyap.systems import flow

        s = round_seed(seed, k)
        rng = round_rng(seed, k)
        out = {"probe_seed": s}
        # fresh models per round: the expm caches live on the model objects
        pair = ops.call("build switched", build_switched_linear, STABLE_PAIR)
        linear = ops.call("build linear", build_linear, [[-1.0]])
        out.update(construct_dir=None, switched_ugas=None, vk=None, linear=None, v1=None)
        if pair is None or linear is None:
            return out
        switched = pair.system
        construct_dir = self.out / f"r{k}" / "construct"
        out["construct_dir"] = str(construct_dir)
        ops.cli("construct", ["--config", str(self.config), "--seed", str(s),
                              "--out", str(construct_dir)])

        # criterion 6: V_k on the switched pair against alpha_1
        probe = ops.call("switched UGAS", probe_attractivity, switched, "UGAS",
                         r_grid=(0.5, 1.0, 2.0), budget=3, horizon=12.0, seed=s, step=2e-2)
        out["switched_ugas"] = None if probe is None else probe.verdict
        states = [r * _unit(rng, 2) for r in VK_RADII for _ in range(VK_DIRECTIONS)]
        if probe is not None and probe.verdict == "consistent":
            cfg = ops.call("switched config", ConverseConfig.from_kl_bound,
                           probe.tables["beta"], k_max=2, disturbance_budget=3,
                           quadrature_step=5e-3, seed=s, R=2.0)
            if cfg is not None:
                vk = construct_vk_integral(switched, 2, cfg)
                values = ops.call("switched V_k", lambda: [vk(x) for x in states])
                out["vk"] = {
                    "k": 2, "states": [x.tolist() for x in states], "values": values,
                    "alpha1": {"grid": cfg.alpha1.grid.tolist(),
                               "values": cfg.alpha1.values.tolist(),
                               "slope": cfg.alpha1.slope},
                    "clamp": float(invert_table(cfg.rho)(0.5)),
                }

        # criterion 5: the one-dimensional linear member and its W
        cfg1 = ConverseConfig(rho=identity_table(12.0), alpha1=identity_table(12.0),
                              k_max=4, disturbance_budget=2, quadrature_step=1e-3)
        W = ops.call("linear assemble_w", assemble_w, linear, cfg1)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        if W is not None:
            def along():
                pts, vals = [], []
                for t0 in LINEAR_FLOW_TIMES:
                    for t in (t0, t0 + 1e-3):
                        x = flow(linear, t, np.array([2.0 * sign]), step=0.1).final_state
                        pts.append([t, float(x[0])])
                        vals.append(W(x))
                return pts, vals

            origin = ops.call("linear W(0)", W, np.array([0.0]))
            off = ops.call("linear W grid",
                           lambda: [W(np.array([sign * r])) for r in LINEAR_W_POINTS])
            flow_pts = ops.call("linear W along flow", along)
            out["linear"] = {
                "origin": origin, "points": [sign * r for r in LINEAR_W_POINTS],
                "values": off, "x0": 2.0 * sign,
                "flow": None if flow_pts is None else {"t_x": flow_pts[0],
                                                        "W": flow_pts[1]},
            }
        v1 = construct_vk_integral(linear, 1, cfg1)
        out["v1"] = ops.call("linear V_1", v1, np.array([np.e * sign]))
        return out

    def serialize(self, k, result):
        return result


WORKLOADS = {"hierarchy": Hierarchy, "block": Block, "converse": Converse}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds (0: until --seconds)")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import nclyap  # noqa: F401  (imports are part of set-up)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    workload = WORKLOADS[args.workload](out)

    ops = Rounds(*calibrate.KERNELS[args.workload])
    t_first = time.monotonic()
    walls, raw_walls, op_seconds, results = [], [], [], []
    k = 0
    while True:
        result = workload.round(ops, k, args.seed)
        (wall, raw), per_op = ops.take_wall()
        walls.append(wall)
        raw_walls.append(raw)
        op_seconds.append(per_op)
        # serialized at once, so that a round's objects are freed before the next
        results.append(workload.serialize(k, result))
        del result
        k += 1
        if args.rounds:
            if k >= args.rounds:
                break
        elif time.monotonic() - t_first + raw_walls[-1] > args.seconds:
            break
    record = {
        "workload": args.workload, "seed": args.seed, "t_first_call": t_first,
        "round_walls": walls,
        "raw_round_walls": raw_walls, "op_seconds": op_seconds,
        "attempted": ops.attempted, "failed": ops.failed,
        "errors": ops.errors,
        "rounds": results,
    }
    if tracer is not None:
        record["per_layer"] = tracer.metrics()
        tracer.write_spans(out / "spans.jsonl")
    (out / "result.json").write_text(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
