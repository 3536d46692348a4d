#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs one round of each workload at seed 0, confirms that the checks pass on
the real outputs, then feeds each check a corrupted copy of one output and
confirms that the check rejects it.  Exits 0 when every corruption is rejected.
"""

import copy
import csv
import io
import shutil
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
from run import spawn  # noqa: E402


def _failing(result):
    return {name for name, ok, _ in result[0] if not ok}


class FileEdit:
    """Rewrite a file for the duration of a ``with`` block."""

    def __init__(self, path, edit):
        self.path, self.edit = Path(path), edit

    def __enter__(self):
        self.saved = self.path.read_bytes()
        self.edit(self.path)

    def __exit__(self, *exc):
        self.path.write_bytes(self.saved)


def edit_csv(path, fn):
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    fn(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def edit_npz(path, fn):
    data = dict(np.load(path))
    fn(data)
    with open(path, "wb") as fh:
        np.savez(fh, **data)


# -- corruptions ----------------------------------------------------------------

def hierarchy_cases(rec):
    cells = lambda r: r["rounds"][0]["cells"]  # noqa: E731

    def perturb_start(r):
        for rep in cells(r)["scalar-ii"]["reports"].values():
            if rep["verdict"] == "refuted":
                w = rep["witnesses"][0]
                w["x"] = [v * 1e-3 for v in w["x"]]
                return

    def refute_ugatt(r):
        cells(r)["ugatt"]["reports"]["UGATT"]["verdict"] = "refuted"

    def break_implication(r):
        reps = cells(r)["ugatt"]["reports"]
        reps["UGAS"]["verdict"] = "consistent"
        reps["RFC"]["verdict"] = "inconclusive"

    def break_homogeneity(r):
        reps = cells(r)["scalar-ii"]["reports"]
        reps["REP"]["verdict"] = "consistent" if reps["RFC"]["verdict"] != "consistent" \
            else "refuted"

    yield "witness with a perturbed start state", perturb_start, None, "witness_replay"
    yield "UGATT refuted on the UGATT example", refute_ugatt, None, \
        "ugatt_example_not_refuted"
    yield "UGAS consistent, RFC not", break_implication, None, "ugas_implies_ugatt_rfc"
    yield "REP and RFC disagree on a homogeneous model", break_homogeneity, None, \
        "homogeneous_rep_iff_rfc"


def block_cases(rec):
    r0 = rec["rounds"][0]
    lam_path = Path(r0["ex62_dirs"]["0.0"]) / "ex62_lambda_min.csv"
    inst_path = Path(r0["ex62_dirs"]["0.25"]) / "ex62_instability.csv"
    flow0 = r0["flows"][0]["file"]

    def lam_off(path):
        def fn(rows):
            rows[4]["lambda_min"] = repr(float(rows[4]["lambda_min"]) * (1 + 1e-4))
        edit_csv(path, fn)

    def move_endpoint(path):
        edit_npz(path, lambda d: d["y"].__setitem__(0, d["y"][0] + 1e-6))

    def grow_endpoint(path):
        edit_npz(path, lambda d: d.__setitem__("y", d["y"] * 1.05))

    def bump_growth(path):
        def fn(rows):
            for row in rows:
                if row["quantity"] == "growth_factor":
                    row["value"] = repr(float(row["value"]) * (1 + 1e-5))
        edit_csv(path, fn)

    def raise_infimum(r):
        r["rounds"][0]["profile"]["inf"] = [0.06] * len(r["rounds"][0]["profile"]["inf"])

    yield "lambda_min of block 5 off by 1e-4 relative", None, FileEdit(lam_path, lam_off), \
        "lambda_min_oracle"
    yield "trajectory endpoint moved by 1e-6", None, FileEdit(flow0, move_endpoint), \
        "endpoint_closed_form"
    yield "endpoint scaled so V grows", None, FileEdit(flow0, grow_endpoint), \
        "v_decay_bound"
    yield "growth factor off by 1e-5 relative", None, FileEdit(inst_path, bump_growth), \
        "instability_growth"
    yield "coercivity infimum raised to 0.06", raise_infimum, None, "coercivity_infimum"


def converse_cases(rec):
    r0 = rec["rounds"][0]
    table = Path(r0["construct_dir"]) / "w_table.csv"

    def v1_off(r):
        r["rounds"][0]["v1"] += 2e-4

    def w_origin(r):
        r["rounds"][0]["linear"]["origin"] = 1e-9

    def w_increase(r):
        w = r["rounds"][0]["linear"]["flow"]["W"]
        w[-1] = w[0] + 1.0

    def flow_point_off(r):
        pts = r["rounds"][0]["linear"]["flow"]["t_x"]
        pts[2][1] *= 1 + 1e-6

    def vk_above(r):
        vk = r["rounds"][0]["vk"]
        a = vk["alpha1"]
        x = vk["states"][-1]
        bound = float(oracles.interp_table(a["grid"], a["values"], a["slope"],
                                           float(np.linalg.norm(x))))
        vk["values"][-1] = bound + 2e-3

    def negative_w(path):
        edit_csv(path, lambda rows: rows[0].__setitem__("W", "-1.0"))

    yield "V_1(e) off by 2e-4", v1_off, None, "v1_closed_form"
    yield "W(0) raised to 1e-9", w_origin, None, "w_zero_and_positive"
    yield "negative W in the construct table", None, FileEdit(table, negative_w), \
        "w_zero_and_positive"
    yield "W raised along the flow", w_increase, None, "w_nonincreasing_along_flow"
    yield "flow point moved by 1e-6 relative", flow_point_off, None, \
        "w_nonincreasing_along_flow"
    yield "V_k raised above alpha_1(|x|) + 1e-3", vk_above, None, "vk_below_alpha1"


CASES = {"hierarchy": hierarchy_cases, "block": block_cases, "converse": converse_cases}


def main():
    base = HERE / "out" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    all_ok = True
    for workload, cases in CASES.items():
        rec, _, _ = spawn(workload, 0, 1, base / workload,
                          time.monotonic() + 170.0, rounds=1)
        clean = checks.CHECKS[workload](rec)
        bad = _failing(clean)
        print(f"{workload}: clean outputs {'pass' if not bad else 'FAIL ' + str(bad)}")
        all_ok = all_ok and not bad
        for label, mutate, file_edit, target in cases(rec):
            corrupted = copy.deepcopy(rec)
            if mutate is not None:
                mutate(corrupted)
            if file_edit is not None:
                with file_edit:
                    result = checks.CHECKS[workload](corrupted)
            else:
                result = checks.CHECKS[workload](corrupted)
            rejected = target in _failing(result)
            all_ok = all_ok and rejected
            print(f"  {label}: {'rejected' if rejected else 'NOT rejected'} by {target}")
    shutil.rmtree(base, ignore_errors=True)
    print("selftest " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
