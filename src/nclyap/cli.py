"""Config-driven experiment runner.

Every run is reproducible from (config, seed): one manifest records the
inputs and library versions, result tables go to CSV with full-precision
floats (shortest round-trip rendering), and a human-readable summary lists
what happened.  Exit status 0 means the task completed with the expected
outcome, 1 means a runtime finding (refutation, escape, failed check or a
reproduction mismatch; witness files are written alongside), 2 means a
usage or config-schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .comparison import identity_table, power_table
from .lyapunov import verify_decay
from .models import (
    build_blowup_example,
    build_l2_block_model,
    build_scalar_example,
    build_switched_linear,
    build_ugatt_example,
    model_from_descriptor,
)
from .probes import classify_rep, classify_rfc, estimate_switched_bound, probe_attractivity
from .systems import DisturbanceSignal, _csv, _unit_direction, flow, flow_batch
from .converse import ConverseConfig, assemble_w

__all__ = ["ExperimentConfig", "run", "main"]

TASKS = ("simulate", "probe", "verify", "construct", "reproduce")
REPRODUCE_TARGETS = ("ex26", "ex213", "ex61", "ex62", "switched")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully deterministic experiment description.

    Round-trips through JSON bit-exactly (keys are sorted on
    serialization); output is a pure function of (config, seed).
    """

    task: str
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.task == "reproduce":
            target = self.params.get("target")
            if target not in REPRODUCE_TARGETS:
                raise ConfigError(
                    f"reproduce target must be one of {REPRODUCE_TARGETS}, got {target!r}")
        elif not self.model:
            raise ConfigError(f"task {self.task!r} requires a model descriptor")
        if not isinstance(self.model, dict):
            raise ConfigError(f"model descriptor must be a JSON object, got {self.model!r}")
        if int(self.seed) != self.seed:
            raise ConfigError("seed must be an integer")

    def to_json(self):
        return json.dumps(
            {"task": self.task, "model": self.model, "params": self.params,
             "seed": self.seed, "out": self.out},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        unknown = set(data) - {"task", "model", "params", "seed", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{"task": "", **data})


def _write(outdir, name, text):
    path = Path(outdir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _manifest(config, outdir):
    import scipy

    from . import __version__

    _write(outdir, "manifest.json", json.dumps({
        "config": json.loads(config.to_json()),
        "seed": config.seed,
        "versions": {
            "nclyap": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }, indent=2, sort_keys=True))


def _model(desc, build=model_from_descriptor):
    """The model a descriptor names, or what ``build`` makes of it; a bad one is a config error."""
    try:
        return build(desc)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad model descriptor {json.dumps(desc)}: {err!r}") from None


def _parse_signal(spec):
    if spec is None:
        return None
    try:
        if isinstance(spec, (int, float)):
            return DisturbanceSignal.constant(float(spec))
        if isinstance(spec, str):
            return DisturbanceSignal.from_json(spec)
        return DisturbanceSignal(tuple(p[0] for p in spec), tuple(p[1] for p in spec))
    except (IndexError, TypeError, ValueError) as err:
        raise ConfigError(f"bad disturbance signal {spec!r}: {err}") from None


def _given(params, *keys):
    """The params among ``keys`` that are set, to pass on as keywords: a key
    left out keeps the library function's own default."""
    return {k: params[k] for k in keys if k in params}


def _shell_states(seed, dim, count, r_lo, r_hi):
    """``count`` states in random directions with norms uniform in [r_lo, r_hi]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield _unit_direction(rng, dim) * rng.uniform(r_lo, r_hi)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _task_simulate(config, outdir, lines):
    p = config.params
    model = _model(config.model)
    x = np.asarray(p.get("x", [1.0] * model.dim), dtype=float)
    if x.shape != (model.dim,) or not np.isfinite(x).all():
        raise ConfigError(f"x must be a finite state of dimension {model.dim}, got {p['x']!r}")
    d = _parse_signal(p.get("d"))
    if d and any(v not in model.disturbance_set for v in d.values):
        raise ConfigError(f"d must take values in {model.disturbance_set}, got {p['d']!r}")
    traj = flow(model, float(p.get("t", 1.0)), x, d, **_given(p, "step"))
    _write(outdir, "trajectory.csv", traj.to_csv())
    if traj.escaped is not None:
        lines.append(f"ESCAPED: bracket ({traj.escaped[0]!r}, {traj.escaped[1]!r})")
        _write(outdir, "escape_witness.json", json.dumps({
            "x": [float(v) for v in x], "signal": traj.signal.to_json(),
            "bracket": list(traj.escaped)}, indent=2))
        return 1
    lines.append(f"simulated to t={traj.final_time!r}, final norm={model.norm(traj.final_state)!r}")
    return 0


def _task_probe(config, outdir, lines):
    p = config.params
    model = _model(config.model)
    notion = p.get("notion", "RFC")
    if notion in ("RFC", "REP"):
        classify = classify_rfc if notion == "RFC" else classify_rep
        report = classify(model, seed=config.seed, **_given(p, "budget", "step"))
    else:
        report = probe_attractivity(model, notion, seed=config.seed,
                                    **_given(p, "budget", "horizon", "magnitude", "step"))
    _write(outdir, "report.json", report.to_json())
    lines.append(f"{notion}: {report.verdict} ({report.notes})")
    return 1 if report.verdict == "refuted" else 0


def _task_verify(config, outdir, lines):
    p = config.params
    desc = config.model
    if desc.get("kind") == "l2_block":
        block = _model(desc, lambda d: build_l2_block_model(d["n"], d.get("epsilon", 0.0)))
        model, cand = block.system, block.candidate
    elif desc.get("kind") == "blowup":
        model, cand = _model(desc, lambda d: build_blowup_example(d.get("c", 3.0)))
    else:
        raise ConfigError("verify task needs a model with an attached candidate "
                          "(l2_block or blowup)")
    alpha = power_table(p.get("alpha_power", 1.0), r_max=64.0,
                        scale=p.get("alpha_scale", 1.0))
    r_lo, r_hi = p.get("radius_range", [1.0, 2.0])
    samples = int(p.get("samples", 20))
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    xs = _shell_states(config.seed, model.dim, samples, r_lo, r_hi)
    report = verify_decay(cand, alpha, model, xs, [model.default_signal()],
                          **_given(p, "tol", "step"))
    _write(outdir, "decay_report.json", report.to_json())
    _write(outdir, "decay_report.csv", report.to_csv())
    lines.append(f"decay check: {report.verdict} ({report.summary()})")
    return 0 if report.passed else 1


def _task_construct(config, outdir, lines):
    p = config.params
    model = _model(config.model)
    probe = probe_attractivity(
        model, "UGAS", seed=config.seed,
        **_given(p, "r_grid", "budget", "horizon", "magnitude", "step"))
    if probe.verdict == "refuted":
        _write(outdir, "ugas_refutation.json", probe.to_json())
        lines.append("construction aborted: UGAS refuted")
        return 1
    cfg = ConverseConfig.from_kl_bound(
        probe.tables["beta"], k_max=p.get("k_max", 4),
        disturbance_budget=p.get("budget", 6), seed=config.seed,
        **_given(p, "quadrature_step", "R", "magnitude"))
    W = assemble_w(model, cfg, lipschitz_budget=p.get("lipschitz_budget", 6))
    grid = _shell_states(config.seed, model.dim, int(p.get("grid_points", 16)), 0.2, cfg.R)
    _write(outdir, "w_table.csv", W.export_csv(grid))
    _write(outdir, "w_metadata.json", W.export_metadata())
    lines.append(f"assembled W with k_max={cfg.k_max}, weights={[float(w) for w in W.weights]}")
    return 0


# ---------------------------------------------------------------------------
# reproduction targets
# ---------------------------------------------------------------------------

def _reproduce_ex26(config, outdir, lines):
    expected = {
        "i": ("consistent", "refuted"),
        "ii": ("refuted", "refuted"),
        "iii": ("refuted", "consistent"),
        "iv": ("consistent", "consistent"),
    }
    rows = []
    ok = True
    for variant, (e_rfc, e_rep) in expected.items():
        model = build_scalar_example(variant)
        rfc = classify_rfc(model, C_grid=(0.25, 1.0, 2.0), tau_grid=(0.0, 0.5, 1.0),
                           budget=4, seed=config.seed, step=2e-2)
        rep = classify_rep(model, h_grid=(0.5,), eps_grid=(0.5,), budget=4,
                           seed=config.seed, step=2e-2)
        match = (rfc.verdict, rep.verdict) == (e_rfc, e_rep)
        ok = ok and match
        rows.append((variant, rfc.verdict, rep.verdict, e_rfc, e_rep, match))
        for tag, report in (("rfc", rfc), ("rep", rep)):
            if report.verdict == "refuted":
                _write(outdir, f"ex26_witness_{variant}_{tag}.json", report.to_json())
        lines.append(f"variant ({variant}): RFC {rfc.verdict}, REP {rep.verdict}"
                     + ("" if match else "  <-- MISMATCH"))
    _write(outdir, "ex26_table.csv",
           _csv(["variant", "rfc", "rep", "expected_rfc", "expected_rep", "match"], rows))
    return 0 if ok else 1


def _reproduce_ex213(config, outdir, lines):
    model = build_ugatt_example()
    ugatt = probe_attractivity(model, "UGATT", r_grid=(0.5, 1.0), eps_grid=(0.01,),
                               budget=4, horizon=8.0, seed=config.seed,
                               magnitude=2.0, step=2e-3)
    rep = classify_rep(model, h_grid=(0.5,), eps_grid=(0.5,), budget=4,
                       seed=config.seed, step=5e-3,
                       magnitudes=(1.0, 10.0, 100.0, 1000.0))
    rows = [(f"tau[{k}]", v) for k, v in (ugatt.tables.get("tau") or {}).items()]
    rows += [("ugatt_verdict", ugatt.verdict), ("rep_verdict", rep.verdict)]
    _write(outdir, "ex213_table.csv", _csv(["quantity", "value"], rows))
    if rep.verdict == "refuted":
        _write(outdir, "ex213_rep_witness.json", rep.to_json())
    lines.append(f"UGATT: {ugatt.verdict}; REP: {rep.verdict} "
                 f"(expected consistent / refuted)")
    return 0 if (ugatt.verdict == "consistent" and rep.verdict == "refuted") else 1


def _reproduce_ex61(config, outdir, lines):
    model, cand = build_blowup_example(3.0)
    rows = []
    ok = True
    grid = [(z1, z2) for z1 in np.linspace(-4.0, -1.0, 7) for z2 in np.linspace(-2.0, 2.0, 9)]
    for (z1, z2), traj in zip(grid, flow_batch(model, 12.0, grid, step=1e-2)):
        esc = traj.escaped is not None
        ok = ok and esc
        lo, hi = traj.escaped if esc else ("", "")
        fn = model.norm(traj.final_state)
        rows.append((z1, z2, esc, lo, hi, fn))
    _write(outdir, "ex61_escape.csv",
           _csv(["z1", "z2", "escaped", "bracket_lo", "bracket_hi", "final_norm"], rows))
    conv_rows = []
    safe = [(1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (0.5, -1.5), (1.4, 1.4)]
    for (z1, z2), traj in zip(safe, flow_batch(model, 15.0, safe, step=5e-3)):
        fn = model.norm(traj.final_state)
        conv = traj.escaped is None and fn < 0.01
        ok = ok and conv
        conv_rows.append((z1, z2, fn, conv))
    _write(outdir, "ex61_convergence.csv",
           _csv(["z1", "z2", "final_norm", "converged"], conv_rows))
    xs = _shell_states(config.seed, 2, 12, 2.0, 4.0)
    report = verify_decay(cand, identity_table(8.0), model, xs,
                          [model.default_signal()], tol=5e-3,
                          h_sequence=np.array([1e-3, 3e-4, 1e-4, 3e-5, 1e-5]),
                          step=1e-6)
    _write(outdir, "ex61_decay.json", report.to_json())
    ok = ok and report.passed
    lines.append(f"escape grid all escaped + safe region converged + decay {report.verdict}")
    return 0 if ok else 1


def _reproduce_ex62(config, outdir, lines):
    p = config.params
    n = int(p.get("n", 40))
    eps = float(p.get("epsilon", 0.0))
    block = build_l2_block_model(n, eps)
    model, cand = block.system, block.candidate
    lam = block.lambda_mins()
    _write(outdir, "ex62_lambda_min.csv", _csv(["i", "lambda_min"], enumerate(lam, 1)))
    rate = 2 * eps - 1.0
    decay_rows = []
    ok = True
    xs = list(_shell_states(config.seed, model.dim, 10, 0.5, 2.0))
    # the propagator is exact at any step, so one batch at step 0.5 has the
    # three times read here among its nodes: four applies for all ten rows
    for j, (x, traj) in enumerate(zip(xs, flow_batch(model, 2.0, xs, step=0.5))):
        v0 = cand(x)
        for t in (0.5, 1.0, 2.0):
            ratio = cand(traj.state_at(t)) / v0
            bound = float(np.exp(rate * t)) * 1.001
            ok = ok and ratio <= bound
            decay_rows.append((j, t, ratio, bound))
    _write(outdir, "ex62_v_decay.csv", _csv(["trajectory", "t", "V_ratio", "bound"], decay_rows))
    if eps == 0.0:
        dec = bool(np.all(np.diff(lam[: min(30, n)]) < 0))
        ok = ok and dec and (n < 30 or lam[29] < 0.05)
        lines.append(f"lambda_min decreasing over first {min(30, n)} blocks: {dec}")
    else:
        wit = block.singular_direction(10.0)
        # only the final state is read: one exact step to t = 10
        traj = flow(model, 10.0, wit, step=10.0)
        growth = model.norm(traj.final_state) / model.norm(wit)
        grew = growth >= float(np.exp(0.2 * 10.0))
        ok = ok and grew
        _write(outdir, "ex62_instability.csv", _csv(
            ["quantity", "value"], [("growth_factor", growth), ("threshold", np.exp(2.0))]))
        lines.append(f"instability growth factor over t=10: {growth:.3f} "
                     f"(needs >= {np.exp(2.0):.3f}) while V decays")
    lines.append(f"V decay factors within e^{{(2 eps - 1) t}} x 1.001: {ok}")
    return 0 if ok else 1


def _reproduce_switched(config, outdir, lines):
    p = config.params
    sw = build_switched_linear(
        p.get("modes", [[[-1.0, 0.0], [0.0, -2.0]], [[-1.5, 0.5], [0.0, -0.8]]]))
    fit = estimate_switched_bound(sw, horizon=p.get("horizon", 10.0),
                                  budget=p.get("budget", 10), seed=config.seed)
    quantities = ("M", "omega", "M_tilde", "h", "chain_max_ratio")
    _write(outdir, "switched_bound.csv",
           _csv(["quantity", "value"], [(q, getattr(fit, q)) for q in quantities]))
    _write(outdir, "switched_witness_signal.json", fit.witness_signal.to_json())
    ok = fit.chain_max_ratio <= 1.0 + 1e-9 and fit.M >= 1.0
    lines.append(f"fitted envelope M={fit.M:.4f}, omega={fit.omega:.4f}; "
                 f"chain bound ratio {fit.chain_max_ratio:.3f}")
    return 0 if ok else 1


def run(config):
    """Execute a config; returns the exit status and writes artifacts."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = [f"task: {config.task}", f"seed: {config.seed}"]
    _manifest(config, outdir)
    if config.task == "reproduce":
        target = config.params["target"]
        lines.insert(1, f"target: {target}")
        handler = {"ex26": _reproduce_ex26, "ex213": _reproduce_ex213, "ex61": _reproduce_ex61,
                   "ex62": _reproduce_ex62, "switched": _reproduce_switched}[target]
    else:
        handler = {"simulate": _task_simulate, "probe": _task_probe, "verify": _task_verify,
                   "construct": _task_construct}[config.task]
    status = handler(config, outdir, lines)
    lines.append(f"status: {status}")
    _write(outdir, "summary.txt", "\n".join(lines) + "\n")
    return status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nclyap",
        description="Experiment runner for the disturbed-systems Lyapunov toolkit",
    )
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    # accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    def add_command(name, help_text):
        # a flag left out is absent from the params, as a key a config file
        # leaves out; the task function holds its default
        return sub.add_parser(name, help=help_text, parents=[common],
                              argument_default=argparse.SUPPRESS)

    sim = add_command("simulate", "integrate one trajectory")
    sim.add_argument("--model", required=True, help="JSON model descriptor")
    sim.add_argument("--t", type=float)
    sim.add_argument("--x", type=_floats, help="comma-separated initial state")
    sim.add_argument("--d", type=_number_or_text, help="constant value or JSON signal")
    sim.add_argument("--step", type=float)

    pr = add_command("probe", "classify a stability notion")
    pr.add_argument("--model", required=True)
    pr.add_argument("--notion")
    pr.add_argument("--budget", type=int)
    pr.add_argument("--horizon", type=float)

    ver = add_command("verify", "check a candidate's decay inequality")
    ver.add_argument("--model", required=True)
    ver.add_argument("--alpha-power", type=float)
    ver.add_argument("--samples", type=int)

    con = add_command("construct", "assemble a converse Lyapunov function")
    con.add_argument("--model", required=True)
    con.add_argument("--kmax", type=int, dest="k_max")
    con.add_argument("--budget", type=int)

    rep = add_command("reproduce", "re-run a pinned example scenario")
    rep.add_argument("target", choices=REPRODUCE_TARGETS)
    rep.add_argument("--n", type=int)
    rep.add_argument("--epsilon", type=float)
    rep.add_argument("--budget", type=int)
    return parser


def _floats(text):
    return [float(v) for v in text.split(",")]


def _number_or_text(text):
    try:
        return float(text)
    except ValueError:
        return text


def _config_from_args(args):
    params = dict(vars(args))
    config, command = params.pop("config"), params.pop("command")
    # --seed and --out override the config file's values, or the defaults
    overrides = {k: v for k in ("seed", "out") if (v := params.pop(k)) is not None}
    if config:
        return replace(ExperimentConfig.from_json(Path(config).read_text()), **overrides)
    if not command:
        raise ConfigError("either --config or a subcommand is required")
    # what is left are the subcommand flags given: an omitted flag is an omitted key
    model = json.loads(params.pop("model", "{}"))
    return ExperimentConfig(command, model, params, **overrides)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
    except (ConfigError, json.JSONDecodeError) as err:
        parser.error(str(err))  # exits with status 2


if __name__ == "__main__":
    sys.exit(main())
