"""Span tracing of nclyap from outside the package.

``Tracer.install()`` replaces every callable named in each module's
``__all__`` wherever that object is bound inside ``nclyap`` (the defining
module, modules that imported it by name, and the package namespace).
Functions are wrapped directly; for classes, the public methods defined in
the class body are wrapped in place.  ``nclyap.models.expm`` and the
``rhs``/``propagator`` callables that ``flow`` receives are wrapped too.

Calls into the package's public names become spans ``(id, name, start,
end, parent)`` kept in memory and written out by ``write_spans``.  Calls
made once per integration step (model callables, ``expm`` and the model
classes' per-step methods) are only counted and timed, so that a traced
run neither stores millions of spans nor pays for them.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("systems", "models", "lyapunov", "probes", "converse", "comparison", "cli")

# Called once per integration step; covered by the model-callable wrappers.
PER_STEP_METHODS = {
    ("models", "BlockOperatorModel", "propagator"),
    ("models", "SwitchedLinearModel", "propagator"),
    ("models", "SwitchedLinearModel", "mode_expm"),
    ("models", "SwitchedLinearModel", "mode"),
}

BUILDERS = {
    "build_scalar_example", "build_ugatt_example", "build_blowup_example",
    "blowup_construction", "build_l2_block_model", "build_switched_linear",
    "build_linear", "model_from_descriptor",
}


def _metric_key(module, qualname, args, kwargs):
    """Group a traced call under the per-layer metric it feeds."""
    if module == "probes":
        if qualname == "probe_attractivity":
            notion = args[1] if len(args) > 1 else kwargs.get("notion")
            return f"probes.{notion}"
        if qualname == "classify_rfc":
            return "probes.RFC"
        if qualname == "classify_rep":
            return "probes.REP"
    if module == "models" and qualname in BUILDERS:
        return "models.build"
    if module == "lyapunov" and qualname == "LyapunovCandidate.__call__":
        return "lyapunov.V"
    if module == "converse" and qualname == "VkEvaluator.__call__":
        return "converse.vk"
    if module == "comparison":
        return "comparison"
    return f"{module}.{qualname}"


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []        # (id, name, start, end, parent)
        self.stack = []        # open frames, see _enter
        self.calls = defaultdict(int)
        self.outer_s = defaultdict(float)   # time not nested in the same key
        self.depth = defaultdict(int)
        self.counts = defaultdict(float)    # per-step and flow counters
        self._next_id = 0
        self._instrumented = {}
        self._flow_keys = set()
        self._flow_min_step = {}
        self._dts = set()

    # -- spans ------------------------------------------------------------

    def _enter(self, key, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        # [id, name, key, parent, seconds spent in model callables, start]
        frame = [span_id, name, key, parent, 0.0, 0.0]
        self.stack.append(frame)
        self.depth[key] += 1
        frame[5] = self.clock()
        return frame

    def _exit(self, frame):
        end = self.clock()
        span_id, name, key, parent, _, start = frame
        self.stack.pop()
        self.depth[key] -= 1
        self.calls[key] += 1
        if self.depth[key] == 0:
            self.outer_s[key] += end - start
        self.spans.append((span_id, name, start, end, parent))
        return end - start

    def _wrap(self, fn, module, qualname):
        tracer = self
        name = f"{module}.{qualname}"

        def traced(*args, **kwargs):
            frame = tracer._enter(_metric_key(module, qualname, args, kwargs), name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _hot(self, key, fn, charge=True):
        """Count and time a per-step callable; ``charge`` bills it to the caller."""
        tracer = self

        def timed(*args):
            start = tracer.clock()
            try:
                return fn(*args)
            finally:
                dt = tracer.clock() - start
                tracer.counts[key + ".calls"] += 1
                tracer.counts[key + ".s"] += dt
                if charge and tracer.stack:
                    tracer.stack[-1][4] += dt

        return timed

    # -- model callables seen by flow ---------------------------------------

    def _instrument_model(self, model):
        cached = self._instrumented.get(id(model))
        if cached is not None and cached[0] is model:
            return cached[1]
        if model.rhs is not None:
            inst = dataclasses.replace(model, rhs=self._hot("models.rhs", model.rhs))
        else:
            inst = dataclasses.replace(model, propagator=self._propagator(model.propagator))
        self._instrumented[id(model)] = (model, inst)
        return inst

    def _propagator(self, build):
        """Propagator wrapper timing both building and applying the operator."""
        tracer = self
        owner = id(getattr(build, "__self__", build))
        timed_build = self._hot("models.propagator", build)

        def propagator(dval, dt):
            tracer._dts.add((owner, float(dt)))
            advance = timed_build(dval, dt)

            def apply(x):
                start = tracer.clock()
                try:
                    return advance(x)
                finally:
                    dt_apply = tracer.clock() - start
                    tracer.counts["models.propagator.s"] += dt_apply
                    if tracer.stack:
                        tracer.stack[-1][4] += dt_apply

            return apply

        return propagator

    def _wrap_flow(self, flow):
        tracer = self
        counts = self.counts

        def traced_flow(model, t, x, d=None, step=1e-3, **kwargs):
            owner = model.rhs if model.rhs is not None else model.propagator
            owner = id(getattr(owner, "__self__", owner))
            start = np.atleast_1d(np.asarray(x, dtype=float)).tobytes()
            sig = ("default",) if d is None else (d.breakpoints, repr(d.values))
            base = (owner, float(t), start, sig)
            if base + (float(step),) in tracer._flow_keys:
                counts["systems.flow.repeat_calls"] += 1
            tracer._flow_keys.add(base + (float(step),))
            prior = tracer._flow_min_step.get(base)
            if prior is not None and step < prior:
                counts["systems.flow.refine_calls"] += 1
            tracer._flow_min_step[base] = step if prior is None else min(prior, step)

            inst = tracer._instrument_model(model)
            frame = tracer._enter("systems.flow", "systems.flow")
            try:
                traj = flow(inst, t, x, d, step=step, **kwargs)
            finally:
                elapsed = tracer._exit(frame)
            counts["systems.flow.self_s"] += elapsed - frame[4]
            counts["systems.flow.steps"] += len(traj.times) - 1
            if traj.escaped is not None:
                counts["systems.flow.escapes"] += 1
            return traj

        traced_flow.__wrapped__ = flow
        traced_flow.__doc__ = flow.__doc__
        return traced_flow

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib

        import nclyap

        mods = {name: importlib.import_module(f"nclyap.{name}") for name in MODULES}
        namespaces = [nclyap, *mods.values()]
        replaced = {}
        for mname, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if isinstance(obj, type):
                    self._wrap_class(mname, obj)
                elif callable(obj):
                    if mname == "systems" and name == "flow":
                        replaced[id(obj)] = (obj, self._wrap_flow(obj))
                    else:
                        replaced[id(obj)] = (obj, self._wrap(obj, mname, name))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
        mods["models"].expm = self._hot("models.expm", mods["models"].expm, charge=False)
        return self

    def _wrap_class(self, mname, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if (mname, cls.__name__, attr) in PER_STEP_METHODS:
                continue
            qualname = f"{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, mname, qualname))
            elif isinstance(value, (classmethod, staticmethod)):
                wrapped = self._wrap(value.__func__, mname, qualname)
                setattr(cls, attr, type(value)(wrapped))

    # -- results ----------------------------------------------------------

    def metrics(self):
        c = self.counts
        return {
            "systems.flow.calls": self.calls["systems.flow"],
            "systems.flow.steps": int(c["systems.flow.steps"]),
            "systems.flow.self_s": c["systems.flow.self_s"],
            "systems.flow.repeat_calls": int(c["systems.flow.repeat_calls"]),
            "systems.flow.escapes": int(c["systems.flow.escapes"]),
            "systems.flow.refine_calls": int(c["systems.flow.refine_calls"]),
            "models.rhs.calls": int(c["models.rhs.calls"]),
            "models.rhs.s": c["models.rhs.s"],
            "models.propagator.calls": int(c["models.propagator.calls"]),
            "models.propagator.s": c["models.propagator.s"],
            "models.expm.calls": int(c["models.expm.calls"]),
            "models.expm.s": c["models.expm.s"],
            "models.expm.distinct_dt": len(self._dts),
            "models.build.s": self.outer_s["models.build"],
            "lyapunov.V.calls": self.calls["lyapunov.V"],
            "lyapunov.V.s": self.outer_s["lyapunov.V"],
            "lyapunov.coercivity_profile.s": self.outer_s["lyapunov.coercivity_profile"],
            "probes.UGAS.s": self.outer_s["probes.UGAS"],
            "probes.UGATT.s": self.outer_s["probes.UGATT"],
            "probes.RFC.s": self.outer_s["probes.RFC"],
            "probes.REP.s": self.outer_s["probes.REP"],
            "converse.assemble_w.s": self.outer_s["converse.assemble_w"],
            "converse.estimate_flow_lipschitz.s":
                self.outer_s["converse.estimate_flow_lipschitz"],
            "converse.vk.calls": self.calls["converse.vk"],
            "converse.vk.s": self.outer_s["converse.vk"],
            "comparison.s": self.outer_s["comparison"],
            "cli.run.s": self.outer_s["cli.run"],
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
