"""Spans around holonet's layer boundaries, recorded from outside the package.

A traced run swaps selected module functions and methods for timing
wrappers and puts the originals back afterwards; holonet itself carries no
hooks. A span's self time is its duration minus the spans it encloses.
Tape primitives are counted and timed per op without entering the span
stack, so a layer's self time includes the ops it records itself.
Per-epoch figures come from inside `train.loss_and_grad`, which runs once
per training epoch.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

EPOCH_SPAN = "train.loss_and_grad"
FIT_SPAN = "train.fit"
PREPARE_SPAN = "train.prepare"


class _Delegate:
    """Stand-in for a module: own attributes first, the module's otherwise."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.stack = []                        # open spans: [name, child seconds]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)      # inclusive, whole run
        self.epoch_seconds = defaultdict(float)  # inclusive, inside an epoch
        self.epoch_self = defaultdict(float)     # self time, inside an epoch
        self.fit_children = 0.0   # spans directly under fit, after its set-up
        self.op_calls = defaultdict(int)       # tape primitives inside epochs
        self.op_seconds = defaultdict(float)
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.cg_iters = 0
        self.cg_info = []
        self._in_epoch = 0
        self._saved = []

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def span(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span; after(args, result) runs untimed."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            if name == EPOCH_SPAN:
                self._in_epoch += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                if name == EPOCH_SPAN:
                    self._in_epoch -= 1
                self._close(name, dt, dt - frame[1])
            if after is not None:
                after(args, out)
            return out

        self._patch(owner, attr, traced)

    def _close(self, name, dt, own):
        self.calls[name] += 1
        self.seconds[name] += dt
        if self._in_epoch or name == EPOCH_SPAN:
            self.epoch_seconds[name] += dt
            self.epoch_self[name] += own
        if self.stack:
            parent = self.stack[-1]
            parent[1] += dt
            if parent[0] == FIT_SPAN and name != PREPARE_SPAN:
                self.fit_children += dt

    def ops(self, owner, attr, label=None):
        """Count and time tape primitives recorded inside an epoch."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def timed(tape, *args, **kwargs):
            if not self._in_epoch:
                return fn(tape, *args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(tape, *args, **kwargs)
            finally:
                op = label or args[0]
                self.op_calls[op] += 1
                self.op_seconds[op] += time.perf_counter() - t0

        self._patch(owner, attr, timed)

    # -- the holonet layer boundaries --------------------------------------

    def install(self, hn, oracle_name):
        """Wrap the layer boundaries of every holonet module in `hn`."""
        cd, tr, geo, bench = hn.cdiff, hn.train, hn.geometry, hn.bench
        rep = hn.representations

        def tape_size(args, _):
            tape = args[0]
            self.tape_nodes += len(tape)
            self.tape_bytes += sum(v.nbytes for v in tape.vals)

        self.ops(cd.Tape, "record")
        self.ops(cd.Tape, "leaf", "leaf")
        self.span(cd.Tape, "backward", "cdiff.backward", after=tape_size)
        self.span(hn.nets.BoundPlain, "at", "nets.at")
        self.span(hn.laurent.BoundLaurent, "at", "laurent.at")
        for f in ("laplace_field", "biharmonic_field", "elasticity_fields"):
            self.span(rep, f, "representations.fields")
        for f in ("vekua_points", "vekua_grad_coeffs"):
            self.span(rep, f, "representations.vekua")
        self.span(tr, "fit", FIT_SPAN)
        self.span(tr, "_prepare", PREPARE_SPAN)
        self.span(tr, "loss_and_grad", EPOCH_SPAN)
        self.span(tr, "loss_value", "train.loss_value")
        self.span(tr, "adam_step", "train.adam")
        self.span(tr.BatchContext, "__init__", "train.batch_context")
        self.span(tr, "residual_values", "train.residual_values")
        self.span(tr, "predict_fields", "train.predict_fields")
        self.span(geo.Domain, "contains", "geometry.contains")
        self.span(geo.Domain, "distance_to_boundary", "geometry.distance")
        self.span(geo, "build_pool", "geometry.build_pool")
        self.span(geo, "rad_resample", "geometry.rad_resample")
        self.span(bench, oracle_name, "bench.oracle")
        for f in ("_scalar_error", "_stress_errors"):
            self.span(bench, f, "bench.relative_l2")
        self._install_solvers(bench, hn.np)
        self.span(hn.checkpoint, "save_checkpoint", "checkpoint.save")
        self.span(hn.cli, "write_loss_csv", "cli.write_loss")
        self.span(hn.cli, "write_fields_csv", "cli.write_fields")

    def _install_solvers(self, bench, np):
        # the oracles' linear solves: CG and spsolve through bench's own
        # handle on scipy.sparse.linalg, lstsq through numpy.linalg
        spla = _Delegate(bench.spla)
        cg = bench.spla.cg

        def counted_cg(A, b, *args, callback=None, **kwargs):
            def step(xk):
                self.cg_iters += 1
                if callback is not None:
                    callback(xk)

            x, info = cg(A, b, *args, callback=step, **kwargs)
            self.cg_info.append(info)
            return x, info

        spla.cg = counted_cg
        spla.spsolve = bench.spla.spsolve
        self.span(spla, "cg", "bench.oracle_solve")
        self.span(spla, "spsolve", "bench.oracle_solve")
        self._patch(bench, "spla", spla)
        self.span(np.linalg, "lstsq", "bench.oracle_solve")

    # -- per-layer metrics ---------------------------------------------------

    def ops_per_epoch(self):
        """{primitive: (count, ms)} per epoch, for every primitive seen."""
        n = max(self.calls[EPOCH_SPAN], 1)
        return {op: (self.op_calls[op] / n, self.op_seconds[op] * 1e3 / n)
                for op in sorted(self.op_calls)}

    def layer_metrics(self, loop_seconds, ops):
        """Per-layer figures of one traced run; values in the units listed
        by run.PER_LAYER and run.LOCAL_LAYERS. `loop_seconds` is the time of
        fit's training loop."""
        n = max(self.calls[EPOCH_SPAN], 1)
        ms = 1e3
        out = {
            "cdiff.ops_per_epoch": self.tape_nodes / n,
            "cdiff.record_ms_per_epoch": sum(self.op_seconds.values()) * ms / n,
            "cdiff.backward_ms_per_epoch": self.epoch_seconds["cdiff.backward"] * ms / n,
            "cdiff.tape_mb_per_epoch": self.tape_bytes / 1e6 / n,
        }
        for op in ops:
            out[f"cdiff.ops.{op}"] = self.op_calls[op] / n
            out[f"cdiff.record_ms.{op}"] = self.op_seconds[op] * ms / n
        calls_lv = max(self.calls["train.loss_value"], 1)
        out.update({
            "nets.at_ms_per_epoch": self.epoch_seconds["nets.at"] * ms / n,
            "laurent.at_ms_per_epoch": self.epoch_self["laurent.at"] * ms / n,
            "representations.fields_ms_per_epoch":
                self.epoch_seconds["representations.fields"] * ms / n,
            "representations.vekua_ms": self.seconds["representations.vekua"] * ms,
            "train.loss_and_grad_ms_per_epoch": self.seconds[EPOCH_SPAN] * ms / n,
            "train.adam_ms_per_epoch": self.seconds["train.adam"] * ms / n,
            "train.fit_self_ms_per_epoch":
                (loop_seconds - self.fit_children) * ms / n,
            "train.loss_value_ms": self.seconds["train.loss_value"] * ms / calls_lv,
            "train.batch_context_ms": self.seconds["train.batch_context"] * ms,
            "train.residual_values_ms": self.seconds["train.residual_values"] * ms,
            "train.predict_fields_ms": self.seconds["train.predict_fields"] * ms,
            "geometry.contains_calls": self.calls["geometry.contains"],
            "geometry.contains_ms": self.seconds["geometry.contains"] * ms,
            "geometry.distance_ms": self.seconds["geometry.distance"] * ms,
            "geometry.rad_resample_ms": self.seconds["geometry.rad_resample"] * ms,
            "bench.oracle_solve_s": self.seconds["bench.oracle_solve"],
            "bench.oracle_assemble_s":
                self.seconds["bench.oracle"] - self.seconds["bench.oracle_solve"],
            "bench.cg_iters": self.cg_iters,
            "bench.relative_l2_ms": self.seconds["bench.relative_l2"] * ms,
            "checkpoint.save_ms": self.seconds["checkpoint.save"] * ms,
            "cli.write_fields_ms": self.seconds["cli.write_fields"] * ms,
            "cli.write_loss_ms": self.seconds["cli.write_loss"] * ms,
        })
        return out
