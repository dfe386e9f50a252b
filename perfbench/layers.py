"""Which cflow entry points the traced run wraps, and the per-layer metrics.

Every target is a public function on a module or a method on a class, so
the package itself is not changed. Module functions are looked up through
the module at call time by their callers inside cflow (``flow.train`` calls
``ot_coupling`` as a module global, ``harness`` calls ``flow.save_model``),
which is what lets a module-level wrapper see those calls.

Time metrics named ``<layer>_s`` are the inclusive time of the layer's
calls, summed over the traced operations and divided by their number, so a
span nested in another counts in both. ``flow.train_self_s`` and
``harness.self_s`` are self times: the span minus its children. Counts named
``_calls`` or ``_point_steps`` are per operation too.
"""

from __future__ import annotations

import contextlib
import os
import statistics

from spans import Span, Tracer, self_times

__all__ = ["instrumented", "layer_metrics", "PER_LAYER"]

# name -> unit, in the order they are reported
PER_LAYER = {
    "diffcore.backward_s": "s/op",
    "diffcore.backward_ms_p50": "ms",
    "diffcore.optim_s": "s/op",
    "diffcore.optim_ms_p50": "ms",
    "diffcore.forward_raw_s": "s/op",
    "diffcore.forward_raw_calls": "calls/op",
    "flow.loss_s": "s/op",
    "flow.loss_calls": "calls/op",
    "flow.ot_coupling_s": "s/op",
    "flow.ot_coupling_ms_p50": "ms",
    "flow.ot_coupling_calls": "calls/op",
    "flow.ot_cost_ratio": "ratio",
    "flow.ot_cost": "sq_dist",
    "flow.independent_cost": "sq_dist",
    "flow.integrate_s": "s/op",
    "flow.integrate_point_steps": "count/op",
    "flow.integrate_point_steps_per_s": "1/s",
    "flow.train_self_s": "s/op",
    "flow.save_model_s": "s/op",
    "flow.load_model_s": "s/op",
    "flow.setup_load_model_s": "s/setup",
    "flow.ckpt_bytes": "bytes",
    "flow.model_sampler_s": "s/op",
    "energy.weight_s": "s/op",
    "energy.weight_calls": "calls/op",
    "energy.batch_accept_ratio": "ratio",
    "energy.train_classifier_s": "s/setup",
    "datasets.sample_s": "s/op",
    "datasets.sample_calls": "calls/op",
    "metrics.evaluate_model_s": "s/op",
    "metrics.mmd2_s": "s/op",
    "metrics.mmd2_calls": "calls/op",
    "metrics.measure_inference_s": "s/op",
    "harness.run_s": "s/op",
    "harness.self_s": "s/op",
    "trace.overhead_frac": "frac",
    "trace.spans_per_op": "count/op",
}


def _file_bytes(arg: str):
    return lambda args, result: {"bytes": os.path.getsize(args[arg])}


def _point_steps(args, result) -> dict:
    return {"point_steps": len(args["x0"]) * args["n_steps"]}


def _instrument(tracer: Tracer) -> None:
    from cflow import datasets, energy, flow, harness, metrics
    from cflow.diffcore import Adam, Mlp, Sgd, Tensor

    wrap = tracer.wrap
    wrap(Tensor, "backward", "diffcore.backward")
    wrap(Adam, "step", "diffcore.optim")
    wrap(Sgd, "step", "diffcore.optim")
    wrap(Mlp, "forward_raw", "diffcore.forward_raw")
    wrap(flow, "cfm_loss", "flow.loss")
    wrap(flow, "erfm_loss", "flow.loss")
    wrap(flow, "ot_coupling", "flow.ot_coupling")
    wrap(flow, "integrate", "flow.integrate", _point_steps)
    wrap(flow, "train", "flow.train")
    wrap(flow, "save_model", "flow.save_model", _file_bytes("path"))
    wrap(flow, "load_model", "flow.load_model", _file_bytes("path"))
    wrap(flow.ModelSampler, "sample", "flow.model_sampler")
    wrap(energy.EnergySpec, "weight", "energy.weight")
    wrap(energy, "train_classifier", "energy.train_classifier")
    wrap(datasets.GaussianSampler, "sample", "datasets.sample")
    wrap(datasets.EmpiricalSampler, "sample", "datasets.sample")
    wrap(metrics, "evaluate_model", "metrics.evaluate_model")
    wrap(metrics, "mmd2", "metrics.mmd2")
    wrap(metrics, "measure_inference_ms", "metrics.measure_inference")
    wrap(harness, "run", "harness.run")


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    try:
        _instrument(tracer)
        yield tracer
    finally:
        tracer.unwrap_all()


def _median_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(
    spans: list[Span], ops: list[str], setups: list[str], overhead_frac: float, facts: list[dict]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of ``ops`` (per operation) and of
    ``setups`` (per set-up, for work that only happens there).

    ``facts`` are the checked outputs of the traced operations; the OT costs
    come from there, as the refit check read them from ``loss.csv``.
    """
    selfs = self_times(spans)
    n_ops = max(len(ops), 1)
    n_setups = max(len(setups), 1)
    op_ids, setup_ids = set(ops), set(setups)
    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, list[dict]] = {}
    setup_dur: dict[str, float] = {}
    sizes = []
    for span, own in zip(spans, selfs):
        if span.name in ("flow.save_model", "flow.load_model") and "bytes" in span.attrs:
            sizes.append(span.attrs["bytes"])
        if span.op in setup_ids:
            setup_dur[span.name] = setup_dur.get(span.name, 0.0) + span.duration
        if span.op not in op_ids:
            continue
        dur.setdefault(span.name, []).append(span.duration)
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        attrs.setdefault(span.name, []).append(span.attrs)

    def per_op(name: str) -> float:
        return sum(dur.get(name, ())) / n_ops

    def calls(name: str) -> float:
        return len(dur.get(name, ())) / n_ops

    costs = [(f["ot_cost"], f["independent_cost"]) for f in facts if "ot_cost" in f]
    ot = statistics.fmean(c[0] for c in costs) if costs else 0.0
    indep = statistics.fmean(c[1] for c in costs) if costs else 0.0
    point_steps = sum(a["point_steps"] for a in attrs.get("flow.integrate", ()))
    integrate_time = sum(dur.get("flow.integrate", ()))
    losses = attrs.get("flow.loss", [])
    accepted = sum(1 for a in losses if "error" not in a)
    values = {
        "diffcore.backward_s": per_op("diffcore.backward"),
        "diffcore.backward_ms_p50": _median_ms(dur.get("diffcore.backward", [])),
        "diffcore.optim_s": per_op("diffcore.optim"),
        "diffcore.optim_ms_p50": _median_ms(dur.get("diffcore.optim", [])),
        "diffcore.forward_raw_s": per_op("diffcore.forward_raw"),
        "diffcore.forward_raw_calls": calls("diffcore.forward_raw"),
        "flow.loss_s": per_op("flow.loss"),
        "flow.loss_calls": calls("flow.loss"),
        "flow.ot_coupling_s": per_op("flow.ot_coupling"),
        "flow.ot_coupling_ms_p50": _median_ms(dur.get("flow.ot_coupling", [])),
        "flow.ot_coupling_calls": calls("flow.ot_coupling"),
        "flow.ot_cost_ratio": ot / indep if indep else 0.0,
        "flow.ot_cost": ot,
        "flow.independent_cost": indep,
        "flow.integrate_s": per_op("flow.integrate"),
        "flow.integrate_point_steps": point_steps / n_ops,
        "flow.integrate_point_steps_per_s": point_steps / integrate_time if integrate_time else 0.0,
        "flow.train_self_s": self_s.get("flow.train", 0.0) / n_ops,
        "flow.save_model_s": per_op("flow.save_model"),
        "flow.load_model_s": per_op("flow.load_model"),
        "flow.setup_load_model_s": setup_dur.get("flow.load_model", 0.0) / n_setups,
        "flow.ckpt_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
        "flow.model_sampler_s": per_op("flow.model_sampler"),
        "energy.weight_s": per_op("energy.weight"),
        "energy.weight_calls": calls("energy.weight"),
        "energy.batch_accept_ratio": accepted / len(losses) if losses else 1.0,
        "energy.train_classifier_s": setup_dur.get("energy.train_classifier", 0.0) / n_setups,
        "datasets.sample_s": per_op("datasets.sample"),
        "datasets.sample_calls": calls("datasets.sample"),
        "metrics.evaluate_model_s": per_op("metrics.evaluate_model"),
        "metrics.mmd2_s": per_op("metrics.mmd2"),
        "metrics.mmd2_calls": calls("metrics.mmd2"),
        "metrics.measure_inference_s": per_op("metrics.measure_inference"),
        "harness.run_s": per_op("harness.run"),
        "harness.self_s": self_s.get("harness.run", 0.0) / n_ops,
        "trace.overhead_frac": overhead_frac,
        "trace.spans_per_op": sum(len(v) for v in dur.values()) / n_ops,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
