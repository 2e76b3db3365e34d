#!/usr/bin/env python3
"""One in-process pass of a workload, optionally with a span per layer call.

run.py starts this as a child process (a fresh interpreter per pass, like
the CLI runs) for the traced run:

    python3 perfbench/tracer.py --workload desk --seed 1 --dir <tmp> --traced 1

The child imports zdx, wraps each layer's public functions (the table
TARGETS below) from the outside, runs the workload's calls through the
click entry point or the script's ``__main__``, keeps every span in memory
and writes them with the per-call wall times to ``<dir>/pass.json`` at the
end.  ``layer_metrics`` turns that document into the per-layer metrics.
Nothing inside ``src/zdx`` is changed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import contextlib
import importlib
import inspect
import json
import runpy
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_HM_TRIALS_SPAN = "zdx.probes.hm_random_trials"


def _arg(fn, args, kwargs, name, default):
    bound = inspect.signature(fn).bind_partial(*args, **kwargs)
    return bound.arguments.get(name, default)


def _count_generate(tracer, fn, result, args, kwargs):
    key = "pairs.pruned_size" if _arg(fn, args, kwargs, "prune", False) else "pairs.family_size"
    tracer.counts[key] += len(result)


def _count_prune(tracer, fn, result, args, kwargs):
    tracer.counts["pairs.family_size"] += len(args[0])


def _count_curves(tracer, fn, result, args, kwargs):
    tracer.counts["density.curves"] += len(result)
    tracer.counts["density.distinct_A"] += len({c.A for c in result})
    tracer.last_curves = len(result)


def _count_optimize(tracer, fn, result, args, kwargs):
    # computed: the seed optimizer evaluates every candidate on the grid
    resolution = _arg(fn, args, kwargs, "resolution", 256)
    tracer.counts["density.segments"] += len(result.segments)
    tracer.counts["density.grid_evals"] += tracer.last_curves * (resolution + 1)


def _count_audit(tracer, fn, result, args, kwargs):
    tracer.counts["density.audits"] += 1


def _count_crossover(tracer, fn, result, args, kwargs):
    tracer.counts["density.crossovers"] += len(result.points)


def _count_tau(tracer, fn, result, args, kwargs):
    tracer.counts["hecke.table_size"] += result.limit


def _count_hm_batch(tracer, fn, result, args, kwargs):
    tracer.counts["probes.hm_trials"] += result.trials


def _count_hm_trial(tracer, fn, result, args, kwargs):
    if not any(tracer.spans[i][2] == _HM_TRIALS_SPAN for i in tracer.stack):
        tracer.counts["probes.hm_trials"] += 1


def _count_mellin(tracer, fn, result, args, kwargs):
    # computed: composite Simpson with `steps` panels evaluates 2*steps+1 points
    tracer.counts["probes.gamma_evals"] += 2 * _arg(fn, args, kwargs, "steps", 4000) + 1


#: (module, attribute, layer, time metric, counter).  A span's time goes to
#: its metric unless an enclosing span feeds the same metric.
TARGETS = (
    ("zdx.pairs", "generate_pairs", "pairs", "pairs.generate_s", _count_generate),
    ("zdx.pairs", "_pareto_prune", "pairs", "pairs.prune_s", _count_prune),
    ("zdx.pairs", "PairFamily.to_json", "pairs", "pairs.to_json_s", None),
    ("zdx.density", "candidate_curves", "curves", "density.curves_s", _count_curves),
    ("zdx.density", "optimize", "envelope", "density.optimize_s", _count_optimize),
    ("zdx.density", "audit_balance", "certificates", "density.audit_s", _count_audit),
    ("zdx.density", "continuity_check", "certificates", "density.continuity_s", None),
    ("zdx.density", "crossover", "certificates", "density.crossover_s", _count_crossover),
    ("zdx.density", "piecewise_to_json_obj", "serialization", "serialize.json_s", None),
    ("zdx.density", "bound_table_rows", "serialization", None, None),
    ("zdx.svg", "render_curves_svg", "serialization", "svg.render_s", None),
    ("zdx.hecke", "compute_tau", "hecke", "hecke.compute_tau_s", _count_tau),
    ("zdx.hecke", "mollifier_from", "hecke", "hecke.mollifier_s", None),
    ("zdx.hecke", "convolution_values", "hecke", "hecke.convolution_s", None),
    ("zdx.hecke", "convolution_identity_check", "hecke", "hecke.convolution_s", None),
    ("zdx.hecke", "hecke_recursion_failures", "hecke", "hecke.recursion_s", None),
    ("zdx.hecke", "multiplicativity_failures", "hecke", "hecke.multiplicativity_s", None),
    ("zdx.hecke", "deligne_check", "hecke", "hecke.deligne_s", None),
    ("zdx.probes", "hm_random_trials", "probes", "probes.hm_trials_s", _count_hm_batch),
    ("zdx.probes", "hm_random_system", "probes", "probes.hm_trials_s", None),
    ("zdx.probes", "hm_inequality_check", "probes", "probes.hm_trials_s", _count_hm_trial),
    ("zdx.probes", "mellin_probe", "probes", "probes.mellin_s", _count_mellin),
    ("zdx.probes", "zeta_growth_scan", "probes", "probes.zeta_s", None),
)

LAYERS = ("cli", "pairs", "curves", "envelope", "certificates", "serialization", "hecke", "probes")
COUNTS = (
    "pairs.family_size", "pairs.pruned_size", "density.curves", "density.distinct_A",
    "density.segments", "density.grid_evals", "density.audits", "density.crossovers",
    "hecke.table_size", "probes.hm_trials", "probes.gamma_evals",
)
TIMES = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3])) + tuple(
    f"{layer}.self_s" for layer in LAYERS if layer != "cli"
) + ("cli.residual_s",)


class Tracer:
    """Spans kept in memory as [id, parent, name, layer, start, end]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.last_curves = 0

    def open(self, name: str, layer: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, layer,
               time.perf_counter(), 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, layer: str, counter):
        def traced(*args, **kwargs):
            rec = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counter is not None:
                counter(self, fn, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each target everywhere zdx bound it (zdx.cli imports by name)."""
        loaded = [m for n, m in sys.modules.items() if n == "zdx" or n.startswith("zdx.")]
        for module_name, attr, layer, _, counter in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, leaf, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; its time stays with its caller",
                      file=sys.stderr)
                continue
            wrapped = self.wrap(original, f"{module_name}.{attr}", layer, counter)
            setattr(owner, leaf, wrapped)
            if not owner_name:
                for module in loaded:
                    if getattr(module, leaf, None) is original:
                        setattr(module, leaf, wrapped)


def _run_call(call, out_dir: Path, tracer: Tracer | None) -> tuple[float, int]:
    from zdx.cli import cli

    out_path = out_dir / f"{call.name}.out"
    stdout_path = out_path if not call.writes_out else out_dir / f"{call.name}.stdout"
    with open(stdout_path, "w", encoding="utf-8", newline="") as out, \
            open(out_dir / f"{call.name}.err", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rec = tracer.open(f"cli.{call.name}", "cli") if tracer else None
        start = time.perf_counter()
        rc = 0
        try:
            if call.argv[:2] == ("-m", "zdx.cli"):
                args = list(call.argv[2:]) + (["--out", str(out_path)] if call.writes_out else [])
                cli.main(args=args, prog_name="zdx", standalone_mode=False)
            else:
                sys.argv = list(call.argv)
                runpy.run_path(str(ROOT / call.argv[0]), run_name="__main__")
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is reported as a failed call, like a nonzero exit
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
        if rec:
            tracer.close(rec)
    return seconds, rc


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--order", required=True, help="comma-separated call names")
    args = ap.parse_args()

    import zdx.cli  # noqa: F401  (loads every zdx module before wrapping)
    from workloads import workloads

    calls = {c.name: c for c in workloads(args.seed)[args.workload]}
    tracer = Tracer(f"{args.workload}-{args.seed}-{args.dir.name}") if args.traced else None
    if tracer:
        tracer.install()
    records = []
    for name in args.order.split(","):
        seconds, rc = _run_call(calls[name], args.dir, tracer)
        records.append({"name": name, "seconds": seconds, "rc": rc})
    doc = {"run_id": tracer.run_id if tracer else None, "calls": records,
           "spans": tracer.spans if tracer else [], "counts": tracer.counts if tracer else {}}
    (args.dir / "pass.json").write_text(json.dumps(doc))


def layer_metrics(doc: dict) -> dict[str, float]:
    """Time and count metrics of one traced pass.

    A layer's self time is its spans' durations minus the time covered by
    their child spans; the cli layer's self time is the per-call residual
    (call wall time minus the traced layer time inside it).
    """
    spans = doc["spans"]
    metric_of = {f"{m}.{a}": metric for m, a, _, metric, _ in TARGETS}
    children = [0.0] * len(spans)
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            children[parent] += t1 - t0
    out = dict.fromkeys(TIMES, 0.0)
    for sid, parent, name, layer, t0, t1 in spans:
        key = "cli.residual_s" if layer == "cli" else f"{layer}.self_s"
        out[key] += (t1 - t0) - children[sid]
        metric = metric_of.get(name)
        p = parent
        while metric and p is not None:
            if metric_of.get(spans[p][2]) == metric:
                metric = None
            p = spans[p][1]
        if metric:
            out[metric] += t1 - t0
    out.update(doc["counts"])
    return out


if __name__ == "__main__":
    main()
