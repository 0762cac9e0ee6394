"""The benchmark's three workloads and its end-to-end metrics.

Each workload is a closed loop with one client in one process, driven
through the package's public functions only:

* ``train-ipt-t-256``: ``train()`` on ipt-t (150 classes), f32, batch 1,
  256x256 crops; one unit is the interval between consecutive ``log``
  callbacks.  Dominated by backward and AdamW.
* ``eval-ipt-t-512``: what ``incepformer eval --checkpoint`` does, at the
  paper's 512x512 resolution; one unit is ``eval_miou`` on one image.
  Forward only, attention-heavy.
* ``gradcheck-micro-f64``: the gradient-soundness gate's setup (micro, f64,
  2x3x32x32, frozen BatchNorm) through ``check_model_gradients``; one unit is
  one ``loss_fn()`` evaluation.  Bound by per-op Python overhead.

The benchmark makes every input from the workload seed; the package only
receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from incepformer.config import ipt_t, micro

# The package __init__ re-exports the train() function under the name of its
# own submodule, so `incepformer.train` is the function.  Modules are reached
# through importlib, which returns the sys.modules entry.
analysis_mod = importlib.import_module("incepformer.analysis")
data_mod = importlib.import_module("incepformer.data")
gradcheck_mod = importlib.import_module("incepformer.gradcheck")
metrics_mod = importlib.import_module("incepformer.metrics")
model_mod = importlib.import_module("incepformer.model")
modules_mod = importlib.import_module("incepformer.modules")
tensor_mod = importlib.import_module("incepformer.tensor")
train_mod = importlib.import_module("incepformer.train")

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden" / "train_losses.json"

# --seed picks one of GOLDEN_SEEDS recorded training input sets (seed mod 8);
# a run trains at most GOLDEN_ITERS iterations, the length of each record.
GOLDEN_SEEDS = 8
GOLDEN_ITERS = 32
# Reference losses come from float32 runs; changing summation order moves a
# 21-iteration loss by about 1e-6 relative, so 1e-3 still catches wrong maths.
LOSS_RTOL = 1e-3
# Share of scored pixels on which an eval unit's confusion matrix may differ
# from the float64 reference forward (argmax ties between near-equal logits).
MAX_DISAGREE = 0.005
EVAL_IMAGES = 2
MAX_ROW = 256
# A tail percentile needs ten samples beyond it, so a measured run has at
# least eleven units; the two phases of a traced run need only medians.
MIN_UNITS = 11
TRACE_MIN_UNITS = 3
SETUP_PROBES = 3


class _FirstUnit(BaseException):
    """Raised by a set-up probe when the first timed unit starts."""

    def __init__(self, when: float):
        super().__init__(when)
        self.when = when


class Hooks:
    """Unit boundaries as seen by a run; the plain run ignores them."""

    def begin(self, k: int):
        pass

    def end(self):
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def room(self, n_units: int) -> bool:
        return True


class _ProbeHooks(Hooks):
    def begin(self, k: int):
        raise _FirstUnit(time.monotonic())


@dataclass
class RunResult:
    units: list  # seconds per unit, in order
    wall: float  # first unit start to last unit end, seconds
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: object = None


def _err(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


class TrainWorkload:
    name = "train-ipt-t-256"
    needs_prepare = False

    def __init__(self, seed: int, size: str, work: Path):
        self.cfg = ipt_t() if size == "full" else micro()
        self.crop = 256 if size == "full" else 64
        self.data_seed = seed % GOLDEN_SEEDS
        self.input_hw = (self.crop, self.crop)
        self.ckpt = work / f"train-{size}-{seed}.ckpt"
        self.golden_key = f"{self.cfg.name}@{self.crop}"
        self.ckpt_bytes = 0

    def setup(self):
        self.dataset = data_mod.make_synth_dataset(16, self.crop, self.crop,
                                                   self.cfg.num_classes, self.data_seed)

    def train_config(self, iters: int):
        # power=0 keeps the learning rate constant, so the loss at iteration i
        # does not depend on the run length and one record serves every run.
        return train_mod.TrainConfig(max_iters=iters, batch_size=1, crop=(self.crop, self.crop),
                                     seed=self.data_seed, power=0.0)

    def run(self, hooks: Hooks, min_units: int, seconds: float) -> RunResult:
        iters = min(GOLDEN_ITERS, max(min_units + 1, round(seconds) + 1))
        stamps, losses = [], []

        def log(it, lr, loss):
            stamps.append(time.perf_counter())
            losses.append(loss)
            if it + 1 < iters:
                hooks.begin(it)
            else:
                hooks.end()

        error = None
        try:
            train_mod.train(self.cfg, self.train_config(iters), self.dataset,
                            checkpoint_path=str(self.ckpt), log=log)
        except Exception as e:  # a raising unit is a failed unit
            hooks.end()
            error = _err(e)
        res = RunResult(units=list(np.diff(stamps)), wall=stamps[-1] - stamps[0] if stamps else 0.0,
                        attempted=iters - 1)
        res.outputs = (iters, losses, error)
        return res

    def check(self, res: RunResult):
        iters, losses, error = res.outputs
        golden = load_golden()[self.golden_key][str(self.data_seed)]
        bad = [i for i, loss in enumerate(losses)
               if not (math.isfinite(loss) and abs(loss - golden[i]) <= LOSS_RTOL * abs(golden[i]))]
        for i in bad:
            res.problems.append(f"iteration {i}: loss {losses[i]!r}, reference {golden[i]!r}")
        # Unit k ends with the loss of iteration k + 1; units never reached fail.
        res.failed = len([i for i in bad if i > 0]) + (res.attempted - len(res.units))
        if 0 in bad:
            res.failed += 1
        if error is not None:
            res.problems.append(error)
        else:
            try:
                tensors, iteration = reference.read_checkpoint(self.ckpt)
                self.ckpt_bytes = self.ckpt.stat().st_size
                if iteration != iters or not all(np.isfinite(t).all() for t in tensors.values()):
                    raise ValueError(f"iteration {iteration} (expected {iters}) or non-finite tensors")
            except (OSError, ValueError) as e:
                res.problems.append(f"final checkpoint: {_err(e)}")
                res.failed += 1
        res.failed = min(res.failed, res.attempted)
        self.ckpt.unlink(missing_ok=True)


class EvalWorkload:
    name = "eval-ipt-t-512"
    needs_prepare = True

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.cfg = ipt_t() if size == "full" else micro()
        side = 512 if size == "full" else 64
        self.input_hw = (side, side)
        self.ckpt = work / f"eval-{size}-{seed}.ckpt"
        self._refs: dict[int, np.ndarray] = {}

    def prepare(self):
        """Write the checkpoint `incepformer train` would leave: one step at 64x64."""
        self.ckpt.parent.mkdir(parents=True, exist_ok=True)
        tc = train_mod.TrainConfig(max_iters=1, batch_size=1, crop=(64, 64), seed=self.seed)
        data = data_mod.make_synth_dataset(2, 64, 64, self.cfg.num_classes, self.seed)
        train_mod.train(self.cfg, tc, data, checkpoint_path=str(self.ckpt))

    def setup(self):
        self.model = model_mod.build_model(self.cfg, seed=self.seed)
        train_mod.load_training_checkpoint(str(self.ckpt), self.model)
        h, w = self.input_hw
        self.dataset = data_mod.make_synth_dataset(EVAL_IMAGES, h, w, self.cfg.num_classes, self.seed + 1)

    def run(self, hooks: Hooks, min_units: int, seconds: float) -> RunResult:
        tcfg = train_mod.TrainConfig()
        units, outs = [], []
        first = last = None
        k = 0
        while k < min_units or last - first < seconds:
            sample = self.dataset[k % len(self.dataset)]
            hooks.begin(k)
            t0 = time.perf_counter()
            try:
                out = metrics_mod.eval_miou(self.model, [sample], tcfg).confusion.counts.copy()
            except Exception as e:  # a raising unit is a failed unit
                out = _err(e)
            last = time.perf_counter()
            hooks.end()
            first = t0 if first is None else first
            units.append(last - t0)
            outs.append(out)
            k += 1
        res = RunResult(units=units, wall=last - first, attempted=len(units))
        res.outputs = outs
        return res

    def reference_confusion(self, i: int) -> np.ndarray:
        if i not in self._refs:
            weights, _ = reference.read_checkpoint(self.ckpt)
            sample = self.dataset[i]
            pred = reference.predict(self.cfg, weights, sample.image)
            self._refs[i] = reference.confusion(sample.label, pred, self.cfg.num_classes,
                                                train_mod.TrainConfig().ignore_index)
        return self._refs[i]

    def check(self, res: RunResult):
        for k, out in enumerate(res.outputs):
            if isinstance(out, str):
                res.problems.append(f"unit {k}: {out}")
                res.failed += 1
                continue
            ref = self.reference_confusion(k % len(self.dataset))
            differ = int(np.abs(out - ref).sum()) // 2
            if differ > MAX_DISAGREE * ref.sum():
                res.problems.append(f"unit {k}: {differ} of {int(ref.sum())} pixels differ from the reference")
                res.failed += 1


class _OneParameter:
    """Presents one parameter as the whole model, so check_model_gradients
    yields one row per call and the run can stop between rows."""

    def __init__(self, name: str, p):
        self._store = modules_mod.ParameterStore([(name, p)])

    def parameter_store(self):
        return self._store


class GradcheckWorkload:
    name = "gradcheck-micro-f64"
    needs_prepare = False

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.cfg = micro()
        self.input_hw = (32, 32)
        self.next_row = 0

    def setup(self):
        # The gate's model and input (seed 0).  At other model seeds some rows
        # miss tol=1e-4 because the h=1e-5 central difference itself is off
        # (for seed 203 a row's error falls from 0.15 to 1.6e-5 at h=1e-7),
        # so the workload seed picks which rows run, not the model.
        self.model = model_mod.build_model(self.cfg, seed=0, dtype="f64")
        self.model.train()
        model_mod.freeze_batchnorm_stats(self.model)
        rng = np.random.default_rng(np.random.SeedSequence([0, 42]))
        h, w = self.input_hw
        self.image = tensor_mod.Tensor(rng.uniform(0.0, 1.0, (2, 3, h, w)), dtype="f64")
        self.labels = rng.integers(0, self.cfg.num_classes, (2, h, w))
        self.store = self.model.parameter_store()
        # Rows in seed order, except that tensors over MAX_ROW scalars go
        # last: a row runs to its end, and 2 * 1024 evaluations overrun a run.
        order = np.random.default_rng(self.seed).permutation(len(self.store))
        self.order = sorted((self.store.names()[i] for i in order), key=lambda n: self.store[n].size > MAX_ROW)

    def _loss(self):
        h, w = self.input_hw
        logits = self.model(self.image)
        up = tensor_mod.bilinear_upsample(logits, h, w, align_corners=False)
        return train_mod.cross_entropy(up, self.labels)

    def run(self, hooks: Hooks, min_units: int, seconds: float) -> RunResult:
        units = []
        first = [None]

        def loss_fn():
            if tensor_mod.active_tape() is not None:  # the tape pass, not a unit
                with hooks.span("gradcheck.tape_forward"):
                    return self._loss()
            hooks.begin(len(units))
            t0 = time.perf_counter()
            out = self._loss()
            units.append(time.perf_counter() - t0)
            hooks.end()
            if first[0] is None:
                first[0] = t0
            return out

        res = RunResult(units=units, wall=0.0, attempted=0)
        start = time.perf_counter()
        while True:
            if (len(units) >= min_units or not units) and time.perf_counter() - start >= seconds:
                break
            name = self.order[self.next_row % len(self.order)]
            p = self.store[name]
            if units and not hooks.room(2 * p.size):
                break
            self.next_row += 1
            n0 = len(units)
            try:
                rows = gradcheck_mod.check_model_gradients(_OneParameter(name, p), loss_fn)
                bad = [f"{r.name}: rel_err {r.rel_err:.3e} >= tol {r.tol:g}" for r in rows if not r.ok]
            except Exception as e:  # a raising row fails all of its units
                bad = [f"{name}: {_err(e)}"]
            res.attempted += max(2 * p.size, len(units) - n0)
            if bad:
                res.problems.extend(bad)
                res.failed += max(2 * p.size, len(units) - n0)
        res.wall = time.perf_counter() - first[0] if units else 0.0
        return res

    def check(self, res: RunResult):
        pass  # every row was checked against its tolerance as it ran


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, GradcheckWorkload)}


def make_workload(name: str, seed: int, size: str, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, size, work)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def make_golden():
    """Record the training losses every train run is checked against."""
    doc = {"about": "losses of incepformer.train.train() per recorded input set; "
                    "regenerate with `python3 perfbench/run.py --make-golden`"}
    for size in ("full", "micro"):
        w = TrainWorkload(0, size, GOLDEN_PATH.parent)
        runs = {}
        for s in range(GOLDEN_SEEDS):
            w.data_seed = s
            w.setup()
            losses = []
            train_mod.train(w.cfg, w.train_config(GOLDEN_ITERS), w.dataset,
                            log=lambda it, lr, loss: losses.append(loss))
            runs[str(s)] = losses
            print(f"golden {w.golden_key} seed {s}: {losses[:3]} ...", flush=True)
        doc[w.golden_key] = runs
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# running and reporting
# ---------------------------------------------------------------------------

def machine_info(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
    }


def latency_stats(units: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    s = sorted(units)
    n = len(s)
    if n == 0:  # every unit raised
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": 100.0, "samples": 0}
    if n >= 11:
        tail, pct = s[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = s[-1], 100.0
    return {"p50": statistics.median(s), "tail": tail, "tail_percentile": pct, "samples": n}


def probe_setup(name: str, seed: int, size: str, work: Path) -> float:
    """Set the workload up and return the monotonic time its first unit starts."""
    w = make_workload(name, seed, size, work)
    try:
        w.setup()
        w.run(_ProbeHooks(), MIN_UNITS, 3600.0)  # stops at the first unit
    except _FirstUnit as e:
        return e.when
    raise RuntimeError(f"{name}: the run ended before its first unit")


def _child(entry: Path, name: str, seed: int, size: str, flag: str) -> str:
    cmd = [sys.executable, str(entry), "--workload", name, "--seed", str(seed), "--size", size, flag]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return proc.stdout


def _setup_seconds(entry: Path, name: str, seed: int, size: str) -> list:
    """Set-up time of fresh processes: spawn to first unit, several times."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = _child(entry, name, seed, size, "--probe-setup")
        times.append(float(out.split("PROBE ")[-1]) - t0)
    return times


def _print_metric(name: str, value: float, unit: str, note: str = ""):
    print(f"{name:<34} {value:>14.6g} {unit:<8} {note}".rstrip())


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path,
                  size: str, entry: Path) -> dict:
    machine = machine_info(seed)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("machine " + json.dumps(machine))
    if WORKLOADS[name].needs_prepare:
        _child(entry, name, seed, size, "--prepare")
    try:
        if trace:
            return _run_traced(name, seed, seconds, work, size, machine)
        return _run_measured(name, seed, seconds, work, size, machine, entry)
    finally:
        for ckpt in work.glob(f"*-{size}-{seed}.ckpt"):
            ckpt.unlink()


def _run_measured(name, seed, seconds, work, size, machine, entry) -> dict:
    setups = _setup_seconds(entry, name, seed, size)
    w = make_workload(name, seed, size, work)
    w.setup()
    res = w.run(Hooks(), MIN_UNITS, seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w.check(res)
    lat = latency_stats(res.units)
    ok_units = len(res.units) - res.failed
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    "median of " + ", ".join(f"{t:.4f}" for t in setups)),
        "latency_p50_s": (lat["p50"], "s", f"{lat['samples']} units"),
        "latency_tail_s": (lat["tail"], "s",
                           f"p{lat['tail_percentile']:.1f} of {lat['samples']} units, 10 beyond"),
        "throughput_per_s": (max(ok_units, 0) / res.wall if res.wall > 0 else 0.0, "1/s",
                             f"{ok_units} correct units in {res.wall:.3f} s"),
        "peak_rss_mib": (peak_rss_mib, "MiB", "ru_maxrss of the workload process"),
        "success_rate": (1.0 - res.failed / res.attempted, "share",
                         f"error_rate {res.failed}/{res.attempted}"),
    }
    for m, (v, u, note) in metrics.items():
        _print_metric(m, v, u, note)
    for p in res.problems[:20]:
        print(f"FAILED {p}")
    _write_result(work, name, seed, False, machine, res, metrics, {**lat, "units_s": res.units})
    return {"correct": res.failed == 0 and not res.problems, "attempted": res.attempted,
            "failed": res.failed, "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}}


def _out_dir(work: Path, name: str, seed: int) -> Path:
    d = work / "out" / f"{name}-seed{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_result(work, name, seed, trace, machine, res, metrics, extra):
    doc = {"workload": name, "seed": seed, "trace": trace, "machine": machine,
           "attempted": res.attempted, "failed": res.failed,
           "error_rate": res.failed / res.attempted, "problems": res.problems[:100],
           "metrics": {m: {"value": v, "unit": u, "note": n} for m, (v, u, n) in metrics.items()},
           "details": extra}
    with open(_out_dir(work, name, seed) / f"result-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _run_traced(name, seed, seconds, work, size, machine) -> dict:
    import tracing

    w = make_workload(name, seed, size, work)
    tracer = tracing.Tracer()
    with tracer.installed():
        w.setup()
    half = seconds / 2.0
    base = w.run(Hooks(), TRACE_MIN_UNITS, half)
    w.check(base)
    with tracer.installed():
        traced = w.run(tracer, TRACE_MIN_UNITS, half)
    w.check(traced)
    h, wd = w.input_hw
    report = analysis_mod.estimate_flops(w.cfg, h, wd)
    measured = traced.units[tracing.FIRST_UNIT:]
    base_p50 = latency_stats(base.units)["p50"]
    traced_p50 = latency_stats(measured)["p50"]
    layer = tracing.layer_metrics(tracer, measured, report, untraced_p50=base_p50,
                                  save_bytes=getattr(w, "ckpt_bytes", 0),
                                  gradcheck=name.startswith("gradcheck"))
    out = _out_dir(work, name, seed)
    meta = {"workload": name, "seed": seed, "units": len(measured),
            "untraced_p50_s": base_p50, "traced_p50_s": traced_p50,
            "overhead_x": layer["trace.overhead_x"][0], "spans": tracer.n, "dropped_spans": tracer.dropped,
            **{f"machine.{k}": v for k, v in machine.items()}}
    rows = tracing.path_table(tracer, len(measured), report)
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("table", "txt")):
        (out / f"trace.{ext}").write_text(tracing.emit_table(rows, meta, fmt), encoding="utf-8")
    tracer.write_spans(out / "spans.csv")
    for m, (v, u) in layer.items():
        _print_metric(m, v, u)
    print(f"trace table and spans: {out}")
    failed = base.failed + traced.failed
    attempted = base.attempted + traced.attempted
    problems = base.problems + traced.problems
    for p in problems[:20]:
        print(f"FAILED {p}")
    _write_result(work, name, seed, True, machine,
                  RunResult(units=[], wall=0.0, attempted=attempted, failed=failed, problems=problems),
                  {m: (v, u, "") for m, (v, u) in layer.items()}, meta)
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in layer.items()}}
