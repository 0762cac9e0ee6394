"""Span tracer for the benchmark's traced run.

The tracer wraps the package's public functions from outside: tensor ops,
``record_op`` (to time each backward closure), ``backward``, the train
loop's helpers, the metrics and checkpoint calls, and the ``__call__`` of
every Module class.  Each wrapper records one span (name, module path,
parent span, unit index, start, end, MACs) into fixed-size arrays that are
allocated before tracemalloc starts, so recording adds no traced memory.

Per-layer numbers are self times per unit: a span's duration minus the part
its child spans cover, summed over spans inside units, divided by the unit
count.  Backward closures are attributed to the module that was innermost
when their op was recorded.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tracemalloc
from array import array
from time import perf_counter

import numpy as np

from workloads import data_mod, gradcheck_mod, metrics_mod, model_mod, modules_mod, tensor_mod, train_mod

KINDS = ("conv2d_dw", "conv2d_pw", "conv2d_dense", "attention", "linear",
         "norm", "elementwise", "resample", "layout")
MAC_KINDS = KINDS[:-1]
# Modules whose forward holds more than one op; leaf layers (Conv2d,
# BatchNorm2d, LayerNorm) count towards the composite that calls them.
COMPOSITES = ("PatchEmbed", "IncepReduce", "IncepMHSA", "EFFN", "IPTBlock", "Stage", "Decoder", "IncepFormer")
REPORTED_CLASSES = ("PatchEmbed", "IncepReduce", "IncepMHSA", "EFFN")
OUTSIDE = "(outside model)"
# Unit 0 of the traced phase runs under tracemalloc, which slows Python-level
# work several times over; per-unit numbers come from the units after it.
FIRST_UNIT = 1


def _size(a, kw, out):
    return out.data.size


def _conv_kind(a, kw):
    x, w = a[0], a[1]
    stride = tuple(kw.get("stride", a[3] if len(a) > 3 else (1, 1)))
    padding = tuple(kw.get("padding", a[4] if len(a) > 4 else (0, 0)))
    groups = kw.get("groups", a[5] if len(a) > 5 else 1)
    if groups > 1 and groups == x.shape[1]:
        return "conv2d_dw"
    if groups == 1 and w.shape[2:] == (1, 1) and stride == (1, 1) and padding == (0, 0):
        return "conv2d_pw"
    return "conv2d_dense"


# tensor op -> (kind, estimate_flops row tag, MACs from the op's shapes).  The
# MAC conventions follow estimate_flops; ops it has no rows for count none.
OPS = {
    "conv2d": (_conv_kind, "conv", lambda a, kw, o: o.data.size * a[1].shape[1] * a[1].shape[2] * a[1].shape[3]),
    "linear": ("linear", "proj", lambda a, kw, o: o.data.size * a[0].shape[-1]),
    "matmul_batched": ("attention", "matmul", lambda a, kw, o: o.data.size * a[0].shape[-1]),
    "softmax": ("attention", "softmax", _size),
    "scale": ("attention", None, None),
    "batch_norm2d": ("norm", "bn", _size),
    "layer_norm": ("norm", "ln", _size),
    "gelu": ("elementwise", "act", _size),
    "add": ("elementwise", "add", _size),
    "avg_pool2d": ("elementwise", "avg", lambda a, kw, o: o.data.size * int(kw.get("kernel", a[1] if len(a) > 1 else 0)) ** 2),
    "mul": ("elementwise", None, None),
    "neg": ("elementwise", None, None),
    "relu": ("elementwise", None, None),
    "tsum": ("elementwise", None, None),
    "mean": ("elementwise", None, None),
    "bilinear_upsample": ("resample", "interp", lambda a, kw, o: 4 * o.data.size),
    "img2seq": ("layout", None, None),
    "seq2img": ("layout", None, None),
    "transpose": ("layout", None, None),
    "reshape": ("layout", None, None),
    "concat": ("layout", None, None),
    "pad2d": ("layout", None, None),
}


def _module_classes():
    seen = {}
    for mod in (modules_mod, model_mod):
        for obj in vars(mod).values():
            if isinstance(obj, type) and issubclass(obj, modules_mod.Module) and "__call__" in obj.__dict__:
                seen[obj] = None
    return list(seen)


class Tracer:
    """Fixed-capacity span recorder; also the Hooks object of a traced run."""

    def __init__(self, capacity: int = 400_000):
        self.cap = capacity
        self.t_start = array("d", bytes(8 * capacity))
        self.t_end = array("d", bytes(8 * capacity))
        self.macs = array("q", bytes(8 * capacity))
        self.name = array("i", bytes(4 * capacity))
        self.path = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.unit = array("i", bytes(4 * capacity))
        self.n = 0
        self.dropped = 0
        self.unit_now = -1
        self.ops_in_units = 0
        self.peak_bytes = 0
        self.batch = 1
        self._stack: list[int] = []
        self._mods: list[int] = []  # path ids of the modules being called
        self._ops: list[int] = []  # backward span name of the op being run
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.paths: list[str] = [OUTSIDE]
        self.path_class: list[str] = [""]
        self._path_ids: dict[str, int] = {OUTSIDE: 0}
        self._module_paths: dict[int, int] = {}
        self._saved: list = []
        self._unit_start_n = 0
        self._unit_spans = 500

    # -- recording -----------------------------------------------------------

    def intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _path_id(self, path: str, cls: str) -> int:
        i = self._path_ids.get(path)
        if i is None:
            i = self._path_ids[path] = len(self.paths)
            self.paths.append(path)
            self.path_class.append(cls)
        return i

    def open(self, name_id: int, path_id: int) -> int:
        i = self.n
        if i >= self.cap:
            self.dropped += 1
            self._stack.append(-1)
            return -1
        self.n = i + 1
        self.name[i] = name_id
        self.path[i] = path_id
        self.parent[i] = self._stack[-1] if self._stack else -1
        self.unit[i] = self.unit_now
        self._stack.append(i)
        self.t_start[i] = perf_counter()
        return i

    def close(self, i: int):
        t = perf_counter()
        self._stack.pop()
        if i >= 0:
            self.t_end[i] = t

    # -- Hooks interface -----------------------------------------------------

    def begin(self, k: int):
        self._unit_closed()
        if k == 0:
            tracemalloc.start()
        self.unit_now = k
        self._unit_start_n = self.n

    def end(self):
        self._unit_closed()
        self.unit_now = -1

    def _unit_closed(self):
        if self.unit_now >= 0:
            self._unit_spans = max(self.n - self._unit_start_n, 1)
        if tracemalloc.is_tracing():
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.intern(name), self._mods[-1] if self._mods else 0)
        try:
            yield
        finally:
            self.close(i)

    def room(self, n_units: int) -> bool:
        return self.n + n_units * self._unit_spans < self.cap

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_op(self, fn, kind, tag, macs):
        tr = self
        tag_s = tag or "-"
        if callable(kind):
            choices = {k: (tr.intern(f"op:{k}:{tag_s}"), tr.intern(f"bwd:{k}"))
                       for k in ("conv2d_dw", "conv2d_pw", "conv2d_dense")}

            def ids(a, kw):
                return choices[kind(a, kw)]
        else:
            fixed = (tr.intern(f"op:{kind}:{tag_s}"), tr.intern(f"bwd:{kind}"))

            def ids(a, kw):
                return fixed

        def op(*a, **kw):
            fid, bid = ids(a, kw)
            i = tr.open(fid, tr._mods[-1] if tr._mods else 0)
            tr._ops.append(bid)
            try:
                out = fn(*a, **kw)
            finally:
                tr._ops.pop()
                tr.close(i)
            if macs is not None and i >= 0:
                tr.macs[i] = macs(a, kw, out)
            return out

        return op

    def _wrap_record(self, fn):
        tr = self
        other = tr.intern("bwd:other")

        def record_op(data, inputs, backward_fn, name):
            bid = tr._ops[-1] if tr._ops else other
            pid = tr._mods[-1] if tr._mods else 0
            if tr.unit_now >= FIRST_UNIT:
                tr.ops_in_units += 1

            def timed(g):
                i = tr.open(bid, pid)
                try:
                    return backward_fn(g)
                finally:
                    tr.close(i)

            return fn(data, inputs, timed, name)

        return record_op

    def _wrap_span(self, fn, name: str):
        tr = self
        nid = tr.intern(name)

        def spanned(*a, **kw):
            i = tr.open(nid, tr._mods[-1] if tr._mods else 0)
            try:
                return fn(*a, **kw)
            finally:
                tr.close(i)

        return spanned

    def _register_root(self, root) -> int:
        """Map id(module) -> path for every module under a model root."""
        self._module_paths.clear()

        def walk(m, prefix):
            for attr, v in vars(m).items():
                if isinstance(v, modules_mod.Module):
                    self._module_paths[id(v)] = self._path_id(prefix + attr, type(v).__name__)
                    walk(v, prefix + attr + "/")

        pid = self._module_paths[id(root)] = self._path_id("", type(root).__name__)
        walk(root, "")
        return pid

    def _wrap_module(self, cls, call):
        tr = self
        nid = tr.intern("mod:" + cls.__name__)
        is_root = cls is model_mod.IncepFormer

        def __call__(m, *a, **kw):
            pid = tr._module_paths.get(id(m))
            if is_root:
                if pid is None:
                    pid = tr._register_root(m)
                tr.batch = a[0].shape[0]
            elif pid is None:
                pid = tr._path_id("?" + cls.__name__, cls.__name__)
            i = tr.open(nid, pid)
            tr._mods.append(pid)
            try:
                return call(m, *a, **kw)
            finally:
                tr._mods.pop()
                tr.close(i)

        return __call__

    def install(self):
        for name, (kind, tag, macs) in OPS.items():
            self._patch(tensor_mod, name, self._wrap_op(getattr(tensor_mod, name), kind, tag, macs))
        # train.py binds record_op, backward, augment and save_checkpoint by
        # name, so they are wrapped where they are called.
        for mod in (tensor_mod, train_mod):
            self._patch(mod, "record_op", self._wrap_record(mod.record_op))
        self._patch(train_mod, "cross_entropy",
                    self._wrap_op(train_mod.cross_entropy, "cross_entropy", None, None))
        for mod in (train_mod, gradcheck_mod):
            self._patch(mod, "backward", self._wrap_span(mod.backward, "tensor.backward"))
        for owner, attr, name in ((train_mod, "adamw_step", "train.adamw"),
                                  (train_mod, "augment", "data.augment"),
                                  (train_mod, "save_checkpoint", "checkpoint.save"),
                                  (train_mod, "load_training_checkpoint", "checkpoint.load"),
                                  (data_mod, "make_synth_dataset", "data.synth"),
                                  (metrics_mod.ConfusionMatrix, "update", "metrics.confusion"),
                                  (metrics_mod.ConfusionMatrix, "iou", "metrics.confusion")):
            self._patch(owner, attr, self._wrap_span(getattr(owner, attr), name))
        # Every Module sets `__call__ = forward` on its class; the class
        # attribute is what a call looks up.
        for cls in _module_classes():
            self._patch(cls, "__call__", self._wrap_module(cls, cls.__dict__["__call__"]))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- export --------------------------------------------------------------

    def arrays(self) -> dict:
        n = self.n
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[:n],
            "path": np.frombuffer(self.path, dtype=np.int32)[:n],
            "parent": np.frombuffer(self.parent, dtype=np.int32)[:n],
            "unit": np.frombuffer(self.unit, dtype=np.int32)[:n],
            "start": np.frombuffer(self.t_start, dtype=np.float64)[:n],
            "end": np.frombuffer(self.t_end, dtype=np.float64)[:n],
            "macs": np.frombuffer(self.macs, dtype=np.int64)[:n],
        }

    def write_spans(self, path):
        s = self.arrays()
        t0 = float(s["start"].min()) if self.n else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "path", "parent", "unit", "start_s", "end_s", "macs"])
            for i in range(self.n):
                out.writerow([i, self.names[s["name"][i]], self.paths[s["path"][i]], int(s["parent"][i]),
                              int(s["unit"][i]), f"{s['start'][i] - t0:.9f}", f"{s['end'][i] - t0:.9f}",
                              int(s["macs"][i])])


class _Spans:
    """Vectorised view of the recorded spans with self times."""

    def __init__(self, tr: Tracer):
        self.tr = tr
        a = tr.arrays()
        self.__dict__.update(a)
        self.dur = a["end"] - a["start"]
        has = a["parent"] >= 0
        self.self_t = self.dur - np.bincount(a["parent"][has], weights=self.dur[has], minlength=tr.n)
        self.in_unit = a["unit"] >= FIRST_UNIT
        names = tr.names
        is_mod = np.array([nm.startswith("mod:") for nm in names], dtype=bool)[a["name"]]
        self.is_mod = is_mod
        comp = np.array([nm.startswith("mod:") and nm[4:] in COMPOSITES for nm in names],
                        dtype=bool)[a["name"]]
        child_comp = has & comp
        self.comp_self = self.dur - np.bincount(a["parent"][child_comp], weights=self.dur[child_comp],
                                                minlength=tr.n)
        child_mod = has & is_mod
        self.mod_self = self.dur - np.bincount(a["parent"][child_mod], weights=self.dur[child_mod],
                                               minlength=tr.n)

    def named(self, prefix: str) -> np.ndarray:
        """Mask of spans whose name starts with `prefix`."""
        ids = [i for i, nm in enumerate(self.tr.names) if nm.startswith(prefix)]
        return np.isin(self.name, ids)

    def under(self, pred) -> np.ndarray:
        """Mask of spans whose module path satisfies `pred`."""
        ids = [i for i, p in enumerate(self.tr.paths) if i and pred(p)]
        return np.isin(self.path, ids)


def _composite_of(tr: Tracer) -> list[str]:
    """Innermost composite module class of each path id."""
    cls_of = dict(zip(tr.paths, tr.path_class))
    out = [""]  # path id 0: ops outside the model
    for p, cls in zip(tr.paths[1:], tr.path_class[1:]):
        while cls not in COMPOSITES and p:
            p = p.rsplit("/", 1)[0] if "/" in p else ""
            cls = cls_of.get(p, "IncepFormer")
        out.append(cls)
    return out


def mac_join(tr: Tracer, sp: _Spans, report) -> dict:
    """(module path, row tag) -> [measured MACs, estimate_flops MACs] per forward.

    Measured MACs come from the traced op shapes inside units, divided by the
    forwards run; estimate rows are per image, times the batch.  An estimate
    row `X/leaf@tag` belongs to module X/leaf when that is a module path, else
    to X; the block's second residual add runs inside its `ffn` module.
    """
    forwards = int((sp.named("mod:IncepFormer") & sp.in_unit).sum())
    known = set(tr.paths)
    table: dict = {}
    for r in report.rows:
        if "@" not in r.layer:
            continue
        base, tag = r.layer.rsplit("@", 1)
        if base not in known:
            parent, leaf = base.rsplit("/", 1) if "/" in base else ("", base)
            base = parent + "/ffn" if leaf == "res2" else parent
        table.setdefault((base, tag), [0, 0])[1] += r.flops * tr.batch
    ops = sp.named("op:") & sp.in_unit & (sp.path > 0)
    for i in np.flatnonzero(ops):
        tag = tr.names[sp.name[i]].rsplit(":", 1)[1]
        if tag != "-":
            table.setdefault((tr.paths[sp.path[i]], tag), [0, 0])[0] += int(sp.macs[i])
    for v in table.values():
        v[0] = v[0] / forwards if forwards else 0
    return table


def layer_metrics(tr: Tracer, units: list, report, untraced_p50: float,
                  save_bytes: int, gradcheck: bool) -> dict:
    """Every per-layer metric, name -> (value, unit), from the measured units
    of the traced phase (their durations in `units`)."""
    sp = _Spans(tr)
    n_units = max(len(units), 1)
    u = sp.in_unit
    out: dict = {}

    def per_unit(mask, values) -> float:
        return float(values[mask & u].sum()) / n_units

    bwd = sp.named("bwd:")
    for kind in KINDS:
        fwd_mask = sp.named(f"op:{kind}:")
        out[f"tensor.{kind}.fwd_s"] = (per_unit(fwd_mask, sp.self_t), "s")
        out[f"tensor.{kind}.bwd_s"] = (per_unit(sp.named(f"bwd:{kind}"), sp.self_t), "s")
    out["tensor.backward.self_s"] = (per_unit(sp.named("tensor.backward"), sp.self_t), "s")
    ops_per_unit = tr.ops_in_units / n_units
    out["tensor.ops_per_unit"] = (ops_per_unit, "count")
    out["tensor.dispatch_us_per_op"] = (untraced_p50 / ops_per_unit * 1e6 if ops_per_unit else 0.0, "us")
    out["tensor.peak_traced_mib"] = (tr.peak_bytes / 2 ** 20, "MiB")
    for kind in MAC_KINDS:
        m = sp.named(f"op:{kind}:")
        macs = per_unit(m, sp.macs)
        fwd = out[f"tensor.{kind}.fwd_s"][0]
        out[f"tensor.macs.{kind}"] = (macs, "count")
        out[f"tensor.gmacs_per_s.{kind}"] = (macs / fwd / 1e9 if fwd > 0 else 0.0, "GMAC/s")

    for i in range(1, 5):
        stage = f"stage{i}"
        below = sp.under(lambda p, s=stage: p == s or p.startswith(s + "/"))
        out[f"model.{stage}.fwd_s"] = (per_unit(sp.named("mod:Stage") & below, sp.dur), "s")
        out[f"model.{stage}.bwd_s"] = (per_unit(bwd & below, sp.dur), "s")
    below = sp.under(lambda p: p == "decoder" or p.startswith("decoder/"))
    out["model.decoder.fwd_s"] = (per_unit(sp.named("mod:Decoder") & below, sp.dur), "s")
    out["model.decoder.bwd_s"] = (per_unit(bwd & below, sp.dur), "s")
    composite = _composite_of(tr)
    for cls in REPORTED_CLASSES:
        owned = np.isin(sp.path, [i for i, c in enumerate(composite) if c == cls])
        out[f"model.{cls}.fwd_s"] = (per_unit(sp.named(f"mod:{cls}"), sp.comp_self), "s")
        out[f"model.{cls}.bwd_s"] = (per_unit(bwd & owned, sp.dur), "s")

    out["train.adamw_s"] = (per_unit(sp.named("train.adamw"), sp.dur), "s")
    out["train.cross_entropy.fwd_s"] = (per_unit(sp.named("op:cross_entropy:"), sp.self_t), "s")
    out["train.cross_entropy.bwd_s"] = (per_unit(sp.named("bwd:cross_entropy"), sp.self_t), "s")
    out["data.augment_s"] = (per_unit(sp.named("data.augment"), sp.dur), "s")
    # Set-up and checkpoint spans happen outside units: totals per run.
    out["data.synth_s"] = (float(sp.dur[sp.named("data.synth")].sum()), "s")
    out["checkpoint.save_s"] = (float(sp.dur[sp.named("checkpoint.save")].sum()), "s")
    out["checkpoint.save_bytes"] = (float(save_bytes), "bytes")
    out["checkpoint.load_s"] = (float(sp.dur[sp.named("checkpoint.load")].sum()), "s")
    out["metrics.confusion_s"] = (per_unit(sp.named("metrics.confusion"), sp.dur), "s")

    fd = tape = 0.0
    if gradcheck and units:
        fd = float(np.mean(units))
        passes = sp.named("gradcheck.tape_forward")
        n_pass = int(passes.sum())
        if n_pass:
            tape = (float(sp.dur[passes].sum())
                    + float(sp.dur[sp.named("tensor.backward") & ~u].sum())) / n_pass
    out["gradcheck.fd_eval_s"] = (fd, "s")
    out["gradcheck.tape_pass_s"] = (tape, "s")
    join = mac_join(tr, sp, report)
    out["analysis.mac_mismatch_rows"] = (float(sum(1 for m, e in join.values() if m != e)), "count")
    out["trace.overhead_x"] = (float(np.median(units)) / untraced_p50 if units and untraced_p50 else 0.0,
                               "ratio")
    return out


COLUMNS = ("layer", "class", "calls", "fwd_ms", "bwd_ms", "macs", "est_macs", "gmacs_per_s")


def path_table(tr: Tracer, n_units: int, report) -> list[dict]:
    """Per module path, per unit: calls, forward self ms, backward ms,
    measured and estimated MACs, and achieved GMAC/s of the forward."""
    sp = _Spans(tr)
    u = sp.in_unit
    est: dict = {}
    for (path, _tag), (_m, e) in mac_join(tr, sp, report).items():
        est[path] = est.get(path, 0) + e
    forwards = int((sp.named("mod:IncepFormer") & u).sum()) / n_units
    bwd = sp.named("bwd:")
    ops = sp.named("op:")
    rows = []
    for pid, path in enumerate(tr.paths):
        at = (sp.path == pid) & u
        if not at.any():
            continue
        if pid == 0:
            fwd = float(sp.self_t[at & ops].sum())
            calls = int((at & ops).sum())
        else:
            fwd = float(sp.mod_self[at & sp.is_mod].sum())
            calls = int((at & sp.is_mod).sum())
        fwd /= n_units
        macs = float(sp.macs[at & ops].sum()) / n_units
        rows.append({
            "layer": path or "(model)",
            "class": tr.path_class[pid] or "-",
            "calls": calls / n_units,
            "fwd_ms": 1e3 * fwd,
            "bwd_ms": 1e3 * float(sp.dur[at & bwd].sum()) / n_units,
            "macs": macs,
            "est_macs": est.get(path, 0) * forwards,
            "gmacs_per_s": macs / fwd / 1e9 if fwd > 0 else 0.0,
        })
    return rows


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return f"{v:.6g}" if isinstance(v, float) and not float(v).is_integer() else str(int(v))


def emit_table(rows: list[dict], meta: dict, fmt: str) -> str:
    """Serialise the per-path table as json, csv or text, in the layout of
    `incepformer analyze`: rows, then a total line, then metadata."""
    totals = {c: sum(r[c] for r in rows) for c in ("fwd_ms", "bwd_ms", "macs", "est_macs")}
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(COLUMNS) + "\n")
        for r in rows:
            buf.write(",".join(_fmt(r[c]) for c in COLUMNS) + "\n")
        buf.write(",".join(["total", "", ""] + [_fmt(totals[c]) for c in ("fwd_ms", "bwd_ms", "macs", "est_macs")]
                           + [""]) + "\n")
        return buf.getvalue()
    if fmt == "json":
        return json.dumps({"meta": meta, "rows": rows, "totals": totals}, indent=2) + "\n"
    if fmt == "table":
        width = max([len(r["layer"]) for r in rows] + [len("layer")])
        head = f"{'layer':<{width}}  {'class':<11} {'calls':>6} {'fwd_ms':>10} {'bwd_ms':>10} " \
               f"{'macs':>14} {'est_macs':>14} {'GMAC/s':>8}"
        lines = [head]
        for r in rows:
            lines.append(f"{r['layer']:<{width}}  {r['class']:<11} {r['calls']:>6.3g} {r['fwd_ms']:>10.3f} "
                         f"{r['bwd_ms']:>10.3f} {r['macs']:>14.0f} {r['est_macs']:>14.0f} "
                         f"{r['gmacs_per_s']:>8.3f}")
        lines.append(f"{'total':<{width}}  {'':<11} {'':>6} {totals['fwd_ms']:>10.3f} {totals['bwd_ms']:>10.3f} "
                     f"{totals['macs']:>14.0f} {totals['est_macs']:>14.0f}")
        for k, v in meta.items():
            lines.append(f"# {k}: {v}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {fmt!r}; expected json, csv or table")
