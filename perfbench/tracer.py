"""In-memory span recorder for the fedrr benchmark's traced runs.

``Tracer.install()`` replaces every public function of the fedrr modules,
and every public method of the classes they define, with a wrapper that
records one span per call: name, start, end and the span that was open when
the call began (its parent).  The wrapper is patched into every fedrr
namespace that binds the function, so calls between modules (for example
``optimizer`` calling ``shuffling.fisher_yates``) are recorded too.  A few
private functions that hold a layer's work are wrapped as well, listed in
``EXTRA_PRIVATE``.  Nothing under ``src/fedrr`` is modified; the patches live
only in the benchmark's own process.

Spans are kept in flat arrays until the run ends and are then reduced to
per-module call counts, total time and self time.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import enum
import functools
import inspect
import math
import os
import time
from array import array

import numpy as np

MODULES = ("rng", "shuffling", "dataset", "problem", "variance_lab", "theory", "optimizer", "harness", "cli")

# private functions that carry a layer's work and are called through a module global
EXTRA_PRIVATE = (("variance_lab", "_enumerate_sequences"),)

ROOT = "bench.workload"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self.qty2 = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # permutation bookkeeping for shuffling.perm_useful_ratio
        self._stream_keys: dict[int, tuple] = {}
        self._perm_keys: dict[int, tuple] = {}
        self.perm_draws: list[tuple[int, tuple, bool]] = []  # (span, stream key, consumed at draw)
        self.perm_consumed: list[tuple[int, tuple]] = []  # (span of the local pass, stream key)
        self._geometries_seen: set[tuple] = set()

    # -- recording ---------------------------------------------------------
    def intern(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.nid)
        self.nid.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.qty.append(0.0)
        self.qty2.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook=None, rename=None):
        tracer = self
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self._stack
        nids, parents, starts, ends, qty, qty2 = self.nid, self.parent, self.start, self.end, self.qty, self.qty2

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(nids)
            nids.append(nid if rename is None else tracer.intern(rename(args)))
            parents.append(stack[-1])
            qty.append(0.0)
            qty2.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, i, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        import importlib

        mods = {name: importlib.import_module(f"fedrr.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for modname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{modname}.{attr}", obj, *_HOOKS.get(f"{modname}.{attr}", (None, None)))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        key = f"{modname}.{obj.__name__}.{meth}"
                        hook = _HOOKS.get(f"{modname}.*.{meth}", _HOOKS.get(key, (None, None)))
                        self._patch(obj, meth, self._wrap(key, fn, *hook))
        for modname, attr in EXTRA_PRIVATE:
            obj = getattr(mods[modname], attr)
            wrappers[id(obj)] = self._wrap(f"{modname}.{attr}", obj, *_HOOKS.get(f"{modname}.{attr}", (None, None)))
        # patch every fedrr namespace that binds a wrapped function (re-exports included)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None:
                    self._patch(mod, attr, w)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------
    def arrays(self):
        nid = np.frombuffer(self.nid, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return nid, parent, dur, dur - child

    def within(self, predicate) -> np.ndarray:
        """Mask of spans that are, or descend from, a span whose name satisfies ``predicate``."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mask = self.name_mask(predicate)
        has_parent = parent >= 0
        while True:
            grown = mask.copy()
            grown[has_parent] |= mask[parent[has_parent]]
            if np.array_equal(grown, mask):
                return mask
            mask = grown

    def name_mask(self, predicate) -> np.ndarray:
        nid = np.frombuffer(self.nid, dtype=np.int32)
        ids = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(nid, ids)

    def module_table(self, mask=None) -> dict:
        """Per-module span count, total time (outermost spans only) and self time."""
        nid, parent, dur, self_t = self.arrays()
        module_of_name = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        module = module_of_name[nid]
        parent_module = np.where(parent >= 0, module[np.maximum(parent, 0)], "")
        if mask is None:
            mask = np.ones(len(nid), dtype=bool)
        table = {}
        for mod in sorted(set(module_of_name)):
            sel = mask & (module == mod)
            outer = sel & (parent_module != mod)
            table[mod] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[outer].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return table


# -- per-function hooks: (hook(tracer, span, args, result), rename(args)) ----


def _stream_hook(tr, i, args, gen):
    tr._stream_keys[id(gen)] = tuple(args)
    # a "*_cohort" stream is one round's cohort draw
    tr.qty[i] = str(args[1]).endswith("_cohort")


def _schedule_hook(tr, i, args, schedule):
    # one meta-epoch's cohort schedule: one round per cohort
    tr.qty[i] = len(schedule.cohorts)


def _perm_hook(tr, i, args, perm):
    n, rng = args[0], args[1]
    tr.qty[i] = n
    key = tr._stream_keys.get(id(rng), ("anonymous", i))
    tr._perm_keys[id(perm)] = key
    # data permutations are consumed later by a local pass; every other draw
    # (client order, cohort, partition) is consumed where it is drawn
    in_data_draw = tr.names[tr.nid[tr._stack[-1]]] == "shuffling.draw_data_permutations" if tr._stack[-1] >= 0 else False
    tr.perm_draws.append((i, key, not in_data_draw))


def _opt_local_pass_hook(tr, i, args, result):
    perm = args[4]
    tr.perm_consumed.append((i, tr._perm_keys.get(id(perm), ("unknown", id(perm)))))


def _problem_local_pass_hook(tr, i, args, result):
    problem, batches = args[0], args[4]
    rows = sum(len(b) for b in batches)
    tr.qty[i] = rows
    tr.qty2[i] = rows * problem.d * 8


def _load_hook(tr, i, args, result):
    tr.qty[i] = os.path.getsize(args[0])


def _enum_hook(tr, i, args, table):
    geometry = tuple(args)
    if geometry not in tr._geometries_seen:
        tr._geometries_seen.add(geometry)
        tr.qty[i] = table.shape[0]


def _brute_hook(tr, i, args, result):
    inputs = args[0]
    C = args[1] if len(args) > 1 else 1
    outcomes = math.factorial(inputs.M) * math.factorial(inputs.N) ** inputs.M
    tr.qty[i] = outcomes
    # one (outcomes, C, N*M/C, d) float64 estimator tensor per call
    tr.qty2[i] = outcomes * C * (inputs.N * inputs.M // C) * inputs.d * 8


def _algo_name(prefix):
    return lambda args: f"{prefix}[{args[1].algorithm}]"


_HOOKS = {
    "rng.stream": (_stream_hook, None),
    "shuffling.build_cohort_schedule": (_schedule_hook, None),
    "shuffling.fisher_yates": (_perm_hook, None),
    "optimizer.local_pass": (_opt_local_pass_hook, None),
    "problem.*.local_pass": (_problem_local_pass_hook, None),
    "dataset.load_libsvm_file": (_load_hook, None),
    "variance_lab._enumerate_sequences": (_enum_hook, None),
    "variance_lab.brute_force_all": (_brute_hook, None),
    "optimizer.run_rrcli": (None, _algo_name("optimizer.run_rrcli")),
    "optimizer.run_nastya": (None, _algo_name("optimizer.run_nastya")),
    "optimizer.run_fedavg": (None, _algo_name("optimizer.run_fedavg")),
}


# -- per-layer metrics ---------------------------------------------------------


def per_layer_metrics(tr: Tracer, phases: dict, info: dict) -> dict:
    """Reduce the spans of one traced workload run to named per-layer metrics.

    ``phases`` names the spans that make up the workload's set-up and its
    measured work; ``info`` holds what the workload measured itself (bytes
    written, time spent writing outputs).  Returns ``{"metrics": {name:
    [value, unit]}, "modules": ..., "setup_modules": ..., "work_modules": ...,
    "accounting": ...}``.
    """
    nid, parent, dur, self_t = tr.arrays()
    names = tr.names
    qty = np.frombuffer(tr.qty, dtype=np.float64)
    qty2 = np.frombuffer(tr.qty2, dtype=np.float64)

    def mask(pred):
        return tr.name_mask(pred)

    def outer(m):
        # spans matching m whose parent does not, so nested calls count once
        return m & ~np.where(parent >= 0, m[np.maximum(parent, 0)], False)

    def named(name):
        return mask(lambda n: n == name)

    def seconds(m):
        return float(dur[outer(m)].sum())

    def count(m):
        return int(m.sum())

    work = tr.within(lambda n: n in phases["work"])
    setup = tr.within(lambda n: n in phases["setup"]) & ~work
    training = tr.within(lambda n: n == "optimizer.run_algorithm")

    stream_m = named("rng.stream")
    perm_m = named("shuffling.fisher_yates")
    local_m = mask(lambda n: n.startswith("problem.") and n.endswith(".local_pass"))
    objective_m = mask(lambda n: n.startswith("problem.") and n.endswith(".objective_value"))
    enum_m = named("variance_lab._enumerate_sequences")
    brute_m = named("variance_lab.brute_force_all")
    full_grad_m = mask(lambda n: n.startswith("problem.") and n.endswith(".full_gradient"))
    algo_of_name = {i: n[n.index("[") + 1 : -1] for i, n in enumerate(names) if n.startswith("optimizer.run_") and n.endswith("]")}

    drawn = sum(1 for i, _, _ in tr.perm_draws if training[i])
    useful = {key for i, key, at_draw in tr.perm_draws if at_draw and training[i]}
    useful |= {key for i, key in tr.perm_consumed if training[i]}

    modules = tr.module_table()
    harness_ids = [i for i, n in enumerate(names) if n.startswith("harness.")]
    jobs = named("optimizer.run_algorithm") & np.isin(np.where(parent >= 0, nid[np.maximum(parent, 0)], -1), harness_ids)

    metrics = {
        "rng.streams": (count(stream_m), "count"),
        "rng.stream_s": (seconds(stream_m), "s"),
        "shuffling.perm_draws": (count(perm_m), "count"),
        "shuffling.perm_elements": (int(qty[perm_m].sum()), "count"),
        "shuffling.perm_s": (seconds(perm_m), "s"),
        "shuffling.perm_useful_ratio": (len(useful) / drawn if drawn else 0.0, "ratio"),
        "problem.local_pass_calls": (count(local_m), "count"),
        "problem.local_pass_s": (seconds(local_m), "s"),
        "problem.local_pass_bytes": (int(qty2[local_m].sum()), "B"),
        "problem.grad_evals": (int(qty[local_m].sum()), "count"),
        "problem.objective_calls": (count(objective_m), "count"),
        "problem.objective_s": (seconds(objective_m), "s"),
        "optimizer.record_s": (seconds(named("optimizer.RunTrace.record")), "s"),
        "problem.solve_s": (seconds(named("problem.solve_optimum")), "s"),
        "problem.solve_full_grads": (count(full_grad_m & tr.within(lambda n: n == "problem.solve_optimum")), "count"),
        "problem.densify_s": (seconds(named("problem.logistic_problem")), "s"),
        "dataset.parse_s": (seconds(named("dataset.load_libsvm_file")), "s"),
        "dataset.parse_bytes": (int(qty[named("dataset.load_libsvm_file")].sum()), "B"),
        "dataset.hash_s": (seconds(named("dataset.SparseDataset.to_libsvm_text")), "s"),
        "dataset.partition_s": (seconds(named("dataset.partition")), "s"),
        "variance_lab.star_s": (seconds(named("variance_lab.star_variances")), "s"),
        "variance_lab.enum_outcomes": (int(qty[enum_m].sum()), "count"),
        "variance_lab.enum_build_s": (float(dur[enum_m & (qty > 0)].sum()), "s"),
        "variance_lab.brute_s": (seconds(brute_m), "s"),
        "variance_lab.estimator_bytes": (int(qty2[brute_m].sum()), "B"),
        "variance_lab.closed_form_s": (seconds(mask(lambda n: n.startswith("variance_lab.closed_form"))), "s"),
        "theory.bound_calls": (count(named("theory.bound_rhs")), "count"),
        "theory.bound_s": (seconds(named("theory.bound_rhs")), "s"),
        "optimizer.rounds": (int(qty[(stream_m | named("shuffling.build_cohort_schedule")) & training].sum()), "count"),
        "harness.jobs": (count(jobs), "count"),
        "harness.write_s": (float(info.get("write_s", 0.0)), "s"),
        "harness.bytes_written": (int(info.get("bytes_written", 0)), "B"),
        "trace.spans": (len(nid), "count"),
    }
    for algorithm in ("rrcli", "rrcli-wr", "nastya", "fedavg"):
        ids = [i for i, a in algo_of_name.items() if a == algorithm]
        metrics[f"optimizer.run_s.{algorithm}"] = (float(dur[np.isin(nid, ids)].sum()), "s")
    for mod in MODULES:
        row = modules.get(mod, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{mod}.calls"] = (row["calls"], "count")
        metrics[f"{mod}.total_s"] = (row["total_s"], "s")
        metrics[f"{mod}.self_s"] = (row["self_s"], "s")

    root = named(ROOT)
    return {
        "metrics": {k: [v, u] for k, (v, u) in metrics.items()},
        "modules": modules,
        "setup_modules": tr.module_table(setup),
        "work_modules": tr.module_table(work),
        "accounting": {
            "root_s": float(dur[root].sum()),
            "modules_self_s": float(sum(modules[mod]["self_s"] for mod in MODULES if mod in modules)),
            "bench_self_s": float(self_t[root].sum()),
            "min_self_s": float(self_t.min()) if len(self_t) else 0.0,
        },
    }
