"""Spans around the library's public functions, recorded from outside it.

``Tracer.installed()`` replaces the functions listed in ``TARGETS`` (and every
alias of them held by another ``datatrace`` module, such as ``cli.influence_fn``)
with wrappers that record a span per call, and restores the originals on exit.
The library itself is not edited. Spans stay in memory as
``[name, start, end, parent, run, count]`` rows until ``write`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

from datatrace import attribution, data, hypergrad, models, oracle, reports, trainer

# The package re-exports the function ``influence`` under the module's name.
influence = importlib.import_module("datatrace.influence")

NAME, START, END, PARENT, RUN, COUNT = range(6)


def _rows(args, kwargs, result):
    return len(result)


def _hvp_vectors(args, kwargs, result):
    return 1 if result.ndim == 1 else result.shape[0]


def _steps(args, kwargs, result):
    return result.steps


def _state_bytes(args, kwargs, result):
    return sum(s.nabla.nbytes + s.mom_deriv.nbytes for s in result.values())


def _cg_iterations(args, kwargs, result):
    return result[1].get("cg_iterations", 0)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


# (owner, attribute, span name, count extractor or None)
TARGETS = (
    (data.LabeledDataset, "subset", "data.subset", _rows),
    (models, "init_params", "models.init_params", None),
    (models, "sample_losses", "models.sample_losses", None),
    (models, "per_sample_gradients", "models.per_sample_gradients", _rows),
    (models, "batch_gradient", "models.batch_gradient", None),
    (models, "hessian_vector_product", "models.hessian_vector_product", _hvp_vectors),
    (models, "dense_hessian", "models.dense_hessian", None),
    (models, "power_iteration_max_eig", "models.power_iteration_max_eig", None),
    (trainer, "train", "trainer.train", _steps),
    (trainer, "replay", "trainer.replay", None),
    (hypergrad, "track_exact", "hypergrad.track_exact", _state_bytes),
    (hypergrad, "track_approx", "hypergrad.track_approx", _state_bytes),
    (influence, "influence", "influence.influence", None),
    (influence, "inverse_hvp", "influence.inverse_hvp", _cg_iterations),
    (oracle, "finite_difference_hypergradient", "oracle.finite_difference_hypergradient", None),
    (reports, "write_report_csv", "reports.write_report_csv", _file_bytes),
    (attribution, "write_stats_json", "reports.write_stats_json", _file_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    def call(self, name, fn, count, args, kwargs):
        """Run fn inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent, self.run, 0]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            result = fn(*args, **kwargs)
        finally:
            row[END] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            row[COUNT] = count(args, kwargs, result)
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hook = kwargs.get("step_hook")
            if name == "trainer.train" and hook is not None:
                # The hook is the tracker of the layer that passed it in.
                layer = type(hook).__module__.rpartition(".")[2]
                kwargs["step_hook"] = lambda ctx: self.call(f"{layer}.hook", hook, None, (ctx,), {})
            return self.call(name, fn, count, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target and its aliases; restore all of them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "datatrace"]
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, count)
                for holder in [owner] + modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run,count\n")
            for row in self.spans:
                fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, row in enumerate(spans):
        if row[PARENT] >= 0:
            children[row[PARENT]].append(i)
    out = []
    for i, row in enumerate(spans):
        covered, reach = 0.0, row[START]
        for start, end in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            start, end = max(start, reach), min(end, row[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(row[END] - row[START] - covered)
    return out


def by_run(spans):
    """Split spans by run id, re-basing parent indices into each run's list.

    A run's spans are contiguous, because runs do not overlap.
    """
    runs, first = {}, {}
    for i, row in enumerate(spans):
        base = first.setdefault(row[RUN], i)
        parent = row[PARENT] - base if row[PARENT] >= 0 else -1
        runs.setdefault(row[RUN], []).append(row[:PARENT] + [parent] + row[PARENT + 1:])
    return runs


def _has_ancestor(spans, i, prefix):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME].startswith(prefix):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans):
    """Per-layer counts and times of one run's spans (see the README map)."""
    own = self_times(spans)
    calls, total, counts, selfs = {}, {}, {}, {}
    for i, row in enumerate(spans):
        name = row[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + row[END] - row[START]
        counts[name] = counts.get(name, 0) + row[COUNT]
        selfs[name] = selfs.get(name, 0.0) + own[i]

    def c(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def n(name):
        return counts.get(name, 0)

    def s(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    hvp_vectors = n("models.hessian_vector_product")
    replays = [i for i, row in enumerate(spans) if row[NAME] == "trainer.replay"]
    writers = ("reports.write_report_csv", "reports.write_stats_json")
    return {
        "data.subset_calls": c("data.subset"),
        "data.subset_rows": n("data.subset"),
        "data.subset_s": t("data.subset"),
        "models.hvp_calls": c("models.hessian_vector_product"),
        "models.hvp_vectors": hvp_vectors,
        "models.hvp_s": t("models.hessian_vector_product"),
        "models.hvp_us_per_vector": (
            1e6 * t("models.hessian_vector_product") / hvp_vectors if hvp_vectors else 0.0
        ),
        "models.psg_calls": c("models.per_sample_gradients"),
        "models.psg_rows": n("models.per_sample_gradients"),
        "models.psg_s": t("models.per_sample_gradients"),
        "models.batch_grad_calls": c("models.batch_gradient"),
        "models.batch_grad_s": t("models.batch_gradient"),
        "models.loss_s": t("models.sample_losses"),
        "models.dense_hessian_calls": c("models.dense_hessian"),
        "models.dense_hessian_s": t("models.dense_hessian"),
        "models.power_iter_calls": c("models.power_iteration_max_eig"),
        "models.power_iter_s": t("models.power_iteration_max_eig"),
        "trainer.runs": c("trainer.train"),
        "trainer.steps": n("trainer.train"),
        "trainer.self_s": s("trainer."),
        "hypergrad.replays": sum(_has_ancestor(spans, i, "hypergrad.") for i in replays),
        "hypergrad.hook_calls": c("hypergrad.hook"),
        "hypergrad.hook_self_s": selfs.get("hypergrad.hook", 0.0),
        "hypergrad.state_bytes": max(
            (row[COUNT] for row in spans if row[NAME].startswith("hypergrad.track_")), default=0
        ),
        "influence.solves": c("influence.inverse_hvp"),
        "influence.cg_iterations": n("influence.inverse_hvp"),
        "influence.solve_s": t("influence.inverse_hvp"),
        "influence.self_s": s("influence."),
        "oracle.calls": c("oracle.finite_difference_hypergradient"),
        "oracle.retrains": sum(_has_ancestor(spans, i, "oracle.") for i in replays),
        "oracle.s": t("oracle.finite_difference_hypergradient"),
        "reports.write_s": t(*writers),
        "reports.bytes": sum(n(w) for w in writers),
        "trace.spans": len(spans),
    }
