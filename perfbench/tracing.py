"""Per-layer spans and counts for the traced benchmark run.

Tracing wraps the public functions of each actalab module from outside:
every module attribute bound to a wrapped function is rebound to a wrapper
while the tracer is installed, so calls between modules (conditions calling
tensor_product, cli calling enumerate_acts, ...) are seen too.  Nothing in
the program changes.  A span records (name, start, end, parent); a layer's
self time is the time of its spans minus the time their child spans cover.
Counts are taken in the wrappers, at the same boundaries as the spans.
"""

import sys
from contextlib import contextmanager
from time import perf_counter

from actalab import act, axioms, cli, conditions, monoid, replacement, serialize, tensor

# The cached function itself, whatever module attributes point at while tracing.
_STANDARD_SUBACT = tensor.standard_subact


def _pairs(counts, args, result):
    counts["tensor.product_pairs"] += args[0].size * args[1].size


def _tossing(counts, args, result):
    if result is not None:
        counts["tensor.tossing_found"] += 1
        counts["tensor.tossing_length_sum"] += result.skeleton.length


def _flat(counts, args, result):
    if result.verdict != "passes-up-to-bound":
        counts["conditions.flat_resolved"] += 1


def _instances(counts, args, result):
    counts["replacement.instances"] += len(result.instances)


# (span name, call counter or None, extra counter or None, functions)
LAYERS = (
    ("act.enumerate", None, None, (act.enumerate_acts,)),
    ("act.congruence", "act.congruence_calls", None, (act.congruence_closure,)),
    ("act.morphism", "act.morphism_checks", None, (act.morphism_is_valid,)),
    ("monoid.structure", "monoid.structure_calls", None, (
        monoid.R_set, monoid.r_set, monoid.ideal_intersection,
        monoid.principal_right_ideal, monoid.min_generating_set,
        monoid.generated_pair_subact, monoid.left_cancellable_elements,
    )),
    ("tensor.product", "tensor.product_calls", _pairs, (tensor.tensor_product,)),
    ("tensor.tossing", "tensor.tossing_queries", _tossing, (tensor.find_tossing,)),
    ("tensor.gamma", "tensor.gamma_calls", None, (tensor.gamma_pairs, tensor.eval_gamma)),
    ("tensor.subact", None, None, (tensor.standard_subact,)),
    ("tensor.induced", "tensor.induced_calls", None, (tensor.induced_morphism,)),
    ("conditions.decide", "conditions.decide_calls", None, (
        conditions.check_condition, conditions.condition_profile,
    )),
    ("conditions.pwf", "conditions.pwf_calls", None, (conditions.check_pwf,)),
    ("conditions.wf", "conditions.wf_calls", None, (conditions.check_wf,)),
    ("conditions.flat", "conditions.flat_calls", _flat, (conditions.check_flat_bounded,)),
    ("axioms.emit", "axioms.emit_calls", None, (axioms.emit_axioms,)),
    ("axioms.modelcheck", "axioms.sentences_checked", None, (axioms.model_check_table,)),
    ("axioms.modelcheck", None, None, (axioms.satisfies_all, axioms.model_check)),
    ("replacement.verify", "replacement.verify_calls", _instances, (
        replacement.verify_replacement,
    )),
    ("replacement.verify", None, None, (replacement.replacement_skeletons,)),
    ("serialize.dump", None, None, (serialize.dump_json, serialize.act_to_dict)),
    ("cli", None, None, (cli.run_command,)),
)

def time_metric(span):
    """The metric that receives a layer's self time."""
    return "cli.self_s" if span == "cli" else f"{span}_s"


class Tracer:
    """Spans kept in memory, plus counters, for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = dict.fromkeys(
            ("act.acts_yielded", "tensor.tossing_found", "tensor.tossing_length_sum",
             "tensor.product_pairs", "conditions.flat_resolved", "replacement.instances"),
            0,
        )
        self._saved = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, such as one item."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name, counter, extra, fn):
        counts = self.counts
        if counter is not None:
            counts.setdefault(counter, 0)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counts[counter] += 1
            if extra is not None:
                extra(counts, args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                counts["act.acts_yielded"] += 1
                yield item

        return traced

    def install(self):
        """Rebind every actalab module attribute that names a traced function."""
        wrappers = {}
        for name, counter, extra, fns in LAYERS:
            for fn in fns:
                if fn is act.enumerate_acts:
                    wrappers[id(fn)] = (fn, self._wrap_generator(name, fn))
                else:
                    wrappers[id(fn)] = (fn, self._wrap(name, counter, extra, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "actalab" and not modname.startswith("actalab."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self._subact_before = _STANDARD_SUBACT.cache_info()

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        after = _STANDARD_SUBACT.cache_info()
        self.counts["tensor.subact_hits"] = after.hits - self._subact_before.hits
        self.counts["tensor.subact_misses"] = after.misses - self._subact_before.misses

    def self_times(self):
        """Self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path):
        """Write the spans as tab-separated (index, parent, name, start, end)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracers):
    """Layer counts, self times and ratios summed over traced phases; the
    overhead ratio is added by the caller."""
    counts = {}
    times = {}
    for tr in tracers:
        for key, value in tr.counts.items():
            counts[key] = counts.get(key, 0) + value
        for name, value in tr.self_times().items():
            times[name] = times.get(name, 0.0) + value
    out = dict(counts)
    for span in {layer[0] for layer in LAYERS}:
        out[time_metric(span)] = times.get(span, 0.0)
    queries = counts.get("tensor.tossing_queries", 0)
    found = counts.get("tensor.tossing_found", 0)
    out["tensor.tossing_found_ratio"] = found / queries if queries else 0.0
    out["tensor.tossing_length"] = counts["tensor.tossing_length_sum"] / found if found else 0.0
    flats = counts.get("conditions.flat_calls", 0)
    out["conditions.flat_resolved_ratio"] = (
        counts["conditions.flat_resolved"] / flats if flats else 0.0
    )
    return out
