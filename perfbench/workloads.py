"""The four benchmark workloads: set-up from a seed, one timed sweep, and
the checks of the program's outputs.

Each workload has ``setup(seed, workdir) -> inputs`` and
``sweep(inputs, rnd, check) -> errors``.  The sweep calls the public
functions of actalab through their modules, so that the traced run sees
every call, and times them through ``rnd``; checks run between the timed
calls when ``check`` is true and never inside a timed region.
"""

import io
import json
import random
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from time import perf_counter

import actalab
from actalab import axioms, cli, serialize

import oracles
from oracles import CLASSES

HERE = Path(__file__).resolve().parent
ISO_CLASSES = HERE / "iso_classes.json"

# The seven monoids of the test suite's zoo (tests/conftest.py).
ZOO = (
    ("cyclic_group", {"n": 1}),
    ("cyclic_group", {"n": 2}),
    ("cyclic_group", {"n": 3}),
    ("inverse_omega_chain", {"n": 2}),
    ("null_adjoined", {"n": 2}),
    ("semilattice_of_groups", {"n1": 2, "n0": 2}),
    ("nat_min_adjoined", {"n": 3}),
)

# schema_sweep: size-5 acts of nat_min_adjoined(3) drawn per seed.
SCHEMA_SIZE5_SAMPLE = 200
# flatness_sweep: acts drawn per monoid, spread over carrier sizes in
# proportion to their counts.  An equal count per monoid keeps the
# costly monoids from owning every percentile of the item times.
FLAT_PER_MONOID = 40
FLAT_BOUND = 2
# tossing_sweep: left acts drawn per monoid, by carrier size.
TOSSING_LEFT_SAMPLE = {3: 3, 2: 1}
TOSSING_MAX_SKELETON = 2
# enumerate_distinct: the candidate search dominates the first monoid, the
# k! isomorphism filter the second.
ENUM_MONOIDS = (
    ("semilattice_of_groups", {"n1": 2, "n0": 2}),
    ("inverse_omega_chain", {"n": 2}),
)
ENUM_MAX_SIZE = 5


class Round:
    """The timing of one sweep: timed segments, item times and failures."""

    def __init__(self, tracer=None):
        self.sweep_s = 0.0
        self.items = []
        self.attempted = 0
        self.failed = 0
        self.errors = []  # exceptions raised by the program, one per failed item
        self.digest = []  # one hash per item, to compare rounds
        self.tracer = tracer

    def segment(self, fn, *args):
        """Run a timed call that is part of the sweep but not an item."""
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.sweep_s += perf_counter() - t0

    def item(self, fn, *args):
        """Run one timed item; an exception counts the item as failed."""
        self.attempted += 1
        with self.tracer.span("bench.item") if self.tracer else nullcontext():
            t0 = perf_counter()
            try:
                return fn(*args)
            except Exception as exc:  # a failing operation is counted, not fatal
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return None
            finally:
                dt = perf_counter() - t0
                self.sweep_s += dt
                self.items.append(dt)


def load_monoid(family, params):
    """A zoo monoid as the CLI reads it: built, written as JSON, read back."""
    text = serialize.dump_json(serialize.monoid_to_dict(actalab.build(family, **params)))
    return serialize.monoid_from_dict(json.loads(text))


def systematic_sample(rng, items, n):
    """``n`` items evenly spaced through ``items``, from a random phase."""
    if n >= len(items):
        return list(items)
    phase = rng.random()
    return [items[int((i + phase) * len(items) / n)] for i in range(n)]


def by_size(acts):
    out = {}
    for B in acts:
        out.setdefault(B.size, []).append(B)
    return out


def _labels_to_indices(names, labels):
    return tuple(names.index(x) for x in labels)


# --- schema_sweep -----------------------------------------------------------


def schema_setup(seed, workdir):
    rng = random.Random(seed)
    groups = []
    for family, params in ZOO:
        M = load_monoid(family, params)
        if family == "nat_min_adjoined":
            acts = list(actalab.enumerate_acts(M, "left", 5))
            small = [B for B in acts if B.size <= 4]
            big = [B for B in acts if B.size == 5]
            acts = small + systematic_sample(rng, big, SCHEMA_SIZE5_SAMPLE)
        else:
            acts = list(actalab.enumerate_acts(M, "left", 4))
        groups.append((M, acts))
    return {"groups": groups}


def _replacement_pairs(M, cls):
    if cls == "PWP":
        return [(t, t) for t in M.elements()]
    return [(s, t) for s in M.elements() for t in M.elements()]


def _schema_item(M, B, axsets):
    out = []
    for cls in CLASSES:
        report = actalab.check_condition(B, cls)
        models = axioms.satisfies_all(B, axsets[cls].sentences)
        replaced = ()
        if B.size <= 3 and report.holds:
            replaced = tuple(
                (s, t, actalab.verify_replacement(B, s, t, cls))
                for s, t in _replacement_pairs(M, cls)
            )
        out.append((cls, report, models, replaced))
    return out


def _schema_digest(result):
    return hash(tuple(
        (cls, rep.verdict, json.dumps(rep.witness, sort_keys=True), models,
         tuple((s, t, r.status, tuple(tuple(i["skeleton"]) for i in r.instances))
               for s, t, r in replaced))
        for cls, rep, models, replaced in result
    ))


def check_schema_item(M, B, result):
    """Errors in one act's schema, decider and replacement outputs."""
    errors = []
    where = f"{M.name} act {B.table}"
    mul, table = M.mul, B.table
    holds = {cls: rep.holds for cls, rep, _, _ in result}
    for cls, rep, models, replaced in result:
        if models != rep.holds:
            errors.append(f"{where}: schema says {models}, decider {rep.verdict} for {cls}")
        if not rep.holds:
            if not rep.witness:
                errors.append(f"{where}: {cls} fails without a witness")
                continue
            inst = oracles.witness_instance(cls, rep.witness, M.element_names, B.carrier_names)
            if not oracles.instance_violated(mul, table, cls, inst):
                errors.append(f"{where}: {cls} failure witness {rep.witness} is no violation")
        for s, t, r in replaced:
            errors.extend(f"{where}: replacement {cls}({s},{t}): {e}"
                          for e in check_replacement(M, B, cls, s, t, r))
    implied = [("P", "EP"), ("P", "W"), ("P", "PWP"), ("E", "EP")]
    for a, b in implied:
        if holds[a] and not holds[b]:
            errors.append(f"{where}: {a} holds but {b} fails")
    return errors


def check_replacement(M, B, cls, s, t, report):
    """Errors in one replacement report of an act inside the class."""
    if report.status != "ok":
        return [f"status {report.status} on an act inside the class"]
    errors = []
    s_right = oracles.regular_right_table(M.mul)
    cn = B.carrier_names
    seen = []
    for inst in report.instances:
        a, b = cn.index(inst["a"]), cn.index(inst["b"])
        seen.append((a, b))
        entries = _labels_to_indices(M.element_names, inst["skeleton"])
        # the tossing connects (s, a) to (t, b) in S (x) B
        if not (oracles.delta_holds(s_right, entries, s, t)
                and oracles.gamma_holds(B.table, entries, a, b)):
            errors.append(f"skeleton {inst['skeleton']} has no tossing from ({s},{a}) to ({t},{b})")
        if cls == "W" and B.table[s][a] not in B.table[entries[2]]:
            errors.append(f"s*a is not in u*B for u = {inst['skeleton'][2]}")
    if sorted(seen) != sorted(oracles.trigger_instances(B.table, s, t, cls)):
        errors.append("replaced instances differ from the trigger instances")
    return errors


def schema_sweep(inputs, rnd, check):
    errors = []
    for M, acts in inputs["groups"]:
        axsets = rnd.segment(lambda: {cls: actalab.emit_axioms(M, cls) for cls in CLASSES})
        for B in acts:
            result = rnd.item(_schema_item, M, B, axsets)
            if result is None:
                rnd.digest.append(None)
                continue
            rnd.digest.append(_schema_digest(result))
            if check:
                errors.extend(check_schema_item(M, B, result))
    return errors


# --- flatness_sweep ---------------------------------------------------------


def flatness_setup(seed, workdir):
    rng = random.Random(seed)
    acts = []
    for family, params in ZOO:
        M = load_monoid(family, params)
        strata = by_size(actalab.enumerate_acts(M, "left", 4))
        total = sum(len(group) for group in strata.values())
        for size, group in sorted(strata.items()):
            n = max(1, round(FLAT_PER_MONOID * len(group) / total))
            acts.extend(systematic_sample(rng, group, n))
    return {"acts": acts}


def _flatness_item(B):
    return (actalab.check_pwf(B), actalab.check_wf(B), actalab.check_flat_bounded(B, FLAT_BOUND))


def check_flatness_item(B, result):
    """Errors in one act's PWF, WF and bounded flatness verdicts."""
    M = B.monoid
    mul, table = M.mul, B.table
    en, cn = M.element_names, B.carrier_names
    where = f"{M.name} act {table}"
    pwf, wf, flat = result
    errors = []
    if wf.holds != (pwf.holds and oracles.holds_w(mul, table)):
        errors.append(f"{where}: WF {wf.verdict} but PWF {pwf.verdict} and (W) by scan")
    if wf.holds and not pwf.holds:
        errors.append(f"{where}: WF holds but PWF fails")
    if flat.verdict not in ("holds", "fails", "passes-up-to-bound"):
        errors.append(f"{where}: unknown flat verdict {flat.verdict!r}")
    for r in result:
        if not r.holds and not r.witness:
            return errors + [f"{where}: {r.condition} fails without a witness"]
    if not pwf.holds:
        w = pwf.witness
        a = en.index(w["a"])
        p1 = (en.index(w["pair1"][0]), cn.index(w["pair1"][1]))
        p2 = (en.index(w["pair2"][0]), cn.index(w["pair2"][1]))
        members = {mul[a][x] for x in M.elements()}
        err = oracles.ideal_embedding_error(mul, table, members, p1, p2)
        pulled = all(
            any(mul[a][u] == p[0] and table[u][p[1]] == cn.index(w[key]) for u in M.elements())
            for p, key in ((p1, "b"), (p2, "b2"))
        )
        if err or not pulled:
            errors.append(f"{where}: PWF witness {w} rejected: {err or 'pull-back fails'}")
    if not wf.holds:
        w = wf.witness
        members = _labels_to_indices(en, w["ideal"])
        p1 = (en.index(w["pair1"][0]), cn.index(w["pair1"][1]))
        p2 = (en.index(w["pair2"][0]), cn.index(w["pair2"][1]))
        err = oracles.ideal_embedding_error(mul, table, members, p1, p2)
        if err:
            errors.append(f"{where}: WF witness {w} rejected: {err}")
    if flat.verdict == "fails":
        w = flat.witness
        entries = _labels_to_indices(en, w["skeleton"])
        err = oracles.flat_witness_error(mul, M.identity, table, entries,
                                         cn.index(w["b"]), cn.index(w["b2"]))
        if err:
            errors.append(f"{where}: flat witness {w} rejected: {err}")
        if oracles.holds_p(mul, table):
            errors.append(f"{where}: satisfies (P) but flatness fails")
    return errors


def flatness_kind(B, result):
    """'fails', 'P' or 'unresolved', the three kinds the sample must keep."""
    if result[2].verdict == "fails":
        return "fails"
    return "P" if oracles.holds_p(B.monoid.mul, B.table) else "unresolved"


def flatness_sweep(inputs, rnd, check):
    errors = []
    kinds = set()
    for B in inputs["acts"]:
        result = rnd.item(_flatness_item, B)
        if result is None:
            rnd.digest.append(None)
            continue
        rnd.digest.append(hash(tuple(
            (r.verdict, json.dumps(r.witness, sort_keys=True)) for r in result
        )))
        if check:
            errors.extend(check_flatness_item(B, result))
            kinds.add(flatness_kind(B, result))
    if check and kinds != {"fails", "P", "unresolved"}:
        errors.append(f"sample keeps only the kinds {sorted(kinds)}")
    return errors


# --- tossing_sweep ----------------------------------------------------------


def tossing_setup(seed, workdir):
    rng = random.Random(seed)
    items = []
    for family, params in ZOO:
        M = load_monoid(family, params)
        lefts = by_size(actalab.enumerate_acts(M, "left", max(TOSSING_LEFT_SAMPLE)))
        sample = []
        for size, n in sorted(TOSSING_LEFT_SAMPLE.items(), reverse=True):
            sample.extend(systematic_sample(rng, lefts.get(size, []), n))
        skeletons = [
            actalab.Skeleton(entries)
            for m in range(1, TOSSING_MAX_SKELETON + 1)
            for entries in product(M.elements(), repeat=2 * m)
        ]
        for A in actalab.enumerate_acts(M, "right", 3):
            chains = [(sk, chain) for sk in skeletons
                      for chain in oracles.delta_chains(A.table, sk.entries)]
            items.append((M, A, sample, chains))
    return {"items": items}


def _tossing_item(M, A, lefts, chains):
    products = []
    for B in lefts:
        T = actalab.tensor_product(A, B)
        pairs = [(a, b) for a in A.carrier() for b in B.carrier()]
        found = [actalab.find_tossing(A, B, a, b, a2, b2) for a, b in pairs for a2, b2 in pairs]
        products.append((B, T, pairs, found))
    induced = [actalab.induced_morphism(M, sk, A, chain) for sk, chain in chains]
    return products, induced


def _tossing_digest(result):
    products, induced = result
    return hash((
        tuple(
            (T.class_of, tuple(
                None if t is None else (t.skeleton.entries, t.a_witnesses, t.b_witnesses)
                for t in found))
            for B, T, pairs, found in products
        ),
        tuple(nu.mapping for nu in induced),
    ))


def check_tossing_item(M, A, chains, result):
    """Errors in one right act's tensor products, tossings and morphisms."""
    errors = []
    where = f"{M.name} right act {A.table}"
    products, induced = result
    for B, T, pairs, found in products:
        comp = oracles.tensor_components(A.table, B.table)
        if not oracles.same_partition(comp, T.class_of):
            errors.append(f"{where} (x) {B.table}: tensor classes differ from the closure")
        queries = ((p, q) for p in pairs for q in pairs)
        for ((a, b), (a2, b2)), toss in zip(queries, found):
            equal = comp[a * B.size + b] == comp[a2 * B.size + b2]
            if (toss is not None) != equal:
                errors.append(f"{where} (x) {B.table}: tossing {toss is not None} "
                              f"but tensor-equal {equal} for ({a},{b}),({a2},{b2})")
                continue
            if toss is None:
                continue
            err = oracles.tossing_error(A.table, B.table, toss.skeleton.entries,
                                        toss.start, toss.end, toss.a_witnesses,
                                        toss.b_witnesses)
            if err or toss.start != (a, b) or toss.end != (a2, b2):
                errors.append(f"{where} (x) {B.table}: tossing ({a},{b})->({a2},{b2}) "
                              f"rejected: {err or 'wrong endpoints'}")
    for (sk, chain), nu in zip(chains, induced):
        errors.extend(f"{where}: induced morphism of {sk.entries} at {chain}: {e}"
                      for e in induced_errors(M, sk, A, chain, nu))
    return errors


def induced_errors(M, sk, A, chain, nu):
    """Errors in one induced morphism: its law, and its images of the
    marked classes [x_1], ..., [x_{m+1}], which must be the chain."""
    Q, marks = actalab.standard_tossing_act(M, sk)
    errors = []
    if nu.source.table != Q.table or nu.target.table != A.table:
        errors.append("source or target is not the standard quotient and the act")
    err = oracles.morphism_error(nu.source.table, A.table, nu.mapping)
    if err:
        errors.append(err)
    if tuple(nu.mapping[q] for q in marks) != tuple(chain):
        errors.append("marked classes do not land on the chain")
    return errors


def tossing_sweep(inputs, rnd, check):
    errors = []
    for M, A, lefts, chains in inputs["items"]:
        result = rnd.item(_tossing_item, M, A, lefts, chains)
        if result is None:
            rnd.digest.append(None)
            continue
        rnd.digest.append(_tossing_digest(result))
        if check:
            errors.extend(check_tossing_item(M, A, chains, result))
    return errors


# --- enumerate_distinct -----------------------------------------------------


class LineClock(io.StringIO):
    """Captured standard output that notes when each line is completed."""

    def __init__(self):
        super().__init__()
        self.times = []

    def write(self, text):
        n = super().write(text)
        if "\n" in text:
            self.times.extend([perf_counter()] * text.count("\n"))
        return n


def enumerate_setup(seed, workdir):
    """The monoid files for the CLI, as text; the inputs do not depend on the
    seed.  The sweep writes the files, outside its timed calls: on a virtual
    disk the write of a small file varies far more than the program's own
    work, and would swamp the set-up time."""
    expected = json.loads(ISO_CLASSES.read_text(encoding="utf-8"))["classes"]
    monoids = []
    for family, params in ENUM_MONOIDS:
        M = load_monoid(family, params)
        stem = "-".join([family] + [str(v) for v in params.values()])
        text = serialize.dump_json(serialize.monoid_to_dict(M))
        monoids.append((M, workdir / f"monoid-{stem}.json", text, expected[M.name]))
    return {"monoids": monoids}


def check_enumeration(M, expected, code, out, err):
    """Errors in one ``enumerate --distinct`` output."""
    errors = []
    lines = out.splitlines()
    if code != 0 or err != f"# {len(lines)} acts\n":
        errors.append(f"{M.name}: exit {code}, stderr {err!r}")
    seen = {}
    counts = {}
    for line in lines:
        data = json.loads(line)
        carrier = data["elements"]
        pos = {x: i for i, x in enumerate(carrier)}
        table = tuple(tuple(pos[y] for y in data["action"][s]) for s in M.element_names)
        if data["monoid"] != M.name or data["side"] != "left":
            errors.append(f"{M.name}: act for {data['monoid']} {data['side']}")
        if not oracles.is_act(M.mul, M.identity, table, "left"):
            errors.append(f"{M.name}: emitted table {table} breaks the act laws")
        canon = oracles.canonical_form(table)
        if canon in seen:
            errors.append(f"{M.name}: {table} is isomorphic to {seen[canon]}")
        seen[canon] = table
        counts[str(len(carrier))] = counts.get(str(len(carrier)), 0) + 1
    if counts != expected:
        errors.append(f"{M.name}: acts per size {counts}, isomorphism classes {expected}")
    return errors


def enumerate_sweep(inputs, rnd, check):
    """Run ``enumerate --distinct`` in-process per monoid.  An item is one
    emitted act, timed as the gap since the previous output line; a failing
    command counts as one more, failed, item."""
    errors = []
    for M, path, text, expected in inputs["monoids"]:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
        out, err = LineClock(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.run_command(["enumerate", "--monoid", str(path), "--side", "left",
                                        "--max-size", str(ENUM_MAX_SIZE), "--distinct"])
            except Exception as exc:  # a failing command is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
        rnd.sweep_s += t1 - t0
        marks = [t0] + out.times
        rnd.items.extend(b - a for a, b in zip(marks, marks[1:]))
        rnd.attempted += len(marks) - 1
        if code != 0:
            rnd.attempted += 1
            rnd.failed += 1
            rnd.errors.append(f"enumerate over {M.name}: {code}")
            rnd.items.append(t1 - marks[-1])
        text = out.getvalue()
        rnd.digest.append(hash(text))
        if check:
            errors.extend(check_enumeration(M, expected, code, text, err.getvalue()))
    return errors


def iso_class_counts(M, max_size):
    """Isomorphism classes per carrier size, from the non-distinct stream
    and the benchmark's own canonical form."""
    forms = {}
    for B in actalab.enumerate_acts(M, "left", max_size):
        forms.setdefault(str(B.size), set()).add(oracles.canonical_form(B.table))
    return {size: len(f) for size, f in sorted(forms.items())}


WORKLOADS = {
    "schema_sweep": (schema_setup, schema_sweep),
    "flatness_sweep": (flatness_setup, flatness_sweep),
    "tossing_sweep": (tossing_setup, tossing_sweep),
    "enumerate_distinct": (enumerate_setup, enumerate_sweep),
}
