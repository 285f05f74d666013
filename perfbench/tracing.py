"""Span tracing of the qfk layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each qfk module by
wrappers, in the defining module and in every qfk module that imported the
name, so calls between layers are caught as well as calls from the CLI.
A span is (name, start, end, parent, job); spans are kept in memory and
written out once, after the run.  Spans are recorded only while a job is
active, so the benchmark's own checks leave no trace.

Self time is a span's duration minus the durations of its direct children;
summed over the spans of a job it equals the duration of the job's root
span.  Sizes that a metric needs (slots, head dimension, D) are read from the
call's arguments and stored with the span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import qfk.cli
import qfk.coefficients
import qfk.flows
import qfk.instances
import qfk.linalg
import qfk.matrix_elements
import qfk.perturbations
import qfk.toy_fock

MODULES = (
    qfk.linalg, qfk.coefficients, qfk.flows, qfk.perturbations,
    qfk.matrix_elements, qfk.toy_fock, qfk.instances, qfk.cli,
)


def _model_D(args, kwargs):
    model = kwargs.get("model", args[0] if args else None)
    return {"D": model.D, "N": model.N, "s": model.slot_dim}


def _dense_sizes(extra_matmuls):
    """Size extractor for a dense simulator: D and the D x D matmuls it does
    itself (nested simulators count their own), as computed from the sizes."""
    def sizes(args, kwargs):
        out = _model_D(args, kwargs)
        out["matmuls"] = extra_matmuls(args, kwargs, out["N"], out["s"])
        return out
    return sizes


def _split(args, kwargs, pos):
    return kwargs.get("split", args[pos] if len(args) > pos else None)


def _map_eval_name(args):
    """An OperatorMap call is charged to the module that defined its map
    (flows for theta, perturbations for phi and psi), so that self time lands
    in the layer whose arithmetic it is; all of them count as map evaluations."""
    return f"{args[0].fn.__module__.rsplit('.', 1)[-1]}.map_eval"


# (module, attribute) -> size extractor or None.  Methods are named "Class.method".
TARGETS = {
    ("cli", "main"): None,
    ("instances", "load_instance"): None,
    ("linalg", "expm"): None,
    ("linalg", "min_eig_hermitian"): None,
    ("linalg", "sqrtm_psd"): None,
    ("linalg", "norm2"): None,
    ("coefficients", "min_quasicontractivity_beta"): None,
    ("coefficients", "classify"): None,
    ("flows", "validate_structure"): None,
    ("flows", "OperatorMap.__call__"): None,
    # a classmethod: the wrapper sees (cls, fn, n)
    ("perturbations", "Superoperator.from_map"): lambda a, k: {"n": a[2] if len(a) > 2 else k["n"]},
    ("perturbations", "vacuum_generator"): None,
    ("perturbations", "semigroup_at"): None,
    ("perturbations", "is_cp"): None,
    ("perturbations", "choi_matrix"): None,
    ("matrix_elements", "cocycle_matrix_element"): None,
    ("matrix_elements", "tau_generator"): None,
    ("matrix_elements", "verify_cocycle_identity"): None,
    ("toy_fock", "hp_vacuum_compression"): lambda a, k: {"slots": a[2]},
    ("toy_fock", "cocycle_vacuum_corner"): lambda a, k: {"slots": a[2]},
    ("toy_fock", "fk_expectation_channel"): lambda a, k: {"slots": a[2]},
    ("toy_fock", "isometry_defect_channel"): None,
    ("toy_fock", "multiplier_cocycle_residual"): lambda a, k: {
        "slots": 2 * a[2] - _split(a, k, 6), "head_dim": a[0] * (a[1] + 1) ** _split(a, k, 6)},
    # V_{k} = embed @ V_{k-1}: N matmuls
    ("toy_fock", "simulate_hp_unitary"): _dense_sizes(lambda a, k, N, s: N),
    # per step and (mu, nu): V* blk V and (.) @ inc, then coupling @ Y: N (3 s^2 + 1)
    ("toy_fock", "simulate_perturbation"): _dense_sizes(lambda a, k, N, s: N * (3 * s * s + 1)),
    # conj blocks 2 s^2; per tail step 3 s^2 + 2; the final corner product 1
    ("toy_fock", "multiplier_cocycle_check"): _dense_sizes(
        lambda a, k, N, s: 2 * s * s + (N - _split(a, k, 3)) * (3 * s * s + 2) + 1),
    ("toy_fock", "embed_two_site"): None,
    ("toy_fock", "embed_at_slot"): None,
}


class Tracer:
    def __init__(self):
        self.names = []            # span name per span
        self.start = []
        self.end = []
        self.parent = []
        self.job = []
        self.sizes = {}            # span index -> sizes dict
        self.stack = []
        self.current_job = None
        self._saved = []

    # --- recording ---------------------------------------------------------

    def wrap(self, name, fn, sizes):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.current_job is None:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name(args) if callable(name) else name)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job.append(tracer.current_job)
            tracer.end.append(0.0)
            if sizes is not None:
                tracer.sizes[idx] = sizes(args, kwargs)
            tracer.stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.stack.pop()

        return wrapper

    def install(self):
        modules = {m.__name__.rsplit(".", 1)[1]: m for m in MODULES}
        replaced = {}
        for (modname, attr), sizes in TARGETS.items():
            mod = modules[modname]
            name = f"{modname}.{attr.split('.')[-1]}"
            if attr == "OperatorMap.__call__":
                name = _map_eval_name
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, sizes))
                else:
                    new = self.wrap(name, raw, sizes)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr)
            replaced[id(fn)] = (fn, self.wrap(name, fn, sizes))
        # rebind the name wherever a qfk module holds the function
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # --- analysis ------------------------------------------------------------

    def self_times(self):
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start", "end", "parent", "job"],
                "spans": [list(r) for r in zip(self.names, self.start, self.end, self.parent, self.job)],
                "sizes": {str(k): v for k, v in self.sizes.items()},
            }, fh)


CHANNEL = {"toy_fock.hp_vacuum_compression", "toy_fock.cocycle_vacuum_corner",
           "toy_fock.fk_expectation_channel", "toy_fock.isometry_defect_channel"}
DENSE = {"toy_fock.simulate_hp_unitary", "toy_fock.simulate_perturbation", "toy_fock.multiplier_cocycle_check"}
EMBED = {"toy_fock.embed_two_site", "toy_fock.embed_at_slot"}
LAYERS = ("instances", "linalg", "coefficients", "flows", "perturbations", "matrix_elements", "toy_fock")


def per_layer_metrics(tracer: Tracer, jobs: int, job_seconds: float) -> dict:
    """The per-layer metrics of a traced run, averaged over its jobs."""
    names, parent, sizes = tracer.names, tracer.parent, tracer.sizes
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    selft = tracer.self_times()
    calls = defaultdict(int)
    incl = defaultdict(float)    # inclusive time of outermost spans of each name
    selfs = defaultdict(float)
    for i, name in enumerate(names):
        calls[name] += 1
        selfs[name] += selft[i]
        if parent[i] < 0 or names[parent[i]] != name:
            incl[name] += dur[i]

    def outermost(group):
        total = 0.0
        for i, name in enumerate(names):
            if name in group:
                p = parent[i]
                while p >= 0 and names[p] not in group:
                    p = parent[p]
                if p < 0:
                    total += dur[i]
        return total

    def under(i, name):
        p = parent[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = parent[p]
        return False

    min_beta_eigs = sum(1 for i, nm in enumerate(names)
                        if nm in ("linalg.min_eig_hermitian", "linalg.sqrtm_psd")
                        and under(i, "coefficients.min_quasicontractivity_beta"))
    mat_intervals = calls["matrix_elements.tau_generator"]
    mat_semigroup = sum(dur[i] for i, nm in enumerate(names) if nm == "perturbations.semigroup_at"
                        and parent[i] >= 0 and names[parent[i]] == "matrix_elements.cocycle_matrix_element")
    slots = sum(sizes[i]["slots"] for i, nm in enumerate(names)
                if nm in CHANNEL and i in sizes)
    mult_slots = sum(sizes[i]["slots"] for i, nm in enumerate(names)
                     if nm == "toy_fock.multiplier_cocycle_residual")
    head = max((sizes[i]["head_dim"] for i, nm in enumerate(names)
                if nm == "toy_fock.multiplier_cocycle_residual"), default=0)
    dense_D = max((sizes[i]["D"] for i, nm in enumerate(names) if nm in DENSE), default=0)
    gflop = sum(8.0 * sizes[i]["D"] ** 3 * sizes[i]["matmuls"] for i, nm in enumerate(names) if nm in DENSE) / 1e9
    channel_s = outermost(CHANNEL)
    from_map_evals = sum(sizes[i]["n"] ** 2 for i, nm in enumerate(names) if nm == "perturbations.from_map")

    per = lambda x: x / jobs
    ms = lambda s: 1e3 * s / jobs
    out = {
        "cli.self_ms_per_job": ms(selfs["cli.main"]),
        "instances.load_ms_per_job": ms(incl["instances.load_instance"]),
        "linalg.expm_calls_per_job": per(calls["linalg.expm"]),
        "linalg.expm_ms_per_job": ms(incl["linalg.expm"]),
        "linalg.eigh_calls_per_job": per(calls["linalg.min_eig_hermitian"] + calls["linalg.sqrtm_psd"]),
        "linalg.eigh_ms_per_job": ms(incl["linalg.min_eig_hermitian"] + incl["linalg.sqrtm_psd"]),
        "linalg.norm2_calls_per_job": per(calls["linalg.norm2"]),
        "linalg.norm2_ms_per_job": ms(incl["linalg.norm2"]),
        "coefficients.min_beta_calls_per_job": per(calls["coefficients.min_quasicontractivity_beta"]),
        "coefficients.min_beta_ms_per_job": ms(incl["coefficients.min_quasicontractivity_beta"]),
        "coefficients.min_beta_eig_calls": (min_beta_eigs / calls["coefficients.min_quasicontractivity_beta"]
                                            if calls["coefficients.min_quasicontractivity_beta"] else 0.0),
        "coefficients.classify_ms_per_job": ms(incl["coefficients.classify"]),
        "flows.validate_structure_ms_per_job": ms(incl["flows.validate_structure"]),
        "flows.map_evals_per_job": per(sum(k for nm, k in calls.items() if nm.endswith(".map_eval"))),
        "perturbations.from_map_calls_per_job": per(calls["perturbations.from_map"]),
        "perturbations.from_map_ms_per_job": ms(incl["perturbations.from_map"]),
        "perturbations.map_evals_per_job": per(from_map_evals),
        "perturbations.semigroup_ms_per_job": ms(incl["perturbations.semigroup_at"]),
        "perturbations.choi_ms_per_job": ms(outermost({"perturbations.is_cp", "perturbations.choi_matrix"})),
        "matrix_elements.intervals_per_job": per(mat_intervals),
        "matrix_elements.cocycle_calls_per_job": per(calls["matrix_elements.cocycle_matrix_element"]),
        "matrix_elements.tau_ms_per_interval": (1e3 * incl["matrix_elements.tau_generator"] / mat_intervals
                                                if mat_intervals else 0.0),
        "matrix_elements.semigroup_ms_per_interval": 1e3 * mat_semigroup / mat_intervals if mat_intervals else 0.0,
        "matrix_elements.verify_ms_per_job": ms(incl["matrix_elements.verify_cocycle_identity"]),
        "toy_fock.channel_slots_per_job": per(slots),
        "toy_fock.channel_ms_per_job": ms(channel_s),
        "toy_fock.channel_us_per_slot": 1e6 * channel_s / slots if slots else 0.0,
        "toy_fock.multiplier_ms_per_job": ms(incl["toy_fock.multiplier_cocycle_residual"]),
        "toy_fock.multiplier_slots_per_job": per(mult_slots),
        "toy_fock.multiplier_head_dim_max": float(head),
        "toy_fock.dense_ms_per_job": ms(outermost(DENSE)),
        "toy_fock.dense_D_max": float(dense_D),
        "toy_fock.dense_gflop_computed_per_job": per(gflop),
        "toy_fock.embed_ms_per_job": ms(outermost(EMBED)),
    }
    layer_self = defaultdict(float)
    for name, t in selfs.items():
        layer_self[name.split(".")[0]] += t
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_job"] = ms(layer_self[layer])
    out["trace.job_ms_per_job"] = ms(job_seconds)
    out["trace.self_share"] = sum(selft) / job_seconds if job_seconds else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith(("_ms_per_job", "_ms_per_interval")):
        return "ms"
    if metric.endswith("_us_per_slot"):
        return "us"
    if metric.endswith("_gflop_computed_per_job"):
        return "GFLOP"
    if metric.endswith("_share"):
        return "ratio"
    return "count"
