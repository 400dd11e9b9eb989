"""Outside-in tracer: spans around every public function of each layer.

``Tracer.install`` wraps every public module-level function defined in
the layer modules, plus ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd``.
It rebinds *every* name bound to such a function in every loaded
``ergonoise`` module (``from .qstate import total_spin_squared`` makes a
second binding in ``workx`` that patching ``qstate`` alone would miss),
and ``restore`` puts every original binding back.

A span is ``(name, start, end, parent, op_id, note)``: ``parent`` is
the index of the enclosing span or -1, ``op_id`` is whatever the caller
set on the tracer, and ``note`` is the matrix dimension for LAPACK
calls and the collective flag for ``workx.decompose``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy.linalg

LAYERS = ("cli", "experiments", "io", "correlations", "workx", "channels", "qstate", "matcore")
LINALG = ("eigh", "eigvalsh", "svd")


def _dimension(args, kwargs):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", (0,))
    return int(shape[-1]) if shape else 0


def _collective(args, kwargs):
    h = args[1] if len(args) > 1 else kwargs.get("h")
    explicit = args[3] if len(args) > 3 else kwargs.get("collective", False)
    return bool(explicit or getattr(h, "collective", False))


NOTES = {
    "linalg.eigh": _dimension,
    "linalg.eigvalsh": _dimension,
    "linalg.svd": _dimension,
    "workx.decompose": _collective,
}


class Tracer:
    """Collects spans while installed; one instance per traced op."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._bindings = []

    def _wrap(self, name, fn):
        spans, stack, note_fn = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            note = note_fn(args, kwargs) if note_fn else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, note)

        return wrapper

    def install(self):
        """Wrap the layer functions and the LAPACK entry points."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"ergonoise.{layer}"]
            for name, obj in vars(module).items():
                if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for name in LINALG:
            obj = getattr(numpy.linalg, name)
            targets[id(obj)] = (obj, self._wrap(f"linalg.{name}", obj))
        modules = [m for key, m in sys.modules.items() if key == "ergonoise" or key.startswith("ergonoise.")]
        modules.append(numpy.linalg)
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((module, name, obj))
                    setattr(module, name, hit[1])
        return self

    def restore(self):
        """Put back every binding ``install`` replaced."""
        for module, name, obj in reversed(self._bindings):
            setattr(module, name, obj)
        self._bindings = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _nearest(spans, idx, name):
    """Index of the closest ancestor span called ``name``, or -1."""
    parent = spans[idx][3]
    while parent >= 0 and spans[parent][0] != name:
        parent = spans[parent][3]
    return parent


def _ratio(num, den):
    return num / den if den else 0.0


def op_profile(spans, wall_s, points, tag_points, bytes_written) -> dict:
    """Per-layer figures of one traced op.

    ``wall_s`` is the op's own wall time, so shares are host-speed free.
    ``tag_points`` maps each call tag of the op to its point count.
    """
    calls, incl, self_s = Counter(), Counter(), Counter()
    tag_calls = Counter()
    selfs = self_times(spans)
    n3 = 0
    eigvalsh_in_decompose = 0
    collective_decomposes = 0
    tss_in_collective = 0
    for idx, span in enumerate(spans):
        name, start, end, parent, op_id, note = span
        calls[name] += 1
        self_s[name] += selfs[idx]
        if _nearest(spans, idx, name) < 0:
            incl[name] += end - start
        tag = op_id[1] if isinstance(op_id, tuple) else op_id
        tag_calls[(tag, name)] += 1
        if name in ("linalg.eigh", "linalg.eigvalsh"):
            n3 += note**3
        if name == "linalg.eigvalsh" and _nearest(spans, idx, "workx.decompose") >= 0:
            eigvalsh_in_decompose += 1
        if name == "workx.decompose" and note:
            collective_decomposes += 1
        if name == "qstate.total_spin_squared":
            owner = _nearest(spans, idx, "workx.decompose")
            if owner >= 0 and spans[owner][5]:
                tss_in_collective += 1

    def share(name):
        return incl[name] / wall_s

    def tag_ratio(prefix, name):
        tags = [t for t in tag_points if t.startswith(prefix)]
        return _ratio(sum(tag_calls[(t, name)] for t in tags), sum(tag_points[t] for t in tags))

    eig_calls = calls["linalg.eigh"] + calls["linalg.eigvalsh"]
    out = {
        "linalg.eig.calls_per_op": eig_calls,
        "linalg.eig.per_point": eig_calls / points,
        "linalg.eig.share": share("linalg.eigh") + share("linalg.eigvalsh"),
        "linalg.eig.n3_per_op": n3,
        "linalg.svd.calls_per_op": calls["linalg.svd"],
        "workx.decompose.eigvalsh_per_call": _ratio(eigvalsh_in_decompose, calls["workx.decompose"]),
        "qstate.total_spin_squared.per_collective_decompose": _ratio(tss_in_collective, collective_decomposes),
        "bds.decompose.per_q": tag_ratio("bds_", "workx.decompose"),
        "bds.apply_local.per_q": tag_ratio("bds_", "channels.apply_local"),
        "appendix_d.apply_local.per_q": tag_ratio("appendix_d", "channels.apply_local"),
        "experiments.self_share": sum(v for k, v in self_s.items() if k.startswith("experiments.")) / wall_s,
        "io.bytes_per_op": bytes_written,
        "cli.main.self_share": self_s["cli.main"] / wall_s,
    }
    for name in ("matcore.herm_eig", "matcore.kron", "qstate.total_spin_squared",
                 "channels.apply_local", "channels.kraus_set", "channels.lindblad_evolve",
                 "workx.decompose", "workx.passive_energy", "workx.closed_form_single",
                 "correlations.correlation_work_check", "io.write_csv"):
        out[f"{name}.calls_per_op"] = calls[name]
    for name in ("matcore.herm_eig", "matcore.kron", "qstate.symmetrized_multipartite",
                 "qstate.total_spin_squared", "qstate.random_separable", "channels.apply_local",
                 "channels.lindblad_evolve", "workx.decompose", "workx.passive_energy",
                 "workx.concurrence", "correlations.correlation_work_check", "io.write_csv"):
        out[f"{name}.share"] = share(name)
    for name in ("channels.apply_local", "workx.decompose"):
        out[f"{name}.per_point"] = calls[name] / points
    out["workx.decompose.self_share"] = self_s["workx.decompose"] / wall_s
    out["layers"] = {
        name: {"calls": calls[name], "incl_s": incl[name], "self_s": self_s[name]}
        for name in sorted(calls)
    }
    return out
