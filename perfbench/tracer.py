"""Span tracing of imcrystal from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
imcrystal namespace that binds it: its defining module, each module that
imported it with `from ... import`, and every class attribute that aliases
it (such as `Coeff.__rmul__ = __mul__`).  Recursive calls go through the
module global, so they land in their own child span.

Each call records one span (name, start, end, parent span, operation id)
in flat arrays; `write()` dumps them and `summary()` folds them into
per-layer counts and times.  Self time is a span's duration minus the time
its direct child spans cover.  Inclusive time counts only the outermost
span of a name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

# module -> traced attributes, as "function" or "Class.method"
TRACED = {
    "qcoeff": ("Coeff.__mul__", "QRat.__mul__", "Coeff.__add__", "QRat.__add__",
               "QRat.__truediv__"),
    "qalgebra": ("normalize_word", "Element.__add__", "Element.__mul__", "parse_element",
                 "format_element"),
    "kashiwara": ("omega_mono", "omega_apply", "check_kashiwara_relation", "omega_psi_closed"),
    "pairing": ("pair", "gram", "lattice_membership_probe"),
    "verma": ("act_h", "act_xplus", "current_commutator", "act_xminus", "tilde_omega",
              "nilpotency_probe", "simplicity_probe", "verify_intertwining"),
    "crystal": ("verify_crystal_axioms", "split_converse_check", "reduce_mod_q"),
    "cli": ("suite_confluence", "suite_relations", "suite_form", "suite_module",
            "suite_crystal", "main"),
}

# metric prefix -> (module, memo dict); only their len() is read
CACHES = {
    "qalgebra": ("qalgebra", "_CACHE"),
    "kashiwara": ("kashiwara", "_OMEGA_CACHE"),
    "pairing": ("pairing", "_PAIR_CACHE"),
    "verma.diff": ("verma", "_DIFF_CACHE"),
    "verma.xplus": ("verma", "_XPLUS_CACHE"),
}

SPAN_FIELDS = ("name_ids", "parents", "ops", "starts", "ends")


def metric_prefix(module: str, attr: str) -> str:
    """('qcoeff', 'Coeff.__mul__') -> 'qcoeff.Coeff.mul'."""
    return f"{module}." + ".".join(part.strip("_") for part in attr.split("."))


def cache_entries() -> dict[str, int]:
    """len() of each imcrystal memo dict, keyed '<prefix>.cache_entries'."""
    return {f"{prefix}.cache_entries": len(getattr(sys.modules[f"imcrystal.{module}"], attr))
            for prefix, (module, attr) in CACHES.items()}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")  # ~id marks a span nested inside one of its own name
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.op = [0]  # id of the operation in progress, set per operation by child.py
        self.probe_xplus = [0, 0]  # act_xplus calls under simplicity_probe, and nonzero ones
        self._stack = [-1]
        self._depth: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, probe_id: int | None):
        name_ids, parents, ops, starts, ends = (getattr(self, f) for f in SPAN_FIELDS)
        stack, depth, op, probe_xplus = self._stack, self._depth, self.op, self.probe_xplus

        def traced(*args, **kwargs):
            i = len(starts)
            d = depth[name_id]
            depth[name_id] = d + 1
            name_ids.append(name_id if d == 0 else ~name_id)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
                depth[name_id] = d
            if probe_id is not None and depth[probe_id]:
                probe_xplus[0] += 1
                probe_xplus[1] += not out.is_zero
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED callable wherever an imcrystal namespace binds it."""
        import imcrystal.cli  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "imcrystal" or n.startswith("imcrystal.")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("imcrystal")}
        owners = modules + list(classes.values())
        targets = []
        for module, attrs in TRACED.items():
            mod = sys.modules[f"imcrystal.{module}"]
            for attr in attrs:
                cls, _, name = attr.rpartition(".")
                fn = vars(getattr(mod, cls) if cls else mod)[name]
                targets.append((metric_prefix(module, attr), fn))
        self.names = [name for name, _ in targets]
        self._depth.extend([0] * len(targets))
        probe_id = self.names.index("verma.simplicity_probe")
        for name_id, (name, fn) in enumerate(targets):
            wrapped = self._wrap(fn, name_id, probe_id if name == "verma.act_xplus" else None)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)
                        self._bindings.append((owner, key, fn))

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, key, fn in reversed(self._bindings):
            setattr(owner, key, fn)
        self._bindings.clear()

    def write(self, path: str) -> None:
        """Dump the spans: one JSON header line, then the raw arrays in SPAN_FIELDS order."""
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.starts),
                      "fields": [[n, getattr(self, n).typecode] for n in SPAN_FIELDS],
                      "clock": "perf_counter_ns"}
            f.write(json.dumps(header).encode() + b"\n")
            for field in SPAN_FIELDS:
                getattr(self, field).tofile(f)

    def summary(self) -> dict[str, float]:
        """Per-name calls, self_s and incl_s, plus the simplicity-probe counts."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_ns = [0] * n_names
        incl_ns = [0] * n_names
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        covered = array("q", bytes(8 * len(starts)))
        for i in range(len(starts) - 1, -1, -1):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                covered[p] += dur
            nid = name_ids[i]
            if nid >= 0:
                incl_ns[nid] += dur
            else:
                nid = ~nid
            calls[nid] += 1
            self_ns[nid] += dur - covered[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_ns[nid] / 1e9
            out[f"{name}.incl_s"] = incl_ns[nid] / 1e9
        out["verma.simplicity_probe.xplus_calls"] = self.probe_xplus[0]
        out["verma.simplicity_probe.xplus_nonzero"] = self.probe_xplus[1]
        return out
