"""Outside-in layer tracer for fourfold.

The tracer wraps public functions and methods of the fourfold modules and
records one span per call: span name, start, end, parent span and query
id.  Every `from fourfold.x import f` alias held by a loaded fourfold
module is rebound too, so calls through a module's own binding of, say,
`smith_normal_form` are seen.  A target that no longer exists is listed
in `missing` and skipped; so is a hook that can no longer read what a
target returns (listed as `hook:<span name>`).  Tracing never changes a
result.

Spans stay in memory until `write` is called after the timed loop.  A
span's self time is its duration minus the time covered by its children.
The tracer's own hooks are spans too, so neither self times nor a layer's
total time count the time spent in them.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (span name, module, function or Class.method)
TARGETS = (
    ("intmat.snf", "fourfold.intmat", "smith_normal_form"),
    ("intmat.solve", "fourfold.intmat", "solve_integer"),
    ("intmat.solve", "fourfold.intmat", "solve_with_kernel"),
    ("intmat.solve", "fourfold.intmat", "subgroup_membership"),
    ("intmat.lattice", "fourfold.intmat", "kernel_basis"),
    ("intmat.lattice", "fourfold.intmat", "cokernel_invariants"),
    ("intmat.lattice", "fourfold.intmat", "column_span_basis"),
    ("intmat.lattice", "fourfold.intmat", "preimage_kernel"),
    ("intmat.lattice", "fourfold.intmat", "quotient_invariants"),
    ("intmat.lattice", "fourfold.intmat", "induced_map_invariants"),
    ("intmat.lattice", "fourfold.intmat", "homology_invariants"),
    ("groupring.groups", "fourfold.groupring", "cyclic_group"),
    ("groupring.groups", "fourfold.groupring", "product_group"),
    ("groupring.groups", "fourfold.groupring", "laurent_extension"),
    ("groupring.groups", "fourfold.groupring", "trivial_group"),
    ("groupring.expand", "fourfold.groupring", "RingMatrix.expand"),
    ("homology.resolution", "fourfold.homology", "resolution_for"),
    ("homology.group_homology", "fourfold.homology", "group_homology"),
    ("homology.module_homology", "fourfold.homology", "module_homology"),
    ("complexes.validate", "fourfold.complexes", "validate"),
    ("complexes.homology", "fourfold.complexes", "homology_Zw"),
    ("complexes.homology", "fourfold.complexes", "homology_Lambda"),
    ("extensions.pi2", "fourfold.extensions", "pi2_extension"),
    ("extensions.pi2", "fourfold.extensions", "pi2_sequence_check"),
    ("extensions.pi2", "fourfold.extensions", "ExtContext.ext_invariants"),
    ("extensions.pi2", "fourfold.extensions", "ExtClass.is_trivial"),
    ("extensions.ext1", "fourfold.extensions", "ext1"),
    ("extensions.em", "fourfold.extensions", "em_torsion"),
    ("extensions.em", "fourfold.extensions", "recover_m"),
    ("classify", "fourfold.classify", "classify_lens_family"),
    ("classify", "fourfold.classify", "lens_times_circle_record"),
    ("classify", "fourfold.classify", "bordism_group"),
    ("classify", "fourfold.classify", "classify_aspherical"),
    ("classify", "fourfold.classify", "aspherical_equivalent"),
    ("classify", "fourfold.classify", "hopf_check"),
    ("classify.kreck", "fourfold.classify", "kreck_equivalent"),
    ("manifolds.criteria", "fourfold.manifolds", "lens_homotopy_equivalent"),
    ("manifolds.criteria", "fourfold.manifolds", "linking_form"),
    ("manifolds.criteria", "fourfold.manifolds", "linking_isometric"),
    ("manifolds.criteria", "fourfold.manifolds", "fundamental_class_invariant"),
    ("serialize.parse", "fourfold.serialize", "parse_complex"),
    ("serialize.parse", "fourfold.serialize", "parse_int_matrix"),
    ("serialize.parse", "fourfold.serialize", "parse_group_spec"),
    ("serialize.parse", "fourfold.serialize", "parse_char_spec"),
    ("serialize.parse", "fourfold.serialize", "parse_record_document"),
    ("cli", "fourfold.cli", "main"),
)

HOOK = "trace.hook"

# Per-layer metric name -> unit.
LAYER_METRICS = {
    "intmat.snf.calls": "count",
    "intmat.snf.s": "s",
    "intmat.snf.repeat_frac": "ratio",
    "intmat.snf.cells": "count",
    "intmat.snf.max_cells": "count",
    "intmat.snf.density": "ratio",
    "intmat.snf.max_entry_bits": "bits",
    "intmat.solve.calls": "count",
    "intmat.solve.self_s": "s",
    "intmat.lattice.self_s": "s",
    "groupring.groups.calls": "count",
    "groupring.groups.s": "s",
    "groupring.expand.calls": "count",
    "groupring.expand.s": "s",
    "groupring.expand.cells": "count",
    "homology.resolution.calls": "count",
    "homology.resolution.builds": "count",
    "homology.resolution.self_s": "s",
    "homology.group_homology.calls": "count",
    "homology.group_homology.self_s": "s",
    "homology.module_homology.s": "s",
    "complexes.validate.s": "s",
    "complexes.homology.s": "s",
    "extensions.pi2.s": "s",
    "extensions.ext1.s": "s",
    "extensions.em.s": "s",
    "classify.self_s": "s",
    "classify.kreck.s": "s",
    "manifolds.criteria.s": "s",
    "serialize.parse.s": "s",
    "cli.self_s": "s",
    "trace.covered_frac": "ratio",
    "trace.missing": "count",
}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index, query id, outermost of its name]
        self.query = None
        self.missing = []
        self._stack = []
        self._depth = defaultdict(int)
        self._snf_seen = set()
        self._resolutions = {}
        self.counts = Counter()
        self.max_cells = 0
        self.max_entry_bits = 0

    def install(self):
        hooks = {
            "intmat.snf": self._on_snf,
            "homology.resolution": self._on_resolution,
            "groupring.expand": self._on_expand,
        }
        for name, modname, path in self.targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append("%s:%s" % (modname, path))
                continue
            owner, _, attr = path.rpartition(".")
            owner = getattr(module, owner, None) if owner else module
            original = vars(owner).get(attr) if owner is not None else None
            if not inspect.isfunction(original):
                self.missing.append("%s:%s" % (modname, path))
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            if owner is module:
                _rebind(original, wrapper)
            else:
                setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, depth[name] == 0]
            depth[name] += 1
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] -= 1
            if hook is not None:
                start = clock()
                try:
                    hook(args, kwargs, result)
                except Exception:  # a changed signature must not fail the query
                    if "hook:" + name not in self.missing:
                        self.missing.append("hook:" + name)
                spans.append([HOOK, start, clock(), stack[-1] if stack else -1, self.query, True])
            return result

        return traced

    def _on_snf(self, args, kwargs, result):
        a = args[0] if args else kwargs["A"]
        cells = a.rows * a.cols
        key = hashlib.blake2b(repr((a.rows, a.cols, a.data)).encode(), digest_size=16).digest()
        if key in self._snf_seen:
            self.counts["snf_repeats"] += 1
        self._snf_seen.add(key)
        self.counts["snf_cells"] += cells
        self.counts["snf_nonzero"] += sum(1 for row in a.data for x in row if x)
        self.max_cells = max(self.max_cells, cells)
        for m in (result.U, result.V):
            for row in m.data:
                for x in row:
                    if x:
                        self.max_entry_bits = max(self.max_entry_bits, abs(x).bit_length())

    def _on_resolution(self, args, kwargs, result):
        # Holding each result keeps its id from being reused by a new object.
        self._resolutions.setdefault(id(result), result)

    def _on_expand(self, args, kwargs, result):
        self.counts["expand_cells"] += result.rows * result.cols

    def metrics(self, wall_s):
        """Per-layer metrics of everything recorded so far."""
        child = [0.0] * len(self.spans)
        hooked = [0.0] * len(self.spans)  # hook time nested anywhere below a span
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
            if s[0] == HOOK:
                parent = s[3]
                while parent >= 0:
                    hooked[parent] += s[2] - s[1]
                    parent = self.spans[parent][3]
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _parent, _query, outermost) in enumerate(self.spans):
            calls[name] += 1
            if outermost:
                total[name] += end - start - hooked[i]
            own[name] += end - start - child[i]
        snf_calls = calls["intmat.snf"]
        cells = self.counts["snf_cells"]
        covered = sum(v for k, v in own.items() if k != HOOK)
        return {
            "intmat.snf.calls": snf_calls,
            "intmat.snf.s": total["intmat.snf"],
            "intmat.snf.repeat_frac": self.counts["snf_repeats"] / snf_calls if snf_calls else 0.0,
            "intmat.snf.cells": cells,
            "intmat.snf.max_cells": self.max_cells,
            "intmat.snf.density": self.counts["snf_nonzero"] / cells if cells else 0.0,
            "intmat.snf.max_entry_bits": self.max_entry_bits,
            "intmat.solve.calls": calls["intmat.solve"],
            "intmat.solve.self_s": own["intmat.solve"],
            "intmat.lattice.self_s": own["intmat.lattice"],
            "groupring.groups.calls": calls["groupring.groups"],
            "groupring.groups.s": total["groupring.groups"],
            "groupring.expand.calls": calls["groupring.expand"],
            "groupring.expand.s": total["groupring.expand"],
            "groupring.expand.cells": self.counts["expand_cells"],
            "homology.resolution.calls": calls["homology.resolution"],
            "homology.resolution.builds": len(self._resolutions),
            "homology.resolution.self_s": own["homology.resolution"],
            "homology.group_homology.calls": calls["homology.group_homology"],
            "homology.group_homology.self_s": own["homology.group_homology"],
            "homology.module_homology.s": total["homology.module_homology"],
            "complexes.validate.s": total["complexes.validate"],
            "complexes.homology.s": total["complexes.homology"],
            "extensions.pi2.s": total["extensions.pi2"],
            "extensions.ext1.s": total["extensions.ext1"],
            "extensions.em.s": total["extensions.em"],
            "classify.self_s": own["classify"] + own["classify.kreck"],
            "classify.kreck.s": total["classify.kreck"],
            "manifolds.criteria.s": total["manifolds.criteria"],
            "serialize.parse.s": total["serialize.parse"],
            "cli.self_s": own["cli"],
            "trace.covered_frac": covered / wall_s if wall_s > 0 else 0.0,
            "trace.missing": len(self.missing),
        }

    def write(self, path, wall_s):
        """Write every span as [name, start, end, parent, query] rows."""
        doc = {
            "wall_s": wall_s,
            "missing": self.missing,
            "fields": ["name", "start", "end", "parent", "query"],
            "spans": [s[:5] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(original, wrapper):
    """Point every fourfold module attribute bound to `original` at `wrapper`."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "fourfold" or modname.startswith("fourfold.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
