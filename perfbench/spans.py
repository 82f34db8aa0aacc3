"""Span recorder and profiler grouping for the traced run.

The recorder wraps public functions of the fgl_forge modules from outside:
a function is replaced in every fgl_forge module namespace that binds it
(equivariant_ring, lubin_tate and cli import names directly), and methods
are replaced on their class.  Spans stay in memory as
[name, parent, request, thread, start, end] lists until `write`.

Rational and polynomial arithmetic runs in operators, which have no function
boundary to span; their cost is visible only to the profiled pass
(`profile_shares`), whose shares are profiler-measured self time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("coefficients", "poly_core", "series_fgl", "equivariant_ring",
          "lubin_tate", "cli", "reports")

# layer -> wrapped names; "Class.method" is patched on the class
TARGETS = {
    "poly_core": (
        "GroebnerBasis.__init__", "GroebnerBasis.normal_form", "ideal_contains",
        "f2_membership_linear", "gamma_act", "orbit_sum", "ring_map",
        "quotient_to_rnm", "poly_to_json",
    ),
    "series_fgl": (
        "fgl_from_log", "formal_inverse", "formal_sum", "compose_iso",
        "conjugate_fgl", "v_from_log", "log_from_v", "t_from_strict_iso",
        "height_of_residue_fgl",
    ),
    "equivariant_ring": (
        "RnContext.__init__", "rn_log", "v_in_rn", "t_level", "chain_composite",
        "verify_log_relations", "verify_tk_recursion", "verify_tkvk",
        "verify_ideal_invariance", "verify_v_collapse", "verify_t_collapse",
        "chain_inversion_check",
    ),
    "lubin_tate": (
        "LTContext.__init__", "lt_specialize", "lt_gamma", "lt_zeta", "lt_galois",
        "v_in_lt", "t_level_in_lt", "residue_fgl", "cotangent_check",
        "residue_height", "d_factors", "fixed_subring_presentation",
    ),
    "cli": ("main",),
    "reports": ("envelope", "canonical_json", "render_line"),
}

NAME, PARENT, REQUEST, THREAD, START, END = range(6)


class Recorder:
    """Collects spans; `install` patches the targets, `uninstall` restores them."""

    def __init__(self):
        self.spans = []
        self.request = 0  # id stamped on new spans; the caller advances it
        self._local = threading.local()
        self._patches = []

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = [name, parent, self.request, threading.get_ident(), clock(), None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def install(self, package="fgl_forge"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"{package}.{layer}"]
            for qualname in names:
                label = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, self._wrap(label, cls.__dict__[attr]))
                    continue
                original = getattr(home, qualname)
                wrapped = self._wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _children(spans):
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)
    return children


def _duration(span):
    return span[END] - span[START]


def self_times(spans):
    """Per span: its duration minus its child spans' (children never overlap:
    a span's children ran one after another on its thread)."""
    children = _children(spans)
    return [_duration(span) - sum(_duration(spans[c]) for c in children[i])
            for i, span in enumerate(spans)]


def inclusive(spans, names):
    """Wall time inside any span named in `names`, counting nested ones once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            total += _duration(span)
    return total


def _has_descendant(spans, children, i, name):
    todo = list(children[i])
    while todo:
        j = todo.pop()
        if spans[j][NAME] == name:
            return True
        todo.extend(children[j])
    return False


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _reuse(fresh, attempts):
    """Share of attempts that needed no fresh build; 0 when nothing was attempted."""
    return 1.0 - fresh / attempts if attempts else 0.0


def span_metrics(spans):
    """Per-layer metrics from a finished span list (ratios are 0 on a 0 base)."""
    own = self_times(spans)
    self_s = defaultdict(float)
    count = defaultdict(int)
    for span, t in zip(spans, own):
        self_s[span[NAME].split(".", 1)[0]] += t
        count[span[NAME]] += 1
    children = _children(spans)
    residue = [i for i, s in enumerate(spans) if s[NAME] == "lubin_tate.residue_fgl"]
    fresh = sum(_has_descendant(spans, children, i, "series_fgl.fgl_from_log")
                for i in residue)
    builds = count["poly_core.GroebnerBasis.__init__"]
    nf_calls = count["poly_core.GroebnerBasis.normal_form"]
    return {
        "poly_core.self_s": self_s["poly_core"],
        "poly_core.gb_builds": builds,
        "poly_core.nf_calls": nf_calls,
        "poly_core.gb_reuse_ratio": _reuse(builds, nf_calls),
        "equivariant_ring.self_s": self_s["equivariant_ring"],
        "equivariant_ring.contexts_built": count["equivariant_ring.RnContext.__init__"],
        "equivariant_ring.recursion_s": inclusive(spans, (
            "equivariant_ring.rn_log", "equivariant_ring.v_in_rn",
            "equivariant_ring.t_level")),
        "series_fgl.self_s": self_s["series_fgl"],
        "series_fgl.law_s": inclusive(spans, ("series_fgl.fgl_from_log",)),
        "series_fgl.inverse_s": inclusive(spans, ("series_fgl.formal_inverse",)),
        "series_fgl.compose_s": inclusive(spans, (
            "series_fgl.formal_sum", "series_fgl.compose_iso")),
        "series_fgl.law_builds": count["series_fgl.fgl_from_log"],
        "lubin_tate.self_s": self_s["lubin_tate"],
        "lubin_tate.specialize_calls": count["lubin_tate.lt_specialize"],
        "lubin_tate.gamma_calls": count["lubin_tate.lt_gamma"],
        "lubin_tate.residue_calls": len(residue),
        "lubin_tate.law_reuse_ratio": _reuse(fresh, len(residue)),
        "cli.self_s": self_s["cli"],
        "reports.self_s": self_s["reports"],
        "trace.spans": len(spans),
    }


# ---------------------------------------------------------------------------
# profiled pass
# ---------------------------------------------------------------------------

def _file_layer(filename):
    """(layer, rational) of a source file, or (None, False) when unattributed."""
    name = filename.replace("\\", "/")
    if name.endswith("/fractions.py"):
        return "coefficients", True
    if "/fgl_forge/" in name:
        module = name.rsplit("/", 1)[-1][:-3]
        if module in LAYERS:
            return module, False
    return None, False


def profile_shares(stats):
    """Profiler self time by layer as shares of all profiled self time.

    Fractions and gmpy2 time goes to coefficients and to rational_share.  A
    built-in's time goes to the layer of the code that called it.
    """
    layer_t = defaultdict(float)
    rational = 0.0
    total = 0.0
    for (filename, _, func), (_, _, tt, _, callers) in stats.items():
        total += tt
        if filename == "~":
            if "gmpy2" in func:
                layer_t["coefficients"] += tt
                rational += tt
                continue
            for (cfile, _, _), caller_stats in callers.items():
                layer, is_rational = _file_layer(cfile)
                if layer is not None:
                    layer_t[layer] += caller_stats[2]
                    rational += caller_stats[2] if is_rational else 0.0
            continue
        layer, is_rational = _file_layer(filename)
        if layer is not None:
            layer_t[layer] += tt
            rational += tt if is_rational else 0.0
    shares = {f"{layer}.profile_share": _ratio(layer_t[layer], total) for layer in LAYERS}
    shares["coefficients.rational_share"] = _ratio(rational, total)
    return shares
