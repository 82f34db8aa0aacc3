"""Canonical serialization of verification reports.

Every verifier in this package returns a plain dict

    {"claim": id, "params": {...}, "status": "verified" | "failed",
     "witness": ..., "bounds": {...}}

whether its claim holds or not (a false claim is a failed report with a
witness, never an exception), and this module wraps lists of them in a
self-describing, deterministic envelope: fixed schema tag, the global
convention flags that pin the sign/normalization choices the underlying
formulas depend on, and a stable serialization (sorted keys, fixed
separators, no timestamps), so that identical configurations produce
byte-identical JSON.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

SCHEMA = "fgl-forge/1"

# Choices that change the literal formulas being verified; recorded in every
# envelope so a report is interpretable without the producing code.
CONVENTIONS = {
    # the composite of the twisted strict isomorphisms is compared against
    # -[-1]_F(x) (leading coefficient +1), not the raw formal inverse
    "chain-composite": "minus-formal-inverse",
    # t_k^{C_2} is normalized as 2 l_k - sum_{j>=1} gamma(l_j) (t_{k-j})^{2^j}
    "tC2-normalization": "two-l-minus-lower",
}


def _report(claim, params, ok, witness=None, bounds=None):
    """One verifier report in the shape above; bounds default to {}."""
    return {
        "claim": claim,
        "params": params,
        "status": "verified" if ok else "failed",
        "witness": witness,
        "bounds": bounds or {},
    }


def envelope(reports, config=None, interrupted=False):
    """Wrap verifier reports (order preserved as given) for serialization."""
    body = {
        "schema": SCHEMA,
        "conventions": dict(CONVENTIONS),
        "reports": list(reports),
        "ok": all(r.get("status") == "verified" for r in reports) and not interrupted,
    }
    if config is not None:
        body["config"] = config
    if interrupted:
        body["interrupted"] = True
    return body


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, fixed separators, trailing newline.

    The bytes are those of json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\n", written without json's pure-Python indent
    encoder.  Only str, int, bool, None, dicts with str keys, lists and tuples
    are written; anything else (a float, or a value of a subclass of these
    types) raises TypeError.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, indent, out):
    """Append the JSON text of obj to out; indent is the newline of its line.

    Types are tested exactly, dict keys too, so a subclass (an IntEnum
    member, an OrderedDict, a str subclass as a key) raises TypeError, as a
    float does.
    """
    cls = type(obj)
    if cls is str:
        out.append(encode_basestring_ascii(obj))
    elif cls is dict:
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(obj):  # keys of mixed types raise TypeError here
            if type(key) is not str:
                raise TypeError(f"canonical_json: dict key {key!r} is not a str")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif cls is list or cls is tuple:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(item) is int for item in obj):  # no bool: int.__repr__(True) is "True"
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif cls is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        raise TypeError(f"canonical_json: cannot write a {type(obj).__name__}")


def render_line(report) -> str:
    """One human-readable line per report: status, claim, key parameters."""
    params = report.get("params", {})
    shown = ", ".join(
        f"{k}={params[k]}"
        for k in sorted(params)
        if isinstance(params[k], (int, str, bool))
    )
    mark = "ok " if report.get("status") == "verified" else "FAIL"
    return f"[{mark}] {report.get('claim')}: {shown}"
