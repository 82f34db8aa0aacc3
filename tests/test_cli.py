import argparse
import collections
import enum
import hashlib
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fresh
from fgl_forge import cli, equivariant_ring, lubin_tate, poly_core, series_fgl
from fgl_forge.coefficients import teichmuller
from fgl_forge.poly_core import AtomicCache
from fgl_forge.reports import CONVENTIONS, SCHEMA, canonical_json, envelope, render_line
from fgl_forge.series_fgl import TruncatedSeries1, v_from_log


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _body(out):
    body = json.loads(out)
    assert body["schema"] == SCHEMA
    assert body["conventions"] == CONVENTIONS
    return body


# ---- log ------------------------------------------------------------------------

def test_log_command(capsys):
    code, out = _run(["log", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    body = _body(out)
    report = body["reports"][0]
    assert report["claim"] == "log" and report["status"] == "verified"
    terms = report["params"]["values"][0]["terms"]
    assert {t["monomial"].popitem()[0]: t["coeff"] for t in terms} == {
        "t1": "1/2",
        "g1t1": "1/2",
    }


# sha256 of the `log --n 2 --k 3` envelope
_LOG_N2_K3_SHA256 = "61c6ad30e466de6e30f9ec7da1049bf26610022f21ce7fb2ac97cfdb4fc66f31"
# sha256 of the 116,810-byte `log --n 3 --k 4` envelope: many monomials in
# three variable blocks, written in the sorted_terms order
_LOG_N3_K4_SHA256 = "b30683fa39408e00ea2b9c968a78573bf32f71685b1165180dcd2d3e2a59d0d8"


def test_log_stdout_is_pinned(capsys):
    """The log envelope, byte for byte: its report is built by reports._report."""
    for n, k, digest in (("2", "3", _LOG_N2_K3_SHA256), ("3", "4", _LOG_N3_K4_SHA256)):
        code, out = _run(["log", "--n", n, "--k", k], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (n, k)


def test_log_json_writes_the_envelope_and_one_summary_line(tmp_path, capsys):
    """log --json writes as verify and suite do: the file, then one line per report."""
    path = tmp_path / "log.json"
    code, out = _run(["log", "--n", "2", "--k", "3", "--json", str(path)], capsys)
    assert code == 0
    assert out == "[ok ] log: k_max=3, n=2\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _LOG_N2_K3_SHA256


def test_log_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["log", "--n", "0"])
    assert err.value.code == 2


# ---- verify ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eq351", "--n", "2", "--k", "3"],
        ["verify", "recursion", "--n", "2", "--k", "2"],
        ["verify", "tkvk", "--n", "2", "--k", "2"],
        ["verify", "invariance", "--n", "2", "--k", "2"],
        ["verify", "v-collapse", "--n", "2", "--m", "1", "--k", "3"],
        ["verify", "t-collapse", "--n", "2", "--m", "1", "--k", "3"],
        ["verify", "chain-inversion", "--n", "2", "--k", "2"],
        ["verify", "cotangent", "--n", "2", "--m", "1"],
        ["verify", "height", "--n", "2", "--m", "1"],
        ["verify", "unit-factors", "--n", "2", "--m", "1"],
        ["verify", "fixed-subring", "--n", "2", "--m", "1"],
        # d = 4 is the documented limit of --d
        ["verify", "cotangent", "--n", "2", "--m", "1", "--d", "4"],
        ["verify", "height", "--n", "2", "--m", "1", "--d", "4"],
        ["verify", "unit-factors", "--n", "2", "--m", "1", "--d", "4"],
        ["verify", "fixed-subring", "--n", "2", "--m", "1", "--d", "4"],
    ],
)
def test_verify_claims_pass(argv, capsys):
    code, out = _run(argv, capsys)
    assert code == 0
    body = _body(out)
    assert body["ok"] is True
    assert all(r["status"] == "verified" for r in body["reports"])
    assert body["config"]["claim"] == argv[1]


def test_verify_emits_every_covered_level(capsys):
    code, out = _run(["verify", "t-collapse", "--n", "2", "--m", "1", "--k", "3"], capsys)
    body = _body(out)
    assert code == 0
    assert [r["params"]["level"] for r in body["reports"]] == [2, 1]


def test_verify_failure_exits_one(capsys, monkeypatch):
    report = {"claim": "tkvk", "params": {"n": 2, "k": 2}, "status": "failed",
              "witness": None, "bounds": {}}

    monkeypatch.setattr(cli, "verify_tkvk", lambda ctx, k: report)
    code, out = _run(["verify", "tkvk", "--n", "2", "--k", "2"], capsys)
    assert code == 1
    body = _body(out)
    assert body["ok"] is False
    assert body["reports"] == [report]


def _fresh_context(monkeypatch, n, k_max, m=None):
    """The context `verify` will use for (n, k_max, m), on an empty context
    table, for a test to sabotage; monkeypatch restores the table."""
    monkeypatch.setattr(equivariant_ring, "_CONTEXTS", AtomicCache())
    return equivariant_ring.rn_context(n, k_max, m)


def _sabotage_eq351(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 3)
    ls = equivariant_ring.rn_log(ctx)
    ls[1] = ls[1] + ctx.generator(2, rational=True)  # l_2 + t_2: not gamma-balanced
    ctx._log = ls
    return ["eq351", "--n", "2", "--k", "3"], {"k": 2, "relation": 1}


def _sabotage_recursion(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 2)
    table = equivariant_ring.t_level(ctx, 1)
    ctx._t_level[1] = [table[0], table[1] + ctx.generator(2)]
    return ["recursion", "--n", "2", "--k", "2"], {"exact": False}


def _sabotage_tkvk(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 2)
    ctx._v = (equivariant_ring.v_in_rn(ctx, 1)[0], ctx.ring.zero())
    return ["tkvk", "--n", "2", "--k", "2"], {}


def _sabotage_invariance_generator(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 2)
    ctx._v = (ctx.generator(1), ctx.generator(2))  # t_1 - gamma t_1 is not in (2)
    return ["invariance", "--n", "2", "--k", "2"], {"failure": "generator"}


def _sabotage_v_collapse(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 3, m=1)
    # every element of degree |v_3| = 14 is in (2, v_1, v_2) at h = 2: a v_3 of
    # degree 2 stands in
    ctx._v = (*equivariant_ring.v_in_rn(ctx, 2), ctx.generator(1))
    return ["v-collapse", "--n", "2", "--m", "1", "--k", "3"], {}


def _sabotage_t_collapse(monkeypatch):
    # level 2 (the first report) holds; level 1 fails at its first conjugate
    ctx = _fresh_context(monkeypatch, 2, 3, m=1)
    table = equivariant_ring.t_level(ctx, 1)
    ctx._t_level[1] = [*table[:2], ctx.generator(1)]  # t_1 is not in I_3
    return ["t-collapse", "--n", "2", "--m", "1", "--k", "3"], {"level": 1, "conjugate": 0}


def _sabotage_chain_inversion(monkeypatch):
    ctx = _fresh_context(monkeypatch, 2, 2)
    X = 7  # the order-(2^{k+1} - 1) window
    psi = equivariant_ring._chain_series(ctx, ctx.half, X)
    bad = psi + TruncatedSeries1.monomial(psi.ring, ctx.generator(1, rational=True), 3, X)
    monkeypatch.setattr(equivariant_ring, "_chain_steps", lambda *args: [bad])  # one step
    return ["chain-inversion", "--n", "2", "--k", "2"], {"cutoff": X}


# sha256 of each sabotaged request's stdout, as the exact Z_(2) membership
# route wrote it: the F_2 route must give the same witnesses
_SABOTAGE_SHA256 = {
    _sabotage_eq351: "49b155c1b8dbd0588025884372c9113494cbbd0f20f2436105d9a4e23fd91f47",
    _sabotage_recursion: "a93b99d0cd99d22a66bf30b573f4253bce9a4bf74533648a7088f3c9ab6c0d9f",
    _sabotage_tkvk: "564587d60de3c08b1d5dfffb39cebfc415c456912b24edd8da488154095d6ff7",
    _sabotage_invariance_generator:
        "9b25dc2f2592e6cb0e4da8a3604ae2bec248b439e9898e34d09ad4526e1792e2",
    _sabotage_v_collapse: "a670fc9daa3de36992de3f9dbb269457ef4f8e55949713835f15e003e8fee8b1",
    _sabotage_t_collapse: "bdd29df9fd5fad8e325ac4a8f79427f4a3c7d58e216aaae345cf9d0954db0455",
    _sabotage_chain_inversion: "92cda44fbb27a490917f6a296e5632ff930adb2304ecefa377eefee025be353f",
}


def _sabotage_cotangent(monkeypatch):
    _cold_caches(monkeypatch)
    lubin_tate.orbit_table(2, 1)._v = ((2, 0),)  # a collapsed image of v_1: the rank drops
    return ["cotangent", "--n", "2", "--m", "1"], {"rank": 1}


def _sabotage_height(monkeypatch):
    def even(self, k):
        return tuple((2,) + (0,) * (self.h - 1) for _ in range(k))

    _cold_caches(monkeypatch)
    monkeypatch.setattr(lubin_tate.OrbitTable, "v_images", even)  # no odd v_k image
    return ["height", "--n", "2", "--m", "1", "--cutoff", "32"], {"computed_height": None}


def _sabotage_unit_factors(monkeypatch):
    # the first norm factor of (2, 1), t_2 at level 2, made a non-unit
    _cold_caches(monkeypatch)
    table = lubin_tate.orbit_table(2, 1)
    table._levels[2] = table.level(2, 1) + (2,)
    return ["unit-factors", "--n", "2", "--m", "1"], {"verdicts": [False, True]}


def _sabotage_fixed_subring(monkeypatch):
    # u^0 is fixed; a torus action that scales its term by T(zeta) moves it
    original = lubin_tate.lt_zeta

    def scaled(ctx, z, e):
        image = original(ctx, z, e)
        key = (ctx._zero_exps, 0)
        if key not in image.coords:
            return image
        term = ctx.monomial(*key, image.coords[key])
        return image - term + term.scale(teichmuller(z, ctx.precision))

    _cold_caches(monkeypatch)
    monkeypatch.setattr(lubin_tate, "lt_zeta", scaled)
    return ["fixed-subring", "--n", "2", "--m", "2", "--d", "2"], {"monomials_fixed": 2}


# sha256 of each sabotaged Lubin-Tate request's stdout, as the orbit-table
# and diagonal-map routes wrote it before any rework of OrbitTable
_LT_SABOTAGE_SHA256 = {
    _sabotage_cotangent: "b04c8ab6c53af4486dd0b45bf91cbaa35244fb617a6607869360b1efcb15563c",
    _sabotage_height: "04288346209577386b8fa443b3019899976f18b83c74819d440d5d29baad44c8",
    _sabotage_unit_factors: "a77a4b629aef56a475cc88bc37e6808c530f97fd44a1bf2fe67c50ba073cea84",
    _sabotage_fixed_subring: "aa3ef5ba475f5037cdac450f70c97dc042d500f43dae42dc88f5382133514651",
}


@pytest.mark.parametrize("sabotage", [*_SABOTAGE_SHA256, *_LT_SABOTAGE_SHA256])
def test_a_falsified_claim_exits_one_with_its_failed_report_alone(sabotage, capsys, monkeypatch):
    argv, params = sabotage(monkeypatch)
    code, out = _run(["verify", *argv], capsys)
    assert code == 1
    digest = {**_SABOTAGE_SHA256, **_LT_SABOTAGE_SHA256}[sabotage]
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    body = _body(out)
    assert body["ok"] is False and len(body["reports"]) == 1
    report = body["reports"][0]
    assert report["claim"] == argv[0]
    assert report["status"] == "failed" and report["witness"] is not None
    assert params.items() <= report["params"].items()


def test_suite_goes_on_after_a_failed_entry(capsys, monkeypatch):
    code, out = _run(["suite", "quick"], capsys)
    assert code == 0
    verified = _body(out)["reports"]
    failed = {"claim": "tkvk", "params": {"n": 2}, "status": "failed",
              "witness": "forced", "bounds": {}}
    monkeypatch.setattr(cli, "verify_tkvk", lambda ctx, k: failed)
    code, out = _run(["suite", "quick"], capsys)
    assert code == 1
    body = _body(out)
    assert body["ok"] is False and "interrupted" not in body
    expected = [failed if r["claim"] == "tkvk" else r for r in verified]
    assert body["reports"] == expected
    assert sum(r["status"] == "failed" for r in expected) == 2  # both tkvk entries


def test_a_second_fixed_subring_request_reads_the_stored_box(monkeypatch, capsys):
    """The same (3, 3, d=3) request twice in one interpreter: the first builds
    the box of its context, and the second reads it, applying both actions
    again; both exit 0 with byte-identical stdout."""
    monkeypatch.setattr(lubin_tate, "_LT_CONTEXTS", AtomicCache())
    argv = ["verify", "fixed-subring", "--n", "3", "--m", "3", "--d", "3"]
    code, first = _run(argv, capsys)
    assert code == 0 and _body(first)["ok"] is True
    ctx = lubin_tate.lt_context(3, 3, d=3)
    box = ctx._fixed_box
    assert box is not None
    code, second = _run(argv, capsys)
    assert code == 0 and second == first
    assert ctx._fixed_box is box


# ---- --modulus --------------------------------------------------------------------

def test_modulus_flag_names_the_field(capsys):
    # x^3 + x^2 + 1, the other irreducible cubic: alpha = 7 and the same counts
    argv = ["verify", "fixed-subring", "--n", "2", "--m", "3", "--d", "3"]
    code, out = _run(argv + ["--modulus", "1,0,1,1"], capsys)
    assert code == 0
    body = _body(out)
    assert body["config"]["modulus"] == [1, 0, 1, 1]
    p = body["reports"][0]["params"]
    assert (p["alpha"], p["monomials_checked"], p["monomials_fixed"]) == (7, 609, 87)
    code, out = _run(argv, capsys)
    assert code == 0 and _body(out)["reports"][0]["params"] == p


def test_modulus_flag_rejects_bad_bits_and_reducible_moduli(capsys):
    argv = ["verify", "fixed-subring", "--n", "2", "--m", "3", "--d", "3", "--modulus"]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["1,2,1"])  # not 0/1 bits: an argparse usage error
    assert err.value.code == 2
    assert capsys.readouterr().out == ""
    assert cli.main(argv + ["1,0,0,1"]) == 2  # x^3 + 1 = (x + 1)(x^2 + x + 1)
    captured = capsys.readouterr()
    assert captured.out == "" and "reducible" in captured.err


def test_a_reducible_sextic_exits_two_and_an_irreducible_one_verifies(capsys):
    # d = 6 has no default modulus; x^6+x^5+x^2+1 = (x+1)(x^2+x+1)(x^3+x^2+1)
    # is squarefree with every factor degree dividing 6, so x^64 = x mod f
    # while x^4 != x and x^8 != x: comparing those powers with x accepts it
    argv = ["verify", "fixed-subring", "--n", "1", "--m", "1", "--d", "6", "--force",
            "--modulus"]
    assert cli.main(argv + ["1,0,1,0,0,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: modulus [1, 0, 1, 0, 0, 1, 1] is reducible over F_2\n"
    code, out = _run(argv + ["1,1,0,0,0,0,1"], capsys)  # x^6 + x + 1
    assert code == 0
    body = _body(out)
    assert body["config"]["modulus"] == [1, 1, 0, 0, 0, 0, 1]
    assert [r["status"] for r in body["reports"]] == ["verified"]


def test_verify_config_error_exits_two(capsys):
    # r <= h violates the collapse precondition: config error, not failure
    code, _ = _run(["verify", "v-collapse", "--n", "2", "--m", "1", "--k", "2"], capsys)
    assert code == 2


def test_v_collapse_reports_its_domain_before_its_k_cap(capsys):
    """r <= h = 2^{n-1} m is a domain error that --force cannot lift, so it
    is reported with or without --force, also past the --k cap; past the cap
    and inside the domain, the cap is reported."""
    for m, h in ((2, 8), (3, 12)):
        for k in range(7, h + 1):
            for force in ([], ["--force"]):
                argv = ["verify", "v-collapse", "--n", "3", "--m", str(m), "--k", str(k)]
                assert _serve([*argv, *force], capsys) == (2, "", f"error: r must exceed h = {h}\n")
        code, out, err = _serve(["verify", "v-collapse", "--n", "3", "--m", str(m),
                                 "--k", str(h + 1)], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: --k {h + 1} exceeds the limit 6 of v-collapse at --n 3 "
                            "(use --force to override)\n")


def _contexts():
    """The sizes of the process-wide context and orbit tables."""
    return (len(equivariant_ring._CONTEXTS), len(lubin_tate._LT_CONTEXTS),
            len(lubin_tate._ORBIT_TABLES))


# each past a cap as well as outside its claim's domain
@pytest.mark.parametrize("argv, message", [
    ("verify v-collapse --n 4 --m 1 --k 3", "r must exceed h = 8"),
    ("verify v-collapse --n 3 --m 4 --k 7", "r must exceed h = 16"),
    ("verify v-collapse --n 20000 --m 1 --k 3", "r must exceed h = 2^19999 * 1"),
    ("verify t-collapse --n 4 --m 1 --k 1", "no level satisfies r > 2^k m for r=1, m=1"),
    ("verify recursion --n 1 --k 7", "the level-drop recursion needs n >= 2"),
    ("verify chain-inversion --n 2 --k 5 --cutoff 100",
     "cutoff 100 exceeds the order-63 window of k_max=5"),
    ("verify height --n 4 --m 1 --cutoff 64", "cutoff 64 < 2^h, h = 8"),
    ("verify height --n 15 --m 1 --cutoff 64", "cutoff 64 < 2^h, h = 16384"),
    ("verify cotangent --n 4 --m 1 --madic 1 --precision 1",
     "cotangent needs madic >= 2: m/m^2 is zero at madic 1"),
    ("verify unit-factors --n 4 --m 1 --madic 9",
     "Witt precision must be at least the truncation order"),
    ("verify cotangent --d 5", "no default modulus for d=5"),
    ("verify unit-factors --d 6 --modulus 1,1,0,1", "modulus must be monic of degree d"),
])
def test_the_domain_is_refused_before_the_caps_and_builds_nothing(argv, message, capsys,
                                                                  monkeypatch):
    """With or without --force: one error: line, empty stdout, no context."""
    _cold_caches(monkeypatch)
    for force in ([], ["--force"]):
        assert _serve([*argv.split(), *force], capsys) == (2, "", f"error: {message}\n")
    assert _contexts() == (0, 0, 0)


# the irreducible moduli of degree 1 .. 4 that --modulus draws
_IRREDUCIBLE = {1: [(1, 1)], 2: [(1, 1, 1)], 3: [(1, 1, 0, 1), (1, 0, 1, 1)],
                4: [(1, 1, 0, 0, 1), (1, 0, 0, 1, 1), (1, 1, 1, 1, 1)]}


@st.composite
def _field(draw):
    """--d in 1 .. 5 and --modulus: None, an irreducible modulus of degree d,
    or one monic of another degree or of none.  Never a reducible one of
    degree d: the library tests reducibility after the caps."""
    d = draw(st.integers(1, 5))
    wrong = [f for e, fs in _IRREDUCIBLE.items() if e != d for f in fs]
    return {"d": d, "modulus": draw(st.sampled_from(
        [None, *_IRREDUCIBLE.get(d, []), *wrong, (1,), (1, 1, 0), (1, 0, 1, 1, 0)]))}


# flag values whose requests each finish in well under a second
_SMALL_LT = dict(n=st.integers(1, 2), m=st.integers(1, 2), precision=st.integers(1, 4),
                 madic=st.integers(1, 4), field=_field())
_SMALL = {
    "recursion": dict(n=st.integers(1, 2), k=st.integers(1, 3)),
    "v-collapse": dict(n=st.integers(1, 2), m=st.integers(1, 2), k=st.integers(1, 4)),
    "t-collapse": dict(n=st.integers(1, 2), m=st.integers(1, 3), k=st.integers(1, 4)),
    "chain-inversion": dict(n=st.integers(1, 2), k=st.integers(1, 2),
                            cutoff=st.none() | st.integers(1, 20)),
    "cotangent": _SMALL_LT,
    "height": dict(_SMALL_LT, cutoff=st.none() | st.integers(1, 300)),
    "unit-factors": _SMALL_LT,
    "fixed-subring": _SMALL_LT,
}


@pytest.mark.parametrize("claim", sorted(_SMALL))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_each_domain_is_the_library_rule(claim, data):
    """_check_request refuses with message X exactly when the claim's runner
    raises ValueError(X), and a refused request builds no context.  The
    t-collapse runner reports one level per level with r > 2^j m: it is
    refused exactly when the library refuses level 0, and reports nothing."""
    flags = data.draw(st.fixed_dictionaries(_SMALL[claim]))
    flags.update(flags.pop("field", {}))
    argv = ["verify", claim]
    for key, value in flags.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv += [] if value is None else [f"--{key}", text]
    args = cli._parse(argv)
    run = cli._CLAIMS[claim][0]
    with mock.patch.object(equivariant_ring, "_CONTEXTS", AtomicCache()), \
            mock.patch.object(lubin_tate, "_LT_CONTEXTS", AtomicCache()), \
            mock.patch.object(lubin_tate, "_ORBIT_TABLES", AtomicCache()):
        try:
            cli._check_request(args)
            refusal = None
        except ValueError as exc:
            refusal = str(exc)
            assert _contexts() == (0, 0, 0), argv
    if claim == "t-collapse":
        ctx = equivariant_ring.rn_context(args.n, args.k, m=args.m)
        try:
            equivariant_ring.verify_t_collapse(ctx, 0, args.k)
            assert refusal is None and run(args), argv
        except ValueError:
            assert refusal is not None and run(args) == [], argv
    elif refusal is None:
        assert run(args), argv
    else:
        with pytest.raises(ValueError) as exc:
            run(args)
        assert str(exc.value) == refusal, argv


def test_cotangent_needs_madic_two(capsys):
    # m/m^2 is zero at madic 1: a config error naming the bound, not a rank drop
    argv = ["verify", "cotangent", "--n", "2", "--m", "1"]
    assert cli.main(argv + ["--madic", "1", "--precision", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "madic >= 2" in captured.err
    assert "rank" not in captured.err
    code, out = _run(argv + ["--madic", "2"], capsys)
    assert code == 0 and _body(out)["reports"][0]["status"] == "verified"


def test_exponent_past_the_packing_bound_exits_two(capsys):
    # l_11 over R_1 holds t_1^2047, past the packing bound 1023 of one exponent
    assert cli.main(["verify", "eq351", "--n", "1", "--k", "11", "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "packing bound 1023" in captured.err
    assert "residual" not in captured.err


def test_unknown_claim_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "nonsense"])
    assert err.value.code == 2


def test_feasibility_limits_and_force():
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as err:
        cli._check_request(parser.parse_args(["verify", "eq351", "--k", "7"]))
    assert err.value.code == 2
    args = parser.parse_args(["verify", "eq351", "--k", "7", "--force"])
    cli._check_request(args)  # no exit


def _smallest_requests():
    """{claim: the argv of its first `suite quick` entry}, and `log` at its smallest."""
    requests = {"log": ["log", "--n", "1", "--k", "1"]}
    for entry in cli.PROFILES["quick"]:
        claim = entry.split()[0]
        requests.setdefault(claim, ["verify", *entry.split()])
    assert set(requests) == set(cli._CLAIMS)
    return requests


def test_each_claim_reads_the_flags_it_declares():
    """A runner that starts reading a flag its _CLAIMS entry does not name fails here."""
    for claim, argv in _smallest_requests().items():
        run, reads, *_ = cli._CLAIMS[claim]
        args = cli._parse(argv)
        read = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        run(Recording(**vars(args)))
        assert read & set(vars(args)) == set(reads), claim


# a value other than the default of each value flag, and the default as typed
_NON_DEFAULT = {"--n": "1", "--m": "2", "--k": "2", "--d": "2", "--modulus": "1,1,1",
                "--precision": "4", "--madic": "4", "--cutoff": "8"}
_DEFAULT_TEXT = {"--m": "1", "--k": "3", "--d": "1", "--precision": "8", "--madic": "6"}


def test_an_unread_flag_is_a_usage_error_unless_it_is_the_default(capsys):
    pairs = 0
    for claim, argv in _smallest_requests().items():
        if claim == "log":
            continue  # log takes only the flags it reads
        reads = cli._CLAIMS[claim][1]
        _, expected, _ = _serve(argv, capsys)
        for flag in _NON_DEFAULT:
            if flag[2:] in reads:
                continue
            pairs += 1
            for force in ([], ["--force"]):
                code, out, err = _serve([*argv, flag, _NON_DEFAULT[flag], *force], capsys)
                assert (code, out) == (2, ""), (claim, flag)
                assert f"error: {claim} does not read {flag} " in err, (claim, flag)
            if flag in _DEFAULT_TEXT:
                got = _serve([*argv, flag, _DEFAULT_TEXT[flag]], capsys)
                assert got[:2] == (0, expected), (claim, flag)
    # of the 88 (claim, value flag) pairs of `verify`, 46 are unread
    assert pairs == 46


def _check(argv, capsys):
    """(exit code, stderr) of _check_request on the parsed request; (0, "")
    when it passes, and a domain refusal as main prints it."""
    try:
        cli._check_request(cli._parse(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err
    except ValueError as exc:
        return 2, f"error: {exc}\n"
    return 0, ""


def _claim_of(args):
    return args.claim if args.command == "verify" else args.command


def test_every_claim_has_a_corner_at_each_n_of_its_caps():
    """tests/fresh.py runs these corners; a generator that drops one fails here."""
    corners = collections.defaultdict(set)
    for argv in fresh.CORNERS:
        args = cli._parse(argv.split())
        corners[_claim_of(args)].add(args.n)
    for claim, (_, _, caps, domain) in cli._CLAIMS.items():
        assert next(iter(caps)) == "n", claim  # n is checked before its k cap is read
        if "k" not in caps:
            assert corners[claim] == {caps["n"]}, claim
            continue
        assert corners[claim] == set(caps["k"]), claim
        # the k caps run from the least n of the domain up to the n cap
        least = min(caps["k"])
        assert list(caps["k"]) == list(range(least, caps["n"] + 1)), claim
        for n in range(1, least):
            assert domain(cli._parse(["verify", claim, "--n", str(n)])), (claim, n)


def test_each_claim_is_capped_by_its_entry(capsys):
    """Each corner passes; one step past each cap it sits at is refused by
    that cap and passes with --force, or, outside the domain, is refused by
    the domain either way.  Checked on the parsed request, so nothing slow
    runs."""
    stepped = set()
    for corner in fresh.CORNERS:
        argv = corner.split()
        assert _check(argv, capsys) == (0, ""), corner
        args = cli._parse(argv)
        claim = _claim_of(args)
        _, _, caps, domain = cli._CLAIMS[claim]
        for key, cap in caps.items():
            edge = cap[args.n] if key == "k" else cap
            if getattr(args, key) != edge:
                continue
            stepped.add((claim, key))
            past = list(argv)
            past[past.index(f"--{key}") + 1] = str(edge + 1)
            refusal = domain and domain(cli._parse(past))
            if refusal:
                for force in ([], ["--force"]):
                    assert _check([*past, *force], capsys) == (2, f"error: {refusal}\n")
                continue
            code, err = _check(past, capsys)
            where = f" at --n {args.n}" if key == "k" else ""
            assert code == 2, past
            assert f"exceeds the limit {edge} of {claim}{where} " in err, err
            assert _check([*past, "--force"], capsys) == (0, ""), past
    assert stepped == {(claim, key) for claim, (_, _, caps, _) in cli._CLAIMS.items()
                       for key in caps}
    for entry in (entry for entries in cli.PROFILES.values() for entry in entries):
        assert _check(["verify", *entry.split()], capsys) == (0, ""), entry


def _serve(argv, capsys):
    """(exit code, stdout, stderr) of one request, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_matches_fresh_parsers(capsys, monkeypatch):
    """Usage errors between requests leave the one parser as a fresh one would be."""
    sequence = [
        ["verify", "nonsense"],
        ["verify", "eq351", "--n", "3", "--k", "3"],
        ["verify", "eq351", "--k", "7"],
        ["verify", "eq351"],
        ["verify", "--k"],
        ["log", "--n", "2", "--k", "1"],
        ["verify", "tkvk", "--n", "2", "--k", "2"],
    ]

    def serve():
        return [_serve(argv, capsys) for argv in sequence]

    shared = serve()
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in shared] == [2, 0, 2, 0, 2, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli._build_parser)
    assert serve() == shared


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["bogus"], ["verify", "-h"],
        ["verify", "nonsense"], ["verify", "--k"], ["verify", "eq351", "--n", "0"],
        ["verify", "eq351", "--bogus"], ["log", "--n", "2", "extra"],
        # over the documented limits
        ["verify", "eq351", "--k", "7"], ["log", "--m", "2"], ["suite", "nope"],
        # one valid request per command
        ["log", "--n", "2", "--k", "1"], ["verify", "eq351", "--n", "2", "--k", "3"],
        ["suite", "quick"],
        # left to argparse: an abbreviation, --flag=value, a flag before the
        # positional, a value that starts with "-" (a file named "-")
        ["verify", "height", "--prec", "8"], ["verify", "eq351", "--n=2"],
        ["verify", "--n", "2", "eq351"], ["verify", "eq351", "--json", "-"],
    ],
    ids=lambda argv: " ".join(argv) or "no-argv",
)
def test_one_pass_dispatch_matches_the_top_level_parser(argv, capsys, monkeypatch, tmp_path):
    """Exit code, stdout and stderr are those of a parse through the top-level parser."""
    monkeypatch.chdir(tmp_path)
    got = _serve(argv, capsys)
    if got[0] == 2:
        assert got[1] == "" and got[2]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._parser().parse_args(argv))
    assert _serve(argv, capsys) == got


def test_unrecognized_arguments_are_reported_by_the_top_level_parser(capsys):
    code, out, err = _serve(["verify", "eq351", "--bogus"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: fgl-forge [-h]")
    assert err.endswith("\nfgl-forge: error: unrecognized arguments: --bogus\n")


def test_a_well_formed_request_builds_no_parser(capsys, monkeypatch):
    """Only help and usage errors build the argparse parser; a limit error still does."""
    def fail():
        raise AssertionError("a well-formed request built the argparse parser")

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "_build_parser", fail)
    requests = [list(argv) for pool in _workloads().POOLS.values()
                for argv, _, code in pool if code == 0]
    for argv in [*requests, ["suite", "quick"]]:
        assert _serve(argv, capsys)[0] == 0, argv
    monkeypatch.undo()
    code, out, err = _serve(["verify", "recursion", "--n", "2", "--k", "7"], capsys)
    assert (code, out) == (2, "")
    assert "exceeds the limit 6 of recursion" in err


_EDGE_TOKENS = ("", "-", "-1", " 4", "07", "+3", "\u0663", "1,2", "--prec", "--n=2", "-h", "--")
_VALUES = ("1", "2", "3", "8", "1,1,1", "out.json")


def _random_argv(rng):
    """An argv of one command from the flags of _FLAGS, the positionals and edge tokens."""
    command = rng.choice(("verify", "verify", "log", "suite"))
    _, positional, flags = cli._COMMANDS[command]
    words = []
    for _ in range(rng.randrange(5)):  # up to four flags, often one of them twice
        pool = flags if rng.random() < 0.8 else tuple(cli._FLAGS)
        words.append(rng.choice(pool) if rng.random() < 0.9 else rng.choice(_EDGE_TOKENS))
        if words[-1] != "--force" or rng.random() < 0.1:
            words.append(rng.choice(_VALUES) if rng.random() < 0.8 else rng.choice(_EDGE_TOKENS))
    if positional is not None and rng.random() < 0.9:
        choices = positional[1]["choices"] if rng.random() < 0.9 else _EDGE_TOKENS
        # the positional first, or after some flags
        words.insert(0 if rng.random() < 0.85 else rng.randrange(len(words) + 1),
                     rng.choice(choices))
    if rng.random() < 0.3:
        words.insert(rng.randrange(len(words) + 1), "--force")
    return [command, *words]


def test_the_table_parse_is_the_argparse_parse():
    """Where the flag table reads an argv, argparse reads it to the same Namespace."""
    parser = cli._parser()
    rng = random.Random(28)
    taken = {"log": 0, "verify": 0, "suite": 0}
    for _ in range(20000):
        argv = _random_argv(rng)
        args = cli._parse_table(argv)
        if args is None:
            continue
        taken[argv[0]] += 1
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the table read {argv}, which argparse rejects")
        assert vars(args) == vars(expected), argv
    # every command, its positional and each of its flags are read off the table
    assert min(taken.values()) > 500, taken


def _workloads():
    """perfbench/workloads.py, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_pools_and_profiles_are_read_off_the_table(monkeypatch):
    requests = [list(argv) for pool in _workloads().POOLS.values()
                for argv, _, code in pool if code == 0]
    requests += [["verify", *entry.split()] for entries in cli.PROFILES.values()
                 for entry in entries]
    parser = cli._parser()
    expected = [vars(parser.parse_args(argv)) for argv in requests]

    def fail(*args, **kwargs):
        raise AssertionError("argparse parsed a request of a pool or a profile")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", fail)
    assert [vars(cli._parse(argv)) for argv in requests] == expected


def test_every_flag_is_one_the_table_reads():
    """A new kind of flag fails here by name instead of being misread by the table."""
    for flag, spec in cli._FLAGS.items():
        assert flag.startswith("--") and flag[2:].isidentifier(), flag
        assert set(spec) <= {"type", "default", "action", "help", "metavar"}, flag
        assert spec.get("action", "store_true") == "store_true", flag
        # argparse would pass a str default through the flag's type
        assert not isinstance(spec.get("default"), str), flag


def test_height_cutoff_flag(capsys):
    code, out = _run(["verify", "height", "--n", "2", "--m", "1", "--cutoff", "8"], capsys)
    assert code == 0
    report = _body(out)["reports"][0]
    assert report["params"]["cutoff"] == 8
    assert report["params"]["computed_height"] == 2


def test_height_cutoff_cap_serves_every_height(capsys):
    """The --cutoff cap is 2^12, 2^h at the largest (n, m): h = 8 and h = 12
    verify at the cap, and one past it is a usage error."""
    for m in (2, 3):
        code, out = _run(["verify", "height", "--n", "3", "--m", str(m), "--cutoff", "4096"], capsys)
        assert code == 0
        params = _body(out)["reports"][0]["params"]
        assert params["cutoff"] == 4096 and params["computed_height"] == params["h"] == 4 * m
    code, out, err = _serve(["verify", "height", "--n", "3", "--m", "3", "--cutoff", "4097"], capsys)
    assert code == 2 and out == ""
    assert "--cutoff 4097 exceeds the limit 4096 of height (use --force to override)" in err


# ---- suite ----------------------------------------------------------------------

def test_suite_quick(tmp_path, capsys):
    out_path = tmp_path / "quick.json"
    code, out = _run(["suite", "quick", "--json", str(out_path)], capsys)
    assert code == 0
    body = json.loads(out_path.read_text())
    assert out.count("[ok ]") == len(body["reports"]) == 15
    assert body["ok"] is True
    claims = {r["claim"] for r in body["reports"]}
    assert claims == {
        "eq351", "recursion", "tkvk", "invariance", "v-collapse", "t-collapse",
        "chain-inversion", "cotangent", "height", "unit-factors", "fixed-subring",
    }


def _cold_caches(monkeypatch):
    """Empty the process-wide derived-object caches for one test; the
    Groebner bases go with the contexts that keep them.

    Rings stay interned: arithmetic matches them by identity, and module-level
    rings of other tests would stop matching.  monkeypatch restores the
    original tables afterwards.
    """
    monkeypatch.setattr(equivariant_ring, "_CONTEXTS", AtomicCache())
    monkeypatch.setattr(lubin_tate, "_LT_CONTEXTS", AtomicCache())
    monkeypatch.setattr(lubin_tate, "_ORBIT_TABLES", AtomicCache())


def _context_bases():
    """Every Groebner basis the process-wide contexts keep, by (context, ideal)."""
    return {
        (key, k): basis
        for key, ctx in equivariant_ring._CONTEXTS.items()
        for k, basis in ctx._ideals.items()
    }


def test_cold_caches_empty_the_one_basis_cache(capsys, monkeypatch):
    argv = ["verify", "recursion", "--n", "2", "--k", "4"]
    _cold_caches(monkeypatch)
    assert _run(argv, capsys)[0] == 0
    warm = _context_bases()
    assert warm
    _cold_caches(monkeypatch)
    assert not _context_bases()
    assert _run(argv, capsys)[0] == 0
    cold = _context_bases()
    assert cold.keys() == warm.keys()
    assert all(cold[key] is not warm[key] for key in cold)


def test_suite_json_is_deterministic(tmp_path, capsys, monkeypatch):
    """A suite on cold caches and a second one on warm caches agree byte for byte."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _cold_caches(monkeypatch)
    assert cli.main(["suite", "quick", "--json", str(a)]) == 0
    assert equivariant_ring._CONTEXTS
    assert cli.main(["suite", "quick", "--json", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "eq351", "--n", "2", "--k", "3"],
        ["verify", "recursion", "--n", "2", "--k", "3"],
        ["verify", "tkvk", "--n", "2", "--k", "3"],
        ["verify", "invariance", "--n", "2", "--k", "3"],
        ["verify", "v-collapse", "--n", "2", "--m", "1", "--k", "3"],
        ["verify", "t-collapse", "--n", "2", "--m", "1", "--k", "3"],
        ["verify", "chain-inversion", "--n", "2", "--k", "2"],
        ["verify", "cotangent", "--n", "2", "--m", "1"],
        ["verify", "height", "--n", "2", "--m", "1"],
        ["verify", "unit-factors", "--n", "2", "--m", "1"],
        ["verify", "fixed-subring", "--n", "2", "--m", "1", "--d", "2"],
        pytest.param(["verify", "height", "--n", "2", "--m", "1", "--cutoff", "8"],
                     id="height-cutoff8"),
    ],
    ids=lambda argv: argv[1],
)
def test_shared_contexts_give_cold_bytes(argv, capsys, monkeypatch):
    """A request answered from a warm context prints what a cold one printed."""
    _cold_caches(monkeypatch)
    cold = _run(argv, capsys)
    # the Lubin-Tate claims share an LTContext, whose R_n is built only on use
    lt_claim = argv[1] in ("cotangent", "height", "unit-factors", "fixed-subring")
    assert (lubin_tate._LT_CONTEXTS if lt_claim else equivariant_ring._CONTEXTS)
    assert _run(argv, capsys) == cold
    assert cold[0] == 0


def test_rn_context_is_shared_and_constructor_is_fresh(monkeypatch):
    _cold_caches(monkeypatch)
    ctx = equivariant_ring.rn_context(2, 3)
    assert equivariant_ring.rn_context(2, 3) is ctx
    assert equivariant_ring.RnContext(2, 3) is not ctx
    assert equivariant_ring.rn_context(2, 3, m=1) is not ctx


def test_lt_context_is_shared_and_constructor_is_fresh(capsys, monkeypatch):
    _cold_caches(monkeypatch)
    ctx = lubin_tate.lt_context(2, 1)
    assert lubin_tate.lt_context(2, 1, modulus=(1, 1)) is ctx
    assert lubin_tate.LTContext(2, 1) is not ctx
    assert ctx.rn is equivariant_ring.rn_context(2, 2)
    for other in (
        lubin_tate.lt_context(2, 1, d=2),
        lubin_tate.lt_context(2, 1, precision=10, madic=8),
        lubin_tate.lt_context(2, 2),
    ):
        assert other is not ctx
    # modulus=None and the explicit default modulus name one field
    f8 = lubin_tate.lt_context(2, 1, d=3)
    assert lubin_tate.lt_context(2, 1, d=3, modulus=(1, 1, 0, 1)) is f8
    assert lubin_tate.lt_context(2, 1, d=3, modulus=(1, 0, 1, 1)) is not f8
    # the cutoff selects no context: every claim at one configuration shares one
    _cold_caches(monkeypatch)
    for argv in (["verify", "cotangent", "--n", "2", "--m", "1"],
                 ["verify", "height", "--n", "2", "--m", "1", "--cutoff", "4"],
                 ["verify", "height", "--n", "2", "--m", "1", "--cutoff", "32"],
                 ["verify", "height", "--n", "2", "--m", "1", "--cutoff", "64"],
                 ["verify", "unit-factors", "--n", "2", "--m", "1"]):
        assert _run(argv, capsys)[0] == 0
    assert list(lubin_tate._LT_CONTEXTS.values()) == [lubin_tate.lt_context(2, 1)]
    # every claim reads the one orbit table of (n, m), and none builds an R_n context
    assert list(lubin_tate._ORBIT_TABLES) == [(2, 1)]
    assert not equivariant_ring._CONTEXTS


def test_no_claim_reaches_the_oracle_engine(capsys, monkeypatch):
    """The claims answer on cold caches with the two-variable law engine, the
    formal inverse, ring_map and the quotient R_n -> R_n<m> through it, the
    specialization from R_n (lt_specialize and t_level_in_lt) and the gamma
    action of the local ring all refusing, wherever a module binds them, and
    with the chain (_chain_series and chain_composite) refusing too: the
    chain-inversion certificate composes the logarithm with the chain's
    steps and never forms the chain.  A
    falsified unit-factors verdict answers too: it reports its witness from
    the orbit table and builds no R_n context.  And a falsified
    chain-inversion verdict reads its witness off the log certificate: it
    reverts a series (solve_series) exactly as often as the verified
    request, so the formal inverse is never solved."""
    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"a claim reached the oracle {name}")
        return fail

    _cold_caches(monkeypatch)
    monkeypatch.setattr(series_fgl.TruncatedSeries2, "__init__", refuse("TruncatedSeries2"))
    monkeypatch.setattr(series_fgl.FGL, "__init__", refuse("FGL"))
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("fgl_forge.")]
    for home, name in ((series_fgl, "fgl_apply"), (series_fgl, "formal_inverse"),
                       (poly_core, "ring_map"), (poly_core, "quotient_to_rnm"),
                       (lubin_tate, "lt_specialize"), (lubin_tate, "t_level_in_lt"),
                       (lubin_tate, "lt_gamma"), (equivariant_ring, "_chain_series"),
                       (equivariant_ring, "chain_composite")):
        original = getattr(home, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse(name))
    for argv in (
        ["suite", "full"],
        ["verify", "height", "--n", "2", "--m", "1", "--cutoff", "32"],
        ["verify", "chain-inversion", "--n", "2", "--k", "3", "--cutoff", "10"],
        ["verify", "chain-inversion", "--n", "3", "--k", "2"],  # three compositions
        ["verify", "fixed-subring", "--n", "2", "--m", "3", "--d", "3", "--madic", "8",
         "--precision", "10"],
    ):
        code, _, err = _serve(argv, capsys)
        assert (code, err) == (0, ""), argv
    # the first norm factor of (2, 1), t_2 at level 2, made a non-unit
    _cold_caches(monkeypatch)
    table = lubin_tate.orbit_table(2, 1)
    table._levels[2] = table.level(2, 1) + (2,)
    code, out, err = _serve(["verify", "unit-factors", "--n", "2", "--m", "1"], capsys)
    assert (code, err) == (1, "")
    assert _body(out)["reports"][0]["witness"] == {
        "factor": 1, "index": 2, "level": 2, "residue": []}
    assert not equivariant_ring._CONTEXTS
    # the chain at (2, 2), verified and then bumped by t_1 x^3
    solves = []
    solve = series_fgl.solve_series

    def counted(*args):
        solves.append(args)
        return solve(*args)

    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is solve:
                monkeypatch.setattr(module, attr, counted)
    chain = equivariant_ring._chain_steps

    def bumped(ctx, X):
        # (S_1 + t_1 x^3) o S_0 = psi + t_1 x^3 + O(x^4)
        outer, *inner = chain(ctx, X)
        bump = TruncatedSeries1.monomial(outer.ring, ctx.generator(1, rational=True), 3, X)
        return [outer + bump, *inner]

    argv = ["verify", "chain-inversion", "--n", "2", "--k", "2"]
    _cold_caches(monkeypatch)
    assert _serve(argv, capsys)[::2] == (0, "")
    verified, solves[:] = len(solves), []
    _cold_caches(monkeypatch)
    monkeypatch.setattr(equivariant_ring, "_chain_steps", bumped)
    code, out, err = _serve(argv, capsys)
    assert (code, err) == (1, "")
    assert _body(out)["reports"][0]["witness"]["terms"] == [{"coeff": "1", "monomial": {"t1": 1}}]
    assert len(solves) == verified > 0


def test_out_of_memory_is_a_usage_style_exit(capsys, monkeypatch):
    """A MemoryError in a claim exits 2 with one error line and no traceback."""
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._CLAIMS, "unit-factors",
                        (exhausted, *cli._CLAIMS["unit-factors"][1:]))
    code, out, err = _serve(["verify", "unit-factors", "--n", "2", "--m", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: out of memory; try a smaller request, or drop --force\n"


def test_suite_interrupt_flushes_partial_report(capsys, monkeypatch):
    def boom(ctx, k):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_tkvk", boom)
    code, out = _run(["suite", "quick"], capsys)
    assert code == 130
    body = _body(out)
    assert body["interrupted"] is True and body["ok"] is False
    assert all(r["status"] == "verified" for r in body["reports"])
    # Ctrl-C stops between entries: the reports of the entries before tkvk
    assert [r["claim"] for r in body["reports"]] == ["eq351", "eq351", "recursion", "recursion"]


def test_full_profile_covers_acceptance_grid():
    entries = cli.PROFILES["full"]
    for n, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        assert f"recursion --n {n} --k {k}" in entries
        assert f"tkvk --n {n} --k {k}" in entries
    for scenario in ["--n 2 --m 1 --d 1", "--n 2 --m 2 --d 2", "--n 3 --m 1 --d 1"]:
        for claim in ["cotangent", "height", "unit-factors", "fixed-subring"]:
            assert f"{claim} {scenario}" in entries
    assert "v-collapse --n 2 --m 1 --k 3" in entries
    assert "v-collapse --n 2 --m 1 --k 4" in entries


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_suite_reports_are_the_verify_reports_of_its_entries(profile, capsys):
    """A suite runs each of its entries as `verify` does, in profile order."""
    expected = []
    for entry in cli.PROFILES[profile]:
        code, out = _run(["verify", *entry.split()], capsys)
        assert code == 0, entry
        expected.extend(_body(out)["reports"])
    code, out = _run(["suite", profile], capsys)
    assert code == 0
    assert _body(out)["reports"] == expected
    assert len(expected) == {"quick": 15, "full": 38}[profile]


def test_suite_and_log_take_only_the_flags_they_read(capsys):
    code, out = _run(["suite", "full"], capsys)
    assert code == 0 and _body(out)["config"] == {"command": "suite", "profile": "full"}
    code, out = _run(["log", "--n", "2", "--k", "1"], capsys)
    assert code == 0 and _body(out)["config"] == {"command": "log", "k": 1, "n": 2}
    # an unread flag is a usage error; log keeps the limits of the flags it reads
    for argv in (["suite", "quick", "--n", "3"], ["suite", "quick", "--force"],
                 ["log", "--m", "2"], ["log", "--cutoff", "8"], ["log", "--k", "7"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_recursion_builds_only_the_v_it_reads(capsys, monkeypatch):
    """recursion at k works mod I_k = (2, v_1 .. v_{k-1}) and builds no v_k."""
    _cold_caches(monkeypatch)
    assert _run(["verify", "recursion", "--n", "2", "--k", "4"], capsys)[0] == 0
    ctx = equivariant_ring.rn_context(2, 4)
    assert len(ctx._v) == 3
    vs = equivariant_ring.v_in_rn(ctx, 4)
    assert vs == v_from_log(equivariant_ring.rn_log(ctx))
    assert len(ctx._v) == 4 and equivariant_ring.v_in_rn(ctx, 2) == vs[:2]
    with pytest.raises(ValueError):
        equivariant_ring.v_in_rn(ctx, 5)


def test_invariance_reduces_only_its_generators(capsys, monkeypatch):
    """invariance at k runs k normal forms on a cold context, one per
    generator: v_jbar + gamma(v_jbar) modulo I_j, for j = 1 .. k in order."""
    nf_mod_Ik = equivariant_ring._nf_mod_Ik
    calls = []

    def record(ctx, pbar, k):
        calls.append((pbar, k))
        return nf_mod_Ik(ctx, pbar, k)

    monkeypatch.setattr(equivariant_ring, "_nf_mod_Ik", record)
    for n, k in ((2, 4), (3, 3)):
        _cold_caches(monkeypatch)
        calls.clear()
        assert _run(["verify", "invariance", "--n", str(n), "--k", str(k)], capsys)[0] == 0
        vbars = equivariant_ring._v_bars(equivariant_ring.rn_context(n, k), k)
        assert calls == [(vbar + poly_core.gamma_act(vbar), j)
                         for j, vbar in enumerate(vbars, start=1)]


# ---- envelope and rendering ------------------------------------------------------

def test_canonical_json_is_sorted_and_stable():
    body = envelope(
        [{"claim": "x", "params": {"b": 1, "a": 2}, "status": "verified",
          "witness": None, "bounds": {}}],
        config={"n": 2},
    )
    text = canonical_json(body)
    assert text == canonical_json(json.loads(text) | {})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert "timestamp" not in text


def _json_dumps(obj):
    """The reference bytes of canonical_json."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def test_canonical_json_matches_json_dumps_on_suite_full(capsys, monkeypatch):
    """Every envelope `suite full` and its `verify` entries write."""
    bodies = []

    def record(body):
        bodies.append(body)
        return canonical_json(body)

    monkeypatch.setattr(cli, "canonical_json", record)
    for entry in cli.PROFILES["full"]:
        assert cli.main(["verify", *entry.split()]) == 0, entry
    assert cli.main(["suite", "full"]) == 0
    capsys.readouterr()
    assert len(bodies) == len(cli.PROFILES["full"]) + 1
    for body in bodies:
        assert canonical_json(body) == _json_dumps(body)


_TEXT = 'a Z0/"\\\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u6f22\U0001f600'


def _random_value(rng, depth=0):
    """A JSON value of the types reports hold: nested containers, str, int, bool, None."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([-1, 1]) * rng.getrandbits(rng.choice([1, 8, 63, 64, 65, 200]))
    if kind in (2, 3):
        return _random_text(rng)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    return {_random_text(rng): item for item in items}


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))


def test_canonical_json_matches_json_dumps_on_random_values():
    rng = random.Random(20)
    for _ in range(2000):
        obj = _random_value(rng)
        assert canonical_json(obj) == _json_dumps(obj), obj


@pytest.mark.parametrize(
    "obj",
    [[True, 1, False], [0, False], (1, True), [1, 2, 3]],
    ids=["ints-and-bools", "int-and-bool", "tuple-int-and-bool", "ints"],
)
def test_canonical_json_writes_subclasses_and_bools_as_json_dumps(obj):
    """bool, the one subclass a report holds, beside plain ints."""
    assert canonical_json(obj) == _json_dumps(obj)


class _Level(enum.IntEnum):
    ONE = 1


class _Text(str):
    pass


class _Items(list):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        1.5, {"reports": [0.0]}, {1: "a"}, {"a": 1, 2: "b"}, [object()], {"x": {1, 2}},
        # a subclass of a type reports hold: reports hold only the exact types
        _Level.ONE, [_Level.ONE, 2], _Text("a\u00e9"), {_Text("k"): _Text("v")},
        {_Text("k"): 1},
        collections.OrderedDict([("b", 1), ("a", [2])]), _Items([1, 2]), _Items(),
        {"x": _Items(["a", None])},
    ],
    ids=["float", "nested-float", "int-key", "mixed-keys", "object", "set",
         "IntEnum", "IntEnum-in-list", "str-subclass", "str-subclass-dict",
         "str-subclass-key",
         "OrderedDict", "list-subclass", "empty-list-subclass", "nested-list-subclass"],
)
def test_canonical_json_rejects_what_no_report_holds(obj):
    with pytest.raises(TypeError):
        canonical_json(obj)


def test_render_line_marks_failures():
    line = render_line({"claim": "tkvk", "params": {"k": 2}, "status": "failed"})
    assert line.startswith("[FAIL]") and "k=2" in line


def test_module_entry_point():
    proc = fresh.run_row("verify eq351 --n 1 --k 2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_falsified_unit_factors_finish_fresh_at_the_caps():
    """A falsified unit-factors at (n, m) = (3, 3) reports its witness from the
    orbit table: exit 1 within 60 s under the cap, and no traceback."""
    (row,) = [row for row in fresh.ROWS
              if row[:2] == ("verify unit-factors --n 3 --m 3", "double_levels")]
    fresh.test_row(*row)


def test_the_fresh_runner_caps_memory_and_time(monkeypatch):
    proc = fresh.run("-c", "import resource; print(resource.getrlimit(resource.RLIMIT_AS))")
    assert proc.stdout == f"{(2 << 30, 2 << 30)}\n"
    monkeypatch.setattr(fresh, "TIME_LIMIT", 1)
    with pytest.raises(subprocess.TimeoutExpired):
        fresh.run("-c", "import time; time.sleep(10)")


def test_the_fresh_runner_passes_extra_environment_under_the_cap():
    proc = fresh.run("-c", "import os, resource; print(os.environ['PYTHONHASHSEED'], "
                     "resource.getrlimit(resource.RLIMIT_AS))", env={"PYTHONHASHSEED": "1"})
    assert proc.stdout == f"1 {(2 << 30, 2 << 30)}\n"
