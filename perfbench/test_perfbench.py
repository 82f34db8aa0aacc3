"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json

import pytest

import gate
import hostspeed
import run
import spans
import workloads


# ---- request sequences -----------------------------------------------------------

def _first_rounds(name, seed, count=3):
    it = workloads.rounds(workloads.POOLS[name], seed)
    return [next(it) for _ in range(count)]


@pytest.mark.parametrize("name", ["rn-membership", "chain-series", "lt-local"])
def test_same_seed_same_sequence(name):
    assert _first_rounds(name, 7) == _first_rounds(name, 7)
    assert _first_rounds(name, 7) != _first_rounds(name, 8)


def test_every_round_serves_the_whole_mix():
    pool = workloads.POOLS["rn-membership"]
    for batch in _first_rounds("rn-membership", 3):
        assert sorted(batch) == sorted(workloads.round_of(pool))


def test_every_pooled_request_has_a_pinned_answer():
    answers = gate.load_answers()
    for pool in workloads.POOLS.values():
        for argv, expected in workloads.distinct(pool):
            assert answers[gate.key(argv)]["exit"] == expected


def test_benchmark_json_lists_the_emitted_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"] for m in bench["workloads"]} <= set(workloads.POOLS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    per_layer = {**spans.span_metrics([]), **spans.profile_shares({})}
    per_layer.update(dict.fromkeys(["reports.bytes_out", "trace.overhead_ratio"]))
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: spans.unit_of(name) for name in per_layer}


# ---- span arithmetic -------------------------------------------------------------

def _span(name, parent, start, end):
    return [name, parent, 0, 1, start, end]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("cli.main", None, 0.0, 10.0),
        _span("equivariant_ring.rn_log", 0, 1.0, 4.0),
        _span("series_fgl.v_from_log", 1, 2.0, 3.0),
        _span("equivariant_ring.t_level", 0, 4.0, 7.0),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 3.0])
    metrics = spans.span_metrics(tree)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["equivariant_ring.self_s"] == pytest.approx(5.0)
    assert metrics["series_fgl.self_s"] == pytest.approx(1.0)
    assert metrics["equivariant_ring.recursion_s"] == pytest.approx(6.0)


def test_inclusive_counts_nested_spans_once():
    tree = [
        _span("series_fgl.formal_sum", None, 0.0, 4.0),
        _span("series_fgl.compose_iso", 0, 1.0, 2.0),
        _span("series_fgl.compose_iso", None, 5.0, 6.0),
    ]
    names = ("series_fgl.formal_sum", "series_fgl.compose_iso")
    assert spans.inclusive(tree, names) == pytest.approx(5.0)


def test_law_reuse_ratio_counts_residue_calls_building_a_law():
    tree = [
        _span("lubin_tate.residue_fgl", None, 0.0, 3.0),
        _span("series_fgl.conjugate_fgl", 0, 0.5, 2.5),
        _span("series_fgl.fgl_from_log", 1, 1.0, 2.0),
        _span("lubin_tate.residue_fgl", None, 4.0, 5.0),
    ]
    metrics = spans.span_metrics(tree)
    assert metrics["lubin_tate.residue_calls"] == 2
    assert metrics["lubin_tate.law_reuse_ratio"] == pytest.approx(0.5)


def test_recorder_wraps_every_binding_and_restores_them():
    cli = run.import_cli()
    from fgl_forge import equivariant_ring, poly_core

    original = cli.verify_tkvk
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert cli.verify_tkvk is equivariant_ring.verify_tkvk
        assert cli.verify_tkvk is not original
        code, stdout = run.call(cli.main, ["verify", "tkvk", "--n", "2", "--k", "2"])
    finally:
        recorder.uninstall()
    assert code == 0 and cli.verify_tkvk is original
    assert "__wrapped__" not in vars(poly_core.GroebnerBasis.normal_form)
    names = [s[spans.NAME] for s in recorder.spans]
    assert names[0] == "cli.main"
    assert "equivariant_ring.verify_tkvk" in names
    assert "poly_core.GroebnerBasis.normal_form" in names
    assert all(s[spans.PARENT] is not None for s in recorder.spans[1:])


# ---- profile grouping ------------------------------------------------------------

def test_profile_shares_group_by_file():
    stats = {
        ("/x/fractions.py", 1, "__add__"): (1, 1, 3.0, 3.0, {}),
        ("/x/src/fgl_forge/poly_core.py", 1, "_nf"): (1, 1, 4.0, 9.0, {}),
        # a built-in's time goes to its caller's layer
        ("~", 0, "<built-in method math.gcd>"): (
            1, 1, 2.0, 2.0, {("/x/fractions.py", 1, "__add__"): (1, 1, 2.0, 2.0)}),
        ("/x/json/encoder.py", 1, "encode"): (1, 1, 1.0, 1.0, {}),
    }
    shares = spans.profile_shares(stats)
    assert shares["coefficients.profile_share"] == pytest.approx(0.5)
    assert shares["coefficients.rational_share"] == pytest.approx(0.5)
    assert shares["poly_core.profile_share"] == pytest.approx(0.4)
    assert shares["reports.profile_share"] == 0.0


# ---- correctness gate ------------------------------------------------------------

ARGV = ("verify", "tkvk", "--n", "2", "--k", "2")


def _envelope(status="verified"):
    body = {"schema": "fgl-forge/1", "ok": status == "verified",
            "reports": [{"claim": "tkvk", "status": status}]}
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode()


def _answers():
    return {gate.key(ARGV): gate.answer_of(0, _envelope())}


def test_gate_accepts_the_pinned_answer():
    assert gate.check(_answers(), ARGV, 0, 0, _envelope()) is None


def test_gate_rejects_a_tampered_envelope():
    tampered = _envelope().replace(b'"ok": true', b'"ok": false')
    assert "digest" in gate.check(_answers(), ARGV, 0, 0, tampered)
    assert "statuses" in gate.check(_answers(), ARGV, 0, 0, _envelope("failed"))


def test_gate_rejects_a_wrong_exit_code():
    assert "exit" in gate.check(_answers(), ARGV, 0, 1, _envelope())
    assert "exit" in gate.check(_answers(), ARGV, 0, "raised ValueError: x", _envelope())


def test_known_rejection_passes_only_on_exit_two():
    argv = ("verify", "v-collapse", "--n", "3", "--m", "1", "--k", "4")
    answers = gate.load_answers()
    cli = run.import_cli()
    code, stdout = run.call(cli.main, argv)
    assert code == 2 and gate.check(answers, argv, 2, code, stdout) is None
    assert gate.check(answers, argv, 2, 0, stdout) is not None


# ---- host-speed scaling ----------------------------------------------------------

def test_host_speed_scaling_uses_nearby_probes():
    ref = hostspeed.REFERENCE_S
    raw = [1.0] * 20
    # the host halves its speed after the tenth request
    probes = [ref] * 11 + [2 * ref] * 10
    scaled = hostspeed.scale(raw, probes)
    assert scaled[:8] == pytest.approx([1.0] * 8)
    assert scaled[12:] == pytest.approx([0.5] * 8)
