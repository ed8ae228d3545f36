"""The benchmark's own tests: tracing, the correctness gate, inputs, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import gc
import json
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads
from coeffbounds import bounds, caratheodory, cli, harness, series, sweeps
from workloads import Command

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
MODULES = dict(cli=cli, harness=harness, sweeps=sweeps, caratheodory=caratheodory,
               series=series, bounds=bounds)


def tiny_workload(tmp_path) -> workloads.Workload:
    """Every gate rule and every traced layer, in well under a second."""
    doc = {"backend": "rational", "atoms": [{"weight": "1/3", "t": "1/2"}, {"weight": "2/3", "t": "-3"}]}
    path = tmp_path / "doc.json"
    commands = (
        Command("random", ("verify", "random", "--n", "1", "--alpha", "2", "--beta", "0",
                           "--trials", "20"), 0, "random", 1, 20),
        Command("nehari", ("verify", "nehari", "--n", "0", "--n", "1", "--alpha", "2", "--beta", "0",
                           "--trials", "300"), 1, "nehari", 2, 300),
        Command("extremal", ("verify", "extremal", "--n", "1", "--alpha", "2", "--beta", "0"),
                0, "extremal", 1, expect={"backend": "float"}),
        Command("hk", ("verify", "hk", "--alpha", "2", "--kmax", "5", "--order", "8",
                       "--samples", "16"), 0, "hk", 1),
        Command("bounds", ("bounds", "--backend", "rational", "--n", "1", "--alpha", "3/2",
                           "--beta", "1/4"), 0, "bounds", 1, expect={"backend": "rational"}),
        Command("expand", ("expand", "--pspec", str(path), "--n", "1", "--alpha", "2", "--beta",
                           "1/4", "--order", "8", "--kmax", "4"), 0, "expand", 1,
                expect={"doc": doc, "n": 1, "alpha": "2", "beta": "1/4"}),
    )
    return workloads.Workload("tiny", 0, commands, {str(path): json.dumps(doc)})


@pytest.fixture
def tiny(tmp_path):
    w = tiny_workload(tmp_path)
    w.write_inputs()
    return w


def _site_values():
    values = {(id(owner), attr): vars(owner).get(attr) for owner, attr, *_ in tracing._sites(MODULES)}
    return values, dict(cli._SUITE_RUNNERS), list(gc.callbacks)


def test_tracer_restores_originals_and_keeps_report_bytes(tiny):
    before = _site_values()
    plain = run.run_pass(cli, tiny.commands)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert _site_values() != before
        traced = run.run_pass(cli, tiny.commands)
    assert _site_values() == before
    assert [o.text for o in traced] == [o.text for o in plain]
    assert [o.code for o in traced] == [o.code for o in plain]
    assert not tracer.missing
    for name in ("cli.main", "sweeps.trial_seed", "caratheodory.random_herglotz", "sweeps.batch_cauchy",
                 "series.evaluate", "bounds.f_from_p", "schemes.build_hk", "reports.render"):
        assert tracer.calls[name] > 0, name
    # every span's parent is a span of the same trace, and self time never exceeds busy time
    ids = {s[0] for s in tracer.spans}
    assert all(s[4] is None or s[4] in ids for s in tracer.spans)
    assert all(tracer.self_time[n] <= tracer.busy[n] + 1e-9 for n in tracer.busy)


def test_tracer_restores_originals_when_a_pass_raises():
    before = _site_values()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            raise RuntimeError("boom")
    assert _site_values() == before


def test_gate_passes_real_outputs(tiny):
    g = gate.Gate()
    g.check_pass(run.run_pass(cli, tiny.commands))
    g.check_pass(run.run_pass(cli, tiny.commands))
    assert g.problems == []
    assert (g.attempted, g.failed) == (2 * len(tiny.commands), 0)


def _bump_first_sharp_bound(text):
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[header.split(",").index("sharp_bound")] += "1"
    return "\n".join([header, ",".join(cells), rest])


def test_gate_flags_corrupt_reports_and_wrong_exit_codes(tiny):
    outcomes = {o.command.label: o for o in run.run_pass(cli, tiny.commands)}
    cases = {
        "random": lambda t: t.replace(",pass\n", ",fail\n", 1),
        "nehari": lambda t: t.replace(",fail\n", ",pass\n"),
        "extremal": lambda t: t.rsplit("\n", 2)[0] + "\n",
        "hk": lambda t: t.replace(",pass\n", ",fail\n", 1),
        "bounds": _bump_first_sharp_bound,
        "expand": lambda t: t.replace("2,coefficient,", "2,coefficient,1", 1),
    }
    for label, corrupt in cases.items():
        o = outcomes[label]
        assert gate.check_output(o.command, o.code, o.text) == [], label
        bad = corrupt(o.text)
        assert bad != o.text, label
        assert gate.check_output(o.command, o.code, bad), label
        assert gate.check_output(o.command, 1 - o.code, o.text), label


def test_gate_flags_bytes_that_change_between_passes(tiny):
    first = run.run_pass(cli, tiny.commands[:1])
    g = gate.Gate()
    g.check_pass(first)
    changed = dataclasses.replace(first[0], text=first[0].text + "\n")
    g.check_pass([changed])
    assert g.failed == 1
    assert g.problems[0]["problems"] == ["report bytes differ from the first pass"]


def test_digest_changes_are_information_not_failures(tiny):
    g = gate.Gate()
    g.check_pass(run.run_pass(cli, tiny.commands[:2]))
    recorded = {"random": g.digests["random"], "nehari": "0" * 64}
    assert g.digest_changes(recorded) == {"random": "same", "nehari": "changed"}
    assert g.digest_changes({}) == {"random": "unrecorded", "nehari": "unrecorded"}
    assert g.failed == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_another_seed_changes_them(name, tmp_path):
    a = workloads.build(name, 5, tmp_path)
    b = workloads.build(name, 5, tmp_path)
    c = workloads.build(name, 6, tmp_path)
    assert (a.commands, a.files) == (b.commands, b.files)
    assert [cmd.argv for cmd in a.commands] != [cmd.argv for cmd in c.commands]
    if a.files:
        assert sorted(a.files.values()) != sorted(c.files.values())


def _spec(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_emitted_metrics_are_the_ones_in_benchmark_json(tiny):
    untraced = run.measure(tiny, 0, False, cli)
    assert len(untraced.plain) == run.MIN_PASSES
    e2e = run.end_to_end_metrics(untraced, tiny, setup_s=0.2)
    assert {k: v["unit"] for k, v in e2e.items()} == _spec("end_to_end")
    assert all(v["value"] > 0 for v in e2e.values())

    traced = run.measure(tiny, 0, True, cli)
    assert len(traced.traced) == len(traced.plain) == 1
    layer = run.per_layer_metrics(traced)
    assert {k: v["unit"] for k, v in layer.items()} == _spec("per_layer")


def test_tail_is_the_highest_percentile_with_ten_passes_beyond_it():
    assert run.tail([3.0, 1.0, 2.0, 5.0]) == (2.5, 50.0)
    times = [float(i) for i in range(1, 31)]
    value, pct = run.tail(times)
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)
    assert sum(t > value for t in times) == 10


def test_run_refuses_a_tree_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "scalar-mixed", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
