"""Self-tests for the benchmark harness: percentiles, self time, seeding, host speed.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_p90_needs_one_hundred_samples():
    with pytest.raises(ValueError, match="p90 needs 10 samples above it, got 99 samples"):
        run.percentile(list(range(99)), 0.9)
    assert run.MIN_OPS == 100
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 0.9) == 90  # nearest rank: 10 samples above it
    assert run.percentile(samples, 0.5) == 50


def test_p50_needs_twenty_samples():
    with pytest.raises(ValueError):
        run.percentile([1.0] * 19, 0.5)
    assert run.percentile([3.0, 1.0, 2.0] * 7, 0.5) == 2.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # cli [0, 10] > certifier [1, 7] > (isometry [2, 4] > models [2.5, 3.5]), models [5, 6]
    # cli also calls models [8, 9] directly.
    clock = FakeClock()
    t = tracing.Tracer(clock)
    events = [
        (0, "enter", "cli.main"),
        (1, "enter", "certifier.certify"),
        (2, "enter", "isometry.classify"),
        (2.5, "enter", "models.compose"),
        (3.5, "exit", None),
        (4, "exit", None),
        (5, "enter", "models.compose"),
        (6, "exit", None),
        (7, "exit", None),
        (8, "enter", "models.distance"),
        (9, "exit", None),
        (10, "exit", None),
    ]
    open_frames = []
    for when, action, name in events:
        clock.now = when
        if action == "enter":
            layer = name.split(".")[0]
            open_frames.append(t.enter(name, layer, keep=layer != "models"))
        else:
            t.exit(open_frames.pop())

    assert t.self_s["cli.main"] == 10 - 6 - 1
    assert t.self_s["certifier.certify"] == 6 - 2 - 1
    assert t.self_s["isometry.classify"] == 2 - 1
    assert t.self_s["models.compose"] == 2
    assert t.total_s["cli.main"] == 10
    # Model calls are credited to the nearest layer above them.
    assert t.owned_s == {"cli": 4.0, "certifier": 4.0, "isometry": 2.0}
    assert sum(t.owned_s.values()) == t.total_s["cli.main"]
    # Only layer calls are kept as spans, each pointing at its parent span.
    spans = {name: (span_id, parent) for span_id, name, _, _, _, parent, _ in t.spans}
    assert spans["isometry.classify"][1] == spans["certifier.certify"][0]
    assert spans["certifier.certify"][1] == spans["cli.main"][0]
    assert spans["cli.main"][1] is None
    assert t.calls_under[("models.compose", "certifier.certify")] == 1
    assert t.calls_under[("models.compose", "isometry.classify")] == 1


def test_wrapper_closes_its_span_on_an_exception():
    t = tracing.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracing.traced(boom, t, "oracle.freeness_to_depth", True)
    with pytest.raises(KeyError):
        wrapped()
    assert t.stack == [] and t.calls["oracle.freeness_to_depth"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload, tmp_path):
    first, second, other = tmp_path / "1", tmp_path / "2", tmp_path / "3"
    for d in (first, second, other):
        d.mkdir()
    ops1 = workloads.build(workload, 7, first)
    ops2 = workloads.build(workload, 7, second)
    argv = lambda ops, d: [[str(a).replace(str(d), "<dir>") for a in op.argv] for op in ops]
    assert argv(ops1, first) == argv(ops2, second)
    files = lambda d: {p.name: p.read_bytes() for p in d.iterdir()}
    assert files(first) == files(second)
    assert argv(workloads.build(workload, 8, other), other) != argv(ops1, first)
    assert len(ops1) == workloads.POOL_SIZE


def test_tiny_evaluator_knows_the_torsion_relation():
    # (f^2 s, f): (a b^-2)^2 = (f^2 s f^-2)^2 = 1 in Z * Z/2, but not in F2.
    a, b = workloads.parse("ffs"), workloads.parse("f")
    word = (1, -2, -2, 1, -2, -2)
    assert workloads.evaluate(word, a, b, involution=2) == ()
    assert workloads.evaluate(word, a, b) != ()
    assert workloads.commute(workloads.parse("ab"), workloads.parse("abab"))
    assert not workloads.commute(workloads.parse("ab"), workloads.parse("ba"))


def test_install_rebinds_importers_and_uninstall_restores():
    freecert = run.import_freecert()
    original = freecert.isometry.classify
    t = tracing.Tracer()
    undo = tracing.install(freecert, t, methods=True)
    try:
        assert freecert.cli.classify is freecert.isometry.classify is not original
        assert freecert.certifier.freeness_to_depth is freecert.oracle.freeness_to_depth
        model = freecert.FreeGroupModel(2)
        model.compose((1,), (2,))
        assert t.calls["models.compose"] == 1 and t.calls["models.canon"] == 1
        assert t.counts["models.compose.letters"] == 2
    finally:
        tracing.uninstall(undo)
    assert freecert.isometry.classify is original and freecert.cli.classify is original


def test_host_speed_scales_to_the_reference_host():
    assert run.reference_task() == 108  # every reduced 4-letter window over a, b occurs: fixed work
    speed = run.HostSpeed()
    # Slow for the first 20 s (2x the reference time), then slower (4x).
    speed.samples = [(t, run.REF_SECONDS * 2) for t in range(20)] + [(t, run.REF_SECONDS * 4) for t in range(20, 40)]
    assert speed.scale_at(5.0) == pytest.approx(0.5)  # each time follows the samples nearest to it
    assert speed.scale_at(33.0) == pytest.approx(0.25)
    assert speed.median() == pytest.approx(run.REF_SECONDS * 3)
