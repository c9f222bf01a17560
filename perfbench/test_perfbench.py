"""Tests of the benchmark's own checks: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import outputs
import probe
import spans

FRONT = ("seed,chromosome,strategy_text,time,score\n"
         "7,,Execute Operators 10%,0.1,0.4\n"
         "8,,Execute Operators 50%,0.5,0.8\n")


def _span(span_id, parent, layer, start, end):
    return [span_id, parent, layer, layer, start, end, None]


def test_perturbed_output_counts_as_failed(tmp_path):
    (tmp_path / "front_1.csv").write_text(FRONT, encoding="utf-8")
    checkers = {"front_1.csv": outputs.check_front}
    digests, failed = outputs.check_outputs(tmp_path, checkers, None)
    assert failed == []

    golden = dict(digests)
    assert outputs.check_outputs(tmp_path, checkers, golden)[1] == []

    # Still a valid front, so only the digest comparison catches it.
    (tmp_path / "front_1.csv").write_text(FRONT.replace("7,", "9,", 1), encoding="utf-8")
    _, failed = outputs.check_outputs(tmp_path, checkers, golden)
    assert len(failed) == 1 and "golden" in failed[0]

    # Invariants catch a broken front at any seed, without a golden digest.
    (tmp_path / "front_1.csv").write_text(FRONT.replace("0.8", "0.3"), encoding="utf-8")
    _, failed = outputs.check_outputs(tmp_path, checkers, None)
    assert len(failed) == 1

    (tmp_path / "front_1.csv").unlink()
    _, failed = outputs.check_outputs(tmp_path, checkers, golden)
    assert failed == ["front_1.csv: missing"]


def test_replay_must_match_the_trained_front(tmp_path):
    trained = tmp_path / "front.csv"
    trained.write_text(FRONT, encoding="utf-8")
    (tmp_path / "replay.csv").write_text(FRONT, encoding="utf-8")
    check = {"replay.csv": outputs.replay_checker(trained)}
    assert outputs.check_outputs(tmp_path, check, None)[1] == []
    (tmp_path / "replay.csv").write_text(FRONT.replace("0.5,", "0.6,"), encoding="utf-8")
    assert len(outputs.check_outputs(tmp_path, check, None)[1]) == 1


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        _span(0, -1, "cli", 0.0, 10.0),
        _span(1, 0, "search", 1.0, 4.0),
        _span(2, 1, "genome", 2.0, 3.0),
        _span(3, 0, "runio", 3.5, 6.0),   # overlaps span 1: covered once
        _span(4, 0, "runio", 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0]
    by_layer = spans.layer_self_times(tree)
    assert by_layer["cli"] == 4.0 and by_layer["runio"] == 5.5
    assert sum(by_layer.values()) == 4.0 + 2.0 + 1.0 + 2.5 + 3.0


def test_recorder_nests_spans_by_call():
    recorder = spans.Recorder()
    inner = recorder.wrap("kernels", "call", lambda x: x + 1, lambda args, result: result)
    outer = recorder.wrap("objectives", "evaluate", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (o_id, o_parent, *_), (i_id, i_parent, *_, i_attr) = recorder.spans
    assert (o_parent, i_parent, i_attr) == (-1, o_id, 2)


def test_probe_scales_by_the_mean_speed_inside_the_interval():
    ref = probe.REFERENCE_S
    timer = probe.Probe()
    # (start, cost of both passes, timed pass): the host runs at half and at
    # a quarter of reference speed during [0, 1); the sample at 5.0 is outside.
    timer.samples = [(0.1, 4 * ref, 2 * ref), (0.2, 8 * ref, 4 * ref), (5.0, 2 * ref, ref)]
    got = timer.at_reference(0.0, 1.0)
    assert got["probes"] == 2 and got["speed"] == 0.375
    assert got["probe_s"] == 12 * ref
    assert got["ref_s"] == (1.0 - 12 * ref) * 0.375
    # An interval without a sample takes the speed of the whole run.
    got = timer.at_reference(2.0, 2.01)
    assert got["probes"] == 0 and got["probe_s"] == 0
    assert got["speed"] == (0.5 + 0.25 + 1.0) / 3
