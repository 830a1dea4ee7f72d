"""Self-tests of the benchmark: run with ``python3 -m pytest bench``."""

import json

import pytest

import check
import gen
import run
import speed
import tracer


def _doc(matrix):
    return {"rows": len(matrix), "cols": len(matrix[0]), "entries": [x for r in matrix for x in r]}


def _first(queries, label):
    return next(q for q in queries if q.label == label)


def test_checker_flags_corrupted_witness_and_wrong_no(tmp_path):
    q = _first(gen.build_pass("definite-solve", 3, 0, tmp_path), "solve E8->E8 k=4")
    witness = q.witnesses[4]
    good = {"verdict": "yes", "k": 4, "witness": _doc(witness)}
    assert check.check(q, 0, json.dumps(good)).wrong == []

    corrupted = [row[:] for row in witness]
    corrupted[0][0] += 1
    bad = dict(good, witness=_doc(corrupted))
    assert check.check(q, 0, json.dumps(bad)).wrong

    no = {"verdict": "no", "k": 4, "reason": "ExhaustiveDefinite"}
    outcome = check.check(q, 0, json.dumps(no))
    assert outcome.wrong and outcome.decided == 1

    unknown = {"verdict": "unknown", "k": 4, "radius": 0}
    outcome = check.check(q, 2, json.dumps(unknown))
    assert outcome.wrong == [] and outcome.decided == 0 and outcome.error is None


def test_checker_flags_yes_on_a_known_no_and_bad_exit_codes(tmp_path):
    queries = gen.build_pass("indefinite-degset", 3, 0, tmp_path)
    q = _first(queries, "degset CP2#(-CP2)->S2xS2")
    answers = []
    for k in range(-8, 9):
        if k:
            kind = "yes" if k % 2 == 0 else "no"
            entry = {"k": k, "kind": kind}
            if kind == "yes":
                entry["witness"] = _doc(q.witnesses[k])
            answers.append(entry)
    doc = {"answers": answers}
    assert check.check(q, 0, json.dumps(doc)).wrong == []
    # a Yes on an odd degree, with the even witness pasted in, is caught twice
    answers[8] = {"k": 1, "kind": "yes", "witness": answers[9]["witness"]}
    assert len(check.check(q, 0, json.dumps(doc)).wrong) == 2
    # an Unknown must exit 2, and exit 1 is an error however the output reads
    answers[8] = {"k": 1, "kind": "unknown", "radius": 0}
    assert check.check(q, 0, json.dumps(doc)).error
    assert check.check(q, 2, json.dumps(doc)).error is None
    assert check.check(q, 1, "").error


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_constructed_witnesses_verify(workload, tmp_path):
    for index in range(4):
        for q in gen.build_pass(workload, 5, index, tmp_path / str(index)):
            for k, p in q.witnesses.items():
                target = q.target if q.target is not None else q.source
                assert check.witness_problem(q.source, target, k, p) is None, (q.label, k)


def _snapshot(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = gen.build_pass(workload, 11, 3, tmp_path / "a")
    second = gen.build_pass(workload, 11, 3, tmp_path / "b")
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    strip = lambda qs, root: [[a.replace(str(root), "") for a in q.argv] for q in qs]
    assert strip(first, tmp_path / "a") == strip(second, tmp_path / "b")
    assert [q.expect for q in first] == [q.expect for q in second]
    gen.build_pass(workload, 12, 3, tmp_path / "c")
    assert _snapshot(tmp_path / "c") != _snapshot(tmp_path / "a")


def _traced_pass(recorder, workload, tmp_path):
    cli = run.load_cli()
    queries = gen.build_pass(workload, 1, 0, tmp_path)
    recorder.install()
    try:
        with speed.Speedometer() as meter:
            results = [run.run_query(cli.main, q.argv, meter, recorder) for q in queries]
    finally:
        recorder.uninstall()
    for q, (code, out, err, _, _) in zip(queries, results):
        outcome = check.check(q, code, out)
        assert outcome.error is None and outcome.wrong == [], (q.label, err)
    return recorder.take_pass()


def test_trace_reports_a_missing_stage_as_absent(tmp_path):
    renamed = tuple(
        (m, "_box_candidates_renamed" if a == "_box_candidates" else a, s)
        for m, a, s in tracer.TARGETS
    )
    recorder = tracer.Recorder(renamed)
    snapshot = _traced_pass(recorder, "manifold-mix", tmp_path)
    metrics = tracer.summarize([snapshot], recorder.present)
    assert metrics["solver.box_enum_s"][0] is None
    assert metrics["solver.box_candidates"][0] is None
    assert metrics["homotopy.checks"][0] > 0
    assert metrics["cli.overhead_s"][0] > 0
    from degmap import solver

    assert not hasattr(solver._box_candidates, "__wrapped__")


def test_trace_self_times_add_up(tmp_path):
    recorder = tracer.Recorder()
    times, counts = _traced_pass(recorder, "indefinite-degset", tmp_path)
    cli_total = sum(
        end - start for _, name, _, start, end, _, _ in recorder.spans if name == "cli.main"
    )
    assert sum(times.values()) == pytest.approx(cli_total, rel=1e-6)
    assert counts["solver.box_candidates"] > 0 and times["solver.modq"] > 0
    assert all(t >= 0 for t in times.values())


def test_rescale_is_relative_to_the_reference_kernel_time():
    ref = speed.REF_KERNEL_S
    assert speed.rescale(3.0, [ref, ref]) == pytest.approx(3.0)
    # a host running the kernel at half speed halves the reported time
    assert speed.rescale(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert speed.rescale(3.0, [ref, 3 * ref]) == pytest.approx(1.5)


def test_speedometer_samples_inside_long_calls_and_restores_the_handler():
    import signal

    def busy(n):
        return sum(i * i for i in range(n))

    before = signal.getsignal(signal.SIGPROF)
    with speed.Speedometer() as meter:
        result, rescaled, wall = meter.time(busy, 2_000_000)
        assert len(meter.samples) > 3  # one before, one after, some during
        count = len(meter.samples)
        meter.time(busy, 2_000_000, inside=False)
        assert len(meter.samples) == count + 1
    assert result == busy(2_000_000)
    assert rescaled > 0 and wall > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_kernel_sample_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert speed.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
