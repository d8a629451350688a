import pytest

from calibration import REFERENCE_S, at_reference_speed, probe_seconds


def test_probe_times_positive_work():
    probe = probe_seconds()
    assert 0.0 < probe["small"] < probe["full"] < 1.0


@pytest.mark.parametrize("kind", sorted(REFERENCE_S))
def test_times_scale_by_the_probes_around_them(kind):
    ref = REFERENCE_S[kind]
    assert at_reference_speed(2.0, [{kind: ref}, {kind: ref}], kind) == pytest.approx(2.0)
    # a machine twice as slow as the reference: the work counts half
    assert at_reference_speed(2.0, [{kind: 2 * ref}] * 2, kind) == pytest.approx(1.0)
    assert at_reference_speed(3.0, [{kind: ref}, {kind: 2 * ref}], kind) == pytest.approx(2.0)
    # more than two probes: their median, so one stalled probe does not count
    assert at_reference_speed(2.0, [{kind: ref}, {kind: ref}, {kind: 9 * ref}], kind) == pytest.approx(2.0)


def test_reference_import_runs_in_a_fresh_interpreter():
    import subprocess
    import sys

    from calibration import REFERENCE_IMPORT_CODE

    proc = subprocess.run([sys.executable, "-c", REFERENCE_IMPORT_CODE],
                          capture_output=True, text=True, timeout=60, check=True)
    assert 0.0 < float(proc.stdout) < 60.0
