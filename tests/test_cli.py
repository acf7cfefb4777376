"""The command-line interface."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.__main__ import main, make_parser


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "aard.main" in out
    assert "999.specrand" in out
    assert out.count("[agave]") == 19
    assert out.count("[spec ]") == 6


def test_run_command(capsys):
    code = main(["--duration", "0.5", "--settle-ms", "200",
                 "run", "countdown.main"])
    assert code == 0
    out = capsys.readouterr().out
    assert "countdown.main" in out
    assert "references" in out
    assert "top instruction regions" in out


def test_suite_save_and_figures_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "mini.json")
    # A mini-suite via the API, then CLI analysis over the saved file.
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner(RunConfig(duration_ticks=millis(500),
                                   settle_ticks=millis(200)))
    suite = runner.run_suite(["countdown.main", "401.bzip2"])
    suite.save(path)

    assert main(["figures", "--results", path, "--figure", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "countdown.main" in out

    assert main(["table1", "--results", path]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out

    main(["claims", "--results", path])  # exit code may be non-zero on a mini-suite
    out = capsys.readouterr().out
    assert "claims hold" in out


def test_figures_csv_mode(tmp_path, capsys):
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner(RunConfig(duration_ticks=millis(400),
                                   settle_ticks=millis(200)))
    suite = runner.run_suite(["countdown.main"])
    path = str(tmp_path / "one.json")
    suite.save(path)
    assert main(["figures", "--results", path, "--figure", "2", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("benchmark,category,percent")


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args(["not-a-command"])


def test_parser_global_flags():
    args = make_parser().parse_args(["--no-jit", "--seed", "7", "list"])
    assert args.no_jit
    assert args.seed == 7


@pytest.mark.parametrize("argv", (
    ["table1", "--results"],
    ["figures", "--results"],
    ["smp", "--results"],
    ["faults", "--results"],
    ["fleet", "--merge"],
), ids=("table1", "figures", "smp", "faults", "fleet-merge"))
def test_malformed_results_file_is_a_clean_error(tmp_path, capsys, argv):
    """A result file missing a key used to end in a KeyError traceback;
    now the command exits 2 with an error naming the file."""
    path = tmp_path / "bad.json"
    path.write_text('{"countdown.main": {"bench_id": "countdown.main"}}')
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", (
    ["--duration", "0"],
    ["--duration", "-1"],
    ["--settle-ms", "-5"],
    ["--duration", "nan"],
), ids=("zero-window", "negative-window", "negative-settle", "nan-window"))
def test_out_of_range_window_is_a_clean_error(capsys, flags):
    """``--duration 0`` used to print "0 references" and exit 0, and a
    negative settle ran with it in its cache key, and ``--duration nan``
    ended in a ValueError traceback; all are config errors that name the
    flag typed, not the config field in ticks."""
    assert main([*flags, "run", "countdown.main"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "must be >=" in captured.err
    assert flags[0] in captured.err and "_ticks" not in captured.err
    assert "references" not in captured.out


@pytest.mark.parametrize("argv", (
    ["sweep", "--axis", "duration=inf", "--bench", "countdown.main"],
    ["fleet", "--devices", "4", "--bench-mix", "countdown.main",
     "--profile-mix", "none=nan,2+2=1"],
    ["fleet", "--devices", "4", "--bench-mix", "countdown.main",
     "--scale-mix", "x=1"],
), ids=("infinite-duration-axis", "nan-mix-weight", "bad-scale-value"))
def test_bad_axis_or_mix_value_is_a_clean_error(capsys, argv):
    """``duration=inf`` used to end in an OverflowError traceback, a bad
    scale in a ValueError one, and a NaN weight ran (exit 0) with every
    device on the other profile."""
    assert main(["--duration", "0.2", "--settle-ms", "50", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_faults_report_without_a_headline_plan_has_no_claims(capsys):
    """With neither headline plan swept there is nothing to assert: the
    report stands alone and the command exits 0."""
    argv = ["--duration", "0.2", "--settle-ms", "50", "faults",
            "--bench", "countdown.main", "--plan", "cache-storm"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache-storm" in out and "claims hold" not in out


@pytest.mark.parametrize("command", (
    ["suite", "--bench", "countdown.main"],
    ["sweep", "--axis", "seed=1,2", "--bench", "countdown.main"],
    ["faults", "--bench", "countdown.main", "--plan", "sf-kill"],
    ["fleet", "--devices", "2", "--bench-mix", "countdown.main"],
), ids=("suite", "sweep", "faults", "fleet"))
def test_unwritable_out_fails_before_any_unit_runs(tmp_path, capsys, command):
    """An --out in a missing directory used to surface as a
    FileNotFoundError traceback once every unit had run."""
    out = tmp_path / "missing" / "x.json"
    argv = ["--duration", "0.05", "--settle-ms", "50", *command,
            "--progress", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {out}" in captured.err
    assert captured.out == ""           # no progress line: nothing ran


@pytest.mark.parametrize("jobs", ("1", "2"), ids=("serial", "pool"))
def test_ctrl_c_exits_130_with_one_line_and_leaves_nothing(tmp_path, jobs):
    """Ctrl-C used to print a traceback per process (58 lines serially;
    on a pool, one more from each idle worker) and kill the command by
    the signal.  Sent to the whole process group, as a terminal sends
    it, once the short unit reports: the long unit (about a minute on
    a 2-vCPU host) stops at once, and no file or process is left."""
    out, cache = tmp_path / "sweep.json", tmp_path / "cache"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--settle-ms", "10", "sweep",
         "--axis", "duration=0.05,3000", "--bench", "vlc.mp4.view",
         "--jobs", jobs, "--progress", "--cache", str(cache),
         "--out", str(out)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        assert "[duration=0.05]" in proc.stdout.readline()
        os.killpg(proc.pid, signal.SIGINT)
        sent = time.monotonic()
        _, err = proc.communicate(timeout=60)
        waited = time.monotonic() - sent
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (130, "interrupted\n")
    assert waited < 5
    assert not out.exists()
    assert [p.name for p in tmp_path.rglob("*") if ".tmp." in p.name] == []
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
