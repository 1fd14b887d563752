"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import ARGUMENTS, COMMANDS, _run_experiments, main
from repro.experiments.protocols import PROTOCOLS
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.scenarios import SCENARIOS
from repro.sim.flightrecorder import _seal


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_shows_what_protocol_accepts(self, capsys):
        assert main(["list"]) == 0
        listing = capsys.readouterr().out.split("--protocol accepts", 1)[1]
        for name in (*PROTOCOLS, *SCENARIOS):
            assert name in listing
        assert "Agreement violation" in listing  # descriptions, from the table

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["pbft"])

    def test_e1_tiny(self, capsys):
        assert main(["e1", "--n", "10", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "agreement rate" in out

    def test_e6_quick(self, capsys):
        assert main(["e6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "content-aware" in out

    def test_f1_tiny(self, capsys):
        assert main(["f1", "--n", "60", "--seeds", "3"]) == 0
        assert "committee" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["e2", "e4", "e5"])
    def test_override_without_a_budget_key_exits_2(self, capsys, key):
        assert main([key, "--n", "16"]) == 2
        captured = capsys.readouterr()
        keys = ", ".join(EXPERIMENTS[key].budget)
        assert captured.err == f"repro {key}: no --n here (budget keys: {keys})\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["f1", "e2", "e6", "x2"])
    def test_workers_reaches_keys_that_dropped_it(self, capsys, monkeypatch, key):
        from repro.experiments import parallel

        seen = []
        monkeypatch.setattr(parallel, "resolve_workers", lambda w: seen.append(w) or 1)
        assert main([key, "--quick", "--seeds", "2", "--workers", "3"]) == 0
        assert seen == [3]  # one parallel_map for the whole experiment

    def test_overrides_reach_every_experiment_of_a_multi_key_run(self, capsys):
        # What `all --n 10 --seeds 3` does, on three cheap keys; e2 has no
        # `n` to override and takes the seeds only.
        overrides = {"n": 10, "seeds": range(3)}
        assert _run_experiments(["e1", "e2", "e6"], True, overrides, None) == 0
        out = capsys.readouterr().out
        assert "E1: Algorithm 1 agreement rate vs epsilon (n=10, 3 seeds/point)" in out
        assert "E2a: S1-S4 violation rates, paper lambda = 8 ln n (3 seeds)" in out
        assert "E6: Algorithm 1 agreement by scheduler (n=10, f=2, 3 seeds/row)" in out

    def test_record_then_report(self, capsys, tmp_path):
        out = str(tmp_path / "flight.jsonl")
        assert main(["record", "--n", "16", "--seed", "2", "--out", out]) == 0
        recorded = capsys.readouterr().out
        assert "recorded" in recorded and out in recorded

        assert main(["report", out]) == 0
        report = capsys.readouterr().out
        for section in (
            "round timeline",
            "word complexity by kind / layer",
            "coin",
            "committee sizes (observed)",
            "phase timings",
            "critical path (deepest decision)",
        ):
            assert section in report
        assert "DECIDES" in report

    def test_report_without_path_rejected(self):
        with pytest.raises(SystemExit):
            main(["report"])


def _spelled(name):
    return f"<{name}>" if name in ("path", "path2") else "--" + name.replace("_", "-")


def _unread_pairs():
    """Every (command, flag or positional) the command table does not list
    (a second positional only where the first is taken: it needs one)."""
    for command in COMMANDS.values():
        for name in ARGUMENTS:
            if name not in command.takes and (
                name != "path2" or "path" in command.takes
            ):
                yield command.name, name


def _argv(command, name):
    if name in ("path", "path2"):
        return [command, "a.jsonl", "b.jsonl"][: 2 + (name == "path2")]
    switch = ARGUMENTS[name][0] is None
    return [command, _spelled(name)] + ([] if switch else ["1"])


class TestCommandTable:
    """The table is the parser: a command accepts what it reads, nothing
    else, and says so in one line."""

    @pytest.mark.parametrize("command,name", list(_unread_pairs()))
    def test_unread_argument_exits_2_with_one_line(self, command, name, capsys):
        entry = COMMANDS[command]
        if command in EXPERIMENTS and name in ("n", "seeds"):
            hint = "budget keys: " + ", ".join(EXPERIMENTS[command].budget)
        else:
            hint = "takes: " + (", ".join(map(_spelled, entry.takes)) or "nothing")
        assert main(_argv(command, name)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro {command}: no {_spelled(name)} here ({hint})\n"
        assert captured.out == ""

    def test_list_names_every_entry(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for command in COMMANDS.values():
            if command.line is not None:
                assert command.line.split()[0] == command.name
                assert f"  {command.line}" in lines
        assert [c.name for c in COMMANDS.values() if c.line is None] == ["all", "list"]

    @pytest.mark.parametrize("argv", [
        ["record", "--n", "0"],
        ["record", "--n", "forty"],
        ["degrade", "--seeds", "0"],
        ["degrade", "--n", "0"],
        ["degrade", "--rates", "0.1,nan"],
        ["degrade", "--rates", "0.5,1.5"],
        ["e6", "--seeds", "0"],
        ["t1", "--n", "0"],
        ["all", "--seeds", "0"],
        ["check", "--n", "0"],
        ["fuzz", "a.jsonl", "--budget", "-1"],
        ["diff", "a.jsonl", "b.jsonl", "--slice", "-4"],
        ["trends", "--tolerance", "-50"],
        ["trends", "--tolerance", "nan"],
        ["trends", "--last", "-3"],
        ["coverage", "--rarest", "-2"],
    ])
    def test_out_of_range_value_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        flag = next(token for token in argv if token.startswith("--"))
        assert captured.err.startswith(f"repro {argv[0]}: {flag} must be ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # nothing ran

    @pytest.mark.parametrize("argv", [
        ["check", "--n", "3"], ["t1", "--n", "3"],
        # n = 1: lambda = 8 ln 1 = 0 leaves no committee at all.
        ["t1", "--n", "1"], ["record", "--n", "1"], ["check", "--n", "1"],
        ["degrade", "--n", "1", "--seeds", "1"],
    ])
    def test_a_size_no_protocol_runs_at_exits_2(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # Exit 1 from `check` means "a safety violation was found".
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        n = argv[argv.index("--n") + 1]
        assert captured.err.startswith(f"repro {argv[0]}: no feasible d for n={n},")
        assert captured.err.count("\n") == 1
        assert "==" not in captured.out  # no experiment started

    def test_bad_input_exits_2_not_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "missing.jsonl"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err == "repro report: no such recording: missing.jsonl\n"


def _without_protocol_header(src, dst):
    """Copy a recording, dropping ``protocol`` from its header line, and
    reseal it so that it loads."""
    head, _, rest = src.read_text().partition("\n")
    header = json.loads(head)
    del header["protocol"]
    dst.write_text(json.dumps(header, separators=(",", ":")) + "\n" + rest)
    _seal(dst)
    return dst


class TestProtocolFlag:
    """``--protocol`` goes straight to the resolver: an explicit name wins
    over the recording's header, and ``whp_ba`` is a name like any other."""

    @pytest.fixture(scope="class")
    def whp_recording(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("flag") / "whp.jsonl"
        assert main([
            "record", "--n", "8", "--seed", "3",
            "--no-profile", "--out", str(path),
        ]) == 0
        return path

    def test_record_defaults_to_whp_ba(self, whp_recording):
        header = json.loads(whp_recording.read_text().partition("\n")[0])
        assert header["protocol"] == "whp_ba"

    @pytest.mark.parametrize("command", ["explain", "fuzz"])
    def test_explicit_whp_ba_on_a_headerless_recording(
        self, command, whp_recording, tmp_path, capsys, monkeypatch
    ):
        bare = _without_protocol_header(whp_recording, tmp_path / "bare.jsonl")
        monkeypatch.chdir(tmp_path)
        budget = ["--budget", "4"] if command == "fuzz" else []  # explain has none
        with pytest.raises(SystemExit, match="pass --protocol"):
            main([command, str(bare), *budget])
        capsys.readouterr()
        assert main([command, str(bare), "--protocol", "whp_ba", *budget]) == 0
        assert "protocol=whp_ba" in capsys.readouterr().out

    def test_explicit_protocol_wins_over_the_header(
        self, whp_recording, tmp_path, capsys, monkeypatch
    ):
        # The recorded whp_ba schedule is not one bracha can follow: the
        # explicit name was used, so the replay diverges (and says so).
        monkeypatch.chdir(tmp_path)
        assert main(["explain", str(whp_recording), "--protocol", "bracha"]) == 1
        out = capsys.readouterr().out
        assert "protocol=bracha" in out
        assert "replay_divergence" in out

    def test_unknown_explicit_protocol_lists_the_names(self, whp_recording):
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", str(whp_recording), "--protocol", "nope"])
        message = str(excinfo.value)
        assert "unknown protocol or scenario 'nope'" in message
        for name in (*PROTOCOLS, *SCENARIOS):
            assert name in message


class TestClosedStdout:
    """A reader that leaves early (``repro report r.jsonl | head``,
    ``repro explain r.jsonl | grep -q ...``) ends the command quietly,
    with the command's own exit code: no ``BrokenPipeError`` traceback,
    no exit status of the interpreter's making."""

    @staticmethod
    def _run(*args, cwd):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro", *args], stdout=write,
                stderr=subprocess.PIPE, env=env, cwd=cwd, timeout=300,
            )
        finally:
            os.close(write)

    def test_a_command_that_succeeds_exits_0(self, tmp_path):
        done = self._run("list", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")

    def test_a_command_that_finds_something_exits_1(self, tmp_path, capsys):
        for seed in (1, 2):
            assert main(["record", "--n", "8", "--seed", str(seed),
                         "--out", str(tmp_path / f"{seed}.jsonl")]) == 0
        done = self._run("diff", "1.jsonl", "2.jsonl", cwd=tmp_path)
        assert (done.returncode, done.stderr) == (1, b"")
