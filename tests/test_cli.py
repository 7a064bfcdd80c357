"""Command-line behaviour: argument handling, exit codes, printed summaries."""

import argparse
import json
import os
import pickle
import shlex
import struct
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import midlime
from midlime import pipeline, predictor
from midlime.audio import AudioClip, encode_wav
from midlime.cli import _run_config, build_parser, exit_code_for, main
from midlime.errors import (
    AudioIOError,
    CapabilitiesError,
    ConfigError,
    PredictionValueError,
    ProtocolError,
    RankDeficiencyError,
    SpawnError,
    StageError,
    TransportError,
    WavDecodeError,
)
from midlime.lime import FillStrategy, LimeConfig
from midlime.pipeline import RunConfig, run_explanation

from conftest import (
    BAD_LINE_CHILD,
    UNREADABLE_LINES,
    child_command,
    package_env,
    recorded_requests,
    uniform_noise,
)

# Small analysis settings, which both commands take; FAST adds explain's own.
FAST_ANALYSIS = ["--frame-size", "1024", "--hop", "512"]
FAST = ["--samples", "600", *FAST_ANALYSIS, "--gl-iters", "2"]
# The flags that only explain takes, each with a value it accepts.
EXPLAIN_ONLY = [("--samples", "600"), ("--seed", "7"), ("--gl-iters", "2"),
                ("--synth-gain", "0.5")]


def run_cli(*argv):
    return main(list(argv))


class TestExplainCommand:
    def test_happy_path_prints_summary(self, fixture_wav, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(out), *FAST)
        assert code == 0
        printed = capsys.readouterr().out
        assert f"wrote bundle to {out}" in printed
        assert "target: mid:" in printed
        assert "segments:" in printed and "selected:" in printed
        assert (out / "report.json").is_file()
        assert (out / "explanation.json").is_file()

    def test_explicit_target_and_fill(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b2"),
                       "--target", "mid:melodiousness",
                       "--fill", "segment-mean", *FAST)
        assert code == 0
        assert "target: mid:melodiousness" in capsys.readouterr().out

    def test_bad_target_exits_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"),
                       "--target", "mid:bogus", *FAST)
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_spawn_failure_exits_3(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"),
                       "--predictor", "exec:/no/such/binary-zz", *FAST)
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_missing_audio_exits_4(self, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(tmp_path / "ghost.wav"),
                       "--out", str(tmp_path / "b"), *FAST)
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_too_short_audio_exits_5(self, tmp_path, capsys):
        wav = tmp_path / "blip.wav"
        encode_wav(AudioClip(samples=0.1 * uniform_noise(5, 100),
                             sample_rate=22050), wav)
        code = run_cli("explain", "--audio", str(wav),
                       "--out", str(tmp_path / "b"))
        assert code == 5
        assert "error:" in capsys.readouterr().err

    def test_zero_sample_rate_wav_exits_4(self, fixture_wav, tmp_path, capsys):
        raw = bytearray(fixture_wav.read_bytes())
        assert raw[12:16] == b"fmt "
        struct.pack_into("<I", raw, 24, 0)  # the fmt chunk's sample rate
        wav = tmp_path / "rate0.wav"
        wav.write_bytes(bytes(raw))
        code = run_cli("explain", "--audio", str(wav),
                       "--out", str(tmp_path / "b"), *FAST)
        assert code == 4
        assert "sample rate 0" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_a_sample_rate_the_encoder_cannot_write_exits_4(self, fixture_wav, tmp_path,
                                                           monkeypatch, capsys):
        raw = bytearray(fixture_wav.read_bytes())
        assert raw[12:16] == b"fmt "
        struct.pack_into("<I", raw, 24, 3_000_000_000)  # the fmt chunk's sample rate
        wav = tmp_path / "fast.wav"
        wav.write_bytes(bytes(raw))
        analysed = []
        monkeypatch.setattr(pipeline, "stft", lambda *args: analysed.append(args))
        code = run_cli("explain", "--audio", str(wav),
                       "--out", str(tmp_path / "b"), *FAST)
        assert code == 4
        assert capsys.readouterr().err == (
            "error: stage 'audio' failed: sample rate 3000000000 Hz; "
            f"at most {2**31 - 1} supported\n")
        assert analysed == []
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, alpha, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"), "--alpha", alpha, *FAST)
        assert code == 2
        assert "ridge_alpha" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_non_finite_synth_gain_exits_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"), "--synth-gain", "inf", *FAST)
        assert code == 2
        assert "synth_gain must be finite" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_a_synth_gain_that_overflows_exits_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav), "--out", str(tmp_path / "b"),
                       *FAST, "--gl-iters", "0", "--synth-gain", "1e308")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: stage 'synthesis' failed: gain 1e+308 overflows the edited "
            "magnitude\n")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_a_kernel_width_whose_square_underflows_exits_2(self, command, fixture_wav,
                                                            tmp_path, capsys):
        flags = FAST if command == "explain" else [
            *FAST_ANALYSIS, "--seeds", "1,2", "--sample-counts", "600"]
        code = run_cli(command, "--audio", str(fixture_wav), "--out", str(tmp_path / "b"),
                       "--kernel-width", "1e-300", *flags)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kernel_width 1e-300 has no float square\n")
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("timeout, predictor", [
        ("inf", "exec"), ("-5", "builtin"), ("0", "builtin"), ("nan", "builtin"),
    ])
    def test_non_finite_timeout_exits_2(self, timeout, predictor, fixture_wav,
                                        tmp_path, capsys):
        if predictor == "exec":
            predictor = f"exec:{child_command('echo')}"
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"), "--timeout", timeout,
                       "--predictor", predictor, *FAST)
        assert code == 2
        assert "timeout must be finite" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_bad_sample_count_exits_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("explain", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "b"),
                       "--samples", "5", "--frame-size", "1024",
                       "--hop", "512")
        assert code == 2
        assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("command, counts", [
    ("explain", ["--samples", "10"]),
    ("stability", ["--seeds", "1,2", "--sample-counts", "600,10"]),
], ids=["explain", "stability"])
def test_a_small_count_exits_2_before_the_predictor_starts(command, counts,
                                                           fixture_wav, tmp_path,
                                                           capsys):
    # The predictor command leaves a marker if it is ever spawned.
    marker, out = tmp_path / "spawned", tmp_path / "out"
    code = run_cli(command, "--audio", str(fixture_wav), "--out", str(out),
                   "--predictor", f"exec:{shlex.join(['touch', str(marker)])}",
                   *counts, *FAST_ANALYSIS)
    assert code == 2
    assert "n_samples 10 cannot overdetermine" in capsys.readouterr().err
    assert not marker.exists()
    assert not out.exists()


@pytest.fixture
def silent_wav(tmp_path):
    """One second of silence, which segments into one region."""
    wav = tmp_path / "silent.wav"
    encode_wav(AudioClip(samples=np.zeros(22050), sample_rate=22050), wav)
    return wav


class TestConstantTarget:
    """A target that one segment never changes selects nothing."""

    def test_stability_selects_no_segment(self, silent_wav, tmp_path):
        out = tmp_path / "stab"
        assert run_cli("stability", "--audio", str(silent_wav), "--out", str(out),
                       "--sample-counts", "300", "--seeds", "1,2") == 0
        summary = (out / "stability_summary.csv").read_text().splitlines()
        assert summary[1] == "300,1.0,1 2,0 0"

    def test_an_exec_explain_selects_no_segment(self, silent_wav, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert run_cli("explain", "--audio", str(silent_wav), "--out", str(out),
                       "--predictor", f"exec:{child_command('echo')}",
                       "--samples", "300", "--gl-iters", "1") == 0
        assert "segments: 1, selected: 0 (0 positive, 0 negative)" in (
            capsys.readouterr().out)
        explanation = json.loads((out / "explanation.json").read_text())
        assert explanation["selected"] == [] and explanation["r_squared"] == 0.0


# A short noise clip with few segments: 60 mask rows of about 150 kB each.
POOL = ["--frame-size", "256", "--hop", "128", "--min-size", "800",
        "--samples", "60", "--gl-iters", "1"]


@pytest.fixture
def short_wav(tmp_path):
    wav = tmp_path / "short.wav"
    encode_wav(AudioClip(samples=0.3 * uniform_noise(400, 8000), sample_rate=22050),
               wav)
    return wav


class TestChildPool:
    @pytest.mark.parametrize("mode", ["echo", "reorder"])
    def test_bundles_are_identical_across_pool_sizes(self, mode, short_wav, tmp_path,
                                                     monkeypatch):
        # About seven rows per request, so that the chunk spreads over the pool.
        monkeypatch.setattr(predictor, "REQUEST_BYTES", 1 << 20)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        bundles = []
        for workers in (1, 2, 3):
            out = tmp_path / f"workers-{workers}"
            code = run_cli("explain", "--audio", str(short_wav), "--out", str(out),
                           *POOL, "--workers", str(workers),
                           "--predictor", f"exec:{child_command(mode)}")
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            counters = {k: report["predictor"][k] for k in ("children", "items",
                                                            "exit_code")}
            assert counters == {"children": workers, "items": 60 + 1, "exit_code": 0}
            assert report["predictor"]["requests"] >= 8
            bundles.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "report.json"})
        assert len(bundles[0]) == 10
        assert bundles[1] == bundles[0]
        assert bundles[2] == bundles[0]

    def test_requests_of_batch_size_rows_reach_every_child(self, short_wav, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        bundles = []
        for workers in (1, 2):
            record = tmp_path / f"record-{workers}"
            record.mkdir()
            out = tmp_path / f"workers-{workers}"
            code = run_cli("explain", "--audio", str(short_wav), "--out", str(out),
                           *POOL, "--workers", str(workers), "--batch-size", "8",
                           "--predictor", f"exec:{child_command('echo')} "
                                          f"--record {shlex.quote(str(record))}")
            assert code == 0
            requests = recorded_requests(record)
            assert len(requests) == workers
            assert all(requests)
            assert max(rows for child in requests for _, rows, _ in child) == 8
            assert sum(rows for child in requests for _, rows, _ in child) == 60 + 1
            bundles.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "report.json"})
        assert len(bundles[0]) == 10
        assert bundles[1] == bundles[0]

    @UNREADABLE_LINES
    @pytest.mark.parametrize("when", ["handshake", "prediction"])
    def test_a_line_json_cannot_read_exits_3_and_leaves_no_process(
            self, bad, when, short_wav, tmp_path, capsys, spawned):
        command = shlex.join([sys.executable, "-c", BAD_LINE_CHILD, when, bad])
        code = run_cli("explain", "--audio", str(short_wav),
                       "--out", str(tmp_path / "b"), *POOL,
                       "--predictor", f"exec:{command}")
        assert code == 3
        assert "non-JSON line" in capsys.readouterr().err
        assert len(spawned) == 1
        assert spawned[0].poll() is not None
        assert not (tmp_path / "b").exists()

    def test_a_child_that_exits_early_exits_3_and_leaves_no_process(
            self, short_wav, tmp_path, monkeypatch, capsys, spawned):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        code = run_cli("explain", "--audio", str(short_wav),
                       "--out", str(tmp_path / "b"), *POOL, "--workers", "3",
                       "--predictor", f"exec:{child_command('exit-early')}")
        assert code == 3
        assert "error:" in capsys.readouterr().err
        assert len(spawned) == 3
        assert all(proc.poll() is not None for proc in spawned)
        assert not (tmp_path / "b").exists()


class TestStabilityCommand:
    def test_two_seeds(self, fixture_wav, tmp_path, capsys):
        out = tmp_path / "stab"
        code = run_cli("stability", "--audio", str(fixture_wav),
                       "--out", str(out),
                       "--seeds", "3,5", "--sample-counts", "600", *FAST_ANALYSIS)
        assert code == 0
        printed = capsys.readouterr().out
        assert f"wrote stability tables to {out}" in printed
        assert "n_samples=600: mean pairwise jaccard " in printed
        assert (out / "stability.csv").is_file()
        assert (out / "stability_summary.csv").is_file()

    @pytest.mark.parametrize("flag, value, named", [
        ("--seeds", "1,1", "stability seeds must differ; repeated: 1"),
        ("--sample-counts", "300,300",
         "stability sample counts must differ; repeated: 300"),
    ])
    def test_repeated_value_exits_2(self, fixture_wav, tmp_path, capsys,
                                    flag, value, named):
        out = tmp_path / "s"
        args = {"--seeds": "1,2", "--sample-counts": "600", flag: value}
        code = run_cli("stability", "--audio", str(fixture_wav), "--out", str(out),
                       *(item for pair in args.items() for item in pair),
                       *FAST_ANALYSIS)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_seeds_exit_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("stability", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "s"),
                       "--seeds", "a,b", *FAST_ANALYSIS)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_single_seed_exits_2(self, fixture_wav, tmp_path, capsys):
        code = run_cli("stability", "--audio", str(fixture_wav),
                       "--out", str(tmp_path / "s"),
                       "--seeds", "7", "--sample-counts", "600", *FAST_ANALYSIS)
        assert code == 2

    def test_report_echoes_the_seeds_and_counts_it_ran(self, fixture_wav, tmp_path):
        out = tmp_path / "stab"
        code = run_cli("stability", "--audio", str(fixture_wav), "--out", str(out),
                       "--seeds", "3,5", "--sample-counts", "600,700", *FAST_ANALYSIS)
        assert code == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["seeds"] == [3, 5]
        assert config["sample_counts"] == [600, 700]
        assert not {"gl_iterations", "synth_gain"} & set(config)
        assert not {"n_samples", "seed"} & set(config["lime"])
        assert config["lime"]["kernel_width"] == 0.25

    def test_small_count_exits_2_before_any_attribution(self, fixture_wav, tmp_path,
                                                        capsys, monkeypatch):
        import midlime.pipeline

        def no_work(*args, **kwargs):
            raise AssertionError("an attribution started")

        monkeypatch.setattr(midlime.pipeline, "explain_instance", no_work)
        out = tmp_path / "s"
        code = run_cli("stability", "--audio", str(fixture_wav), "--out", str(out),
                       "--seeds", "1,2", "--sample-counts", "600,50", *FAST_ANALYSIS)
        assert code == 2
        assert "n_samples 50 cannot overdetermine" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", EXPLAIN_ONLY)
    def test_explain_only_flag_exits_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["stability", "--audio", "a.wav", "--out", "o",
                                       flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestParser:
    def test_fill_silence_is_an_alias_for_silence_floor(self):
        args = build_parser().parse_args(
            ["explain", "--audio", "a.wav", "--out", "o", "--fill", "silence"])
        assert _run_config(args).lime.fill is FillStrategy.SILENCE_FLOOR

    def test_defaults(self):
        # Each flag's dest names the config field that owns its default, and
        # the help shows that default; the fill shows its value.
        run = RunConfig(audio_path="a.wav", out_dir="o")
        owners = (run, run.lime, run.segmentation, run.stft)
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for name, parser in commands.items():
            formatter = parser._get_formatter()
            for action in parser._actions:
                if action.required or action.dest in ("help", "seeds", "sample_counts"):
                    continue
                owner = next(c for c in owners
                             if action.dest in {f.name for f in fields(c)})
                default = getattr(owner, action.dest)
                assert action.default == getattr(default, "value", default)
                assert formatter._expand_help(action).endswith(
                    f"(default: {action.default})")
            args = parser.parse_args(["--audio", "a.wav", "--out", "o"])
            assert _run_config(args) == run, name
        # The walk holds by construction; these pin the values themselves.
        assert run.lime.n_samples == 50000 and run.lime.kernel_width == 0.25
        assert run.lime.ratio_threshold == 1e-6 and run.lime.seed == 42
        assert run.segmentation.scale == 25.0 and run.segmentation.min_size == 40
        assert run.segmentation.sigma == 0.8
        assert run.stft.frame_size == 2048 and run.stft.hop_size == 512
        assert run.gl_iterations == 32

    def test_the_default_run_writes_the_cli_bytes(self, fixture_wav, tmp_path):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        assert run_cli("explain", "--audio", str(fixture_wav), "--out", str(cli_out),
                       "--samples", "600") == 0
        run_explanation(RunConfig(str(fixture_wav), str(lib_out),
                                  lime=LimeConfig(n_samples=600)))
        names = sorted(p.name for p in cli_out.iterdir())
        assert names == sorted(p.name for p in lib_out.iterdir())
        for name in names:
            if name != "report.json":
                assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name

    def test_explain_only_flags_reach_the_config(self):
        args = build_parser().parse_args(
            ["explain", "--audio", "a.wav", "--out", "o",
             *(item for pair in EXPLAIN_ONLY for item in pair)])
        config = _run_config(args)
        assert (config.lime.n_samples, config.lime.seed) == (600, 7)
        assert (config.gl_iterations, config.synth_gain) == (2, 0.5)

    def test_stability_defaults(self):
        args = build_parser().parse_args(
            ["stability", "--audio", "a.wav", "--out", "o"])
        assert args.seeds == "1,2,3,4,5"
        assert args.sample_counts == "1000,50000"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["--help"])
        assert info.value.code == 0
        assert "explain" in capsys.readouterr().out

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["explain", "--audio", "a.wav"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([])
        assert info.value.code == 2

    def test_unknown_log_level_is_tolerated(self, fixture_wav, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.setenv("MIDLIME_LOG", "extremely-loud")
        code = run_cli("explain", "--audio", str(tmp_path / "ghost.wav"),
                       "--out", str(tmp_path / "b"))
        assert code == 4


class TestExitCodeMapping:
    def test_direct_errors(self):
        assert exit_code_for(ConfigError("x")) == 2
        assert exit_code_for(SpawnError("x")) == 3
        assert exit_code_for(TransportError("x")) == 3
        assert exit_code_for(AudioIOError("x")) == 4
        assert exit_code_for(OSError("x")) == 4
        assert exit_code_for(RankDeficiencyError("x")) == 5

    def test_stage_wrapping_is_unwound(self):
        nested = StageError("lime", StageError("fit", ConfigError("x")))
        assert exit_code_for(nested) == 2
        assert exit_code_for(StageError("predictor", SpawnError("x"))) == 3
        assert exit_code_for(StageError("audio", AudioIOError("x"))) == 4


# A forked stability helper sends its failure to the main process pickled.
@pytest.mark.parametrize("error", [
    StageError("lime[n=600,seed=2]", PredictionValueError("bad", index=3)),
    StageError("lime", StageError("fit", ConfigError("x"))),
    PredictionValueError("bad", index=3),
    ProtocolError("bad line", line="{"),
    CapabilitiesError("bad", field="mid_names"),
    WavDecodeError("bad", chunk="fmt "),
], ids=lambda error: type(error).__name__)
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    while isinstance(error, StageError):
        assert type(copy) is StageError and str(copy) == str(error)
        assert copy.stage == error.stage
        error, copy = error.cause, copy.cause
    assert type(copy) is type(error) and str(copy) == str(error)
    assert copy.__dict__ == error.__dict__


def test_every_exported_name_resolves():
    missing = [name for name in midlime.__all__ if not hasattr(midlime, name)]
    assert missing == []


# scipy.stats takes most of a second to import, scipy.special about 0.3 s
# and 24 MB, and scipy.ndimage about 50 ms, on every launch. The CLI needs
# none of them: scipy is a test-only dependency.
@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.ndimage"])
def test_cli_import_leaves_module_unloaded(module):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, midlime.cli; print({module!r} in sys.modules)"],
        env=package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# A child interpreter in which every import of scipy or scipy.* fails, as
# on an install with numpy alone; argv[1] is the CLI's argument list.
NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, NoScipy())
import midlime.cli
sys.exit(midlime.cli.main(json.loads(sys.argv[1])))
"""


@pytest.mark.parametrize("argv", [
    ["explain", *FAST],
    ["stability", "--sample-counts", "600,700", "--seeds", "1,2", *FAST_ANALYSIS],
])
def test_cli_runs_without_scipy(fixture_wav, tmp_path, argv):
    command, *flags = argv
    bundles = []
    for name, blocked in (("plain", False), ("no-scipy", True)):
        out = tmp_path / name
        full = [command, "--audio", str(fixture_wav), "--out", str(out), *flags]
        if blocked:
            proc = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(full)],
                                  env=package_env(), capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
        else:
            assert run_cli(*full) == 0
        bundles.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "report.json"})
    plain, no_scipy = bundles
    assert sorted(no_scipy) == sorted(plain) and len(plain) >= 2
    for name, data in plain.items():
        assert no_scipy[name] == data, name
