"""End-to-end bundle runs, synthesis edits, stability tables."""

import itertools
import json
import os
import resource
import shlex
import signal
import stat
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import midlime
from midlime import lime as lime_module
from midlime import pipeline
from midlime import predictor as predictor_module
from midlime.audio import AudioClip, decode_wav, encode_wav
from midlime.cli import main as cli_main
from midlime.dsp import SCALE_DB, StftConfig, istft, magnitude_db, stft
from midlime.errors import (
    AudioIOError,
    CapabilitiesError,
    ConfigError,
    ShapeMismatchError,
    SpawnError,
    StageError,
)
from midlime.lime import FillStrategy, Instance, LimeConfig, explain_instance
from midlime.pipeline import (
    BUNDLE_FILES,
    MODE_ADD,
    MODE_MASK_ONLY,
    MODE_SUBTRACT,
    RunConfig,
    make_predictor,
    run_explanation,
    run_stability,
    synthesize_modified,
)
from midlime.predictor import BuiltinPredictor, ConstantPredictor, ExternalPredictor
from midlime.segmentation import SegmentationConfig

from conftest import (
    GOLDEN_DIR,
    child_command,
    package_env,
    selection_row,
    uniform_noise,
    unmasked,
)

FAST_STFT = StftConfig(frame_size=1024, hop_size=512)


def fast_config(audio_path, out_dir, **overrides) -> RunConfig:
    defaults = dict(
        audio_path=audio_path,
        out_dir=out_dir,
        predictor="builtin",
        target="auto",
        lime=LimeConfig(n_samples=600, seed=42),
        segmentation=SegmentationConfig(),
        stft=FAST_STFT,
        gl_iterations=3,
        workers=1,
        batch_size=256,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def write_short_wav(tmp_path) -> Path:
    """0.36 s of noise, written to `tmp_path/short.wav`."""
    wav = tmp_path / "short.wav"
    encode_wav(AudioClip(samples=0.3 * uniform_noise(400, 8000), sample_rate=22050), wav)
    return wav


def short_exec_config(tmp_path, name: str) -> RunConfig:
    """A run through the echo child on 0.36 s of noise, written to `name`."""
    return fast_config(
        write_short_wav(tmp_path), tmp_path / name,
        predictor=f"exec:{child_command('echo')}",
        lime=LimeConfig(n_samples=60, seed=2),
        segmentation=SegmentationConfig(scale=25.0, min_size=800, sigma=0.8),
        stft=StftConfig(frame_size=256, hop_size=128),
        gl_iterations=1,
        timeout=60.0,
    )


@pytest.fixture(scope="module")
def bundle(fixture_wav, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    return run_explanation(fast_config(fixture_wav, out))


def assert_peaks_by_stage(report: dict, away: frozenset = frozenset()) -> None:
    """One peak per timed stage but those run in another process (`away`),
    in stage order, never falling, at most the run's peak."""
    by_stage = report["peak_rss_mb_by_stage"]
    assert list(by_stage) == [k for k in report["timings_s"]
                              if k != "total" and k not in away]
    peaks = list(by_stage.values())
    assert peaks == sorted(peaks) and 0 < peaks[0]
    assert peaks[-1] <= report["peak_rss_mb"]


def assert_cpu_time(report: dict) -> None:
    """`cpu_s` follows `timings_s` and is a finite, non-negative time that
    this process, which ran the command, and the children it reaped have at
    least spent by now."""
    keys = list(report)
    assert keys[keys.index("timings_s") + 1] == "cpu_s"
    cpu = report["cpu_s"]
    spent = sum(u.ru_utime + u.ru_stime for u in map(
        resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
    assert np.isfinite(cpu) and 0 <= cpu <= spent


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of each process that `os.fork` starts during the test, on
    two usable CPUs whatever the machine has."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    pids: list[int] = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def no_fork(monkeypatch):
    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refused)


class TestBundle:
    def test_every_listed_file_exists_and_is_non_empty(self, bundle):
        assert set(bundle.report["files"]) == set(BUNDLE_FILES)
        for key, name in bundle.report["files"].items():
            path = bundle.out_dir / name
            assert path.is_file(), f"missing {key}"
            assert path.stat().st_size > 0, f"empty {key}"

    def test_auto_target_is_argmax_emotion_then_top_effect(self, bundle, fixture_wav):
        report = bundle.report
        assert report["target"]["kind"] == "mid"
        emotion = np.asarray(report["prediction"]["emotion"])
        best_emotion = int(np.argmax(emotion))
        assert report["target"]["auto"]["emotion_index"] == best_emotion
        predictor = BuiltinPredictor(seed=0)
        mid = np.asarray(report["prediction"]["mid"])
        effects_row = predictor.head.weights[best_emotion] * mid
        assert report["target"]["index"] == int(np.argmax(effects_row))

    def test_prediction_json_matches_direct_predictor_call(self, bundle, fixture_wav):
        payload = json.loads((bundle.out_dir / BUNDLE_FILES["prediction"]).read_text())
        clip = decode_wav(fixture_wav)
        spec = magnitude_db(stft(clip, FAST_STFT))
        (mid,), (emotion,) = BuiltinPredictor(seed=0).predict(unmasked(spec))
        # The run scores the all-ones row of its own instance: the same bits.
        assert payload["mid"] == mid.tolist()
        assert payload["emotion"] == emotion.tolist()
        assert payload["mid_names"][0] == "melodiousness"

    def test_masked_spectrograms_are_disjoint(self, bundle):
        pos = np.loadtxt(bundle.out_dir / BUNDLE_FILES["pos_mask"], delimiter=",")
        neg = np.loadtxt(bundle.out_dir / BUNDLE_FILES["neg_mask"], delimiter=",")
        floor = FAST_STFT.floor_db
        assert not np.any((pos > floor) & (neg > floor))

    def test_explanation_json_consistent_with_report(self, bundle):
        expl = json.loads((bundle.out_dir / BUNDLE_FILES["explanation"]).read_text())
        report = bundle.report
        assert expl["target"] == f"mid:{report['target']['name']}"
        assert len(expl["selected"]) == report["selected"]["total"]
        assert len(expl["positive_ids"]) == report["selected"]["positive"]
        assert expl["config_echo"]["n_samples"] == 600
        assert expl["config_echo"]["seed"] == 42

    def test_segments_csv_covers_every_pixel(self, bundle):
        report = bundle.report
        pixels = report["spectrogram"]["bins"] * report["spectrogram"]["frames"]
        lines = (bundle.out_dir / BUNDLE_FILES["segments"]).read_text().splitlines()
        assert len(lines) == 1 + pixels

    def test_report_segment_areas_match_segments_csv(self, bundle):
        report = json.loads((bundle.out_dir / BUNDLE_FILES["report"]).read_text())
        table = np.loadtxt(bundle.out_dir / BUNDLE_FILES["segments"], delimiter=",",
                           skiprows=1, dtype=np.int64)
        areas = np.bincount(table[:, 2])
        assert report["segments"] == {
            "count": len(areas), "min_area": int(areas.min()),
            "median_area": float(np.median(areas)), "max_area": int(areas.max()),
        }

    def test_report_gives_the_peak_rss(self, bundle):
        written = json.loads((bundle.out_dir / BUNDLE_FILES["report"]).read_text())
        peak = written["peak_rss_mb"]
        assert peak == bundle.report["peak_rss_mb"]
        # The run is this process, so its peak is at most the peak so far.
        unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        assert 0 < peak <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit

    def test_report_gives_the_cpu_time(self, bundle):
        written = json.loads((bundle.out_dir / BUNDLE_FILES["report"]).read_text())
        assert written["cpu_s"] == bundle.report["cpu_s"]
        assert_cpu_time(written)

    def test_report_gives_the_peak_rss_by_stage(self, bundle):
        written = json.loads((bundle.out_dir / BUNDLE_FILES["report"]).read_text())
        assert "segmentation" in written["peak_rss_mb_by_stage"]
        assert_peaks_by_stage(written)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="VmHWM is read from procfs")
    def test_peak_rss_is_not_the_launchers(self, tmp_path):
        # posix_spawn starts the child through a vfork, and the kernel
        # carries the launcher's peak across the exec into ru_maxrss.
        held = np.ones(128 << 17)  # 128 MiB, every page touched
        out = tmp_path / "peak.txt"
        code = "from midlime.pipeline import _peak_rss_mb; print(_peak_rss_mb())"
        pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code], package_env(),
                             file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(out),
                                            os.O_WRONLY | os.O_CREAT, 0o644)])
        _, status = os.waitpid(pid, 0)
        launcher = pipeline._peak_rss_mb()
        del held
        assert os.waitstatus_to_exitcode(status) == 0
        assert launcher > 128
        assert float(out.read_text()) < launcher / 2

    def test_report_echoes_effective_config(self, bundle):
        cfg = bundle.report["config"]
        assert cfg["stft"]["frame_size"] == 1024
        assert cfg["lime"]["n_samples"] == 600
        assert cfg["segmentation"]["scale"] == 25.0
        assert cfg["gl_iterations"] == 3
        assert "timings_s" in bundle.report
        assert bundle.report["predictor"]["exit_code"] is None

    def test_wav_outputs_decode_at_source_rate(self, bundle):
        for key in ("masked_pos", "masked_neg", "modified_add", "modified_sub"):
            clip = decode_wav(bundle.out_dir / BUNDLE_FILES[key])
            assert clip.sample_rate == 22050
            assert len(clip.samples) > 0


class TestGolden:
    def test_explanation_matches_frozen_output(self, fixture_wav, tmp_path):
        """Byte-for-byte regression against a committed reference run.

        The reference was produced by this exact configuration, inspected by
        hand (target choice, selection counts, fit quality), and frozen. Any
        byte difference here means the numeric pipeline changed behaviour.
        """
        golden = GOLDEN_DIR / "explanation.json"
        assert golden.is_file(), (
            "golden file missing; regenerate it deliberately from a verified "
            "run of this exact configuration"
        )
        config = RunConfig(
            audio_path=fixture_wav,
            out_dir=tmp_path / "bundle",
            predictor="builtin",
            target="auto",
            lime=LimeConfig(n_samples=2000, seed=42),
            stft=StftConfig(),
            gl_iterations=2,
        )
        bundle = run_explanation(config)
        produced = (bundle.out_dir / BUNDLE_FILES["explanation"]).read_bytes()
        assert produced == golden.read_bytes()


class TestPublish:
    def test_killed_write_leaves_no_out_dir(self, fixture_wav, tmp_path):
        out = tmp_path / "killed"
        script = (
            "import os, signal, sys\n"
            "from midlime import pipeline\n"
            "from midlime.dsp import StftConfig\n"
            "from midlime.lime import LimeConfig\n"
            "pipeline.encode_wav = lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL)\n"
            "pipeline.run_explanation(pipeline.RunConfig(\n"
            "    audio_path=sys.argv[1], out_dir=sys.argv[2],\n"
            "    lime=LimeConfig(n_samples=600, seed=42),\n"
            "    stft=StftConfig(frame_size=1024, hop_size=512), gl_iterations=3))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(fixture_wav), str(out)],
                              env=package_env(), capture_output=True, timeout=600)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode(errors="replace")
        assert not out.exists()
        # Only the hidden sibling the write was filling is left behind.
        assert all(p.name.startswith(".killed.") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_non_empty_out_is_refused_untouched(self, command, fixture_wav, tmp_path,
                                                monkeypatch, capsys):
        out = tmp_path / "full"
        out.mkdir()
        (out / "report.json").write_bytes(b"{}\n")
        (out / "notes.txt").write_bytes(b"keep me\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        stages = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: stages.append("audio"))
        monkeypatch.setattr(pipeline, "make_predictor",
                            lambda *a, **k: stages.append("predictor"))
        code = cli_main([command, "--audio", str(fixture_wav), "--out", str(out)])
        assert code == 2
        assert "not an empty directory" in capsys.readouterr().err
        assert stages == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert os.listdir(tmp_path) == ["full"]

    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_symlinked_out_is_refused_untouched(self, command, fixture_wav, tmp_path,
                                                monkeypatch, capsys):
        target = tmp_path / "empty"
        target.mkdir()
        link = tmp_path / "link"
        link.symlink_to(target, target_is_directory=True)
        stages = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: stages.append("audio"))
        code = cli_main([command, "--audio", str(fixture_wav), "--out", str(link)])
        assert code == 2
        assert "symbolic link" in capsys.readouterr().err
        assert stages == []
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert os.listdir(target) == []
        assert sorted(os.listdir(tmp_path)) == ["empty", "link"]

    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_out_below_a_regular_file_is_refused_untouched(self, command, fixture_wav,
                                                           tmp_path, monkeypatch,
                                                           capsys):
        found = tmp_path / "found"
        found.mkdir()
        (found / "file.txt").write_bytes(b"keep me\n")
        stages = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: stages.append("audio"))
        code = cli_main([command, "--audio", str(fixture_wav),
                         "--out", str(found / "file.txt" / "sub" / "out")])
        assert code == 2
        assert "which is not a directory" in capsys.readouterr().err
        assert stages == []
        assert os.listdir(found) == ["file.txt"]
        assert (found / "file.txt").read_bytes() == b"keep me\n"

    def test_stability_refuses_a_bad_sample_count_before_any_work(self, fixture_wav,
                                                                  tmp_path,
                                                                  monkeypatch, capsys):
        stages = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: stages.append("audio"))
        code = cli_main(["stability", "--audio", str(fixture_wav),
                         "--out", str(tmp_path / "stab"),
                         "--seeds", "1,2", "--sample-counts", "3000,2"])
        assert code == 2
        assert "n_samples must be >= 3" in capsys.readouterr().err
        assert stages == []
        assert os.listdir(tmp_path) == []

    @staticmethod
    def fail_stability_write(monkeypatch) -> None:
        """Make writing stability.csv raise `OSError("disk full")`."""
        score_of = pipeline.stability_score

        def failing_score(explanations):
            score = score_of(explanations)

            def pairs():
                yield from score.per_pair
                raise OSError("disk full")

            return replace(score, per_pair=pairs())

        monkeypatch.setattr(pipeline, "stability_score", failing_score)

    def test_stability_write_failure_leaves_no_out_dir(self, fixture_wav, tmp_path,
                                                       monkeypatch):
        self.fail_stability_write(monkeypatch)
        config = fast_config(fixture_wav, tmp_path / "stab",
                             lime=LimeConfig(n_samples=600, seed=0))
        with pytest.raises(StageError) as info:
            run_stability(config, seeds=[1, 2], sample_counts=[600])
        assert info.value.stage == "write"
        assert isinstance(info.value.cause, OSError)
        assert str(info.value.cause) == "disk full"
        assert os.listdir(tmp_path) == []

    def test_stability_write_failure_exits_4_as_explain_does(self, fixture_wav,
                                                             tmp_path, monkeypatch,
                                                             capsys):
        self.fail_stability_write(monkeypatch)
        code = cli_main(stability_argv(fixture_wav, tmp_path / "stab", 1))
        assert code == 4
        assert capsys.readouterr().err == "error: stage 'write' failed: disk full\n"
        assert os.listdir(tmp_path) == []

    def test_published_dir_has_plain_mkdir_mode(self, bundle):
        reference = bundle.out_dir.parent / f"{bundle.out_dir.name}-plain"
        reference.mkdir()
        mode = stat.S_IMODE(bundle.out_dir.stat().st_mode)
        assert mode == stat.S_IMODE(reference.stat().st_mode)


# Process-local OpenBLAS settings that pick other kernels or thread counts.
BLAS_SETTINGS = (
    {},
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "SandyBridge"},
)


class TestPortability:
    def test_golden_bytes_do_not_depend_on_blas_kernel_or_threads(self, fixture_wav,
                                                                 tmp_path):
        """The golden configuration, run through the CLI in fresh processes
        under each OpenBLAS setting, two at a time, writes the same
        explanation.json and prediction.json, equal to the golden file.
        """
        package_root = str(Path(midlime.__file__).resolve().parents[1])
        base_env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
        base_env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, base_env.get("PYTHONPATH")]))

        def launch(i):
            out = tmp_path / f"run{i}"
            command = [sys.executable, "-m", "midlime.cli", "explain",
                       "--audio", str(fixture_wav), "--out", str(out),
                       "--samples", "2000", "--gl-iters", "2"]
            return out, subprocess.Popen(command, env={**base_env, **BLAS_SETTINGS[i]},
                                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        outputs = {}
        for first in (0, 2):
            pair = [(i, *launch(i)) for i in (first, first + 1)]
            errors = [proc.communicate(timeout=600)[1] for _, _, proc in pair]
            for (i, out, proc), err in zip(pair, errors):
                assert proc.returncode == 0, (BLAS_SETTINGS[i], err.decode(errors="replace"))
                outputs[str(BLAS_SETTINGS[i])] = tuple(
                    (out / BUNDLE_FILES[key]).read_bytes()
                    for key in ("explanation", "prediction"))
        reference = outputs[str(BLAS_SETTINGS[0])]
        for name, produced in outputs.items():
            assert produced == reference, f"bundle bytes differ under {name}"
        assert reference[0] == (GOLDEN_DIR / "explanation.json").read_bytes()


class TestBundleEdges:
    def test_constant_predictor_selects_nothing(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "flat", predictor="constant",
                             target="mid:0")
        result = run_explanation(config)
        assert result.report["selected"]["total"] == 0
        pos = np.loadtxt(result.out_dir / BUNDLE_FILES["pos_mask"], delimiter=",")
        assert np.all(pos == FAST_STFT.floor_db)
        masked = decode_wav(result.out_dir / BUNDLE_FILES["masked_pos"])
        assert np.all(masked.samples == 0.0)

    def test_spawn_failure_leaves_no_residue(self, fixture_wav, tmp_path):
        out = tmp_path / "never"
        config = fast_config(fixture_wav, out, predictor="exec:/no/such/bin-zz")
        with pytest.raises(StageError) as info:
            run_explanation(config)
        assert info.value.stage == "predictor"
        assert isinstance(info.value.cause, SpawnError)
        assert not out.exists()

    def test_missing_audio_is_a_tagged_stage_error(self, tmp_path):
        config = fast_config(tmp_path / "ghost.wav", tmp_path / "out")
        with pytest.raises(StageError) as info:
            run_explanation(config)
        assert info.value.stage == "audio"
        assert isinstance(info.value.cause, AudioIOError)
        assert not (tmp_path / "out").exists()

    def test_unknown_target_name(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "out", target="mid:bogus")
        with pytest.raises(StageError) as info:
            run_explanation(config)
        assert info.value.stage == "target"
        assert isinstance(info.value.cause, ConfigError)

    def test_emotion_target_supported(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "emo", target="emotion:0",
                             lime=LimeConfig(n_samples=600, seed=1))
        result = run_explanation(config)
        assert result.report["target"]["kind"] == "emotion"
        assert result.report["target"]["index"] == 0

    def test_external_predictor_round_trip(self, tmp_path):
        result = run_explanation(short_exec_config(tmp_path, "ext"))
        assert result.report["predictor"]["exit_code"] == 0
        assert result.report["predictor"]["mid_names"][0] == "m1"
        assert result.report["segments"]["count"] + 2 <= 60
        assert (result.out_dir / BUNDLE_FILES["report"]).is_file()

    def test_exec_sends_the_unmasked_clip_as_its_json(self, tmp_path, monkeypatch):
        sent = []
        relay = ExternalPredictor._relay

        def recording_relay(self, children, payloads, want, on_line):
            def record():
                for pieces in payloads:
                    sent.append(b"".join(pieces))
                    yield pieces
            return relay(self, children, record(), want, on_line)

        monkeypatch.setattr(ExternalPredictor, "_relay", recording_relay)
        config = short_exec_config(tmp_path, "ext")
        run_explanation(config)
        dbspec = magnitude_db(stft(decode_wav(config.audio_path), config.stft))
        first = next(line for line in sent if line.startswith(b'{"type":"predict"'))
        assert first == json.dumps(
            {"type": "predict", "id": 0, "shape": list(dbspec.values.shape),
             "scale": "db", "batch": [dbspec.values.ravel().tolist()]},
            separators=(",", ":")).encode() + b"\n"

    def test_fixed_input_spec_mismatch_exits_2_before_any_predict(self, fixture_wav,
                                                                  tmp_path, capsys):
        received = tmp_path / "received.txt"
        code = (
            "import json, sys\n"
            "log = open(sys.argv[1], 'w')\n"
            "for line in sys.stdin:\n"
            "    msg = json.loads(line)\n"
            "    log.write(msg['type'] + '\\n')\n"
            "    log.flush()\n"
            "    if msg['type'] == 'handshake':\n"
            "        print(json.dumps({'type': 'capabilities',"
            " 'mid_names': ['m' + str(i) for i in range(7)],"
            " 'emotion_names': ['e' + str(i) for i in range(8)],"
            " 'linear_head': None,"
            " 'input_spec': {'bins': 9, 'frames': 'variable'}}), flush=True)\n"
            "    elif msg['type'] == 'shutdown':\n"
            "        break\n"
        )
        child = shlex.join([sys.executable, "-c", code, str(received)])
        out = tmp_path / "b"
        status = cli_main(["explain", "--audio", str(fixture_wav), "--out", str(out),
                           "--predictor", f"exec:{child}", "--target", "mid:m0",
                           "--samples", "600", "--timeout", "10"])
        assert status == 2
        assert "9 bins" in capsys.readouterr().err
        assert received.read_text().split() == ["handshake", "shutdown"]
        assert not out.exists()


class TestSynthesisThreads:
    WAVS = ("masked_pos", "masked_neg", "modified_add", "modified_sub")

    def test_thread_count_does_not_change_a_byte(self, fixture_wav, tmp_path,
                                                 monkeypatch):
        produced = []
        for cpus in (1, 4):
            monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
            result = run_explanation(fast_config(fixture_wav, tmp_path / str(cpus)))
            produced.append([(result.out_dir / BUNDLE_FILES[k]).read_bytes()
                             for k in self.WAVS])
        assert produced[0] == produced[1]

    def test_failed_rendering_is_a_synthesis_stage_error(self, fixture_wav, tmp_path,
                                                         monkeypatch):
        real = pipeline.griffin_lim
        calls = itertools.count()

        def second_fails(*args, **kwargs):
            if next(calls) == 1:
                raise ShapeMismatchError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "griffin_lim", second_fails)
        out = tmp_path / "out"
        with pytest.raises(StageError) as info:
            run_explanation(fast_config(fixture_wav, out))
        assert info.value.stage == "synthesis"
        assert str(info.value.cause) == "injected"
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["builtin", "exec"])
    def test_instance_memo_is_released_before_synthesis(self, kind, fixture_wav,
                                                       tmp_path, monkeypatch):
        instances, after_lime, at_synthesis = [], [], []

        class Recorded(Instance):
            def __init__(self, *args):
                super().__init__(*args)
                instances.append(self)

        def recording_explain(*args, **kwargs):
            result = explain_instance(*args, **kwargs)
            after_lime.append(set(instances[0]._memo))
            return result

        def recording_synthesis(*args, **kwargs):
            at_synthesis.append(set(instances[0]._memo))
            return synthesize_modified(*args, **kwargs)

        monkeypatch.setattr(pipeline, "Instance", Recorded)
        monkeypatch.setattr(pipeline, "explain_instance", recording_explain)
        monkeypatch.setattr(pipeline, "synthesize_modified", recording_synthesis)
        config = (short_exec_config(tmp_path, "ext") if kind == "exec"
                  else fast_config(fixture_wav, tmp_path / "out"))
        run_explanation(config)
        # The predictor's per-instance work (the builtin's coefficients, an
        # exec: run's request texts) is gone before the first rendering.
        assert len(instances) == 1 and after_lime[0]
        assert at_synthesis == [set()] * 4


def test_exec_children_are_reaped_before_synthesis(tmp_path, monkeypatch, spawned):
    running_at_synthesis = []

    def recording_synthesis(*args, **kwargs):
        running_at_synthesis.append([proc.returncode is None for proc in spawned])
        return synthesize_modified(*args, **kwargs)

    monkeypatch.setattr(pipeline, "synthesize_modified", recording_synthesis)
    run_explanation(short_exec_config(tmp_path, "ext"))
    assert spawned
    assert running_at_synthesis == [[False] * len(spawned)] * 4


class TestWriteCsv:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=st.sampled_from([-0.0, 0.0, 5e-324, 1e16, -80.0])
                  | st.floats(allow_nan=False)))
    def test_bytes_match_savetxt(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            ours, numpy_s = Path(tmp) / "ours.csv", Path(tmp) / "numpy.csv"
            pipeline._write_csv(ours, values)
            np.savetxt(numpy_s, values, fmt="%.17g", delimiter=",")
            assert ours.read_bytes() == numpy_s.read_bytes()


class TestChunking:
    @pytest.mark.parametrize("fill", list(FillStrategy))
    def test_batch_size_and_workers_do_not_change_bytes(self, fill, fixture_wav,
                                                        tmp_path, monkeypatch):
        lime = LimeConfig(n_samples=600, seed=42, fill=fill)
        produced = []
        for name, block, workers in (("default", 256, 1), ("chunked", 17, 3)):
            monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", block)
            config = fast_config(fixture_wav, tmp_path / name, lime=lime,
                                 workers=workers)
            bundle = run_explanation(config)
            produced.append((bundle.out_dir / BUNDLE_FILES["explanation"]).read_bytes())
        assert produced[0] == produced[1]


class TestMakePredictor:
    def test_builtin(self):
        predictor = make_predictor("builtin", seed=3)
        assert isinstance(predictor, BuiltinPredictor)
        assert predictor.seed == 3
        assert predictor.start().linear_head is not None

    def test_constant(self):
        predictor = make_predictor("constant")
        assert isinstance(predictor, ConstantPredictor)
        assert np.all(predictor.start().linear_head.weights == 0.0)

    def test_exec(self):
        predictor = make_predictor(f"exec:{child_command('echo')}", timeout=15.0)
        assert isinstance(predictor, ExternalPredictor)
        assert predictor._pool == [], "make_predictor spawned the command"
        assert predictor.start().mid_names[0] == "m1"
        assert predictor.close() == 0

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_predictor("mystery")

    @pytest.mark.parametrize("cpus, children", [(2, 2), (1, 1)])
    def test_exec_children_are_capped_at_the_cpu_count(self, cpus, children,
                                                       tmp_path, monkeypatch, spawned):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        handed = []

        def recording(spec, **kwargs):
            handed.append(kwargs["workers"])
            return make_predictor(spec, **kwargs)

        monkeypatch.setattr(pipeline, "make_predictor", recording)
        bundle = run_explanation(replace(short_exec_config(tmp_path, "ext"),
                                         workers=64))
        assert handed == [children]
        assert bundle.report["predictor"]["children"] == children
        assert len(spawned) == children

    def test_failed_handshake_reaps_the_child(self, monkeypatch):
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = popen(*args, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        try:
            predictor = make_predictor(f"exec:{child_command('bad-arity')}", timeout=10.0)
            with pytest.raises(CapabilitiesError):
                predictor.start()
            assert len(spawned) == 1
            assert spawned[0].poll() is not None, "the child outlived start()"
        finally:
            for proc in spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    @pytest.mark.parametrize("command", ["explain", "stability"])
    @pytest.mark.parametrize("spec", ["mystery", "exec:", 'exec:python3 "model.py'],
                             ids=["unknown", "no-command", "unclosed-quote"])
    def test_bad_predictor_is_refused_before_the_audio(self, command, spec, fixture_wav,
                                                       tmp_path, monkeypatch, capsys):
        read = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: read.append(a))
        out = tmp_path / "out"
        code = cli_main([command, "--audio", str(fixture_wav), "--predictor", spec,
                         "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert read == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["explain", "stability"])
    def test_bad_target_is_refused_before_the_audio(self, command, fixture_wav, tmp_path,
                                                    monkeypatch, capsys):
        read = []
        monkeypatch.setattr(pipeline, "decode_wav", lambda *a: read.append(a))
        out = tmp_path / "out"
        code = cli_main([command, "--audio", str(fixture_wav), "--target", "foo",
                         "--out", str(out)])
        assert code == 2
        assert "cannot parse target 'foo'" in capsys.readouterr().err
        assert read == []
        assert not out.exists()


@pytest.fixture(scope="module")
def prepared(fixture_wav):
    from midlime.segmentation import felzenszwalb_segment

    clip = decode_wav(fixture_wav)
    cspec = stft(clip, FAST_STFT)
    dbspec = magnitude_db(cspec)
    seg_map = felzenszwalb_segment(dbspec, SegmentationConfig())

    def target(batch):
        return [float(s.values.mean()) for s in batch]

    expl = explain_instance(target, Instance(dbspec, seg_map, "silence"),
                            LimeConfig(n_samples=300, seed=3))
    return clip, cspec, seg_map, expl


class TestSynthesizeModified:
    def test_gain_zero_add_is_a_no_op(self, prepared):
        clip, cspec, seg_map, expl = prepared
        out = synthesize_modified(cspec, seg_map,
                                  selection_row(seg_map, expl.positive_ids),
                                  MODE_ADD, 0.0, iterations=0)
        plain = istft(cspec)
        n = min(len(out.samples), len(clip.samples))
        frame = FAST_STFT.frame_size
        ref = clip.samples[frame:n - frame]
        got = out.samples[frame:n - frame]
        noise = np.sum((ref - got) ** 2)
        assert 10 * np.log10(np.sum(ref**2) / noise) >= 60.0
        assert np.allclose(out.samples, plain.samples, atol=1e-12)

    def test_mask_only_with_empty_selection_is_silence(self, prepared):
        _, cspec, seg_map, _ = prepared
        out = synthesize_modified(cspec, seg_map, selection_row(seg_map, ()),
                                  MODE_MASK_ONLY, iterations=2)
        assert np.all(out.samples == 0.0)

    def test_mask_only_with_all_segments_is_full_reconstruction(self, prepared):
        clip, cspec, seg_map, _ = prepared
        out = synthesize_modified(cspec, seg_map,
                                  np.ones(seg_map.segment_count, dtype=np.uint8),
                                  MODE_MASK_ONLY, iterations=0)
        frame = FAST_STFT.frame_size
        n = min(len(out.samples), len(clip.samples))
        ref = clip.samples[frame:n - frame]
        got = out.samples[frame:n - frame]
        noise = np.sum((ref - got) ** 2)
        assert 10 * np.log10(np.sum(ref**2) / noise) >= 60.0

    def test_subtract_clamps_at_zero(self, prepared):
        _, cspec, seg_map, _ = prepared
        out = synthesize_modified(cspec, seg_map,
                                  np.ones(seg_map.segment_count, dtype=np.uint8),
                                  MODE_SUBTRACT, 5.0, iterations=0)
        assert np.all(np.isfinite(out.samples))
        # removing everything at gain 5 clamps to zero magnitude everywhere
        assert float(np.max(np.abs(out.samples))) == 0.0

    def test_negative_gain_rejected(self, prepared):
        _, cspec, seg_map, expl = prepared
        row = selection_row(seg_map, expl.positive_ids)
        for gain in (-1.0, np.inf, np.nan):
            with pytest.raises(ConfigError):
                synthesize_modified(cspec, seg_map, row, MODE_ADD, gain)

    def test_unknown_mode_rejected(self, prepared):
        _, cspec, seg_map, expl = prepared
        with pytest.raises(ConfigError):
            synthesize_modified(cspec, seg_map, selection_row(seg_map, expl.positive_ids),
                                "blend", 1.0)

    def test_negative_iterations_rejected(self, prepared):
        _, cspec, seg_map, expl = prepared
        with pytest.raises(ConfigError, match="iterations must be >= 0, got -1"):
            synthesize_modified(cspec, seg_map, selection_row(seg_map, expl.positive_ids),
                                MODE_ADD, iterations=-1)

    def test_mismatched_map_rejected(self, prepared):
        from conftest import block_map

        _, cspec, _, _ = prepared
        wrong = block_map(4, 4, 2, 2)
        with pytest.raises(ShapeMismatchError):
            synthesize_modified(cspec, wrong, np.ones(4, dtype=np.uint8), MODE_ADD, 1.0)

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_row_of_the_wrong_length_rejected(self, prepared, extra):
        _, cspec, seg_map, _ = prepared
        row = np.ones(seg_map.segment_count + extra, dtype=np.uint8)
        with pytest.raises(ShapeMismatchError, match="does not match segment count"):
            synthesize_modified(cspec, seg_map, row, MODE_MASK_ONLY, iterations=0)


class TestRunStability:
    def test_writes_pairwise_and_summary_tables(self, fixture_wav, tmp_path):
        out = tmp_path / "stab"
        config = fast_config(fixture_wav, out,
                             lime=LimeConfig(n_samples=600, seed=0))
        results = run_stability(config, seeds=[3, 5], sample_counts=[600])
        score = results[600]["score"]
        pairwise = (out / "stability.csv").read_text().splitlines()
        assert pairwise == ["sample_count,seed_i,seed_j,jaccard",
                            f"600,3,5,{score.mean_pairwise_jaccard!r}"]
        summary = (out / "stability_summary.csv").read_text().splitlines()
        counts = " ".join(map(str, results[600]["selected_counts"]))
        assert summary == [
            "sample_count,mean_pairwise_jaccard,seeds,selected_counts",
            f"600,{score.mean_pairwise_jaccard!r},3 5,{counts}"]

    @pytest.mark.parametrize("seeds, counts, named", [
        ([3, 3], [600], "seeds must differ; repeated: 3"),
        ([1, 2, 1, 4, 2], [600], "seeds must differ; repeated: 1, 2"),
        ([1, 2], [300, 300], "sample counts must differ; repeated: 300"),
    ])
    def test_rejects_repeats_before_any_work(self, fixture_wav, tmp_path,
                                             monkeypatch, seeds, counts, named):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(pipeline, "_prepare", no_work)
        out = tmp_path / "stab"
        config = fast_config(fixture_wav, out)
        with pytest.raises(ConfigError, match=named):
            run_stability(config, seeds=seeds, sample_counts=counts)
        assert not out.exists()

    def test_refuses_a_small_count_before_any_attribution(self, fixture_wav, tmp_path,
                                                           monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2].n_samples)
            return explain_instance(*args, **kwargs)

        monkeypatch.setattr(pipeline, "explain_instance", counted)
        out = tmp_path / "stab"
        config = fast_config(fixture_wav, out)
        with pytest.raises(ConfigError,
                           match=r"n_samples 50 cannot overdetermine \d+ segments"):
            run_stability(config, seeds=[1, 2], sample_counts=[600, 50])
        assert calls == []
        assert not out.exists()

    def test_distinct_seeds_report_counts(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "stab2",
                             lime=LimeConfig(n_samples=600, seed=0))
        results = run_stability(config, seeds=[1, 2], sample_counts=[600, 700])
        assert set(results) == {600, 700}
        for count in (600, 700):
            assert len(results[count]["selected_counts"]) == 2
            assert 0.0 <= results[count]["score"].mean_pairwise_jaccard <= 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_writes_a_report_with_each_attribution(self, fixture_wav, tmp_path, bundle,
                                                   workers, forks):
        out = tmp_path / "stab"
        config = fast_config(fixture_wav, out, lime=LimeConfig(n_samples=600, seed=0),
                             workers=workers)
        results = run_stability(config, seeds=[1, 2], sample_counts=[600, 700])
        assert len(forks) == workers - 1
        report = json.loads((out / "report.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(report["files"].values())
        shared = set(bundle.report) - {"selected", "files"}
        assert shared <= set(report)
        assert report["predictor"]["exit_code"] is None
        runs = report["runs"]
        assert [(r["sample_count"], r["seed"]) for r in runs] == [
            (600, 1), (600, 2), (700, 1), (700, 2)]
        assert [r["selected"] for r in runs] == (results[600]["selected_counts"]
                                                 + results[700]["selected_counts"])
        stages = [f"lime[n={r['sample_count']},seed={r['seed']}]" for r in runs]
        assert [k for k in report["timings_s"] if k.startswith("lime")] == stages
        for r, stage in zip(runs, stages):
            assert r["lime_s"] == report["timings_s"][stage] > 0
        # This process runs attributions 0, W, 2W, ...; the helpers time
        # theirs, but their peaks are not this process's.
        assert_peaks_by_stage(report, away=frozenset(stages) - set(stages[::workers]))
        assert_cpu_time(report)

    def test_builds_the_builtin_coefficients_once(self, fixture_wav, tmp_path,
                                                  monkeypatch):
        built = []
        coefficients = BuiltinPredictor._coefficients
        monkeypatch.setattr(BuiltinPredictor, "_coefficients",
                            lambda self, instance: built.append(instance)
                            or coefficients(self, instance))
        config = fast_config(fixture_wav, tmp_path / "stab", workers=2)
        run_stability(config, seeds=[1, 2], sample_counts=[600, 700])
        assert len(built) == 1

    def test_builds_the_run_texts_once(self, tmp_path, monkeypatch):
        built = []
        run_texts = predictor_module._RunTexts
        monkeypatch.setattr(predictor_module, "_RunTexts",
                            lambda instance: built.append(instance) or run_texts(instance))
        run_stability(short_exec_config(tmp_path, "stab"), seeds=[1, 2],
                      sample_counts=[60, 70])
        assert len(built) == 1

    def test_rejects_fewer_than_two_seeds(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "x")
        with pytest.raises(ConfigError):
            run_stability(config, seeds=[1], sample_counts=[600])
        with pytest.raises(ConfigError):
            run_stability(config, seeds=[], sample_counts=[600])

    def test_rejects_empty_sample_counts(self, fixture_wav, tmp_path):
        config = fast_config(fixture_wav, tmp_path / "y")
        with pytest.raises(ConfigError):
            run_stability(config, seeds=[1, 2], sample_counts=[])


STABILITY_TABLES = ("stability.csv", "stability_summary.csv")


def stability_argv(fixture_wav, out, workers: int, seeds: str = "1,2") -> list[str]:
    return ["stability", "--audio", str(fixture_wav), "--out", str(out),
            "--frame-size", "1024", "--hop", "512", "--seeds", seeds,
            "--sample-counts", "600,700", "--workers", str(workers)]


def patch_attribution(monkeypatch, change, *runs) -> None:
    """Run each attribution of `runs`, (sample count, seed) pairs, through
    `change(predict)`'s predictor; `change` may also raise or act instead."""
    explain = pipeline.explain_instance

    def changed(predict, instance, config, **kwargs):
        if (config.n_samples, config.seed) in runs:
            predict = change(predict)
        return explain(predict, instance, config, **kwargs)

    monkeypatch.setattr(pipeline, "explain_instance", changed)


def non_finite(predict):
    return lambda batch: np.full(len(batch), np.nan)


class TestForkedStability:
    """Attribution i of W > 1 workers runs in process i mod W, with the same
    bytes as one process, and no process outlives the command."""

    def test_tables_are_identical_across_worker_counts(self, fixture_wav, tmp_path,
                                                       forks):
        tables, scores = [], []
        for workers in (1, 2, 3):
            out = tmp_path / f"stab-{workers}"
            config = fast_config(fixture_wav, out, workers=workers)
            results = run_stability(config, seeds=[1, 2, 3], sample_counts=[600, 700])
            tables.append([(out / name).read_bytes() for name in STABILITY_TABLES])
            scores.append(results)
        # Three workers are capped at the two CPUs.
        assert len(forks) == 2
        assert tables[0] == tables[1] == tables[2]
        assert scores[0] == scores[1] == scores[2]
        assert_no_child_left()

    @pytest.mark.parametrize("seed", [1, 2], ids=["main-process", "helper"])
    def test_a_failure_exits_as_at_one_worker(self, seed, fixture_wav, tmp_path,
                                              monkeypatch, capsys, forks):
        patch_attribution(monkeypatch, non_finite, (700, seed))
        outcomes = []
        for workers in (1, 2):
            code = cli_main(stability_argv(fixture_wav, tmp_path / f"s{workers}", workers))
            outcomes.append((code, capsys.readouterr().err))
            assert_no_child_left()
        assert len(forks) == 1
        assert outcomes[0] == outcomes[1] == (
            3, f"error: stage 'lime[n=700,seed={seed}]' failed: "
               "non-finite prediction at mask row 0\n")
        assert os.listdir(tmp_path) == []

    def test_the_lowest_failing_attribution_is_reported(self, fixture_wav, tmp_path,
                                                        monkeypatch, capsys, forks):
        # Of six attributions on three processes, helper 1 runs 1 and 4,
        # helper 2 runs 2 and 5; 4 and 2 fail.
        patch_attribution(monkeypatch, non_finite, (700, 2), (600, 3))
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
        code = cli_main(stability_argv(fixture_wav, tmp_path / "s", 3, seeds="1,2,3"))
        assert len(forks) == 2
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: stage 'lime[n=600,seed=3]' failed: non-finite")
        assert_no_child_left()

    def test_an_interrupt_in_the_main_share_kills_the_helpers(self, fixture_wav,
                                                             tmp_path, monkeypatch,
                                                             forks):
        def interrupt(predict):
            raise KeyboardInterrupt

        patch_attribution(monkeypatch, interrupt, (600, 1))
        config = fast_config(fixture_wav, tmp_path / "stab", workers=2)
        with pytest.raises(KeyboardInterrupt):
            run_stability(config, seeds=[1, 2], sample_counts=[600, 700])
        assert len(forks) == 1
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    def test_a_helper_that_dies_exits_5(self, fixture_wav, tmp_path, monkeypatch,
                                        capsys, forks):
        def die(predict):
            os.kill(os.getpid(), signal.SIGKILL)

        patch_attribution(monkeypatch, die, (600, 2))
        code = cli_main(stability_argv(fixture_wav, tmp_path / "s", 2))
        assert code == 5
        assert capsys.readouterr().err == (
            f"error: attribution process {forks[0]} was killed by signal "
            f"{signal.SIGKILL} before it sent all its results\n")
        assert_no_child_left()
        assert os.listdir(tmp_path) == []

    def test_results_larger_than_the_pipe_buffer_arrive(self, fixture_wav, tmp_path,
                                                        monkeypatch, forks):
        # Each explanation a helper sends carries 800 kB of extra weights.
        explain = pipeline.explain_instance

        def padded(*args, **kwargs):
            explanation = explain(*args, **kwargs)
            fit = replace(explanation.fit, std_errors=np.zeros(100_000))
            return replace(explanation, fit=fit)

        config = fast_config(fixture_wav, tmp_path / "one", workers=1)
        expected = run_stability(config, seeds=[1, 2], sample_counts=[600, 700])
        monkeypatch.setattr(pipeline, "explain_instance", padded)
        config = fast_config(fixture_wav, tmp_path / "two", workers=2)
        assert run_stability(config, seeds=[1, 2], sample_counts=[600, 700]) == expected
        assert len(forks) == 1
        assert_no_child_left()

    def test_one_worker_does_not_fork(self, fixture_wav, tmp_path, no_fork):
        run_stability(fast_config(fixture_wav, tmp_path / "stab", workers=1),
                      seeds=[1, 2], sample_counts=[600, 700])

    def test_exec_does_not_fork(self, tmp_path, no_fork):
        run_stability(replace(short_exec_config(tmp_path, "stab"), workers=2),
                      seeds=[1, 2], sample_counts=[60, 70])

    def test_a_second_python_thread_does_not_fork(self, fixture_wav, tmp_path,
                                                  no_fork):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run_stability(fast_config(fixture_wav, tmp_path / "stab", workers=2),
                          seeds=[1, 2], sample_counts=[600, 700])
        finally:
            stop.set()
            thread.join()

    def test_other_platforms_do_not_fork(self, fixture_wav, tmp_path, monkeypatch,
                                         no_fork):
        monkeypatch.setattr(sys, "platform", "darwin")
        run_stability(fast_config(fixture_wav, tmp_path / "stab", workers=2),
                      seeds=[1, 2], sample_counts=[600, 700])


def record_lime_threads(monkeypatch) -> list[int]:
    """The `workers` that each attribution in this process hands
    `explain_instance`."""
    threads: list[int] = []
    explain = pipeline.explain_instance

    def recording(*args, workers=1, **kwargs):
        threads.append(workers)
        return explain(*args, workers=workers, **kwargs)

    monkeypatch.setattr(pipeline, "explain_instance", recording)
    return threads


class TestWorkerBudget:
    """`--workers` is resolved once, to at most one per usable CPU; the
    threads, processes and children, and the report, all read that count."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)

    def test_explain_threads(self, fixture_wav, tmp_path, monkeypatch, two_cpus):
        threads = record_lime_threads(monkeypatch)
        bundle = run_explanation(fast_config(fixture_wav, tmp_path / "b", workers=8))
        assert threads == [2]
        assert bundle.report["config"]["workers"] == 2

    def test_exec_children_and_lime_thread(self, tmp_path, monkeypatch, spawned,
                                           two_cpus):
        threads = record_lime_threads(monkeypatch)
        bundle = run_explanation(replace(short_exec_config(tmp_path, "ext"), workers=8))
        assert len(spawned) == 2
        assert threads == [1]
        assert bundle.report["config"]["workers"] == 2
        assert bundle.report["predictor"]["children"] == 2

    def test_stability_processes(self, fixture_wav, tmp_path, forks):
        out = tmp_path / "stab"
        run_stability(fast_config(fixture_wav, out, workers=8), seeds=[1, 2],
                      sample_counts=[600, 700])
        assert len(forks) == 1
        assert json.loads((out / "report.json").read_text())["config"]["workers"] == 2

    @pytest.fixture
    def one_cpu_of_two(self, monkeypatch):
        """A process allowed one CPU of a machine's two, as under `taskset -c 0`."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_the_affinity_mask_bounds_stability(self, fixture_wav, tmp_path,
                                                one_cpu_of_two, no_fork):
        out = tmp_path / "stab"
        run_stability(fast_config(fixture_wav, out, workers=2), seeds=[1, 2],
                      sample_counts=[600, 700])
        assert json.loads((out / "report.json").read_text())["config"]["workers"] == 1

    def test_the_affinity_mask_bounds_exec(self, tmp_path, spawned, one_cpu_of_two):
        bundle = run_explanation(replace(short_exec_config(tmp_path, "ext"), workers=2))
        assert len(spawned) == 1
        assert bundle.report["config"]["workers"] == 1

    @pytest.mark.parametrize("cpus, usable", [(3, 3), (None, 1)])
    def test_without_an_affinity_mask_the_cpu_count_bounds(self, cpus, usable,
                                                           monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert pipeline._usable_cpus() == usable


class TestCpuTime:
    """`cpu_s` is the command's whole CPU time: the CLI process's and that
    of every child it reaped, which is what `wait4` on the CLI counts."""

    @pytest.mark.parametrize("command", ["exec", "stability"])
    def test_cpu_s_is_the_cli_wait4_cpu_time(self, command, fixture_wav, tmp_path):
        out = tmp_path / "out"
        if command == "exec":
            argv = ["explain", "--audio", str(write_short_wav(tmp_path)), "--out", str(out),
                    "--frame-size", "256", "--hop", "128", "--min-size", "800",
                    "--samples", "60", "--gl-iters", "1", "--workers", "2",
                    "--predictor", f"exec:{child_command('echo')} --burn 0.5"]
        else:
            argv = stability_argv(fixture_wav, out, 2)
        devnull = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
        pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "midlime.cli", *argv],
                             package_env(), file_actions=devnull)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        cpu_s = json.loads((out / "report.json").read_text())["cpu_s"]
        assert cpu_s == pytest.approx(usage.ru_utime + usage.ru_stime, abs=0.25)


class TestRunConfigValidation:
    def test_rejects_negative_gain(self, fixture_wav, tmp_path):
        for gain in (-0.5, np.inf, np.nan):
            with pytest.raises(ConfigError):
                fast_config(fixture_wav, tmp_path, synth_gain=gain)

    def test_rejects_negative_iterations(self, fixture_wav, tmp_path):
        with pytest.raises(ConfigError):
            fast_config(fixture_wav, tmp_path, gl_iterations=-1)

    def test_rejects_bad_workers(self, fixture_wav, tmp_path):
        with pytest.raises(ConfigError):
            fast_config(fixture_wav, tmp_path, workers=0)
