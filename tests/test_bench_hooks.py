"""The benchmark's trace hooks still find the functions they wrap.

`bench/spans.py:install` looks up layer functions and methods by name, so a
rename would otherwise surface only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys

import pytest

from midlime.audio import AudioClip, encode_wav

from conftest import TESTS_DIR, child_command, package_env, uniform_noise

BENCH_DIR = TESTS_DIR.parent / "bench"

# Mirrors bench/launch.py: import the CLI, install the tracer, run a command.
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import midlime.cli
import spans

tracer = spans.Tracer("test")
spans.install(tracer)
code = midlime.cli.main(["explain", "--audio", sys.argv[2], "--out", sys.argv[3],
                         "--samples", "600", "--frame-size", "1024", "--hop", "512",
                         "--gl-iters", "1"])
names = {}
for span in tracer.spans:
    names[span["name"]] = names.get(span["name"], 0) + 1
print(json.dumps({"exit": code, "names": names}))
"""


def test_trace_hooks_record_the_layer_spans(fixture_wav, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(BENCH_DIR), str(fixture_wav),
         str(tmp_path / "bundle")],
        env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    names = result["names"]
    for name in ("pipeline.run", "lime.explain", "lime.sample", "lime.fit",
                 "lime.select", "segmentation.segment", "predictor.start",
                 "predictor.predict", "dsp.griffin_lim"):
        assert names.get(name, 0) >= 1, f"no {name} span in {sorted(names)}"
    # The builtin predictor scores mask rows without rendering them.
    assert "lime.render" not in names


# The same, for any command; prints the recorded spans themselves.
TRACED_SPANS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import midlime.cli
import spans

tracer = spans.Tracer("test")
spans.install(tracer)
code = midlime.cli.main(json.loads(sys.argv[2]))
print(json.dumps({"exit": code, "spans": tracer.spans}))
"""


def traced_spans(argv: list[str]) -> dict[str, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SPANS, str(BENCH_DIR), json.dumps(argv)],
        env=package_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0, proc.stderr
    by_name: dict[str, list[dict]] = {}
    for span in result["spans"]:
        assert span["end"] is not None, span
        by_name.setdefault(span["name"], []).append(span)
    return by_name


@pytest.fixture
def short_wav(tmp_path):
    wav = tmp_path / "short.wav"
    encode_wav(AudioClip(samples=0.3 * uniform_noise(400, 8000), sample_rate=22050),
               wav)
    return wav


# Few segments, so that a few dozen mask rows give a full-rank fit.
SMALL = ["--frame-size", "256", "--hop", "128", "--min-size", "800"]


def test_stability_spans_carry_what_the_benchmark_reads(short_wav, tmp_path):
    by_name = traced_spans(["stability", "--audio", str(short_wav),
                            "--out", str(tmp_path / "stab"), *SMALL,
                            "--seeds", "1,2", "--sample-counts", "40,60"])
    # The benchmark ends the stability run's work at the last attribution.
    assert len(by_name["lime.explain"]) == 4
    assert sorted((s["seed"], s["rows"]) for s in by_name["lime.sample"]) == [
        (1, 40), (1, 60), (2, 40), (2, 60)]
    assert "dsp.griffin_lim" not in by_name


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs one process")
def test_forked_stability_keeps_spans_in_the_traced_process(short_wav, tmp_path):
    # The helpers' spans stay in the helpers. `layer_metrics` needs the
    # run's span and the traced process's own attributions: 0, 2, ...
    by_name = traced_spans(["stability", "--audio", str(short_wav),
                            "--out", str(tmp_path / "stab"), *SMALL,
                            "--seeds", "1,2", "--sample-counts", "40,60",
                            "--workers", "2"])
    assert len(by_name["pipeline.run"]) == 1
    assert len(by_name["lime.explain"]) == 2
    assert sorted((s["seed"], s["rows"]) for s in by_name["lime.sample"]) == [
        (1, 40), (1, 60)]


def test_gateway_spans_carry_what_the_benchmark_reads(short_wav, tmp_path):
    by_name = traced_spans(["explain", "--audio", str(short_wav),
                            "--out", str(tmp_path / "bundle"), *SMALL,
                            "--samples", "60", "--gl-iters", "1",
                            "--predictor", f"exec:{child_command('echo')}"])
    assert len(by_name["predictor.handshake"]) == 1
    # Every mask row, and the full-clip prediction.
    assert sum(s["items"] for s in by_name["predictor.predict"]) == 60 + 1
