"""The benchmark's trace hooks still find the functions they wrap.

`bench/spans.py:install` looks up layer functions and methods by name, so a
rename would otherwise surface only in a traced benchmark run.
"""

import json
import subprocess
import sys

from conftest import TESTS_DIR, package_env

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
