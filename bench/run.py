"""midlime benchmark: four CLI workloads, each command in a fresh process.

    python3 bench/run.py --workload explain-3s --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26

Run from the root of a source checkout; the package is imported from src/.
A run writes its seeded input clip, then launches the same CLI command again
and again until --seconds have passed (always whole commands), checks every
bundle against an independent computation, and prints one JSON object as
the last line of stdout. With --trace 0 it reports the end-to-end metrics,
medians over the run's commands. With --trace 1 it alternates untraced and
traced commands and reports per-layer metrics from the traced ones.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shlex
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FLOOR_DB = -80.0
COMMAND_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Workload:
    clip: str
    command: str
    flags: tuple[str, ...]
    frame: int = 2048
    hop: int = 512
    gateway: bool = False

    def argv(self, seed: int, wav: Path, out: Path, stats: Path) -> list[str]:
        argv = [self.command, "--audio", str(wav), "--out", str(out), *self.flags]
        if self.command == "stability":
            argv.append("--seeds=" + ",".join(map(str, stability_seeds(seed))))
        if self.gateway:
            child = shlex.join([sys.executable, str(BENCH / "child.py"),
                                "--stats", str(stats)])
            argv += ["--predictor", f"exec:{child}"]
        return argv


STABILITY_COUNTS = [600, 1200]

# Why each workload is here, and how it was sized: BENCHMARK.json, README.md.
WORKLOADS = {
    "explain-3s": Workload("3s", "explain", ("--samples", "2000")),
    "explain-long": Workload("6s", "explain", ("--samples", "1150")),
    "stability": Workload("3s", "stability", (
        "--sample-counts", ",".join(map(str, STABILITY_COUNTS)), "--workers", "2")),
    "gateway": Workload("1s", "explain", (
        "--frame-size", "512", "--hop", "256", "--samples", "224", "--workers", "2"),
        frame=512, hop=256, gateway=True),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "segmentation.segment_s": "s", "segmentation.segments": "count",
    "lime.sample_s": "s", "lime.render_s": "s", "lime.render_calls": "count",
    "lime.render_bytes_computed": "B", "lime.fit_s": "s", "lime.fit_calls": "count",
    "lime.select_s": "s", "lime.self_s": "s", "lime.rows": "count",
    "lime.unique_row_ratio": "ratio",
    "predictor.predict_s": "s", "predictor.calls": "count", "predictor.items": "count",
    "predictor.handshake_s": "s",
    "dsp.griffin_lim_s": "s", "dsp.griffin_lim_calls": "count",
    "pipeline.write_s": "s", "pipeline.self_s": "s", "pipeline.bundle_bytes": "B",
    "gateway.bytes_out": "B", "gateway.bytes_in": "B", "gateway.bytes_per_item": "B",
    "gateway.child_busy_s": "s", "gateway.items_per_s": "1/s",
    "gateway.child_peak_rss_mb": "MB",
    "cli.setup_s": "s", "cli.self_s": "s", "cli.exit_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def stability_seeds(seed: int) -> list[int]:
    return [3 * seed + 1, 3 * seed + 2, 3 * seed + 3]


class Oracle:
    """Closed-form expectations for one workload input."""

    def __init__(self, workload: Workload, samples: np.ndarray):
        from midlime.predictor import BuiltinPredictor

        self.workload = workload
        self.v = oracle.db_spectrogram(samples, workload.frame, workload.hop, FLOOR_DB)
        self.stub = BuiltinPredictor(0)
        self.support_size = None
        if workload.command == "stability":
            # The stability tables carry no segment map; segment the
            # recomputed spectrogram with the package's own segmenter.
            from midlime.dsp import SCALE_DB, Spectrogram, StftConfig
            from midlime.segmentation import SegmentationConfig, felzenszwalb_segment

            spec = Spectrogram(self.v, SCALE_DB, StftConfig(), inputs.SAMPLE_RATE)
            seg = felzenszwalb_segment(spec, SegmentationConfig())
            target = oracle.builtin_auto_target(self.v, self.stub)
            a = self._builtin(seg.labels, seg.segment_count, {"index": target})
            self.support_size = len(oracle.support(a))

    def _builtin(self, labels, count, target):
        rects = self.stub.regions(self.v.shape)[target["index"]]
        return oracle.builtin_coefficients(self.v, labels, count, FLOOR_DB, rects)

    def _echo(self, labels, count, target):
        return oracle.echo_coefficients(self.v, labels, count, FLOOR_DB)

    def check(self, out_dir: Path, seed: int) -> list[str]:
        w = self.workload
        if w.command == "stability":
            return oracle.check_stability(out_dir, stability_seeds(seed),
                                          STABILITY_COUNTS, self.support_size)
        return oracle.check_explanation(out_dir, self.v, w.frame, w.hop, FLOOR_DB,
                                        self._echo if w.gateway else self._builtin)


def launch(argv: list[str], work: Path, tag: str, trace: bool) -> dict:
    """One CLI command in a fresh process; wall, setup, CPU and peak RSS."""
    stamp = work / f"{tag}.stamp.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])),
        MIDLIME_LOG="warning", BENCH_STAMP=str(stamp), BENCH_RUN_ID=tag,
        BENCH_TRACE="1" if trace else "0")
    log = str(work / f"{tag}.log")
    actions = [(os.POSIX_SPAWN_OPEN, fd, log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
               for fd in (1, 2)]
    launched = time.monotonic()
    env["BENCH_LAUNCH"] = repr(launched)
    pid = os.posix_spawn(sys.executable, [sys.executable, str(BENCH / "launch.py"), *argv],
                         env, file_actions=actions)
    # A hung command is killed, so that the run still ends in bounded time.
    guard = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    guard.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        guard.cancel()
    ended = time.monotonic()
    result = {"exit": os.waitstatus_to_exitcode(status), "wall_s": ended - launched,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "log": log}
    try:
        stamped, written = map(json.loads, stamp.read_text(encoding="utf-8").splitlines())
    except (OSError, ValueError):
        stamped, written = {"ready": None, "spans": None}, {}
    result["setup_s"] = (stamped["ready"] - launched) if stamped["ready"] else None
    result["spans"] = stamped["spans"]
    for span in result["spans"] or ():
        if span["end"] is None:   # cli.root and cli.exit end when the stamp is written
            span["end"] = written["written"]
    return result


def layer_metrics(result: dict, out_dir: Path, stats_path: Path) -> dict:
    """Per-layer figures of one traced command."""
    import spans

    recorded = result["spans"]
    share = spans.attribute(recorded)
    by_name: dict[str, list[dict]] = {}
    for s in recorded:
        by_name.setdefault(s["name"], []).append(s)

    def self_s(*names):
        return sum(share[s["id"]] for n in names for s in by_name.get(n, []))

    def count(name):
        return len(by_name.get(name, []))

    samples = by_name.get("lime.sample", [])
    rows = sum(s["rows"] for s in samples)
    distinct = {}
    for s in samples:
        distinct[s["seed"]] = max(distinct.get(s["seed"], 0), s["rows"])
    run = by_name["pipeline.run"][0]
    last = [s["end"] for s in by_name.get("dsp.griffin_lim", [])] \
        or [s["end"] for s in by_name.get("lime.explain", [])]
    predict_s = self_s("predictor.predict")
    metrics = {
        "segmentation.segment_s": self_s("segmentation.segment"),
        "segmentation.segments": sum(s["segments"] for s in by_name["segmentation.segment"]),
        "lime.sample_s": self_s("lime.sample"),
        "lime.render_s": self_s("lime.render"),
        "lime.render_calls": count("lime.render"),
        "lime.render_bytes_computed": 8 * sum(s["pixels"] for s in by_name.get("lime.render", [])),
        "lime.fit_s": self_s("lime.fit"),
        "lime.fit_calls": count("lime.fit"),
        "lime.select_s": self_s("lime.select"),
        "lime.self_s": self_s("lime.explain"),
        "lime.rows": rows,
        "lime.unique_row_ratio": sum(distinct.values()) / rows if rows else 0.0,
        "predictor.predict_s": predict_s,
        "predictor.calls": count("predictor.predict"),
        "predictor.items": sum(s["items"] for s in by_name.get("predictor.predict", [])),
        "predictor.handshake_s": self_s("predictor.start", "predictor.handshake"),
        "dsp.griffin_lim_s": self_s("dsp.griffin_lim"),
        "dsp.griffin_lim_calls": count("dsp.griffin_lim"),
        "pipeline.write_s": run["end"] - max(last),
        "pipeline.self_s": self_s("pipeline.run"),
        "pipeline.bundle_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "cli.setup_s": self_s("cli.setup"),
        "cli.self_s": self_s("cli.root", "cli.main"),
        "cli.exit_s": self_s("cli.exit"),
        "trace.wall_s": result["wall_s"],
        "trace.unaccounted_s": result["wall_s"] - sum(share.values()),
    }
    gateway = {"gateway.bytes_out": 0, "gateway.bytes_in": 0, "gateway.bytes_per_item": 0.0,
               "gateway.child_busy_s": 0.0, "gateway.items_per_s": 0.0,
               "gateway.child_peak_rss_mb": 0.0}
    if stats_path.exists():
        child = json.loads(stats_path.read_text(encoding="utf-8"))
        gateway = {
            "gateway.bytes_out": child["bytes_in"],
            "gateway.bytes_in": child["bytes_out"],
            "gateway.bytes_per_item": child["bytes_in"] / max(child["items"], 1),
            "gateway.child_busy_s": child["busy_s"],
            "gateway.items_per_s": child["items"] / predict_s if predict_s else 0.0,
            "gateway.child_peak_rss_mb": child["peak_rss_mb"],
        }
    metrics.update(gateway)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pcm = inputs.quantize_pcm16(inputs.clip_for(workload.clip, seed))
        wav = work / "input.wav"
        inputs.write_wav(wav, pcm)
        expect = Oracle(workload, pcm / 32768.0)

        timed, traced, problems = [], [], []
        digest = None
        attempted = failed = 0
        started = time.monotonic()
        round_s: list[float] = []
        while True:
            round_started = time.monotonic()
            for tracing in ((False, True) if trace else (False,)):
                tag = f"c{attempted}"
                out, stats = work / f"{tag}.out", work / f"{tag}.child.json"
                result = launch(workload.argv(seed, wav, out, stats), work, tag, tracing)
                attempted += 1
                print(f"{name} {tag}{' traced' if tracing else ''}: exit {result['exit']}, "
                      + ", ".join(f"{k} {result[k]:.4f}" for k in END_TO_END
                                  if result[k] is not None), file=sys.stderr)
                found = []
                if result["exit"] != 0:
                    failed += 1
                    tail = Path(result["log"]).read_text(errors="replace")[-400:]
                    print(f"{name}: command {tag} exited {result['exit']}: {tail}",
                          file=sys.stderr)
                    continue
                got = oracle.bundle_digest(out)
                if result["setup_s"] is None:
                    found = ["the command wrote no stamp file"]
                elif digest is None:
                    found = expect.check(out, seed)
                    digest = got
                elif got != digest:
                    found = ["bundle digest differs from the run's first bundle"]
                if found:
                    failed += 1
                    problems += [f"{tag}: {p}" for p in found]
                    continue
                if tracing:
                    result["layers"] = layer_metrics(result, out, stats)
                    traced.append(result)
                else:
                    timed.append(result)
                shutil.rmtree(out, ignore_errors=True)
            round_s.append(time.monotonic() - round_started)
            elapsed = time.monotonic() - started
            if elapsed >= seconds - statistics.median(round_s) / 2:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    # A run in which no command of a kind succeeded has nothing to report:
    # its metrics are null, never 0, and it is not correct.
    if not timed or (trace and not traced):
        problems.append("no command of the run succeeded")
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)
    if trace:
        units, metrics = PER_LAYER, dict.fromkeys(PER_LAYER)
        if timed and traced:
            metrics.update({k: statistics.median(r["layers"][k] for r in traced)
                            for k in traced[0]["layers"]})
            metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in timed)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    else:
        units = END_TO_END
        metrics = {k: statistics.median(r[k] for r in timed) if timed else None for k in units}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "midlime" / "cli.py").is_file():
        print(f"error: no midlime sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        timed = run_workload(name, args.seed, args.seconds, False)
        layered = run_workload(name, args.seed, args.seconds, True)
        results[name] = {"correct": timed["correct"] and layered["correct"],
                         "attempted": timed["attempted"] + layered["attempted"],
                         "failed": timed["failed"] + layered["failed"],
                         "metrics": {**timed["metrics"], **layered["metrics"]}}
        print(f"== {name}: attempted {results[name]['attempted']}, "
              f"failed {results[name]['failed']}, correct {results[name]['correct']}")
        for key, m in results[name]["metrics"].items():
            value = "-" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {key:30s} {value:>16s} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
