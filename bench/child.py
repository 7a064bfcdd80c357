#!/usr/bin/env python3
"""Echo predictor child for the gateway workload; stdlib only.

Speaks protocol 1 of the midlime JSON-lines gateway. Each item's mid-level
vector is the mean of its values repeated 7 times, and its emotion vector is
HEAD_W @ mid + HEAD_B with the fixed head it advertises. The mean target is
exactly affine in the mask, so the benchmark can check the explanation in
closed form.

At shutdown it writes a JSON object to the --stats path: items scored, bytes
read and written, busy time (from a complete request line to its flushed
reply) and its own peak RSS.

    python3 bench/child.py --stats stats.json
"""

import argparse
import json
import resource
import sys
import time

HEAD_W = [[((3 * i + 2 * j) % 7 - 3) / 4.0 for j in range(7)] for i in range(8)]
HEAD_B = [(i - 4) / 8.0 for i in range(8)]
MID_NAMES = [f"mid_{j}" for j in range(7)]
EMOTION_NAMES = [f"emotion_{i}" for i in range(8)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stats", required=True)
    stats_path = parser.parse_args().stats

    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    items = bytes_in = bytes_out = 0
    busy = 0.0

    def send(obj) -> int:
        data = json.dumps(obj).encode("utf-8") + b"\n"
        stdout.write(data)
        stdout.flush()
        return len(data)

    line = stdin.readline()
    bytes_in += len(line)
    if json.loads(line).get("type") != "handshake":
        return 1
    bytes_out += send({
        "type": "capabilities", "protocol": 1,
        "mid_names": MID_NAMES, "emotion_names": EMOTION_NAMES,
        "linear_head": {"weights": HEAD_W, "bias": HEAD_B},
        "input_spec": {"bins": "variable", "frames": "variable"},
    })
    for line in stdin:
        started = time.perf_counter()
        bytes_in += len(line)
        msg = json.loads(line)
        if msg.get("type") == "shutdown":
            break
        mids, emotions = [], []
        for flat in msg["batch"]:
            mid = [sum(flat) / len(flat)] * 7
            mids.append(mid)
            emotions.append([sum(w * m for w, m in zip(row, mid)) + b
                             for row, b in zip(HEAD_W, HEAD_B)])
        items += len(mids)
        bytes_out += send({"type": "prediction", "id": msg["id"],
                           "mid": mids, "emotion": emotions})
        busy += time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"items": items, "bytes_in": bytes_in, "bytes_out": bytes_out,
                   "busy_s": busy, "peak_rss_mb": peak_kb / 1024.0}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
