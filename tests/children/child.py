#!/usr/bin/env python3
"""Scriptable predictor child for gateway tests; stdlib only.

Speaks the stdio JSON-lines protocol. Behaviour is selected with --mode:

  echo          reply in order; mid = mean of the item's values, replicated
                7x; emotion = HEAD_W @ mid + HEAD_B (head also advertised)
  reorder       buffer replies in pairs and emit each pair swapped
                (second request answered first); a reply still held when no
                request arrives for 50 ms, or at shutdown, is sent then
  bad-arity     advertise 6 mid names instead of 7
  non-json      print a garbage line instead of capabilities
  old-protocol  advertise protocol 0 in capabilities
  no-head       advertise linear_head null
  pid-names     echo, but each mid name ends in the child's process id
  nan           emit NaN for item 0 of the first chunk, echo otherwise
  short-reply   drop the last item from the first chunk's reply
  silent        complete the handshake, never answer predictions
  exit-early    exit 0 right after capabilities

Two options work with any mode:

  --record DIR  append "id rows bytes" for each predict request to
                DIR/<pid>.txt, bytes counting the request's newline
  --tally PATH  at shutdown, read the JSON object at PATH (if any) and
                rewrite it in small slow pieces with "writers" one higher;
                children that overlap there break the count or the file
"""

import argparse
import json
import os
import select
import sys
import time

# Fixed head so tests can compute expected emotions independently.
HEAD_W = [[((i * 7 + j) % 5 - 2) / 3.0 for j in range(7)] for i in range(8)]
HEAD_B = [i / 10.0 for i in range(8)]

MID_NAMES = ["m1", "m2", "m3", "m4", "m5", "m6", "m7"]
EMOTION_NAMES = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def read_lines(idle=None):
    """stdin's lines as bytes; with `idle`, None whenever no input came for
    that many seconds."""
    fd = sys.stdin.fileno()
    parts = []
    while True:
        if idle is not None and not select.select([fd], [], [], idle)[0]:
            yield None
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return
        *lines, rest = chunk.split(b"\n")
        for line in lines:
            parts.append(line)
            yield b"".join(parts)
            parts = []
        parts.append(rest)


def compute(msg, mode, first_chunk):
    mids, emotions = [], []
    for flat in msg["batch"]:
        mean = sum(flat) / len(flat)
        mid = [mean] * 7
        emo = [sum(HEAD_W[i][j] * mid[j] for j in range(7)) + HEAD_B[i]
               for i in range(8)]
        mids.append(mid)
        emotions.append(emo)
    if mode == "nan" and first_chunk:
        mids[0][0] = float("nan")
    if mode == "short-reply" and first_chunk:
        mids.pop()
        emotions.pop()
    return {"type": "prediction", "id": msg["id"], "mid": mids, "emotion": emotions}


def tally(path):
    try:
        with open(path, encoding="utf-8") as fh:
            writers = json.load(fh)["writers"]
    except FileNotFoundError:
        writers = 0
    text = json.dumps({"writers": writers + 1, "pid": os.getpid(), "pad": "x" * 4000})
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), 500):
            fh.write(text[start:start + 500])
            fh.flush()
            time.sleep(0.005)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", default="echo")
    parser.add_argument("--record")
    parser.add_argument("--tally")
    args = parser.parse_args()
    mode = args.mode
    record = (open(os.path.join(args.record, f"{os.getpid()}.txt"), "a", buffering=1)
              if args.record else None)

    lines = read_lines(0.05 if mode == "reorder" else None)
    handshake = json.loads(next(lines))
    assert handshake.get("type") == "handshake", handshake

    if mode == "non-json":
        sys.stdout.write("well this is awkward\n")
        sys.stdout.flush()
        return 0

    mid_names = MID_NAMES[:6] if mode == "bad-arity" else MID_NAMES
    if mode == "pid-names":
        mid_names = [f"{name}-{os.getpid()}" for name in mid_names]
    caps = {
        "type": "capabilities",
        "mid_names": mid_names,
        "emotion_names": EMOTION_NAMES,
        "linear_head": None if mode == "no-head" else {"weights": HEAD_W, "bias": HEAD_B},
        "input_spec": {"bins": "variable", "frames": "variable"},
    }
    if mode == "old-protocol":
        caps["protocol"] = 0
    emit(caps)

    if mode == "exit-early":
        return 0

    held = []
    first_chunk = True
    for line in lines:
        if line is None:
            for reply in held:
                emit(reply)
            held.clear()
            continue
        msg = json.loads(line)
        if msg.get("type") == "shutdown":
            break
        if msg.get("type") != "predict":
            continue
        if record is not None:
            record.write(f"{msg['id']} {len(msg['batch'])} {len(line) + 1}\n")
        if mode == "silent":
            continue
        reply = compute(msg, mode, first_chunk)
        first_chunk = False
        if mode == "reorder":
            held.append(reply)
            if len(held) == 2:
                emit(held[1])
                emit(held[0])
                held.clear()
        else:
            emit(reply)
    for reply in held:
        emit(reply)
    if args.tally:
        tally(args.tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
