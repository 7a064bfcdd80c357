"""Builtin predictor closed forms and the external stdio gateway."""

import json
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlime import lime as lime_module
from midlime import predictor
from midlime.audio import AudioClip
from midlime.dsp import Spectrogram, StftConfig, magnitude_db, stft
from midlime.errors import (
    CapabilitiesError,
    ConfigError,
    PredictionValueError,
    PredictorTimeoutError,
    ProtocolError,
    ProtocolVersionError,
    SpawnError,
    TransportError,
)
from midlime.lime import (
    FillStrategy,
    Instance,
    LimeConfig,
    MaskBatch,
    explain_instance,
    sample_masks,
)
from midlime.predictor import (
    BUILTIN_EMOTION_NAMES,
    BUILTIN_MID_NAMES,
    EMOTION_COUNT,
    MID_COUNT,
    BuiltinPredictor,
    ConstantPredictor,
    ExternalPredictor,
    LinearHead,
    PredictorCapabilities,
    REQUEST_BYTES,
    WINDOW,
    _parse_capabilities,
)
from midlime.segmentation import SegmentationConfig, SegmentMap, felzenszwalb_segment

from conftest import (
    BAD_LINE_CHILD,
    SAMPLE_RATE,
    UNREADABLE_LINES,
    block_map,
    child_command,
    db_spec,
    make_fixture_samples,
    random_db_image,
    recorded_requests,
    unmasked,
)

TINY = StftConfig(frame_size=16, hop_size=4)  # 9 bins

CHILD_HEAD_W = np.array([[((i * 7 + j) % 5 - 2) / 3.0 for j in range(7)]
                         for i in range(8)])
CHILD_HEAD_B = np.array([i / 10.0 for i in range(8)])

# Replies with zeros, except that the Python statement in argv[2] edits the
# `mid` and `emotion` rows of the reply to chunk id argv[1].
EDITING_CHILD = (
    "import json, sys\n"
    "chunk, edit = int(sys.argv[1]), sys.argv[2]\n"
    "for line in sys.stdin:\n"
    "    msg = json.loads(line)\n"
    "    if msg['type'] == 'handshake':\n"
    "        print(json.dumps({'type': 'capabilities',"
    " 'mid_names': ['m' + str(i) for i in range(7)],"
    " 'emotion_names': ['e' + str(i) for i in range(8)],"
    " 'linear_head': None}), flush=True)\n"
    "    elif msg['type'] == 'predict':\n"
    "        mid = [[0.0] * 7 for _ in msg['batch']]\n"
    "        emotion = [[0.0] * 8 for _ in msg['batch']]\n"
    "        if msg['id'] == chunk:\n"
    "            exec(edit)\n"
    "        print(json.dumps({'type': 'prediction', 'id': msg['id'],"
    " 'mid': mid, 'emotion': emotion}), flush=True)\n"
    "    else:\n"
    "        break\n"
)

# Completes the handshake with the mid names of the JSON list in argv[1],
# then waits for one more line.
NAMING_CHILD = (
    "import json, sys\n"
    "sys.stdin.readline()\n"
    "print(json.dumps({'type': 'capabilities', 'mid_names': json.loads(sys.argv[1]),"
    " 'emotion_names': ['e' + str(i) for i in range(8)],"
    " 'linear_head': None}), flush=True)\n"
    "sys.stdin.readline()\n"
)

# Completes the handshake, then ignores every message and the end of its
# input for a minute.
DEAF_CHILD = (
    "import json, sys, time\n"
    "sys.stdin.readline()\n"
    "print(json.dumps({'type': 'capabilities',"
    " 'mid_names': ['m' + str(i) for i in range(7)],"
    " 'emotion_names': ['e' + str(i) for i in range(8)],"
    " 'linear_head': None}), flush=True)\n"
    "time.sleep(60)\n"
)


def tiny_spec(seed: int) -> Spectrogram:
    return db_spec(random_db_image(seed, 9, 6), config=TINY)


def tiny_batch(n: int) -> MaskBatch:
    """`n` mask rows, all ones first, over tiny_spec(3) in six 3 x 3 segments."""
    masks = sample_masks(6, LimeConfig(n_samples=max(n, 8), seed=3))[:n]
    return MaskBatch(Instance(tiny_spec(3), block_map(9, 6, 3, 3), "silence"), masks)


def item_means(batch: MaskBatch) -> list[float]:
    return [float(item.values.mean()) for item in batch]


def request_lines(batch: MaskBatch, batch_size: int, first_id: int = 0) -> list[bytes]:
    """The predict requests of `batch` as `json.dumps` writes its rendered rows."""
    shape = list(batch.instance.spec.values.shape)
    return [json.dumps({"type": "predict", "id": first_id + k, "shape": shape,
                        "scale": "db",
                        "batch": [s.values.ravel().tolist()
                                  for s in batch[start:start + batch_size]]},
                       separators=(",", ":")).encode() + b"\n"
            for k, start in enumerate(range(0, len(batch), batch_size))]


class TestLinearHead:
    def test_shape_validation(self):
        with pytest.raises(Exception):
            LinearHead(weights=np.zeros((3, 7)), bias=np.zeros(8))

    def test_apply(self):
        head = LinearHead(weights=CHILD_HEAD_W, bias=CHILD_HEAD_B)
        mid = np.linspace(0, 1, MID_COUNT)
        assert np.allclose(head.apply(mid), CHILD_HEAD_W @ mid + CHILD_HEAD_B)

    def test_apply_sums_in_index_order(self):
        head = BuiltinPredictor(seed=4).head
        mids = random_db_image(9, 5, MID_COUNT) / 40.0
        for mid in mids:
            expected = np.empty(8)
            for i in range(8):
                acc = mid[0] * head.weights[i, 0]
                for j in range(1, MID_COUNT):
                    acc = acc + mid[j] * head.weights[i, j]
                expected[i] = acc + head.bias[i]
            assert np.array_equal(head.apply(mid), expected)

    def test_apply_on_a_stack_matches_each_row(self):
        head = BuiltinPredictor(seed=5).head
        mids = random_db_image(10, 6, MID_COUNT) / 40.0
        stacked = head.apply(mids)
        assert stacked.shape == (6, 8)
        for mid, row in zip(mids, stacked):
            assert np.array_equal(head.apply(mid), row)


class TestBuiltin:
    def test_all_floor_closed_form(self):
        predictor = BuiltinPredictor(seed=0)
        spec = db_spec(np.full((40, 30), -80.0))
        (mid,), (emotion,) = predictor.predict(unmasked(spec))
        # every region mean is -80, so mid_j = -80 + 0.5*80 + offset_j
        expected_mid = -80.0 + 40.0 + predictor.offsets
        assert np.allclose(mid, expected_mid, atol=1e-12)
        assert np.allclose(emotion, predictor.head.apply(expected_mid), atol=1e-12)

    def test_region_means_closed_form(self):
        predictor = BuiltinPredictor(seed=3)
        values = random_db_image(40, 50, 36)
        spec = db_spec(values)
        (mid,), _ = predictor.predict(unmasked(spec))
        for j, (pos, neg) in enumerate(predictor.regions((50, 36))):
            pos_mean = values[pos[0]:pos[1], pos[2]:pos[3]].mean()
            neg_mean = values[neg[0]:neg[1], neg[2]:neg[3]].mean()
            assert mid[j] == pytest.approx(
                pos_mean - 0.5 * neg_mean + predictor.offsets[j], abs=1e-12)

    def test_emotion_is_exactly_linear_in_mid(self):
        predictor = BuiltinPredictor(seed=1)
        for seed in range(4):
            (mid,), (emotion,) = predictor.predict(unmasked(tiny_spec(seed)))
            assert np.max(np.abs(emotion - predictor.head.apply(mid))) <= 1e-12

    def test_functional_is_affine_in_pixels(self):
        predictor = BuiltinPredictor(seed=2)
        a, b = tiny_spec(1).values, tiny_spec(2).values
        lam = 0.3
        mix = db_spec(lam * a + (1 - lam) * b, config=TINY)
        (mid_mix,), _ = predictor.predict(unmasked(mix))
        (mid_a,), _ = predictor.predict(unmasked(db_spec(a, config=TINY)))
        (mid_b,), _ = predictor.predict(unmasked(db_spec(b, config=TINY)))
        offset = predictor.offsets
        expected = lam * (mid_a - offset) + (1 - lam) * (mid_b - offset) + offset
        assert np.allclose(mid_mix, expected, atol=1e-10)

    def test_duplicate_batch_items_agree(self):
        mids, emotions = BuiltinPredictor(seed=0).predict(unmasked(tiny_spec(7), rows=2))
        assert np.array_equal(mids[0], mids[1])
        assert np.array_equal(emotions[0], emotions[1])

    def test_seeded_reproducibility_and_variation(self):
        a = BuiltinPredictor(seed=5)
        b = BuiltinPredictor(seed=5)
        c = BuiltinPredictor(seed=6)
        assert np.array_equal(a.head.weights, b.head.weights)
        assert a.regions((64, 64)) == b.regions((64, 64))
        assert not np.array_equal(a.head.weights, c.head.weights)

    def test_empty_batch(self):
        mids, emotions = BuiltinPredictor().predict(tiny_batch(0))
        assert mids.shape == (0, MID_COUNT) and emotions.shape == (0, EMOTION_COUNT)

    def test_peak_memory_of_one_mask_chunk(self):
        # A 6 s clip has about 950 segments and a chunk is 256 rows. Here
        # 1 020 segments: the closed form over the whole chunk at once
        # peaked at 27.8 MB, in blocks of 32 rows at 5.2 MB.
        base = db_spec(random_db_image(41, 1020, 255))
        seg_map = block_map(1020, 255, 15, 17)
        masks = sample_masks(seg_map.segment_count,
                             LimeConfig(n_samples=seg_map.segment_count + 2, seed=5))
        batch = MaskBatch(Instance(base, seg_map, FillStrategy.GLOBAL_MEAN), masks[:256])
        predictor = BuiltinPredictor(seed=0)
        tracemalloc.start()
        try:
            predictor.predict(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seg_map.segment_count == 1020
        assert peak < 6.5e6

    def test_capabilities(self):
        caps = BuiltinPredictor(seed=0).start()
        assert caps.mid_names == BUILTIN_MID_NAMES
        assert caps.emotion_names == BUILTIN_EMOTION_NAMES
        assert caps.linear_head is not None
        assert caps.mid_names[:3] == ("melodiousness", "rhythmic_complexity",
                                      "articulation")


class TestConstantPredictor:
    def test_constant_output(self):
        predictor = ConstantPredictor(mid_value=0.25)
        mids, emotions = predictor.predict(tiny_batch(2))
        assert mids.shape == (2, MID_COUNT) and emotions.shape == (2, EMOTION_COUNT)
        assert np.all(mids == 0.25)
        assert np.all(emotions == 0.0)


class TestLifecycle:
    """Every predictor starts, predicts and closes through one contract."""

    def test_start_twice_gives_equal_capabilities_and_close_reports(self):
        handles = [BuiltinPredictor(seed=0), ConstantPredictor(),
                   ExternalPredictor(child_command("echo"), timeout=20)]
        exits = []
        for handle in handles:
            try:
                first = handle.start()
                assert isinstance(first, PredictorCapabilities)
                assert predictor._unlike_field(first, handle.start()) is None
                mids, emotions = handle.predict(tiny_batch(3))
                assert mids.shape == (3, MID_COUNT)
                assert emotions.shape == (3, EMOTION_COUNT)
            finally:
                exits.append(handle.close())
        assert exits == [None, None, 0]

    def test_unclosed_quote_in_the_command_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot parse predictor command"):
            ExternalPredictor('python3 "model.py')


class TestCapabilitiesParsing:
    def _base(self) -> dict:
        return {
            "type": "capabilities",
            "mid_names": [f"m{i}" for i in range(7)],
            "emotion_names": [f"e{i}" for i in range(8)],
            "linear_head": {"weights": CHILD_HEAD_W.tolist(),
                            "bias": CHILD_HEAD_B.tolist()},
            "input_spec": {"bins": 9, "frames": "variable"},
        }

    def test_happy_path(self):
        caps = _parse_capabilities(self._base())
        assert isinstance(caps, PredictorCapabilities)
        assert caps.linear_head is not None
        assert np.allclose(caps.linear_head.weights, CHILD_HEAD_W)
        assert caps.input_spec["bins"] == 9

    @pytest.mark.parametrize("bins", [True, 0, -3, 9.0, "9", None, "fixed"])
    def test_input_spec_takes_variable_or_a_positive_int(self, bins):
        msg = self._base()
        msg["input_spec"] = {"bins": bins, "frames": "variable"}
        with pytest.raises(CapabilitiesError) as info:
            _parse_capabilities(msg)
        assert info.value.field == "input_spec"

    def test_arity_error_names_field(self):
        msg = self._base()
        msg["mid_names"] = msg["mid_names"][:6]
        with pytest.raises(CapabilitiesError) as info:
            _parse_capabilities(msg)
        assert info.value.field == "mid_names"

    def test_null_head_allowed(self):
        msg = self._base()
        msg["linear_head"] = None
        assert _parse_capabilities(msg).linear_head is None

    def test_malformed_head(self):
        msg = self._base()
        msg["linear_head"] = {"weights": [[1.0]], "bias": [0.0]}
        with pytest.raises(CapabilitiesError) as info:
            _parse_capabilities(msg)
        assert info.value.field == "linear_head"

    @pytest.mark.parametrize("names", [
        ["a,b", "m2", "m3", "m4", "m5", "m6", "m7"],
        ["", "m2", "m3", "m4", "m5", "m6", "m7"],
        ["m1", "m2", "m3", "m1", "m5", "m6", "m7"],
        ['say "x"', "m2", "m3", "m4", "m5", "m6", "m7"],
        ["m1", "two\nlines", "m3", "m4", "m5", "m6", "m7"],
    ], ids=["comma", "empty", "repeated", "double-quote", "line-break"])
    def test_names_that_would_break_the_effects_csv_fail_start(self, names):
        gateway = ExternalPredictor([sys.executable, "-c", NAMING_CHILD,
                                     json.dumps(names)], timeout=10)
        with pytest.raises(CapabilitiesError) as info:
            gateway.start()
        assert info.value.field == "mid_names"
        assert gateway.close() is None

    def test_builtin_names_pass_and_emotion_names_are_checked_too(self):
        caps = BuiltinPredictor(0).start()
        assert caps.mid_names == BUILTIN_MID_NAMES
        with pytest.raises(CapabilitiesError) as info:
            PredictorCapabilities(BUILTIN_MID_NAMES, ("e1",) * EMOTION_COUNT, None)
        assert info.value.field == "emotion_names"

    @pytest.mark.parametrize("protocol, error", [
        (0, ProtocolVersionError), (True, ProtocolError), (1.0, ProtocolError),
    ], ids=["version-0", "boolean", "float"])
    def test_protocol_version_mismatch(self, protocol, error):
        msg = self._base()
        msg["protocol"] = protocol
        with pytest.raises(ProtocolError) as info:
            _parse_capabilities(msg)
        assert type(info.value) is error


class TestGateway:
    def test_handshake_and_echo_relay(self):
        batch = tiny_batch(5)
        with ExternalPredictor(child_command("echo"), timeout=20) as gateway:
            caps = gateway.start()
            assert caps.mid_names == tuple(f"m{i}" for i in range(1, 8))
            assert caps.linear_head is not None
            mids, emotions = gateway.predict(batch)
        assert mids.shape == (5, MID_COUNT) and emotions.shape == (5, EMOTION_COUNT)
        for spec, mid, emotion in zip(batch, mids, emotions):
            mean = float(spec.values.mean())
            assert np.allclose(mid, mean, rtol=1e-9, atol=1e-12)
            expected = CHILD_HEAD_W @ mid + CHILD_HEAD_B
            assert np.allclose(emotion, expected, rtol=1e-9, atol=1e-12)

    def test_batch_size_does_not_change_results(self):
        batch = tiny_batch(7)
        with ExternalPredictor(child_command("echo"), timeout=20,
                               batch_size=2) as small:
            chunked = small.predict(batch)
        with ExternalPredictor(child_command("echo"), timeout=20,
                               batch_size=64) as big:
            whole = big.predict(batch)
        assert np.array_equal(chunked[0], whole[0])
        assert np.array_equal(chunked[1], whole[1])

    def test_empty_batch_sends_nothing(self):
        with ExternalPredictor(child_command("silent"), timeout=5) as gateway:
            began = time.monotonic()
            mids, emotions = gateway.predict(tiny_batch(0))
            # Nothing to send or await: no wait on the silent child.
            assert time.monotonic() - began < 2.5
        assert mids.shape == (0, MID_COUNT) and emotions.shape == (0, EMOTION_COUNT)

    def test_out_of_order_replies_reassembled(self):
        batch = tiny_batch(8)
        with ExternalPredictor(child_command("echo"), timeout=20,
                               batch_size=2) as ordered_gw:
            expected = ordered_gw.predict(batch)
        with ExternalPredictor(child_command("reorder"), timeout=20,
                               batch_size=2) as shuffled_gw:
            shuffled = shuffled_gw.predict(batch)
        assert np.array_equal(expected[0], shuffled[0])
        assert np.array_equal(expected[1], shuffled[1])

    def test_multiple_predict_calls_reuse_the_child(self):
        with ExternalPredictor(child_command("echo"), timeout=20) as gateway:
            first = gateway.predict(unmasked(tiny_spec(0)))
            second = gateway.predict(unmasked(tiny_spec(0)))
        assert np.array_equal(first[0], second[0])

    def test_close_returns_zero_exit(self):
        gateway = ExternalPredictor(child_command("echo"), timeout=20)
        gateway.start()
        gateway.predict(unmasked(tiny_spec(0)))
        assert gateway.close() == 0
        assert gateway.close() is None  # idempotent

    def test_spawn_failure(self):
        with pytest.raises(SpawnError):
            ExternalPredictor("/no/such/binary-xyz", timeout=5).start()

    def test_bad_arity_capabilities(self):
        gateway = ExternalPredictor(child_command("bad-arity"), timeout=10)
        try:
            with pytest.raises(CapabilitiesError) as info:
                gateway.start()
        finally:
            gateway.close()
        assert info.value.field == "mid_names"

    def test_a_failed_handshake_in_a_with_block_leaves_no_child(self, spawned):
        with pytest.raises(CapabilitiesError):
            with ExternalPredictor(child_command("bad-arity"), timeout=10):
                pass
        assert len(spawned) == 1
        assert spawned[0].returncode is not None, "the child outlived start()"

    def test_non_json_line(self):
        gateway = ExternalPredictor(child_command("non-json"), timeout=10)
        try:
            with pytest.raises(ProtocolError) as info:
                gateway.start()
        finally:
            gateway.close()
        assert info.value.line

    def test_old_protocol(self):
        gateway = ExternalPredictor(child_command("old-protocol"), timeout=10)
        try:
            with pytest.raises(ProtocolVersionError):
                gateway.start()
        finally:
            gateway.close()

    def test_child_closing_stdin_before_handshake(self, monkeypatch):
        encode = ExternalPredictor._encode

        def late_encode(msg):
            # Let the child close its stdin before the handshake is written.
            if msg["type"] == "handshake":
                time.sleep(0.3)
            return encode(msg)

        monkeypatch.setattr(ExternalPredictor, "_encode", staticmethod(late_encode))
        gateway = ExternalPredictor(["sh", "-c", "exec 0<&-; sleep 1"], timeout=10)
        try:
            with pytest.raises(TransportError):
                gateway.start()
        finally:
            gateway.close()

    def test_headless_child(self):
        with ExternalPredictor(child_command("no-head"), timeout=10) as gateway:
            assert gateway.start().linear_head is None

    def test_nan_reply_carries_batch_index(self):
        gateway = ExternalPredictor(child_command("nan"), timeout=10, batch_size=4)
        try:
            gateway.start()
            with pytest.raises(PredictionValueError) as info:
                gateway.predict(tiny_batch(4))
        finally:
            gateway.close()
        assert info.value.index == 0

    @pytest.mark.parametrize("edit", [
        "mid = [row[:6] for row in mid]",
        "mid[0][2] = 'x'",
        "mid[1].pop()",
        "mid[0][2] = '1.5'",
        "emotion[1][0] = True",
        "msg['id'] = True",
        "msg['id'] = 1.0",
        "msg['id'] = '1'",
    ], ids=["six-entry-mid", "string-entry", "ragged-rows", "numeric-string",
            "boolean", "boolean-id", "float-id", "string-id"])
    def test_malformed_reply_rows_are_protocol_errors(self, edit):
        with ExternalPredictor([sys.executable, "-c", EDITING_CHILD, "1", edit],
                               timeout=10, batch_size=2) as gateway:
            with pytest.raises(ProtocolError) as info:
                gateway.predict(tiny_batch(4))
        assert info.value.line

    def test_nan_in_a_later_chunk_carries_the_batch_index(self):
        edit = "emotion[1][5] = float('nan')"
        with ExternalPredictor([sys.executable, "-c", EDITING_CHILD, "1", edit],
                               timeout=10, batch_size=2) as gateway:
            with pytest.raises(PredictionValueError) as info:
                gateway.predict(tiny_batch(4))
        assert info.value.index == 3

    def test_integer_too_large_for_a_float_is_a_protocol_error(self):
        edit = "mid[0][0] = 10 ** 400"
        with ExternalPredictor([sys.executable, "-c", EDITING_CHILD, "0", edit],
                               timeout=10) as gateway:
            with pytest.raises(ProtocolError) as info:
                gateway.predict(unmasked(tiny_spec(0)))
        assert info.value.line

    @UNREADABLE_LINES
    @pytest.mark.parametrize("when", ["handshake", "prediction"])
    def test_a_line_json_cannot_read_is_a_protocol_error(self, bad, when, spawned):
        with pytest.raises(ProtocolError, match="non-JSON line") as info:
            with ExternalPredictor([sys.executable, "-c", BAD_LINE_CHILD, when, bad],
                                   timeout=10) as gateway:
                gateway.predict(tiny_batch(4))
        assert info.value.line
        assert len(spawned) == 1
        assert spawned[0].poll() is not None

    @pytest.mark.parametrize("started", [False, True], ids=["never-started", "closed"])
    def test_predict_outside_start_and_close_spawns_nothing(self, started,
                                                             monkeypatch):
        gateway = ExternalPredictor(child_command("echo"), timeout=10)
        if started:
            gateway.start()
            assert gateway.close() == 0
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            proc = popen(*args, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        try:
            with pytest.raises(TransportError, match="start"):
                gateway.predict(unmasked(tiny_spec(0)))
        finally:
            gateway.close()
            for proc in spawned:
                proc.kill()
                proc.wait()
        assert spawned == []

    def test_a_second_reply_to_an_answered_id_is_a_transport_error(self):
        edit = ("print(json.dumps({'type': 'prediction', 'id': msg['id'],"
                " 'mid': mid, 'emotion': emotion}), flush=True)")
        with ExternalPredictor([sys.executable, "-c", EDITING_CHILD, "0", edit],
                               timeout=10, batch_size=2) as gateway:
            with pytest.raises(TransportError, match="already-answered id 0"):
                gateway.predict(tiny_batch(4))

    def test_close_kills_a_child_that_ignores_shutdown(self, monkeypatch):
        # close() grants each child 5 s to exit; the test waits 0.2 s.
        waits = []
        wait = subprocess.Popen.wait

        def short_wait(self, timeout=None):
            waits.append(timeout)
            return wait(self, None if timeout is None else min(timeout, 0.2))

        monkeypatch.setattr(subprocess.Popen, "wait", short_wait)
        gateway = ExternalPredictor([sys.executable, "-c", DEAF_CHILD], timeout=10)
        gateway.start()
        proc = gateway._pool[0].proc
        try:
            assert gateway.close() == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert waits[0] == 5.0
        assert proc.returncode == -signal.SIGKILL

    def test_short_reply_is_a_transport_error(self):
        gateway = ExternalPredictor(child_command("short-reply"), timeout=10,
                                    batch_size=4)
        try:
            gateway.start()
            with pytest.raises(TransportError):
                gateway.predict(tiny_batch(4))
        finally:
            gateway.close()

    def test_exit_early_is_a_transport_error(self):
        gateway = ExternalPredictor(child_command("exit-early"), timeout=10)
        try:
            gateway.start()
            with pytest.raises(TransportError):
                gateway.predict(unmasked(tiny_spec(0)))
        finally:
            gateway.close()

    def test_silent_child_times_out(self):
        gateway = ExternalPredictor(child_command("silent"), timeout=1.0)
        try:
            gateway.start()
            with pytest.raises(PredictorTimeoutError):
                gateway.predict(unmasked(tiny_spec(0)))
        finally:
            gateway.close()

    def test_chunks_are_written_only_when_the_window_has_room(self, monkeypatch):
        replies, written = [], []
        handle = ExternalPredictor._handle_prediction
        predict_line = predictor._predict_line
        monkeypatch.setattr(ExternalPredictor, "_handle_prediction",
                            lambda self, line, *args: replies.append(line)
                            or handle(self, line, *args))
        monkeypatch.setattr(predictor, "_predict_line",
                            lambda cid, *args: written.append((cid, len(replies)))
                            or predict_line(cid, *args))
        with ExternalPredictor(child_command("echo"), timeout=20,
                               batch_size=1) as gateway:
            gateway.predict(tiny_batch(WINDOW + 4))
        assert [cid for cid, _ in written] == list(range(WINDOW + 4))
        assert all(got >= cid - WINDOW + 1 for cid, got in written)
        assert [got for _, got in written[:WINDOW]] == [0] * WINDOW

    def test_stderr_does_not_corrupt_the_protocol(self, capfd):
        code = ("import sys, json\n"
                "sys.stderr.write('chatter\\n')\n"
                "line = sys.stdin.readline()\n"
                "print(json.dumps({'type': 'capabilities',"
                " 'mid_names': ['m'+str(i) for i in range(7)],"
                " 'emotion_names': ['e'+str(i) for i in range(8)],"
                " 'linear_head': None}))\n"
                "sys.stdout.flush()\n"
                "sys.stdin.readline()\n")
        with ExternalPredictor([sys.executable, "-c", code], timeout=10) as gateway:
            assert gateway.start().linear_head is None


def child_with(mode: str, option: str, path) -> str:
    return f"{child_command(mode)} {option} {shlex.quote(str(path))}"


class TestGatewayPool:
    def test_spawn_failure_of_the_second_child_reaps_the_first(self, monkeypatch):
        spawned = []
        popen = subprocess.Popen

        def failing_popen(*args, **kwargs):
            if spawned:
                raise OSError("no more processes")
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", failing_popen)
        gateway = ExternalPredictor(child_command("echo"), timeout=10, children=2)
        try:
            with pytest.raises(SpawnError, match="no more processes"):
                gateway.start()
            assert len(spawned) == 1
            assert spawned[0].poll() is not None, "the first child outlived start()"
            assert gateway.close() is None
        finally:
            for proc in spawned:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    def test_children_must_report_the_same_capabilities(self, spawned):
        with ExternalPredictor(child_command("pid-names"), timeout=10) as single:
            assert single.start().mid_names[0].startswith("m1-")
        gateway = ExternalPredictor(child_command("pid-names"), timeout=10, children=2)
        with pytest.raises(CapabilitiesError, match="child 1") as info:
            gateway.start()
        assert info.value.field == "mid_names"
        # The failed start() has shut both of its children down.
        assert [proc.returncode for proc in spawned] == [0, 0, 0]
        assert gateway.close() is None

    def test_a_differing_or_missing_head_is_named(self):
        head = BuiltinPredictor(0).head
        other = LinearHead(weights=head.weights, bias=head.bias + 1.0)

        def caps(linear_head):
            return PredictorCapabilities(BUILTIN_MID_NAMES, BUILTIN_EMOTION_NAMES,
                                         linear_head)

        assert predictor._unlike_field(caps(head), caps(LinearHead(
            weights=head.weights.copy(), bias=head.bias.copy()))) is None
        assert predictor._unlike_field(caps(None), caps(None)) is None
        for a, b in ((head, other), (head, None), (None, head)):
            assert predictor._unlike_field(caps(a), caps(b)) == "linear_head"

    def test_bench_size_requests_stay_under_the_limit_and_ids_increase_per_child(
            self, tmp_path):
        # The fixture's first second at 257 x 85: about 0.4 MB per row.
        config = StftConfig(frame_size=512, hop_size=256)
        clip = AudioClip(samples=make_fixture_samples()[:SAMPLE_RATE],
                         sample_rate=SAMPLE_RATE)
        spec = magnitude_db(stft(clip, config))
        seg_map = felzenszwalb_segment(spec, SegmentationConfig())
        masks = sample_masks(seg_map.segment_count, LimeConfig(n_samples=64, seed=0))
        batch = MaskBatch(Instance(spec, seg_map, FillStrategy.SILENCE_FLOOR), masks)
        record = tmp_path / "record"
        record.mkdir()
        with ExternalPredictor(child_with("echo", "--record", record), timeout=60,
                               children=2) as gateway:
            mids, _ = gateway.predict(batch)
        expected = [batch[i].values.mean() for i in range(len(batch))]
        assert np.allclose(mids[:, 0], expected, rtol=1e-12, atol=0)
        per_child = recorded_requests(record)
        assert len(per_child) == 2
        requests = [r for child in per_child for r in child]
        assert sorted(cid for cid, _, _ in requests) == list(range(len(requests)))
        assert sum(rows for _, rows, _ in requests) == 64
        assert len(requests) >= 4
        for child in per_child:
            ids = [cid for cid, _, _ in child]
            assert ids == sorted(set(ids))
        assert all(size <= REQUEST_BYTES or rows == 1 for _, rows, size in requests)
        assert max(size for _, _, size in requests) > REQUEST_BYTES // 2

    def test_each_child_has_its_own_window(self, monkeypatch):
        replies, written = [], []
        handle = ExternalPredictor._handle_prediction
        predict_line = predictor._predict_line
        monkeypatch.setattr(ExternalPredictor, "_handle_prediction",
                            lambda self, line, *args: replies.append(line)
                            or handle(self, line, *args))
        monkeypatch.setattr(predictor, "_predict_line",
                            lambda cid, *args: written.append((cid, len(replies)))
                            or predict_line(cid, *args))
        with ExternalPredictor(child_command("reorder"), timeout=20, batch_size=1,
                               children=2) as gateway:
            batch = tiny_batch(3 * WINDOW)
            mids, _ = gateway.predict(batch)
        assert np.allclose(mids[:, 0], item_means(batch), rtol=0, atol=1e-12)
        assert [cid for cid, _ in written] == list(range(3 * WINDOW))
        assert [got for _, got in written[:2 * WINDOW]] == [0] * (2 * WINDOW)
        assert all(got >= cid - 2 * WINDOW + 1 for cid, got in written)

    def test_requests_are_as_full_as_the_byte_limit_allows(self, monkeypatch):
        # Every pixel's text is 18 bytes long, so unmasked rows reach the
        # bound on a row's length, 54 * 18 + 53 bytes.
        base = db_spec(np.full((9, 6), 1 / 3), config=TINY)
        batch = MaskBatch(Instance(base, block_map(9, 6, 3, 3), FillStrategy.SILENCE_FLOOR),
                          np.ones((12, 6), dtype=np.uint8))
        row = 54 * 18 + 53
        for limit in range(1000, 6200):
            monkeypatch.setattr(predictor, "REQUEST_BYTES", limit)
            gateway = WireGateway(batch_size=256)
            gateway.predict(batch)
            rows = [line.count(b"],[") + 1 for line in gateway.lines]
            assert sum(rows) == 12
            if limit < 2 * row + 70:
                assert rows == [1] * 12, limit
                continue
            for line in gateway.lines[:-1]:
                assert len(line) <= limit
                # One more row would not have fitted, but for the head's
                # allowance for a longer id.
                assert len(line) + row + 3 > limit - 4, limit

    def test_children_are_stopped_one_at_a_time(self, tmp_path):
        tally = tmp_path / "tally.json"
        gateway = ExternalPredictor(child_with("echo", "--tally", tally), timeout=20,
                                    batch_size=1, children=3)
        with gateway:
            gateway.predict(tiny_batch(6))
        assert gateway.close() is None
        assert json.loads(tally.read_text())["writers"] == 3

    def test_close_returns_the_first_nonzero_exit_code_in_child_order(self):
        gateway = ExternalPredictor(child_command("echo"), timeout=10, children=3)
        gateway.start()
        procs = [child.proc for child in gateway._pool]
        procs[2].send_signal(signal.SIGTERM)
        procs[1].kill()
        procs[1].wait()
        assert gateway.close() == -signal.SIGKILL
        assert [proc.returncode for proc in procs] == [0, -signal.SIGKILL,
                                                        -signal.SIGTERM]

    def test_lime_threads_share_one_gateway(self, monkeypatch):
        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 16)
        instance = Instance(tiny_spec(3), block_map(9, 6, 3, 3), "silence")
        config = LimeConfig(n_samples=400, seed=5)
        fits = []
        interval = sys.getswitchinterval()
        # Up to four threads, switching often, so that unlocked calls would
        # interleave.
        sys.setswitchinterval(1e-5)
        try:
            with ExternalPredictor(child_command("echo"), timeout=20,
                                   children=2) as gateway:
                for threads in (1, 2, 4):
                    with ThreadPoolExecutor(threads) as pool:
                        fits.append(explain_instance(
                            lambda batch: gateway.predict(batch)[0][:, 0], instance,
                            config, map=pool.map).fit)
        finally:
            sys.setswitchinterval(interval)
        # Each block of 16 rows is two requests of 8, one per child.
        assert gateway.counters["items"] == 3 * 400
        assert gateway.counters["requests"] == 3 * 50
        for fit in fits[1:]:
            for name in ("weights", "std_errors", "p_values"):
                assert getattr(fit, name).tobytes() == getattr(fits[0], name).tobytes()
            assert (fit.intercept, fit.r_squared) == (fits[0].intercept,
                                                      fits[0].r_squared)

    def test_each_call_is_spread_over_every_child(self, tmp_path):
        # At the default batch_size one request would hold all seven rows.
        record = tmp_path / "record"
        record.mkdir()
        with ExternalPredictor(child_with("echo", "--record", record), timeout=20,
                               children=2) as gateway:
            batch = tiny_batch(7)
            mids, _ = gateway.predict(batch)
        assert np.allclose(mids[:, 0], item_means(batch), rtol=0, atol=1e-12)
        assert [[(cid, rows) for cid, rows, _ in child]
                for child in recorded_requests(record)] in ([[(0, 4)], [(1, 3)]],
                                                            [[(1, 3)], [(0, 4)]])

    def test_counters_count_the_wire(self, tmp_path):
        record = tmp_path / "record"
        record.mkdir()
        gateway = ExternalPredictor(child_with("echo", "--record", record), timeout=20,
                                    batch_size=2, children=2)
        with gateway:
            gateway.predict(tiny_batch(7))
        requests = [r for child in recorded_requests(record) for r in child]
        handshake = len(gateway._encode({"type": "handshake", "protocol": 1}))
        shutdown = len(gateway._encode({"type": "shutdown"}))
        counters = gateway.counters
        assert counters["children"] == 2
        assert counters["requests"] == len(requests) == 4
        assert counters["items"] == 7
        assert counters["bytes_out"] == (sum(size for _, _, size in requests)
                                         + 2 * (handshake + shutdown))
        assert counters["bytes_in"] > 0


class TestGatewayMaskBatch:
    @pytest.mark.parametrize("fill", list(FillStrategy))
    def test_request_lines_match_rendered_rows_and_render_once(self, fill,
                                                                monkeypatch):
        # The expected lines render each row once; the gateway renders none.
        base = tiny_spec(3)
        seg_map = block_map(9, 6, 3, 3)
        masks = sample_masks(6, LimeConfig(n_samples=9, seed=2))
        batch = MaskBatch(Instance(base, seg_map, fill), masks)
        expected = request_lines(batch, 2)
        means = item_means(batch)
        sent, renders = [], []
        relay = ExternalPredictor._relay

        def recording_relay(self, proc, payloads, want, on_line):
            def record():
                for pieces in payloads:
                    pieces = list(pieces)
                    line = b"".join(pieces)
                    if line.startswith(b'{"type":"predict"'):
                        sent.append(line)
                    yield pieces
            return relay(self, proc, record(), want, on_line)

        monkeypatch.setattr(ExternalPredictor, "_relay", recording_relay)

        monkeypatch.setattr(Instance, "render",
                            lambda self, row: renders.append(row.copy()))
        with ExternalPredictor(child_command("echo"), timeout=20,
                               batch_size=2) as gateway:
            mids, _ = gateway.predict(batch)
        assert len(sent) == 5
        assert sent == expected
        assert renders == []
        assert np.allclose(mids[:, 0], means, rtol=1e-12, atol=0)

    @given(data=st.data(), height=st.integers(1, 6), width=st.integers(1, 6),
           segments=st.integers(1, 5), fill=st.sampled_from(list(FillStrategy)),
           batch_size=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_request_bytes_are_the_json_of_the_rendered_rows(
            self, data, height, width, segments, fill, batch_size):
        floor = TINY.floor_db
        value = st.one_of(st.sampled_from([-0.0, 0.0, 0.1, 1e16, 5e-324, floor,
                                           floor + 1e-13, 1 / 3, 123456.789]),
                          st.floats(floor, 1e12))
        values = np.array(data.draw(st.lists(value, min_size=height * width,
                                             max_size=height * width)))
        # Few labels over many pixels make runs that cross image-row bounds.
        raw = data.draw(st.lists(st.integers(0, segments - 1),
                                 min_size=height * width, max_size=height * width))
        _, labels = np.unique(raw, return_inverse=True)
        seg_map = SegmentMap(labels=labels.reshape(height, width),
                             segment_count=int(labels.max()) + 1)
        n = data.draw(st.integers(1, 6))
        masks = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=seg_map.segment_count,
                     max_size=seg_map.segment_count), min_size=n, max_size=n)),
            dtype=np.uint8)
        batch = MaskBatch(Instance(db_spec(values.reshape(height, width), config=TINY),
                                   seg_map, fill), masks)
        gateway = WireGateway(batch_size)
        gateway.predict(batch)
        assert gateway.lines == request_lines(batch, batch_size)

    def test_run_texts_are_built_once_per_instance(self, monkeypatch):
        # On the calling thread, as `exec:` runs are.
        monkeypatch.setattr(lime_module, "_PREDICT_BLOCK", 8)
        base = tiny_spec(4)
        seg_map = block_map(9, 6, 3, 2)
        built, renders = [], []
        run_texts = predictor._RunTexts
        monkeypatch.setattr(predictor, "_RunTexts",
                            lambda instance: built.append(instance)
                            or run_texts(instance))
        monkeypatch.setattr(Instance, "render",
                            lambda self, row: renders.append(row.copy()))
        config = LimeConfig(n_samples=40, seed=3)
        instance = Instance(base, seg_map, config.fill)
        with ExternalPredictor(child_command("echo"), timeout=20) as gateway:
            def explain():
                return explain_instance(lambda b: gateway.predict(b)[0][:, 0], instance,
                                        config)

            first = explain()
            second = explain()
        assert built == [instance]
        assert first.fit.weights.tobytes() == second.fit.weights.tobytes()
        assert renders == []

    def test_another_filler_gets_its_own_bytes(self):
        base = tiny_spec(5)
        seg_map = block_map(9, 6, 3, 3)
        masks = sample_masks(6, LimeConfig(n_samples=9, seed=4))
        gateway, expected = WireGateway(batch_size=8), []
        for fill in (FillStrategy.SILENCE_FLOOR, FillStrategy.SEGMENT_MEAN,
                     FillStrategy.SILENCE_FLOOR):
            batch = MaskBatch(Instance(base, seg_map, fill), masks)
            expected += request_lines(batch, 8, first_id=len(expected))
            gateway.predict(batch)
        assert len(gateway.lines) == 6
        assert gateway.lines == expected

    def test_a_request_is_held_once(self):
        # 224 rows of the fixture's first second at 257 x 85, 0.22 MB of text
        # each. The parent makes a row's text only as its child's pipe drains;
        # building each request whole when the child's window took it peaked
        # at 15.6 MB with one child and 30.9 MB with two.
        config = StftConfig(frame_size=512, hop_size=256)
        clip = AudioClip(samples=make_fixture_samples()[:SAMPLE_RATE],
                         sample_rate=SAMPLE_RATE)
        spec = magnitude_db(stft(clip, config))
        seg_map = felzenszwalb_segment(spec, SegmentationConfig())
        masks = sample_masks(seg_map.segment_count, LimeConfig(n_samples=224, seed=0))
        instance = Instance(spec, seg_map, FillStrategy.SEGMENT_MEAN)
        batch = MaskBatch(instance, masks)
        for children in (1, 2):
            with ExternalPredictor(child_command("echo"), timeout=60,
                                   children=children) as gateway:
                # Builds the run texts, which the instance keeps.
                gateway.predict(MaskBatch(instance, masks[:1]))
                tracemalloc.start()
                try:
                    mids, _ = gateway.predict(batch)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            row_bytes = instance.memo("run_texts", predictor._RunTexts).row_bytes
            assert mids.shape == (224, MID_COUNT)
            assert peak < 8 * row_bytes * children, (children, peak, row_bytes)


class WireGateway(ExternalPredictor):
    """A gateway that stops at the wire: `predict` checks and writes its
    requests, which are kept in `lines` instead of being sent."""

    def __init__(self, batch_size: int):
        super().__init__(["unused"], batch_size=batch_size)
        self._pool = [object()]
        self.lines = []

    def _relay(self, children, payloads, want, on_line):
        self.lines += map(b"".join, payloads)
