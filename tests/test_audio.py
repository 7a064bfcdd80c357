"""WAV codec: hand-built byte fixtures, round trips, malformed containers."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlime.audio import AudioClip, decode_wav, encode_wav
from midlime.errors import UnsupportedFormatError, WavDecodeError

from conftest import uniform_noise


def wav_bytes(body: bytes, *, fmt: int = 1, channels: int = 1,
              sample_rate: int = 22050, bits: int = 16,
              extra_chunks: bytes = b"") -> bytes:
    """Minimal RIFF container built by hand, independent of the encoder."""
    block = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH",
        b"RIFF", 4 + 24 + len(extra_chunks) + 8 + len(body), b"WAVE",
        b"fmt ", 16, fmt, channels, sample_rate,
        sample_rate * block, block, bits,
    )
    return header + extra_chunks + struct.pack("<4sI", b"data", len(body)) + body


def test_decode_one_second_of_silence(tmp_path):
    body = b"\x00\x00" * 22050
    path = tmp_path / "zeros.wav"
    path.write_bytes(wav_bytes(body))
    clip = decode_wav(path)
    assert clip.sample_rate == 22050
    assert len(clip.samples) == 22050
    assert np.all(clip.samples == 0.0)


def test_decode_stereo_opposite_channels_downmixes_to_zero(tmp_path):
    frame = struct.pack("<hh", 16384, -16384)  # +0.5, -0.5
    path = tmp_path / "stereo.wav"
    path.write_bytes(wav_bytes(frame * 1000, channels=2))
    clip = decode_wav(path)
    assert len(clip.samples) == 1000
    assert np.all(clip.samples == 0.0)


def test_decode_full_scale_square_wave_stays_in_unit_range(tmp_path):
    body = (struct.pack("<h", 32767) + struct.pack("<h", -32768)) * 500
    path = tmp_path / "square.wav"
    path.write_bytes(wav_bytes(body))
    clip = decode_wav(path)
    assert clip.samples.min() >= -1.0
    assert clip.samples.max() <= 1.0
    assert clip.samples.max() == pytest.approx(32767 / 32768)


def test_decode_float32(tmp_path):
    values = np.array([0.0, 0.25, -0.5, 1.0, -1.0], dtype="<f4")
    path = tmp_path / "float.wav"
    path.write_bytes(wav_bytes(values.tobytes(), fmt=3, bits=32))
    clip = decode_wav(path)
    assert np.allclose(clip.samples, values.astype(np.float64))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_decode_rejects_non_finite_float32(tmp_path, bad):
    # An infinity must not be clipped to full scale and decoded silently.
    values = np.array([0.25, bad, -0.5], dtype="<f4")
    path = tmp_path / "bad.wav"
    path.write_bytes(wav_bytes(values.tobytes(), fmt=3, bits=32))
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "data"
    assert "non-finite" in str(info.value)


def test_decode_skips_unknown_chunks(tmp_path):
    extra = struct.pack("<4sI", b"LIST", 4) + b"INFO"
    path = tmp_path / "listed.wav"
    path.write_bytes(wav_bytes(b"\x01\x00" * 10, extra_chunks=extra))
    assert len(decode_wav(path).samples) == 10


def test_decode_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + wav_bytes(b"\x00\x00")[4:])
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "RIFF"


def test_decode_rejects_non_wave_form(tmp_path):
    raw = bytearray(wav_bytes(b"\x00\x00"))
    raw[8:12] = b"AVI "
    path = tmp_path / "avi.wav"
    path.write_bytes(bytes(raw))
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "WAVE"


def test_decode_rejects_truncated_data_chunk(tmp_path):
    full = wav_bytes(b"\x00\x00" * 100)
    path = tmp_path / "cut.wav"
    path.write_bytes(full[:-50])
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "data"


def test_decode_rejects_missing_fmt(tmp_path):
    raw = struct.pack("<4sI4s", b"RIFF", 12, b"WAVE")
    raw += struct.pack("<4sI", b"data", 4) + b"\x00\x00\x00\x00"
    path = tmp_path / "nofmt.wav"
    path.write_bytes(raw)
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "fmt "


def test_decode_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "rate0.wav"
    path.write_bytes(wav_bytes(b"\x00\x00" * 10, sample_rate=0))
    with pytest.raises(WavDecodeError) as info:
        decode_wav(path)
    assert info.value.chunk == "fmt "


def with_sample_rate(raw: bytes, rate: int) -> bytes:
    """`raw`, a WAV whose fmt chunk starts at byte 12, with its sample-rate
    field set to `rate` and the byte-rate field left as it was."""
    raw = bytearray(raw)
    struct.pack_into("<I", raw, 24, rate)
    return bytes(raw)


@pytest.mark.parametrize("rate", [2**31, 3_000_000_000, 2**32 - 1])
def test_decode_rejects_a_rate_the_encoder_cannot_write(tmp_path, rate):
    path = tmp_path / "fast.wav"
    path.write_bytes(with_sample_rate(wav_bytes(b"\x00\x00" * 10), rate))
    with pytest.raises(UnsupportedFormatError, match=f"sample rate {rate} Hz"):
        decode_wav(path)


def test_the_highest_writable_rate_round_trips(tmp_path):
    path = tmp_path / "fastest.wav"
    path.write_bytes(with_sample_rate(wav_bytes(b"\x00\x40" * 10), 2**31 - 1))
    clip = decode_wav(path)
    assert clip.sample_rate == 2**31 - 1
    encode_wav(clip, tmp_path / "again.wav")
    raw = (tmp_path / "again.wav").read_bytes()
    # The byte rate, 2 * (2**31 - 1), still fits its uint32.
    assert struct.unpack_from("<II", raw, 24) == (2**31 - 1, 2**32 - 2)
    assert np.array_equal(decode_wav(tmp_path / "again.wav").samples, clip.samples)


@pytest.mark.parametrize("rate", [2**31, 2**32])
def test_encode_refuses_a_rate_its_header_cannot_hold(tmp_path, rate):
    path = tmp_path / "out.wav"
    with pytest.raises(UnsupportedFormatError, match=f"sample rate {rate} Hz"):
        encode_wav(AudioClip(samples=np.zeros(4), sample_rate=rate), path)
    assert not path.exists()


def test_decode_rejects_unsupported_codec(tmp_path):
    path = tmp_path / "alaw.wav"
    path.write_bytes(wav_bytes(b"\x00" * 8, fmt=6, bits=8))
    with pytest.raises(UnsupportedFormatError):
        decode_wav(path)


def test_decode_rejects_too_many_channels(tmp_path):
    path = tmp_path / "quad.wav"
    path.write_bytes(wav_bytes(b"\x00\x00" * 8, channels=4))
    with pytest.raises(UnsupportedFormatError):
        decode_wav(path)


def test_encode_zero_clip_writes_zero_data_chunk(tmp_path):
    path = tmp_path / "out.wav"
    encode_wav(AudioClip(samples=np.zeros(256), sample_rate=8000), path)
    raw = path.read_bytes()
    i = raw.index(b"data")
    (size,) = struct.unpack_from("<I", raw, i + 4)
    assert size == 512
    assert raw[i + 8:] == b"\x00" * 512


def test_encode_clamps_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    encode_wav(AudioClip(samples=np.array([2.0, -2.0, 1.0, -1.0]),
                         sample_rate=8000), path)
    clip = decode_wav(path)
    raw = np.round(clip.samples * 32768).astype(int)
    assert list(raw) == [32767, -32768, 32767, -32768]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_encode_decode_round_trip_quantization_bound(seed):
    samples = uniform_noise(seed, 300)
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "r.wav")
        encode_wav(AudioClip(samples=samples, sample_rate=22050), path)
        back = decode_wav(path)
    assert back.sample_rate == 22050
    assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768.0


def test_audio_clip_validation():
    with pytest.raises(ValueError):
        AudioClip(samples=np.array([0.0, np.nan]), sample_rate=8000)
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros(4), sample_rate=0)
    with pytest.raises(ValueError):
        AudioClip(samples=np.zeros((2, 2)), sample_rate=8000)
    clip = AudioClip(samples=np.zeros(22050), sample_rate=22050)
    assert clip.duration == pytest.approx(1.0)
