"""Decomposition of a linear head's outputs into per-input contributions.

Because the final layer is linear, emotion i decomposes exactly as
``sum_j W_ij * m_j + b_i``; each term ``e_ij = W_ij * m_j`` is the effect of
mid-level feature j on emotion i. Emitted as data (CSV/JSON), not plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeMismatchError
from .predictor import EMOTION_COUNT, MID_COUNT, LinearHead


@dataclass(frozen=True)
class EffectsMatrix:
    effects: np.ndarray  # (emotions, mids), e_ij = W_ij * m_j
    bias: np.ndarray
    mid: np.ndarray
    mid_names: tuple[str, ...]
    emotion_names: tuple[str, ...]

    def prediction(self) -> np.ndarray:
        """Row sums plus bias: the linear head's emotion output."""
        return self.effects.sum(axis=1) + self.bias


def instance_effects(
    mid: np.ndarray,
    head: LinearHead,
    mid_names: Sequence[str] | None = None,
    emotion_names: Sequence[str] | None = None,
) -> EffectsMatrix:
    mid = np.asarray(mid, dtype=np.float64)
    if mid.shape != (MID_COUNT,):
        raise ShapeMismatchError(f"mid vector must have {MID_COUNT} entries, got {mid.shape}")
    mid_names = tuple(mid_names) if mid_names else tuple(f"mid_{j}" for j in range(MID_COUNT))
    emotion_names = (tuple(emotion_names) if emotion_names
                     else tuple(f"emotion_{i}" for i in range(EMOTION_COUNT)))
    if len(mid_names) != MID_COUNT or len(emotion_names) != EMOTION_COUNT:
        raise ShapeMismatchError("name lists must match the head arity")
    return EffectsMatrix(
        effects=head.weights * mid[None, :],
        bias=head.bias.copy(),
        mid=mid.copy(),
        mid_names=mid_names,
        emotion_names=emotion_names,
    )


def top_effect(effects: EffectsMatrix, emotion_index: int) -> tuple[int, float]:
    """Strongest contributor to one emotion; ties go to the lowest index."""
    if not 0 <= emotion_index < effects.effects.shape[0]:
        raise IndexError(f"emotion index {emotion_index} out of range")
    row = effects.effects[emotion_index]
    j = int(np.argmax(row))  # argmax returns the first maximum
    return j, float(row[j])


def head_discrepancy(effects: EffectsMatrix, emotion: np.ndarray) -> np.ndarray:
    """Per-emotion gap between the head's reconstruction and reported outputs.

    Transports can lose precision, so a nonzero gap is reported, not raised.
    """
    emotion = np.asarray(emotion, dtype=np.float64)
    if emotion.shape != (EMOTION_COUNT,):
        raise ShapeMismatchError(f"emotion vector must have {EMOTION_COUNT} entries")
    return np.abs(effects.prediction() - emotion)


def write_effects_csv(effects: EffectsMatrix, head: LinearHead, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("emotion,mid,weight,mid_value,effect\n")
        for i, emotion in enumerate(effects.emotion_names):
            for j, mid_name in enumerate(effects.mid_names):
                fh.write(
                    f"{emotion},{mid_name},{float(head.weights[i, j])!r},"
                    f"{float(effects.mid[j])!r},{float(effects.effects[i, j])!r}\n"
                )

