"""Linear-head effects decomposition: additivity, argmax, CSV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlime import rng
from midlime.effects import (
    EffectsMatrix,
    head_discrepancy,
    instance_effects,
    top_effect,
    write_effects_csv,
)
from midlime.errors import ShapeMismatchError
from midlime.predictor import EMOTION_COUNT, MID_COUNT, LinearHead


def random_head(seed: int) -> LinearHead:
    w = 2.0 * rng.uniform_grid(seed, np.arange(EMOTION_COUNT),
                               np.arange(MID_COUNT)) - 1.0
    b = 2.0 * rng.uniform_grid(seed + 1, np.arange(EMOTION_COUNT),
                               np.arange(1))[:, 0] - 1.0
    return LinearHead(weights=w, bias=b)


def random_mid(seed: int) -> np.ndarray:
    return 2.0 * rng.uniform_grid(seed, np.arange(1), np.arange(MID_COUNT))[0] - 1.0


class TestInstanceEffects:
    def test_zero_head(self):
        head = LinearHead(weights=np.zeros((EMOTION_COUNT, MID_COUNT)),
                          bias=np.arange(EMOTION_COUNT, dtype=float))
        effects = instance_effects(random_mid(1), head)
        assert np.all(effects.effects == 0.0)
        assert np.allclose(effects.prediction(), head.bias)

    def test_one_hot_head(self):
        w = np.zeros((EMOTION_COUNT, MID_COUNT))
        w[0, 0] = 1.0
        head = LinearHead(weights=w, bias=np.zeros(EMOTION_COUNT))
        mid = np.zeros(MID_COUNT)
        mid[0] = 0.7
        effects = instance_effects(mid, head)
        assert effects.effects[0, 0] == pytest.approx(0.7)
        assert effects.prediction()[0] == pytest.approx(0.7)
        assert np.count_nonzero(effects.effects) == 1

    def test_row_sums_match_head_output(self):
        head = random_head(2)
        mid = random_mid(3)
        effects = instance_effects(mid, head)
        assert np.allclose(effects.effects.sum(axis=1) + head.bias,
                           head.apply(mid), atol=1e-12)

    def test_rejects_wrong_mid_shape(self):
        with pytest.raises(ShapeMismatchError):
            instance_effects(np.zeros(MID_COUNT + 1), random_head(4))

    def test_names_default_and_custom(self):
        effects = instance_effects(random_mid(5), random_head(5))
        assert len(effects.mid_names) == MID_COUNT
        assert len(effects.emotion_names) == EMOTION_COUNT
        named = instance_effects(
            random_mid(5), random_head(5),
            mid_names=[f"m{i}" for i in range(MID_COUNT)],
            emotion_names=[f"e{i}" for i in range(EMOTION_COUNT)],
        )
        assert named.mid_names[0] == "m0"

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_additivity_property(self, seed):
        head = random_head(seed)
        mid = random_mid(seed + 7)
        effects = instance_effects(mid, head)
        gap = np.abs(effects.effects.sum(axis=1) + head.bias - head.apply(mid))
        assert float(gap.max()) <= 1e-9

    @given(st.integers(min_value=0, max_value=100_000),
           st.floats(min_value=-3.0, max_value=3.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_scale_covariance(self, seed, c):
        head = random_head(seed)
        mid = random_mid(seed + 11)
        scaled = mid.copy()
        scaled[3] *= c
        base = instance_effects(mid, head).effects
        after = instance_effects(scaled, head).effects
        assert np.allclose(after[:, 3], c * base[:, 3], atol=1e-12)
        keep = [j for j in range(MID_COUNT) if j != 3]
        assert np.array_equal(after[:, keep], base[:, keep])


class TestTopEffect:
    def test_articulation_style_attribution(self):
        # one emotion dominated by one named mid feature, by construction
        mid_names = ["melodiousness", "rhythmic_complexity", "articulation",
                     "m4", "m5", "m6", "m7"]
        emotion_names = ["valence", "tension", "sadness", "energy",
                         "e5", "e6", "e7", "e8"]
        w = np.full((EMOTION_COUNT, MID_COUNT), 0.1)
        energy, articulation = emotion_names.index("energy"), mid_names.index("articulation")
        w[energy, articulation] = 2.0
        head = LinearHead(weights=w, bias=np.zeros(EMOTION_COUNT))
        effects = instance_effects(np.full(MID_COUNT, 0.8), head,
                                   mid_names=mid_names, emotion_names=emotion_names)
        j, value = top_effect(effects, energy)
        assert effects.mid_names[j] == "articulation"
        assert value == pytest.approx(1.6)

    def test_tie_breaks_to_lowest_index(self):
        head = LinearHead(weights=np.ones((EMOTION_COUNT, MID_COUNT)),
                          bias=np.zeros(EMOTION_COUNT))
        effects = instance_effects(np.ones(MID_COUNT), head)
        j, _ = top_effect(effects, 0)
        assert j == 0

    def test_one_hot_row(self):
        w = np.zeros((EMOTION_COUNT, MID_COUNT))
        w[2, 5] = 3.0
        head = LinearHead(weights=w, bias=np.zeros(EMOTION_COUNT))
        effects = instance_effects(np.ones(MID_COUNT), head)
        assert top_effect(effects, 2) == (5, pytest.approx(3.0))

    def test_index_out_of_range(self):
        effects = instance_effects(random_mid(12), random_head(12))
        with pytest.raises(IndexError):
            top_effect(effects, EMOTION_COUNT)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_argmax(self, seed):
        effects = instance_effects(random_mid(seed + 1), random_head(seed))
        for i in range(EMOTION_COUNT):
            j, value = top_effect(effects, i)
            row = effects.effects[i]
            assert value == row[j]
            assert row[j] == row.max()
            assert j == int(np.argmax(row))

    def test_invariant_under_bias_shift(self):
        head = random_head(13)
        shifted = LinearHead(weights=head.weights, bias=head.bias + 5.0)
        mid = random_mid(14)
        a = top_effect(instance_effects(mid, head), 3)
        b = top_effect(instance_effects(mid, shifted), 3)
        assert a == b


class TestDiscrepancy:
    def test_zero_for_exact_head(self):
        head = random_head(15)
        mid = random_mid(16)
        effects = instance_effects(mid, head)
        gap = head_discrepancy(effects, head.apply(mid))
        assert np.all(gap <= 1e-12)

    def test_reports_absolute_gap(self):
        head = random_head(17)
        mid = random_mid(18)
        effects = instance_effects(mid, head)
        emotion = head.apply(mid)
        emotion[0] += 0.25
        gap = head_discrepancy(effects, emotion)
        assert gap[0] == pytest.approx(0.25, abs=1e-12)
        assert np.all(gap[1:] <= 1e-12)


class TestCsv:
    def test_effects_csv_layout(self, tmp_path):
        head = random_head(19)
        mid = random_mid(20)
        effects = instance_effects(mid, head)
        path = tmp_path / "effects.csv"
        write_effects_csv(effects, head, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "emotion,mid,weight,mid_value,effect"
        assert len(lines) == 1 + EMOTION_COUNT * MID_COUNT
        first = lines[1].split(",")
        assert first[0] == effects.emotion_names[0]
        assert first[1] == effects.mid_names[0]
        assert float(first[2]) == pytest.approx(head.weights[0, 0])
        assert float(first[3]) == pytest.approx(mid[0])
        assert float(first[4]) == pytest.approx(head.weights[0, 0] * mid[0])
