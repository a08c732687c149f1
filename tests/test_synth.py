import numpy as np
import pytest

from labelforge import synth


@pytest.mark.parametrize("vocab, cdf, s", [
    (synth.TOPIC_VOCABS[0], synth.TOPIC_CDF, 1.2),
    (synth.TOPIC_VOCABS[1], synth.TOPIC_CDF, 1.2),
    (synth.FILLERS, synth.FILLER_CDF, 1.2),
    (synth.HAZE, synth.HAZE_CDF, 1.8),
], ids=["topic0", "topic1", "filler", "haze"])
@pytest.mark.parametrize("k", [1, 3, 7, 9])
def test_draw_matches_choice_and_leaves_the_same_generator_state(vocab, cdf, s, k):
    weights = synth._zipf_weights(len(vocab), s)
    by_choice, by_cdf = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(50):
        idx = by_choice.choice(len(vocab), size=k, replace=True, p=weights)
        assert synth._draw(by_cdf, vocab, k, cdf) == [vocab[i] for i in idx]
    assert by_cdf.bit_generator.state == by_choice.bit_generator.state
