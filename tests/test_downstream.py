import io
import json

import numpy as np
import pytest

from labelforge.config import PipelineConfig
from labelforge.corpus import Document, LabeledExample, TokenIndex
from labelforge.downstream import build_targets, evaluate_e2e, train_downstream, write_checkpoint
from labelforge.errors import LabelForgeError
from labelforge.nets import MlpNet
from labelforge.features import TfidfFeaturizer


def corpus(n=120):
    """Docs, their (dists, covered) labels (every row covered) and gold classes."""
    docs, gold = [], []
    for i in range(n):
        cls = i % 2
        text = "sun warm bright light" if cls == 0 else "rain cold dark storm"
        docs.append(Document(id=f"d{i}", text=text + f" pad{i % 3}"))
        gold.append(cls)
    dists = np.where(np.array(gold)[:, None] == 0, [0.95, 0.05], [0.05, 0.95])
    return docs, (dists, np.ones(n, dtype=bool)), gold


def featurizer_for(docs):
    """TF-IDF over ``docs`` whose pool table holds ``docs`` in order."""
    index = TokenIndex(docs)
    feat = TfidfFeaturizer(index, (1, 1))
    feat.pool = feat.transform_many(index)
    return feat


def config(epochs, seed, **downstream):
    """The default config with ``epochs`` downstream epochs and base seed ``seed``."""
    table = {**PipelineConfig().downstream, "epochs": epochs, **downstream}
    return PipelineConfig(base_seed=seed, downstream=table)


def predict(net, feat, docs):
    """The net's class probabilities for docs indexed over the featurizer's vocabulary."""
    return net.predict_proba_many(feat.transform_many(TokenIndex(docs, feat.token_ids)))


def test_training_deterministic():
    docs, labels, _ = corpus()
    feat = featurizer_for(docs)
    cfg = config(epochs=5, seed=9)
    a = train_downstream(*labels, feat, cfg)
    b = train_downstream(*labels, feat, cfg)
    assert np.array_equal(a.w1, b.w1)
    assert np.array_equal(a.w2, b.w2)
    with pytest.raises(ValueError):  # one label per pool row
        train_downstream(labels[0][:-1], labels[1][:-1], feat, cfg)


def test_separable_corpus_high_e2e():
    docs, labels, gold = corpus(200)
    feat = featurizer_for(docs)
    net = train_downstream(*labels, feat, config(epochs=30, seed=0))
    test = [LabeledExample(doc=d, gold=g) for d, g in zip(docs[:60], gold[:60])]
    report = evaluate_e2e(predict(net, feat, docs[:60]), test)
    assert report.weighted_f1 >= 0.95


def test_forward_outputs_distribution():
    docs, labels, _ = corpus(40)
    feat = featurizer_for(docs)
    net = train_downstream(*labels, feat, config(epochs=3, seed=1))
    out = predict(net, feat, docs[:10])
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out >= 0).all()


def test_soft_with_onehot_equals_hard_mode():
    docs, _, gold = corpus(60)
    feat = featurizer_for(docs)
    onehot = (np.eye(2)[gold], np.ones(len(gold), dtype=bool))
    soft = train_downstream(*onehot, feat, config(epochs=8, seed=3, mode="soft"))
    hard = train_downstream(*onehot, feat, config(epochs=8, seed=3, mode="hard"))
    assert np.array_equal(soft.w1, hard.w1)
    assert np.array_equal(soft.w2, hard.w2)


def test_uncovered_rows_excluded():
    docs, (dists, covered), _ = corpus(20)
    dists[0] = [0.5, 0.5]
    covered[0] = False
    keep, targets = build_targets(dists, covered, "soft")
    assert 0 not in keep
    assert len(keep) == 19
    assert np.array_equal(targets, dists[1:])


def test_degenerate_targets():
    docs, _, _ = corpus(10)
    with pytest.raises(LabelForgeError, match="no covered rows to train on"):
        build_targets(np.full((len(docs), 2), 0.5), np.zeros(len(docs), dtype=bool), "soft")
    one_class = np.tile([0.9, 0.1], (len(docs), 1))
    with pytest.raises(LabelForgeError, match="span fewer than 2 classes"):
        build_targets(one_class, np.ones(len(docs), dtype=bool), "soft")


def test_loss_trend_nonincreasing_tail():
    docs, labels, _ = corpus(150)
    feat = featurizer_for(docs)
    keep, targets = build_targets(*labels, "soft")
    x = feat.pool[keep]
    # a fixed rng_seed fixes init and shuffles, so the e-epoch run replays the first e epochs
    tail = []
    for epochs in range(10, 51):
        net = train_downstream(*labels, feat, config(epochs=epochs, seed=2))
        out = net.predict_proba_many(x)
        tail.append(float(-np.mean(np.sum(targets * np.log(out + 1e-12), axis=1))))
    # full-data loss after each of the final 41 epochs: non-increasing within 5%
    running_min = tail[0]
    for value in tail[1:]:
        assert value <= running_min * 1.05
        running_min = min(running_min, value)


def test_evaluate_e2e_constant_classifier():
    # constant-class probabilities on a balanced 2-class test: weighted F1 = 0.5 * F1_majority
    docs = [Document(id=f"t{i}", text="x") for i in range(10)]
    test = [LabeledExample(doc=d, gold=i % 2) for i, d in enumerate(docs)]
    probs = np.zeros((10, 2))
    probs[:, 0] = 1.0
    report = evaluate_e2e(probs, test)
    f1_majority = 2 * (0.5 * 1.0) / (0.5 + 1.0)
    assert report.weighted_f1 == pytest.approx(0.5 * f1_majority)


def test_evaluate_e2e_empty_test():
    docs, labels, _ = corpus(20)
    feat = featurizer_for(docs)
    net = train_downstream(*labels, feat, config(epochs=2, seed=0))
    with pytest.raises(ValueError):
        evaluate_e2e(predict(net, feat, []), [])
    test = [LabeledExample(doc=docs[0], gold=0)]
    with pytest.raises(ValueError):  # one row of probabilities per test example
        evaluate_e2e(predict(net, feat, docs[:2]), test)


def test_glorot_init_bounds_and_seeding():
    net1 = MlpNet(20, 10, 3, rng_seed=4)
    net2 = MlpNet(20, 10, 3, rng_seed=4)
    assert np.array_equal(net1.w1, net2.w1)
    limit = np.sqrt(6.0 / 30)
    assert np.abs(net1.w1).max() <= limit
    assert np.abs(MlpNet(20, 10, 3, rng_seed=5).w1 - net1.w1).max() > 0


def test_checkpoint_written():
    docs, labels, _ = corpus(20)
    feat = featurizer_for(docs)
    net = train_downstream(*labels, feat, config(epochs=2, seed=0))
    fh = io.StringIO()
    write_checkpoint(fh, net, "abc")
    payload = json.loads(fh.getvalue())
    assert payload["hidden"] == 100
    assert payload["config_hash"] == "abc"


def test_predictions_export():
    from labelforge.corpus import LabelSpace
    from labelforge.label_model import write_dist_rows

    docs, labels, _ = corpus(20)
    feat = featurizer_for(docs)
    net = train_downstream(*labels, feat, config(epochs=2, seed=0))
    fh = io.StringIO()
    test_probs = predict(net, feat, docs[:3])
    write_dist_rows(fh, test_probs, [d.id for d in docs[:3]], LabelSpace(("pos", "neg")), "pred")
    rows = [json.loads(line) for line in fh.getvalue().splitlines()]
    assert len(rows) == 3
    assert rows[0]["pred"] in ("pos", "neg")
    assert len(rows[0]["dist"]) == 2
    assert [r["dist"] for r in rows] == test_probs.tolist()
    assert [r["doc_id"] for r in rows] == [d.id for d in docs[:3]]


def reference_softmax(z):
    """Softmax from numpy's own reductions over the class axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def plain_mlp_fit(net, x, targets, epochs, lr, batch_size=None, l2=0.0, shuffle_seed=0):
    """The out-of-place minibatch step the in-place one replaced, kept as the reference."""
    n = x.shape[0]
    rng = np.random.default_rng(shuffle_seed)
    size = n if batch_size is None else min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n) if batch_size is not None else np.arange(n)
        for start in range(0, n, size):
            idx = order[start:start + size]
            xb, tb = x[idx], targets[idx]
            h_pre = xb @ net.w1 + net.b1
            h = np.maximum(h_pre, 0.0)
            probs = reference_softmax(h @ net.w2 + net.b2)
            dz2 = (probs - tb) / xb.shape[0]
            gw2 = h.T @ dz2 + l2 * net.w2
            gb2 = dz2.sum(axis=0)
            dh = dz2 @ net.w2.T
            dh[h_pre <= 0] = 0.0
            gw1 = xb.T @ dh + l2 * net.w1
            gb1 = dh.sum(axis=0)
            net.w2 -= lr * gw2
            net.b2 -= lr * gb2
            net.w1 -= lr * gw1
            net.b1 -= lr * gb1
    return net


@pytest.mark.parametrize("batch_size", [32, None])
@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("subset", [False, True])
def test_mlp_fit_equals_the_plain_step(batch_size, l2, subset):
    rng = np.random.default_rng(5)
    x = rng.random((203, 27))  # 203 rows: the last batch of 32 is short
    rows = np.sort(rng.choice(203, size=150, replace=False)) if subset else None
    targets = reference_softmax(rng.normal(size=(150 if subset else 203, 3)) * 3)
    kwargs = dict(epochs=4, lr=0.05, batch_size=batch_size, l2=l2, shuffle_seed=7)
    net = MlpNet(27, 16, 3, rng_seed=2).fit(x, targets, rows=rows, **kwargs)
    picked = x if rows is None else x[rows]
    ref = plain_mlp_fit(MlpNet(27, 16, 3, rng_seed=2), picked, targets, **kwargs)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(net, name), getattr(ref, name))


def test_two_fits_then_predict_and_checkpoint_equal_the_plain_step():
    rng = np.random.default_rng(9)
    x = rng.random((75, 27))
    targets = reference_softmax(rng.normal(size=(75, 3)) * 3)
    net, ref = MlpNet(27, 16, 3, rng_seed=4), MlpNet(27, 16, 3, rng_seed=4)
    for kwargs in (dict(epochs=3, lr=0.05, batch_size=32, l2=0.05, shuffle_seed=1),
                   dict(epochs=2, lr=0.2, batch_size=None, shuffle_seed=2)):
        net.fit(x, targets, **kwargs)
        plain_mlp_fit(ref, x, targets, **kwargs)
    assert np.array_equal(net.predict_proba_many(x), ref.predict_proba_many(x))
    got, want = io.StringIO(), io.StringIO()
    write_checkpoint(got, net, "h")
    write_checkpoint(want, ref, "h")
    assert got.getvalue() == want.getvalue()
