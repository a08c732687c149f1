import csv
import hashlib
import json
import os
from contextlib import contextmanager

import pytest

from labelforge.cli import main
from labelforge.config import PipelineConfig
from labelforge.corpus import load_dataset, save_dataset
from labelforge.errors import ConfigError
from labelforge.synth import make_separable_corpus


def small_config(**kw):
    base = dict(
        k_per_category={"surface": 3, "structural": 3, "semantic": 3},
        candidates_per_round=3,
        max_rounds=3,
        tfidf={"ngram_ranges": [[1, 1]], "min_df": 1, "min_token_len": 2},
        candidate_training={
            "epochs": 120, "lr": 0.5, "l2": 1e-3, "regularizations": [1e-3],
            "subsample_fractions": [0.8], "semantic_head_widths": [0],
            "mlp_epochs": 50, "mlp_lr": 0.1,
        },
        downstream={"hidden": 20, "epochs": 8, "batch_size": 32, "lr": 0.01,
                    "mode": "soft", "ngram_range": [1, 1]},
    )
    base.update(kw)
    return PipelineConfig(**base)


def write_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json(), fh)


@pytest.fixture(scope="module")
def run_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_path = str(root / "separable.jsonl")
    save_dataset(make_separable_corpus(3, n_unlabeled=300, n_seed=30, n_test=80), data_path)
    config_path = str(root / "config.json")
    write_config(small_config(), config_path)
    return {"root": str(root), "data": data_path, "config": config_path}


def test_config_round_trip_and_hash(tmp_path):
    cfg = small_config(alpha=0.8, beta=0.25)
    path = str(tmp_path / "c.json")
    write_config(cfg, path)
    again = PipelineConfig.load(path)
    assert again.to_json() == cfg.to_json()
    assert again.config_hash() == cfg.config_hash()
    again.alpha = 0.5
    assert again.config_hash() != cfg.config_hash()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        PipelineConfig.from_json({"alpha": 0.5, "bogus_knob": 1})
    with pytest.raises(ConfigError):
        PipelineConfig(alpha=1.5)


def test_cmd_run_smoke_artifacts(run_env):
    out = os.path.join(run_env["root"], "run1")
    code = main(["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out])
    assert code == 0
    for name in ("lf_pool.json", "label_matrix.csv", "labels.jsonl", "report.json",
                 "manifest.json", "ledger.csv", "filter_reports.json"):
        assert os.path.exists(os.path.join(out, name)), name
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["coverage"] is not None
    assert report["e2e_f1"] is not None
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config_hash"]
    assert "dataset" in manifest["input_digests"]
    assert manifest["stage_seconds"]


def test_cmd_run_missing_dataset(run_env):
    out = os.path.join(run_env["root"], "missing")
    code = main(["run", "--config", run_env["config"], "--data", "/nope/none.jsonl", "--out", out])
    assert code == 2
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "ingest"


def test_cmd_run_determinism(run_env):
    out_a = os.path.join(run_env["root"], "det_a")
    out_b = os.path.join(run_env["root"], "det_b")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out_a]) == 0
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "labels.jsonl"), "rb").read()
    bytes_b = open(os.path.join(out_b, "labels.jsonl"), "rb").read()
    assert bytes_a == bytes_b
    row_a = list(csv.DictReader(open(os.path.join(out_a, "ledger.csv"))))[0]
    row_b = list(csv.DictReader(open(os.path.join(out_b, "ledger.csv"))))[0]
    for key in ("dataset", "coverage", "weighted_f1", "label_quality", "e2e_f1", "config_hash"):
        assert row_a[key] == row_b[key]


def test_cmd_eval_matches_run_report(run_env):
    out = os.path.join(run_env["root"], "run_eval")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    eval_out = os.path.join(run_env["root"], "eval.json")
    code = main(["eval", "--labels", os.path.join(out, "labels.jsonl"),
                 "--data", run_env["data"], "--out", eval_out])
    assert code == 0
    eval_report = json.load(open(eval_out))
    assert eval_report["coverage"] == report["coverage"]
    assert eval_report["weighted_f1"] == report["weighted_f1"]
    assert eval_report["label_quality"] == report["label_quality"]
    assert eval_report == report["labeling_report"]


def test_single_class_seed_fails_at_ingest(run_env, tmp_path):
    ds = make_separable_corpus(4, n_unlabeled=60, n_seed=12, n_test=10)
    ds.seed = [ex for ex in ds.seed if ex.gold == ds.seed[0].gold]
    data = str(tmp_path / "one_class_seed.jsonl")
    save_dataset(ds, data)
    out = str(tmp_path / "run")
    assert main(["run", "--config", run_env["config"], "--data", data, "--out", out]) == 2
    assert json.load(open(os.path.join(out, "error.json")))["stage"] == "ingest"
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", run_env["config"], "--data", data, "--out", out,
                 "--param", "alpha", "--values", "0.5"]) == 2
    assert json.load(open(os.path.join(out, "error.json")))["stage"] == "sweep"


def test_more_classes_than_int8_votes_hold_fails_at_ingest(run_env, tmp_path):
    # Votes are int8 with ABSTAIN = -1; class 255 would wrap to ABSTAIN.
    data = tmp_path / "wide.jsonl"
    with open(data, "w") as fh:
        for k in range(128):
            for split in ("seed", "unlabeled"):
                rec = {"id": f"{split}{k}", "text": f"word{k} text", "label": f"c{k:03d}",
                       "split": split}
                fh.write(json.dumps(rec) + "\n")
    out = str(tmp_path / "run")
    assert main(["run", "--config", run_env["config"], "--data", str(data), "--out", out]) == 2
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "ingest"
    assert "at most 127 classes" in err["error"]


@pytest.mark.parametrize("line", [
    "[1, 2]",
    '{"id": "x-label", "text": "warm day", "label": 5, "split": "seed"}',
], ids=["not-an-object", "non-string-label"])
def test_malformed_record_fails_at_ingest(run_env, tmp_path, line):
    data = str(tmp_path / "bad.jsonl")
    with open(run_env["data"], encoding="utf-8") as src, open(data, "w", encoding="utf-8") as fh:
        fh.write(src.read() + line + "\n")
    n_lines = sum(1 for _ in open(data, encoding="utf-8"))
    out = str(tmp_path / "run")
    assert main(["run", "--config", run_env["config"], "--data", data, "--out", out]) == 2
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "ingest"
    assert f"line {n_lines}" in err["error"]


@pytest.mark.parametrize("table, value", [
    ("downstream", {k: v for k, v in small_config().downstream.items() if k != "hidden"}),
    ("k_per_category", {"surface": 3}),
    ("tau_dup", {"surface": 0.9, "structural": 0.98}),
    ("tfidf", {"ngram_ranges": [[1, 1]], "min_df": 1}),
    ("candidate_training", {"epochs": 10}),
    ("label_model", {"kind": "bogus"}),
    ("provider", {"kind": "offline-seeded", "rng_seed": 0, "top_t": 5}),
    ("embedding", {"kind": "hash", "dim": 256}),
    ("embedding", {"kind": "remote", "model": "m", "dim": 8}),
    ("provider", "offline_seeded"),
    # keys a table does not take
    ("label_model", {"kind": "dawid_skene", "max_iters": 1}),
    ("provider", {"kind": "offline_seeded", "topt": 2}),
    ("tfidf", {"ngram_ranges": [[1, 1]], "min_df": 1, "min_token_len": 2, "min_dff": 3}),
    ("embedding", {"kind": "hashing", "dim": 8, "model": "m"}),
    # values the loop would reject only after featurize, or take silently
    ("max_rounds", 0),
    ("candidates_per_round", 0),
    ("grid_step", 0),
    ("tau_dup", {"surface": 1.5, "structural": 0.98, "semantic": 0.98}),
    ("dedup_sample_size", -1),
    ("downstream", {**small_config().downstream, "mode": "sharp"}),
    # scalars of the wrong type, which would fail later with a TypeError
    ("alpha", "0.5"),
    ("beta", True),
    ("max_rounds", 2.0),
    ("base_seed", False),
    ("k_per_category", {"surface": "3", "structural": 3, "semantic": 3}),
    ("tau_dup", {"surface": "0.9", "structural": 0.98, "semantic": 0.98}),
    # nested values of the wrong type, which would fail only in explore_exploit or downstream
    ("downstream", {**small_config().downstream, "hidden": "100"}),
    ("candidate_training", {**small_config().candidate_training, "epochs": 3.5}),
    ("candidate_training", {**small_config().candidate_training, "regularizations": [1e-3, "x"]}),
    ("tfidf", {"ngram_ranges": [[1, True]], "min_df": 1, "min_token_len": 2}),
    # a remote provider that would never call its service
    ("provider", {"kind": "remote_llm", "endpoint": "http://x", "model": "m", "retries": 0}),
    ("provider", {"kind": "remote_llm", "endpoint": "http://x", "model": "m", "timeout": "5"}),
    # remote strings that the service call would fail on only after featurize
    ("provider", {"kind": "remote_llm", "endpoint": 5, "model": "m"}),
    ("provider", {"kind": "remote_llm", "endpoint": "http://x", "model": ["m"]}),
    ("embedding", {"kind": "remote", "endpoint": "http://x", "model": "m", "dim": 8,
                   "cache_path": 3}),
])
def test_bad_nested_config_fails_at_ingest(run_env, tmp_path, table, value):
    obj = small_config().to_json()
    obj[table] = value
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    out = str(tmp_path / "run")
    assert main(["run", "--config", config_path, "--data", run_env["data"], "--out", out]) == 2
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "ingest"
    assert table in err["error"]
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(obj)


def test_float_fields_take_ints():
    cfg = small_config(alpha=1, beta=0, grid_step=1)
    assert (cfg.alpha, cfg.beta, cfg.grid_step) == (1, 0, 1)
    cfg = small_config(downstream={**small_config().downstream, "lr": 1})
    assert cfg.downstream["lr"] == 1


@pytest.mark.parametrize("table, key, value, message", [
    ("downstream", "hidden", "100", "downstream.hidden must be an integer, got '100'"),
    ("candidate_training", "epochs", 3.5, "candidate_training.epochs must be an integer, got 3.5"),
    ("tfidf", "min_df", False, "tfidf.min_df must be an integer, got False"),
])
def test_nested_type_error_names_the_key(table, key, value, message):
    with pytest.raises(ConfigError) as err:
        small_config(**{table: {**getattr(small_config(), table), key: value}})
    assert str(err.value) == message


def test_provider_and_embedder_take_their_tables_by_keyword(monkeypatch):
    from labelforge.features import build_featurizers
    from labelforge.pipeline import build_provider

    monkeypatch.delenv("LABELFORGE_LLM_TIMEOUT", raising=False)
    ds = make_separable_corpus(3, n_unlabeled=40, n_seed=12, n_test=0)
    cfg = small_config(base_seed=7, provider={"kind": "offline_seeded"},
                       embedding={"kind": "hashing"})
    provider = build_provider(cfg, ds)
    assert (provider.rng_seed, provider.top_t) == (7, 5)  # the provider's own defaults
    assert build_featurizers(ds, cfg)[1][0].dim == 256
    cfg = small_config(provider={"kind": "remote_llm", "endpoint": "http://llm", "model": "m",
                                 "retries": 1})
    remote = build_provider(cfg, ds)
    assert (remote.endpoint, remote.model, remote.retries, remote.timeout) == (
        "http://llm", "m", 1, 60.0)
    assert remote.labels == ds.labels


def test_bad_llm_timeout_env_fails_at_ingest_for_a_remote_provider_only(
        run_env, tmp_path, monkeypatch):
    monkeypatch.setenv("LABELFORGE_LLM_TIMEOUT", "abc")
    remote = str(tmp_path / "remote.json")
    write_config(small_config(provider={"kind": "remote_llm", "endpoint": "http://llm",
                                        "model": "m"}), remote)
    for command, stage in (("run", "ingest"), ("sweep", "sweep")):
        out = str(tmp_path / command)
        args = [command, "--config", remote, "--data", run_env["data"], "--out", out]
        if command == "sweep":
            args += ["--param", "alpha", "--values", "0.5"]
        assert main(args) == 2
        err = json.load(open(os.path.join(out, "error.json")))
        assert err["stage"] == stage
        assert "LABELFORGE_LLM_TIMEOUT" in err["error"]
        assert os.listdir(out) == ["error.json"]
    out = str(tmp_path / "offline")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out]) == 0


def test_failing_stage_reported_under_its_name(run_env, tmp_path, monkeypatch):
    import labelforge.pipeline as pipeline_mod

    def broken_aggregate(*args, **kwargs):
        raise RuntimeError("aggregator exploded")

    stage_seconds = {}
    real_stage = pipeline_mod._stage

    def spy_stage(seconds, name):
        stage_seconds["seen"] = seconds
        return real_stage(seconds, name)

    monkeypatch.setattr(pipeline_mod, "aggregate", broken_aggregate)
    monkeypatch.setattr(pipeline_mod, "_stage", spy_stage)
    out = str(tmp_path / "broken")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out]) == 1
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "aggregate"
    assert "aggregator exploded" in err["error"]
    seconds = stage_seconds["seen"]
    assert list(seconds) == ["featurize", "explore_exploit", "matrix", "aggregate"]
    assert all(v >= 0.0 for v in seconds.values())


def test_a_write_that_fails_halfway_leaves_the_earlier_run_unlisted(run_env, tmp_path,
                                                                    monkeypatch):
    from labelforge import pipeline

    out = str(tmp_path / "run")
    args = ["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out]
    assert main(args) == 0
    before = open(os.path.join(out, "labels.jsonl"), "rb").read()

    def torn_export(fh, *args):
        fh.write('{"doc_id": "d')
        raise OSError("disk gone")

    monkeypatch.setattr(pipeline, "export_labels_jsonl", torn_export)
    assert main(args) == 1
    err = json.load(open(os.path.join(out, "error.json")))
    assert err["stage"] == "write" and "disk gone" in err["error"]
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    assert open(os.path.join(out, "labels.jsonl"), "rb").read() == before


def test_cmd_eval_creates_the_out_directory(run_env, tmp_path):
    out = str(tmp_path / "run")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"], "--out", out]) == 0
    eval_out = str(tmp_path / "missing" / "dir" / "eval.json")
    assert main(["eval", "--labels", os.path.join(out, "labels.jsonl"),
                 "--data", run_env["data"], "--out", eval_out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert json.load(open(eval_out)) == report["labeling_report"]


def test_cmd_eval_misaligned_ids(run_env, tmp_path):
    labels_path = str(tmp_path / "labels.jsonl")
    with open(labels_path, "w") as fh:
        fh.write(json.dumps({"doc_id": "unknown-id", "dist": [1.0, 0.0],
                             "covered": True, "hard": "neg"}) + "\n")
    code = main(["eval", "--labels", labels_path, "--data", run_env["data"],
                 "--out", str(tmp_path / "out.json")])
    assert code == 3


def test_cmd_eval_rejects_labels_written_in_another_class_order(run_env, tmp_path):
    # the run writes dist in (pos, neg) order; eval infers the sorted (neg, pos)
    config_path = str(tmp_path / "config.json")
    write_config(small_config(class_names=["pos", "neg"]), config_path)
    out = str(tmp_path / "run")
    assert main(["run", "--config", config_path, "--data", run_env["data"], "--out", out]) == 0
    code = main(["eval", "--labels", os.path.join(out, "labels.jsonl"), "--data", run_env["data"],
                 "--out", str(tmp_path / "eval.json")])
    assert code == 2
    err = json.load(open(tmp_path / "error.json"))
    assert err["stage"] == "eval"
    assert "line 1" in err["error"]
    # with the run's config, eval takes the (pos, neg) order and reproduces the run's score
    eval_out = str(tmp_path / "eval.json")
    assert main(["eval", "--labels", os.path.join(out, "labels.jsonl"), "--data", run_env["data"],
                 "--out", eval_out, "--config", config_path]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert json.load(open(eval_out))["weighted_f1"] == report["weighted_f1"]


@pytest.mark.parametrize("record", [
    {"doc_id": "d0", "dist": [1.0, 0.0, 0.0], "covered": True},
    {"doc_id": "d0", "dist": [1.0], "covered": True},
    {"doc_id": "d0", "covered": True},
    {"doc_id": "d0", "dist": [1.0, "x"], "covered": True},
    {"doc_id": "d0", "dist": [1.0, 0.0], "covered": 1},
    {"doc_id": 7, "dist": [1.0, 0.0], "covered": True},
    {"doc_id": "d1", "dist": [1.0, 0.0], "covered": True},  # would be scored twice
])
def test_cmd_eval_malformed_labels_exit_2(run_env, tmp_path, record):
    labels_path = str(tmp_path / "labels.jsonl")
    with open(labels_path, "w") as fh:
        fh.write(json.dumps({"doc_id": "d1", "dist": [0.5, 0.5], "covered": False}) + "\n")
        fh.write(json.dumps(record) + "\n")
    code = main(["eval", "--labels", labels_path, "--data", run_env["data"],
                 "--out", str(tmp_path / "out.json")])
    assert code == 2
    err = json.load(open(tmp_path / "error.json"))
    assert err["stage"] == "eval"
    assert "line 2" in err["error"]


def test_cmd_sweep_fans_out(run_env):
    out = os.path.join(run_env["root"], "sweep")
    code = main(["sweep", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out, "--param", "alpha", "--values", "0.0,0.9"])
    assert code == 0
    rows = list(csv.DictReader(open(os.path.join(out, "sweep.csv"))))
    assert [r["value"] for r in rows] == ["0.0", "0.9"]
    assert all(r["status"] == "ok" for r in rows)
    assert os.path.isdir(os.path.join(out, "alpha=0.0"))
    assert os.path.isdir(os.path.join(out, "alpha=0.9"))


def test_cmd_sweep_empty_values(run_env):
    out = os.path.join(run_env["root"], "sweep_empty")
    code = main(["sweep", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out, "--param", "alpha", "--values", ""])
    assert code == 2


@pytest.mark.parametrize("param, values", [
    ("alpha", "0.9,1.5"), ("k", "0"), ("beta", "x"), ("abstain", "maybe"),
    ("alpha", "0.5,0.9,0.5"),  # two runs into one directory
])
def test_cmd_sweep_bad_value_exits_2_before_any_run(run_env, tmp_path, param, values):
    out = str(tmp_path / "sweep")
    code = main(["sweep", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out, "--param", param, "--values", values])
    assert code == 2
    assert json.load(open(os.path.join(out, "error.json")))["stage"] == "sweep"
    assert os.listdir(out) == ["error.json"]


def test_cmd_sweep_abstain_values(run_env):
    out = os.path.join(run_env["root"], "sweep_abstain")
    code = main(["sweep", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out, "--param", "abstain", "--values", "on,off"])
    assert code == 0
    rows = list(csv.DictReader(open(os.path.join(out, "sweep.csv"))))
    assert len(rows) == 2


def test_gen_synth_command(tmp_path):
    out = str(tmp_path / "synth")
    code = main(["gen-synth", "--out", out, "--seed", "5", "--kind", "both"])
    assert code == 0
    from labelforge.corpus import LabelSpace

    labels = LabelSpace(("pos", "neg"))
    sep = load_dataset(os.path.join(out, "separable.jsonl"), "jsonl", labels)
    noisy = load_dataset(os.path.join(out, "noisy.jsonl"), "jsonl", labels)
    assert len(sep.unlabeled) == 2000 and len(sep.seed) == 40 and len(sep.test) == 400
    assert len(noisy.unlabeled) == 2000
    assert len(sep.unlabeled_gold) == 2000
    # the bundled corpora are pinned byte for byte
    digests = {kind: hashlib.sha256(open(os.path.join(out, f"{kind}.jsonl"), "rb").read())
               .hexdigest() for kind in ("separable", "noisy")}
    assert digests == {
        "separable": "878b9309eebf54b10cd181e835cdc3a0ca1a5dc7076641bf223022b31a797a76",
        "noisy": "ada023d115c088abcfc7625282a04d11d5bfc145d383e8c91622264530603a5b",
    }


def test_seed_override_changes_results(run_env):
    out_a = os.path.join(run_env["root"], "seed_a")
    out_b = os.path.join(run_env["root"], "seed_b")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out_a, "--seed-override", "1"]) == 0
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out_b, "--seed-override", "2"]) == 0
    pool_a = json.load(open(os.path.join(out_a, "lf_pool.json")))
    pool_b = json.load(open(os.path.join(out_b, "lf_pool.json")))
    ids_a = [lf["id"] for lf in pool_a["lfs"]]
    ids_b = [lf["id"] for lf in pool_b["lfs"]]
    assert ids_a != ids_b


def test_label_model_kinds_through_pipeline(run_env, tmp_path):
    from labelforge.pipeline import run_pipeline

    ds = make_separable_corpus(9, n_unlabeled=200, n_seed=24, n_test=50)
    for kind in ({"kind": "weighted_majority_vote"}, {"kind": "dawid_skene", "max_iter": 30}):
        cfg = small_config(label_model=kind)
        summary = run_pipeline(cfg, ds, str(tmp_path / kind["kind"]))
        assert summary["label_quality"] is not None
        assert summary["coverage"] > 0.9


def test_run_manifest_atomic_and_timed(run_env):
    out = os.path.join(run_env["root"], "manifest_run")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert not os.path.exists(os.path.join(out, "manifest.json.tmp"))
    assert set(manifest["stage_seconds"]) == {
        "featurize", "explore_exploit", "matrix", "aggregate", "metrics", "downstream", "write",
    }
    assert manifest["stage_seconds"]["write"] > 0


def test_classifier_lfs_record_their_calibrated_omega(run_env):
    out = os.path.join(run_env["root"], "omega")
    assert main(["run", "--config", run_env["config"], "--data", run_env["data"],
                 "--out", out]) == 0
    lfs = json.load(open(os.path.join(out, "lf_pool.json")))["lfs"]
    classifier_lfs = [lf for lf in lfs if lf["category"] in ("structural", "semantic")]
    assert classifier_lfs
    for lf in classifier_lfs:
        assert {"omega", "featurization", "trained_on"} <= set(lf["rule"]), lf["id"]
        assert lf["threshold"] == lf["rule"]["omega"]
        assert lf["rule"]["trained_on"]["indices"]


def test_each_lf_applied_once_to_the_pool_and_each_doc_featurized_once(tmp_path, monkeypatch):
    from labelforge import corpus, exploitation, features, lf_core, pipeline
    from labelforge.candidates import LinearClassifier
    from labelforge.nets import MlpNet
    from labelforge.pipeline import run_pipeline

    dataset = make_separable_corpus(3, n_unlabeled=300, n_seed=30, n_test=80)
    pool_size = len(dataset.unlabeled)
    counts = {"pool": 0, "in_matrix": 0}
    in_matrix = []

    def count(rows):
        counts["pool"] += rows == pool_size
        counts["in_matrix"] += bool(in_matrix)

    real_apply = lf_core.apply_lf_many

    def counting_apply(lf, docs):  # surface rules
        count(len(docs))
        return real_apply(lf, docs)

    for cls in (LinearClassifier, MlpNet):  # classifier LFs: probabilities, then votes
        def counting_predict(self, x, real=cls.predict_proba_many):
            count(len(x))
            return real(self, x)

        monkeypatch.setattr(cls, "predict_proba_many", counting_predict)

    real_matrix = pipeline.build_label_matrix

    def flagged_matrix(*args):
        in_matrix.append(True)
        try:
            return real_matrix(*args)
        finally:
            in_matrix.pop()

    stage_now = []
    real_stage = pipeline._stage

    @contextmanager
    def named_stage(seconds, name):
        stage_now.append(name)
        try:
            with real_stage(seconds, name):
                yield
        finally:
            stage_now.pop()

    tables = []  # (featurizer, doc ids of the split, stage) per table built
    for cls in (features.TfidfFeaturizer, features.HashingEmbedder):
        def counting_transform(self, docs, real=cls.transform_many):
            tables.append((id(self), tuple(d.id for d in docs), stage_now[-1]))
            return real(self, docs)

        monkeypatch.setattr(cls, "transform_many", counting_transform)

    tokenized = []
    real_tokenize = corpus.tokenize

    def counting_tokenize(text):  # TokenIndex looks it up in corpus
        tokenized.append(text)
        return real_tokenize(text)

    monkeypatch.setattr(corpus, "tokenize", counting_tokenize)

    for module in (lf_core, exploitation):  # where the callers look it up
        monkeypatch.setattr(module, "apply_lf_many", counting_apply)
    monkeypatch.setattr(pipeline, "build_label_matrix", flagged_matrix)
    monkeypatch.setattr(pipeline, "_stage", named_stage)

    out = str(tmp_path / "run")
    summary = run_pipeline(small_config(), dataset, out)
    reports = json.load(open(os.path.join(out, "filter_reports.json")))
    generated = sum(sum(r["generated"].values()) for r in reports)
    assert generated > 0 and summary["coverage"] > 0
    assert counts["pool"] == generated
    assert counts["in_matrix"] == 0
    # seed and pool tables in the featurize stage, the test split once for the end classifier
    assert len(tables) == len(set(tables))
    assert {stage for _, _, stage in tables} == {"featurize", "downstream"}
    test_ids = tuple(ex.doc.id for ex in dataset.test)
    assert [ids for _, ids, stage in tables if stage == "downstream"] == [test_ids]
    # one TF-IDF (structural and downstream share the (1, 1) range) and one embedder
    split_ids = {tuple(ex.doc.id for ex in dataset.seed), tuple(d.id for d in dataset.unlabeled)}
    featurized = [(f, ids) for f, ids, stage in tables if stage == "featurize"]
    assert len(featurized) == 4 and len({f for f, _ in featurized}) == 2
    assert {ids for _, ids in featurized} == split_ids
    # every document is tokenized once, whichever featurizers and rules read its tokens
    all_docs = list(dataset.all_documents())
    assert sorted(tokenized) == sorted(d.text for d in all_docs)


def test_manifest_says_why_the_loop_stopped(tmp_path):
    from labelforge.pipeline import run_pipeline

    ds = make_separable_corpus(5, n_unlabeled=150, n_seed=20, n_test=0)
    runs = {
        "filled": small_config(k_per_category={"surface": 1, "structural": 1, "semantic": 1}),
        "round_budget": small_config(
            k_per_category={"surface": 40, "structural": 40, "semantic": 40}, max_rounds=2
        ),
    }
    for want, cfg in runs.items():
        out = str(tmp_path / want)
        run_pipeline(cfg, ds, out)
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        last = json.load(open(os.path.join(out, "filter_reports.json")))[-1]
        assert manifest["stop_reason"] == want
        assert manifest["shortfall"] == last["shortfall"]
        assert bool(manifest["shortfall"]) == (want == "round_budget")
        for digested in ("lf_pool.json", "report.json"):
            text = open(os.path.join(out, digested)).read()
            assert "stop_reason" not in text and "shortfall" not in text, digested
    assert last["round"] == 2


def test_manifest_sums_provider_warnings_over_rounds(tmp_path, monkeypatch):
    from labelforge import pipeline
    from labelforge.surface import RemoteLlmProvider

    # each reply holds one valid rule and two the provider drops
    reply = json.dumps([
        {"match_mode": "token", "patterns": {"pos": ["pos_marker"]}},
        {"patterns": {"pos": []}},
        {"match_mode": "regex", "patterns": {"neg": ["x"]}},
    ])
    replies = []

    def transport(endpoint, payload, headers, timeout):
        replies.append(reply)
        return reply

    def remote(config, dataset):
        return RemoteLlmProvider(endpoint="http://llm", model="m", labels=dataset.labels,
                                 transport=transport)

    monkeypatch.setattr(pipeline, "build_provider", remote)
    out = str(tmp_path / "run")
    ds = make_separable_corpus(5, n_unlabeled=150, n_seed=20, n_test=0)
    pipeline.run_pipeline(small_config(max_rounds=2), ds, out)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert len(replies) == 2  # one reply per round: surface stays short of its 3 LFs
    assert manifest["provider_warnings"] == 2 * len(replies)
    assert manifest["warnings"] == []
    for digested in ("lf_pool.json", "report.json"):
        assert "provider_warnings" not in open(os.path.join(out, digested)).read(), digested


def test_manifest_warns_of_a_class_without_seed_examples(tmp_path):
    import dataclasses

    from labelforge.corpus import LabelSpace
    from labelforge.pipeline import run_pipeline

    ds = make_separable_corpus(5, n_unlabeled=150, n_seed=20, n_test=0)
    ds = dataclasses.replace(ds, labels=LabelSpace(("pos", "neg", "other")))
    out = str(tmp_path / "run")
    run_pipeline(small_config(max_rounds=1), ds, out)
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["warnings"] == ["class 'other' has no seed examples"]
    for digested in ("lf_pool.json", "report.json"):
        assert "no seed examples" not in open(os.path.join(out, digested)).read(), digested
