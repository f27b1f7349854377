"""End-to-end tests for the command line and its file formats."""

import json
import hashlib
import os
import shutil
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from edue.cli import build_parser, main
from edue.config import RunConfig, load_config
from edue.container import load_container, save_container
from edue.disagreement import EpochStats, binarize_majority, soft_majority
from edue.metrics import nll
from edue.model import prob_maps
from edue.container import DataError
from edue.raters import SceneParams, generate_dataset
from edue.harness import ARMS
from edue.storage import load_checkpoint_dir, load_dataset, model_dirs


TINY = {
    "preset": "desk",
    "input_size": [16, 16],
    "base_channels": 4,
    "epochs": 2,
    "batch_size": 4,
    "n_raters": 3,
    "de_members": 2,
    "n_train": 6,
    "seed": 9,
}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("EDUE_SEED", raising=False)


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture()
def dataset(tmp_path, cfg_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg_path, "--out", str(out)]) == 0
    return out


@pytest.fixture()
def checkpoint(tmp_path, cfg_path, dataset):
    out = tmp_path / "model"
    assert main(["train", "--config", cfg_path, "--data", str(dataset),
                 "--out", str(out)]) == 0
    return out


def dir_digest(directory, pattern="*"):
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob(pattern)):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGenData:
    def test_writes_manifest_and_one_file_per_image(self, dataset, cfg_path):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["format"] == "edue-dataset-v1"
        assert manifest["n_images"] == 6
        assert manifest["seed"] == 9
        files = sorted(p.name for p in dataset.glob("*.edt"))
        assert files == [f"img_{i:04d}.edt" for i in range(6)]
        # each images entry describes the sample in its file, as generated
        params = load_config(cfg_path).scene_params()  # the config's seed, 9
        generated = generate_dataset(params, 6, np.random.default_rng(9))
        loaded, _ = load_dataset(dataset)
        for entry, name, made, sample in zip(manifest["images"], files, generated, loaded):
            assert np.array_equal(sample.masks, made.masks)
            assert entry == {"file": name, "delta_used": made.delta_used,
                             "n_raters": sample.masks.shape[1]}
            assert sample.delta_used == made.delta_used

    def test_round_trip_through_loader(self, dataset):
        samples, manifest = load_dataset(dataset)
        assert len(samples) == 6
        s = samples[0]
        assert s.image.shape == (1, 16, 16)
        assert s.masks.shape == (1, 3, 16, 16)
        assert s.true_mask.shape == (1, 16, 16)
        assert set(np.unique(s.masks)) <= {0.0, 1.0}
        assert manifest["structures"] == ["blob"]

    def test_deterministic_given_seed(self, tmp_path, cfg_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        assert main(["gen-data", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["gen-data", "--config", cfg_path, "--out", str(b)]) == 0
        assert main(["gen-data", "--config", cfg_path, "--out", str(c),
                     "--seed", "10"]) == 0
        assert dir_digest(a) == dir_digest(b)
        assert dir_digest(a) != dir_digest(c)

    def test_manifest_is_the_resolved_config(self, tmp_path, cfg_path):
        out = tmp_path / "d"
        assert main(["gen-data", "--config", cfg_path, "--n", "2", "--seed", "5",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        config = replace(load_config(cfg_path), seed=5).as_dict()
        assert set(manifest) == {"format", "images", "n_images", "params", "preset",
                                 "seed", "structures"}
        assert manifest["params"] == {f.name: config[f.name] for f in fields(SceneParams)}
        assert "seed" not in manifest["params"]
        assert (manifest["seed"], manifest["preset"]) == (5, config["preset"])
        assert manifest["structures"] == ["blob"]

    # name: (config, images, digest of the .edt files, digest of manifest.json).
    # The .edt digests pin the scene bytes that whole-directory digests pinned
    # since scene generation's component search was rewritten; the manifest
    # digests were recorded when its params took the run config's key names
    # and lost their seed.  A change to either must reproduce these bytes or
    # say why not.
    PINNED = {
        "desk": ({"preset": "desk"}, 16,
                 "ac722143f1df170a223626eab52e39bf1e103fe8c3ef87ef0e72c0afe36ddec9",
                 "62118d38960bdf06e8b04a9a2e5074d58db4af2f9662848123f01830a0cd4651"),
        "riga-like-64": ({"preset": "riga-like", "input_size": [64, 64]}, 6,
                         "7ca1c2603081016d84ec48ec00170ed86ca5945073266b79701142f105c3cef6",
                         "ec030a1a6ca11299613188aa9a6186f32a1d0d1eed050146b00b1e94b8cb91f3"),
    }

    def pinned_digest(self, tmp_path, name, pattern):
        config, n = self.PINNED[name][:2]
        cfg = tmp_path / "pinned.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--n", str(n), "--seed", "5",
                     "--out", str(out)]) == 0
        return dir_digest(out, pattern)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_scene_bytes_are_pinned(self, tmp_path, name):
        assert self.pinned_digest(tmp_path, name, "*.edt") == self.PINNED[name][2]

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_manifest_bytes_are_pinned(self, tmp_path, name):
        assert self.pinned_digest(tmp_path, name, "manifest.json") == self.PINNED[name][3]

    def test_n_flag_overrides_config(self, tmp_path, cfg_path):
        out = tmp_path / "d"
        assert main(["gen-data", "--config", cfg_path, "--n", "4",
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["n_images"] == 4


class TestSeedPrecedence:
    def seed_of(self, tmp_path, cfg_path, name, *argv):
        out = tmp_path / name
        assert main(["gen-data", "--config", cfg_path, "--n", "1",
                     "--out", str(out)] + list(argv)) == 0
        return json.loads((out / "manifest.json").read_text())["seed"]

    def test_flag_beats_env_beats_config(self, tmp_path, cfg_path, monkeypatch):
        assert self.seed_of(tmp_path, cfg_path, "cfg") == 9
        monkeypatch.setenv("EDUE_SEED", "7")
        assert self.seed_of(tmp_path, cfg_path, "env") == 7
        assert self.seed_of(tmp_path, cfg_path, "flag", "--seed", "5") == 5

    def test_malformed_env_seed(self, tmp_path, cfg_path, monkeypatch, capsys):
        monkeypatch.setenv("EDUE_SEED", "lots")
        code = main(["gen-data", "--config", cfg_path, "--n", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("env, argv, source", [
        (None, ["--seed", "-1"], "--seed"),
        ("-5", [], "EDUE_SEED"),
    ])
    def test_negative_seed_names_its_source(self, tmp_path, cfg_path, monkeypatch,
                                            capsys, env, argv, source):
        if env is not None:
            monkeypatch.setenv("EDUE_SEED", env)
        code = main(["gen-data", "--config", cfg_path, "--n", "1",
                     "--out", str(tmp_path / "x")] + argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {source} must be")
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_checkpoint_layout(self, checkpoint):
        assert sorted(p.name for p in checkpoint.iterdir()) == [
            "loss.csv", "train_meta.json", "weights.edt"]
        meta = json.loads((checkpoint / "train_meta.json").read_text())
        assert meta["arm"] == "edue"
        assert meta["config"]["seed"] == 9
        assert meta["structure_name"] == "blob"
        lines = (checkpoint / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "member,epoch,mean_total,mean_bce,mean_rmse"
        assert len(lines) == 1 + TINY["epochs"]

    @pytest.mark.parametrize("arm", ["edue", "le", "de", "single-rater"])
    def test_record_keys_and_columns(self, tmp_path, cfg_path, dataset, arm):
        out = tmp_path / arm
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(out), "--arm", arm]) == 0
        meta = json.loads((out / "train_meta.json").read_text())
        assert set(meta) == {"arm", "n_members", "config", "structure", "structure_name"}
        header = (out / "loss.csv").read_text().splitlines()[0]
        assert header.split(",") == ["member"] + [f.name for f in fields(EpochStats)]

    @pytest.mark.parametrize("arm", ["edue", "de"])
    def test_stored_config_reproduces_a_seed_flag_run(self, tmp_path, cfg_path, dataset,
                                                     arm):
        """train --seed 5 on a config whose seed is 9 stores seed 5 in its
        config, and training again from that config alone gives the same bytes."""
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(first), "--arm", arm, "--seed", "5"]) == 0
        stored = json.loads((first / "train_meta.json").read_text())["config"]
        assert stored == {**load_config(cfg_path).as_dict(), "seed": 5}
        cfg = tmp_path / "stored.json"
        cfg.write_text(json.dumps(stored))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(again), "--arm", arm]) == 0
        for path in sorted(first.rglob("*")):
            if path.is_file():
                assert path.read_bytes() == (again / path.relative_to(first)).read_bytes()

    def test_de_checkpoint_has_member_dirs(self, tmp_path, cfg_path, dataset):
        out = tmp_path / "de"
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(out), "--arm", "de"]) == 0
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == [
            "loss.csv", "member_0/weights.edt", "member_1/weights.edt", "train_meta.json"]
        meta = json.loads((out / "train_meta.json").read_text())
        assert meta["arm"] == "de" and meta["n_members"] == 2
        rows = (out / "loss.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2 * TINY["epochs"]

    def test_le_and_single_rater_arms(self, tmp_path, cfg_path, dataset):
        for arm in ("le", "single-rater"):
            out = tmp_path / arm
            assert main(["train", "--config", cfg_path, "--data", str(dataset),
                         "--out", str(out), "--arm", arm]) == 0
            meta = json.loads((out / "train_meta.json").read_text())
            assert meta["arm"] == arm.replace("-", "_")

    def test_structure_out_of_range(self, tmp_path, cfg_path, dataset, capsys):
        code = main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(tmp_path / "m"), "--structure", "3"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path, cfg_path, capsys):
        code = main(["train", "--config", cfg_path,
                     "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestEval:
    def test_report_files(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["train_meta"]["arm"] == "edue"
        assert "arm" not in doc and "structure" not in doc  # train_meta holds them
        assert len(doc["per_image"]) == 6
        assert set(doc["dataset"]) == {"sr", "dc", "mean_ncc", "mean_dice",
                                       "mean_nll"}
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "id,soft_dice,nll,sv_model,sv_gt,ncc"
        assert len(lines) == 7

    def test_rerun_is_byte_identical(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "report.json"
        assert main(["eval", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out)]) == 0
        first = out.read_bytes()
        first_csv = (tmp_path / "report.csv").read_bytes()
        assert main(["eval", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "report.csv").read_bytes() == first_csv

    def test_eval_on_ensemble_checkpoint(self, tmp_path, cfg_path, dataset):
        ckpt = tmp_path / "de"
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(ckpt), "--arm", "de"]) == 0
        out = tmp_path / "de_report.json"
        assert main(["eval", "--model", str(ckpt), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["train_meta"]["arm"] == "de"

    def test_model_dir_without_meta(self, tmp_path, dataset, capsys):
        code = main(["eval", "--model", str(tmp_path), "--data", str(dataset),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestEveryArm:
    MASK_COLUMNS = "id,soft_dice,nll"

    @pytest.mark.parametrize("arm", ["edue", "le", "de", "single-rater"])
    def test_train_then_eval_qc_ood(self, tmp_path, cfg_path, dataset, capsys, arm):
        ckpt = tmp_path / arm
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(ckpt), "--arm", arm]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(ckpt), "--data", str(dataset),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        header = (tmp_path / "eval.csv").read_text().splitlines()[0]
        uncertain = arm != "single-rater"
        if uncertain:
            assert header == self.MASK_COLUMNS + ",sv_model,sv_gt,ncc"
            assert set(doc["dataset"]) == {"sr", "dc", "mean_ncc", "mean_dice",
                                           "mean_nll"}
        else:
            assert header == self.MASK_COLUMNS
            assert set(doc["dataset"]) == {"mean_dice", "mean_nll"}
            assert all(set(row) == {"id", "soft_dice", "nll"}
                       for row in doc["per_image"])
        capsys.readouterr()
        for argv in (["qc", "--out", str(tmp_path / "qc.json")],
                     ["ood", "--out", str(tmp_path / "ood.json")]):
            code = main(argv + ["--model", str(ckpt), "--data", str(dataset)])
            err = capsys.readouterr().err
            if uncertain:
                assert code == 0, err
            else:
                assert code == 2
                assert "single_rater" in err
                assert "one map" in err and "no uncertainty" in err

    def test_single_rater_nll_is_against_binarized_majority(self, tmp_path,
                                                            cfg_path, dataset):
        ckpt = tmp_path / "sr"
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(ckpt), "--arm", "single-rater"]) == 0
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(ckpt), "--data", str(dataset),
                     "--out", str(out)]) == 0
        (model,), _, _ = load_checkpoint_dir(ckpt)
        samples, _ = load_dataset(dataset)
        # eval predicts in chunks of the training batch size
        maps = prob_maps([model], np.stack([s.image for s in samples]),
                         batch_size=TINY["batch_size"])
        expected = [nll(m[0], binarize_majority(soft_majority(s.masks[0])))
                    for m, s in zip(maps, samples)]
        doc = json.loads(out.read_text())
        assert [row["nll"] for row in doc["per_image"]] == expected
        assert doc["dataset"]["mean_nll"] == float(np.mean(expected))


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _train_edue_and_de(root, cfg_path, dataset):
    for arm in ("edue", "de"):
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(root / arm), "--arm", arm]) == 0


class TestMalformedFiles:
    CASES = {
        # a member's network kind and shape now come from train_meta.json
        "model_kind_missing": ("edue", "edue/train_meta.json", "arm",
                               lambda d: d.pop("arm")),
        "model_config_missing": ("de", "de/train_meta.json", "config",
                                 lambda d: d.pop("config")),
        "model_kind_unknown": ("edue", "edue/train_meta.json", "arm",
                               lambda d: d.update(arm="three_headed")),
        "member_kind_missing": ("de", "de/train_meta.json", "arm",
                                lambda d: d.pop("arm")),
        "manifest_file_missing": ("edue", "data/manifest.json", "file",
                                  lambda d: d["images"][2].pop("file")),
        "manifest_delta_missing": ("edue", "data/manifest.json", "delta_used",
                                   lambda d: d["images"][0].pop("delta_used")),
        "de_meta_n_members_missing": ("de", "de/train_meta.json", "n_members",
                                      lambda d: d.pop("n_members")),
        "meta_config_missing": ("edue", "edue/train_meta.json", "config",
                                lambda d: d.pop("config")),
        "meta_batch_size_missing": ("edue", "edue/train_meta.json", "batch_size",
                                    lambda d: d["config"].pop("batch_size")),
        "meta_batch_size_zero": ("de", "de/train_meta.json", "batch_size",
                                 lambda d: d["config"].update(batch_size=0)),
        "meta_batch_size_float": ("edue", "edue/train_meta.json", "batch_size",
                                  lambda d: d["config"].update(batch_size=4.0)),
        "meta_head_skip_list": ("edue", "edue/train_meta.json", "head_skip",
                                lambda d: d["config"].update(head_skip=[1])),
        "meta_structure_missing": ("de", "de/train_meta.json", "structure",
                                   lambda d: d.pop("structure")),
        "meta_head_skip_missing": ("edue", "edue/train_meta.json", "head_skip",
                                   lambda d: d["config"].pop("head_skip")),
        "meta_seed_missing": ("edue", "edue/train_meta.json", "seed",
                              lambda d: d["config"].pop("seed")),
        # an older checkpoint's top-level seed trained its members
        "meta_seed_differs": ("de", "de/train_meta.json", "seed",
                              lambda d: d.update(seed=d["config"]["seed"] + 1)),
        "meta_structure_list": ("de", "de/train_meta.json", "structure",
                                lambda d: d.update(structure=[1])),
        "meta_structure_name_missing": ("edue", "edue/train_meta.json", "structure_name",
                                        lambda d: d.pop("structure_name")),
        "meta_structure_name_number": ("de", "de/train_meta.json", "structure_name",
                                       lambda d: d.update(structure_name=0)),
        "manifest_entry_number": ("edue", "data/manifest.json", "images",
                                  lambda d: d["images"].__setitem__(1, 3)),
        "manifest_images_number": ("edue", "data/manifest.json", "images",
                                   lambda d: d.update(images=3)),
        "manifest_structures_number": ("edue", "data/manifest.json", "structures",
                                       lambda d: d.update(structures=3)),
        "manifest_file_number": ("edue", "data/manifest.json", "file",
                                 lambda d: d["images"][0].update(file=3)),
        "manifest_delta_list": ("edue", "data/manifest.json", "delta_used",
                                lambda d: d["images"][3].update(delta_used=[1])),
        "model_input_size_number": ("edue", "edue/train_meta.json", "input_size",
                                    lambda d: d["config"].update(input_size=3)),
        "model_n_e_string": ("edue", "edue/train_meta.json", "n_e",
                             lambda d: d["config"].update(n_e="4")),
        "model_seed_list": ("edue", "edue/train_meta.json", "seed",
                            lambda d: d["config"].update(seed=[1])),
        "member_head_hidden": ("de", "de/train_meta.json", "head_hidden",
                               lambda d: d["config"].update(head_hidden=0)),
        "member_n_d": ("de", "de/train_meta.json", "n_d",
                       lambda d: d["config"].update(n_d=2)),
        "meta_head_skip_too_big": ("edue", "edue/train_meta.json", "head_skip",
                                   lambda d: d["config"].update(head_skip=2)),
        "meta_n_members_too_few": ("de", "de/train_meta.json", "n_members",
                                   lambda d: d.update(n_members=1)),
        "meta_n_members_for_one_model": ("edue", "edue/train_meta.json", "n_members",
                                         lambda d: d.update(n_members=2)),
        "meta_lr_negative": ("edue", "edue/train_meta.json", "lr",
                             lambda d: d["config"].update(lr=-1)),
        "meta_epochs_zero": ("de", "de/train_meta.json", "epochs",
                             lambda d: d["config"].update(epochs=0)),
        "meta_de_members_one": ("de", "de/train_meta.json", "de_members",
                                lambda d: d["config"].update(de_members=1)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_naming_file_and_key(self, tmp_path, cfg_path, dataset,
                                           capsys, case):
        arm, rel, key, edit = self.CASES[case]
        _train_edue_and_de(tmp_path, cfg_path, dataset)
        _edit_json(tmp_path / rel, edit)
        capsys.readouterr()
        code = main(["eval", "--model", str(tmp_path / arm), "--data",
                     str(dataset), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert str(tmp_path / rel) in err and repr(key) in err

    JSON_FILES = ["data/manifest.json", "edue/train_meta.json", "de/train_meta.json"]

    def eval_with_text(self, tmp_path, cfg_path, dataset, capsys, rel, text):
        """(exit code, stderr) of eval after rel's text is replaced."""
        _train_edue_and_de(tmp_path, cfg_path, dataset)
        (tmp_path / rel).write_text(text)
        capsys.readouterr()
        arm = "de" if rel.startswith("de/") else "edue"
        code = main(["eval", "--model", str(tmp_path / arm), "--data",
                     str(dataset), "--out", str(tmp_path / "r.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("rel", JSON_FILES)
    def test_non_object_top_level_exits_two_naming_file(self, tmp_path, cfg_path,
                                                        dataset, capsys, rel):
        code, err = self.eval_with_text(tmp_path, cfg_path, dataset, capsys,
                                        rel, "[1]")
        assert code == 2
        assert err.startswith("data error: ")
        assert str(tmp_path / rel) in err and "JSON object" in err

    @pytest.mark.parametrize("rel", JSON_FILES)
    def test_invalid_json_text_exits_two_naming_file(self, tmp_path, cfg_path,
                                                     dataset, capsys, rel):
        code, err = self.eval_with_text(tmp_path, cfg_path, dataset, capsys,
                                        rel, "{not json")
        assert code == 2
        assert err.startswith("data error: ")
        assert str(tmp_path / rel) in err and "not valid JSON" in err


def _put_nan(path, entry):
    """Rewrite one container file with its entry's first value set to NaN."""
    tensors = load_container(path)
    tensors[entry].flat[0] = np.nan
    save_container(path, tensors)


class TestNonFiniteInputs:
    def assert_refused(self, capsys, argv, path, entry, out):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert str(path) in err and repr(entry) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flags", [
        ("eval", []),
        ("qc", ["--dice-threshold", "0.7"]),
        ("ood", ["--kind", "gauss_noise", "--level", "0.3"]),
    ])
    def test_nan_weight_exits_two_naming_file_and_entry(self, tmp_path, dataset,
                                                        checkpoint, capsys, command, flags):
        weights = checkpoint / "weights.edt"
        _put_nan(weights, "enc1.conv.w")
        out = tmp_path / "r.json"
        self.assert_refused(capsys, [command, "--model", str(checkpoint), "--data",
                                     str(dataset), "--out", str(out)] + flags,
                            weights, "enc1.conv.w", out)

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_nan_pixel_exits_two_naming_file_and_entry(self, tmp_path, cfg_path, dataset,
                                                       checkpoint, capsys, command):
        image = dataset / "img_0003.edt"
        _put_nan(image, "image")
        out = tmp_path / "out"
        source = (["--config", cfg_path] if command == "train"
                  else ["--model", str(checkpoint)])
        self.assert_refused(capsys, [command, *source, "--data", str(dataset),
                                     "--out", str(out)], image, "image", out)


class TestCheckpointConfigMismatch:
    EDITS = {
        "entry_missing": (lambda t: t.pop("enc0.conv.b"), "is missing"),
        "entry_extra": (lambda t: t.update({"enc0.conv.c": np.zeros(8, np.float32)}),
                        "is not a parameter"),
        "entry_shape": (lambda t: t.update({"enc0.conv.b": np.zeros(9, np.float32)}),
                        "has shape (9,)"),
    }

    @pytest.mark.parametrize("case", sorted(EDITS))
    def test_exits_two_naming_weights_file_and_entry(self, tmp_path, dataset, checkpoint,
                                                     capsys, case):
        edit, message = self.EDITS[case]
        weights = checkpoint / "weights.edt"
        tensors = load_container(weights)
        entry = "enc0.conv.c" if case == "entry_extra" else "enc0.conv.b"
        edit(tensors)
        save_container(weights, tensors)
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = main(["eval", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {weights}: entry {entry!r} {message}")
        assert str(checkpoint / "train_meta.json") in err
        assert not out.exists()

    CONFIG_EDITS = {
        "n_e": (1, "'n_e' must be >= 2, got 1"),
        "input_size": ([30, 30], "'input_size' must be divisible by 2^4, got (30, 30)"),
    }

    @pytest.mark.parametrize("key", sorted(CONFIG_EDITS))
    def test_bad_model_config_exits_two_naming_train_meta(self, tmp_path, dataset,
                                                          checkpoint, capsys, key):
        value, message = self.CONFIG_EDITS[key]
        path = checkpoint / "train_meta.json"
        _edit_json(path, lambda d: d["config"].update({key: value}))
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = main(["eval", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {path}: config: {message}\n"
        assert not out.exists()


class TestStructureMismatch:
    """A checkpoint is scored only on the structure it was trained on: a
    dataset whose structure at the checkpoint's index has another name,
    or has no structure there, is refused naming both and train_meta.json."""

    def data(self, tmp_path, structure):
        cfg = tmp_path / f"{structure}.json"
        cfg.write_text(json.dumps({**TINY, "structure": structure, "input_size": [32, 32],
                                   "epochs": 1}))
        out = tmp_path / f"data_{structure}"
        assert main(["gen-data", "--config", str(cfg), "--n", "5", "--out", str(out)]) == 0
        return cfg, out

    # (trained on, structure index and name, scored on, the dataset's structures)
    CASES = {"blob_on_nested": ("single_blob", "0", "blob", "nested", "['disc', 'cup']"),
             "cup_on_blob": ("nested", "1", "cup", "single_blob", "['blob']")}

    @pytest.mark.parametrize("command", ["eval", "qc"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_two_naming_both_structures(self, tmp_path, capsys, case, command):
        trained, k, name, scored, names = self.CASES[case]
        cfg, train_data = self.data(tmp_path, trained)
        ckpt = tmp_path / "m"
        assert main(["train", "--config", str(cfg), "--data", str(train_data),
                     "--structure", k, "--out", str(ckpt)]) == 0
        _, data = self.data(tmp_path, scored)
        capsys.readouterr()
        out = tmp_path / "r.json"
        code = main([command, "--model", str(ckpt), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"data error: {ckpt / 'train_meta.json'}: checkpoint was trained "
                       f"on structure {k}, {name!r}, but dataset {data} has "
                       f"structures {names}\n")
        assert not out.exists()


class TestImageShapeMismatch:
    """A network and a dataset whose images it cannot take are refused
    right after loading, naming the dataset and the config key."""

    OTHER = {"input_size": [32, 32], "in_channels": 2}

    @pytest.fixture()
    def no_forward(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("forward ran before the shape check")
        monkeypatch.setattr("edue.model.forward", refuse)
        monkeypatch.setattr("edue.disagreement.forward", refuse)

    def other_dataset(self, tmp_path, key):
        cfg = tmp_path / f"other_{key}.json"
        cfg.write_text(json.dumps({**TINY, key: self.OTHER[key]}))
        out = tmp_path / f"data_{key}"
        assert main(["gen-data", "--config", str(cfg), "--n", "2", "--out", str(out)]) == 0
        return out

    def assert_refused(self, capsys, argv, data, key, source, out):
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: dataset {data} has images of shape ")
        assert f"key {key!r} in {source} is " in err
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(OTHER))
    @pytest.mark.parametrize("command,flags", [
        ("eval", []),
        ("qc", ["--dice-threshold", "0.7"]),
        ("ood", ["--kind", "gauss_noise", "--level", "0.3"]),
    ])
    def test_checkpoint_on_other_images(self, tmp_path, checkpoint, capsys, key,
                                        command, flags, no_forward):
        data = self.other_dataset(tmp_path, key)
        out = tmp_path / "r.json"
        self.assert_refused(capsys, [command, "--model", str(checkpoint), "--data",
                                     str(data), "--out", str(out)] + flags,
                            data, key, checkpoint / "train_meta.json", out)

    def test_ensemble_names_its_train_meta(self, tmp_path, cfg_path, dataset, capsys):
        _train_edue_and_de(tmp_path, cfg_path, dataset)
        data = self.other_dataset(tmp_path, "input_size")
        out = tmp_path / "r.json"
        self.assert_refused(capsys, ["eval", "--model", str(tmp_path / "de"), "--data",
                                     str(data), "--out", str(out)],
                            data, "input_size", tmp_path / "de/train_meta.json", out)

    @pytest.mark.parametrize("key", sorted(OTHER))
    def test_train_on_other_images(self, tmp_path, cfg_path, capsys, key, no_forward):
        data = self.other_dataset(tmp_path, key)
        out = tmp_path / "m"
        self.assert_refused(capsys, ["train", "--config", cfg_path, "--data", str(data),
                                     "--out", str(out)], data, key, cfg_path, out)

    def test_train_with_a_preset_names_it(self, tmp_path, capsys, no_forward):
        data = self.other_dataset(tmp_path, "in_channels")
        out = tmp_path / "m"
        self.assert_refused(capsys, ["train", "--preset", "desk", "--data", str(data),
                                     "--out", str(out)], data, "in_channels",
                            "preset 'desk'", out)

    def test_compare_on_other_test_images(self, tmp_path, cfg_path, dataset, capsys,
                                          no_forward):
        data = self.other_dataset(tmp_path, "in_channels")
        out = tmp_path / "c.json"
        self.assert_refused(capsys, ["compare", "--config", cfg_path, "--train-data",
                                     str(dataset), "--test-data", str(data), "--out",
                                     str(out), "--seeds", "1"], data, "in_channels",
                            cfg_path, out)


@pytest.fixture(scope="module")
def trained_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    assert main(["gen-data", "--config", str(cfg), "--out", str(root / "data")]) == 0
    _train_edue_and_de(root, str(cfg), root / "data")
    return root


# (file, path of keys to the object whose key gets deleted)
JSON_OBJECTS = [
    ("data/manifest.json", ()),
    ("data/manifest.json", ("images", 0)),
    ("edue/train_meta.json", ()),
    ("edue/train_meta.json", ("config",)),
    ("de/train_meta.json", ()),
    ("de/train_meta.json", ("config",)),
]


# Top-level stand-ins for an object: a list, a number and a string.
NON_OBJECTS = ([1], 3, "text")


def _eval_edited_copy(tree, rel, edit):
    """eval's exit code on a copy of tree whose JSON file rel is
    rewritten as edit(its parsed content)."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(tree, root)
        doc = edit(json.loads((root / rel).read_text()))
        (root / rel).write_text(json.dumps(doc))
        arm = rel.split("/")[0] if rel.split("/")[0] != "data" else "edue"
        return main(["eval", "--model", str(root / arm), "--data",
                     str(root / "data"), "--out", str(root / "r.json")])


def _draw_key(data, doc, trail):
    """The object at trail inside doc, and one of its keys."""
    target = doc
    for step in trail:
        target = target[step]
    return target, data.draw(st.sampled_from(sorted(target)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_deleting_any_json_key_exits_zero_or_two(trained_tree, data):
    """Delete one key from a JSON object, or replace a file's whole top
    level with a non-object; eval must exit 0 or 2, never 1."""
    rel, trail = data.draw(st.sampled_from(JSON_OBJECTS))
    replace_top = not trail and data.draw(st.booleans())

    def edit(doc):
        if replace_top:
            return data.draw(st.sampled_from(NON_OBJECTS))
        target, key = _draw_key(data, doc, trail)
        del target[key]
        return doc

    code = _eval_edited_copy(trained_tree, rel, edit)
    assert code in ((2,) if replace_top else (0, 2)), (rel, trail)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replacing_any_json_value_exits_zero_or_two(trained_tree, data):
    """Replace one value in a JSON object with a list, a number, a
    string, a bool or null; eval must exit 0 or 2, never 1."""
    rel, trail = data.draw(st.sampled_from(JSON_OBJECTS))

    def edit(doc):
        target, key = _draw_key(data, doc, trail)
        target[key] = data.draw(st.sampled_from(NON_OBJECTS + (True, None, -1)))
        return doc

    assert _eval_edited_copy(trained_tree, rel, edit) in (0, 2), (rel, trail)


def _eval_copy(tree, tmp_path, capsys, arm, edit):
    """(exit code, stderr, checkpoint copy) of eval on a copy of tree's
    arm checkpoint after edit(copy) ran, with the tree's dataset."""
    ckpt = tmp_path / arm
    shutil.copytree(tree / arm, ckpt)
    edit(ckpt)
    capsys.readouterr()
    code = main(["eval", "--model", str(ckpt), "--data", str(tree / "data"),
                 "--out", str(tmp_path / "r.json")])
    return code, capsys.readouterr().err, ckpt


@pytest.mark.parametrize("key", sorted(f.name for f in fields(RunConfig)))
@pytest.mark.parametrize("arm", ["edue", "de"])
def test_deleting_any_config_key_exits_two(trained_tree, tmp_path, capsys, arm, key):
    """Every config key is required: a preset default must never stand in
    for a trained value."""
    def edit(ckpt):
        _edit_json(ckpt / "train_meta.json", lambda d: d["config"].pop(key))

    code, err, ckpt = _eval_copy(trained_tree, tmp_path, capsys, arm, edit)
    assert code == 2
    assert err == f"data error: {ckpt / 'train_meta.json'}: config key {key!r} is missing\n"


def test_n_members_short_of_de_members_exits_two(tmp_path, dataset, capsys):
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps({**TINY, "de_members": 3, "epochs": 1}))
    ckpt = tmp_path / "de3"
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(ckpt), "--arm", "de"]) == 0
    path = ckpt / "train_meta.json"
    _edit_json(path, lambda d: d.update(n_members=2))
    capsys.readouterr()
    code = main(["eval", "--model", str(ckpt), "--data", str(dataset),
                 "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (f"data error: {path}: key 'n_members' must be 3 "
                                       f"for arm 'de', got 2\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("arm", ["edue", "de"])
def test_older_layout_scores_the_same(trained_tree, tmp_path, capsys, arm):
    """A checkpoint that also has the older layout's files, a model.json
    beside each weights.edt, and its keys, head_skip and a top-level seed
    equal to the config's, in train_meta.json, is scored the same: those
    files and keys are ignored."""
    code, _, _ = _eval_copy(trained_tree, tmp_path / "now", capsys, arm, lambda ckpt: None)
    assert code == 0
    now = json.loads((tmp_path / "now/r.json").read_text())

    def older(ckpt):
        models, meta, config = load_checkpoint_dir(ckpt)
        for model, model_dir in zip(models, model_dirs(ckpt, len(models))):
            (model_dir / "model.json").write_text(json.dumps(
                {"kind": model.kind, "config": asdict(model.config)}))
        _edit_json(ckpt / "train_meta.json",
                   lambda d: d.update(head_skip=ARMS[arm].skipped_heads(config),
                                      seed=config.seed))

    code, _, _ = _eval_copy(trained_tree, tmp_path / "old", capsys, arm, older)
    assert code == 0
    old = json.loads((tmp_path / "old/r.json").read_text())
    assert old.pop("train_meta") == {**now.pop("train_meta"), "head_skip": 0,
                                     "seed": TINY["seed"]}
    assert old == now
    assert (tmp_path / "old/r.csv").read_bytes() == (tmp_path / "now/r.csv").read_bytes()


class TestQcAndOod:
    def test_qc_report(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "qc.json"
        assert main(["qc", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(out), "--dice-threshold", "0.7"]) == 0
        doc = json.loads(out.read_text())
        assert np.isfinite(doc["d_auc"])
        assert len(doc["quantiles"]) == 21
        lines = (tmp_path / "qc.csv").read_text().strip().splitlines()
        assert lines[0] == "quantile,remaining_fraction,ideal_fraction"
        assert len(lines) == 22

    def test_ood_report_and_determinism(self, tmp_path, dataset, checkpoint):
        out = tmp_path / "ood.json"
        argv = ["ood", "--model", str(checkpoint), "--data", str(dataset),
                "--out", str(out), "--kind", "gauss_noise", "--level", "0.3",
                "--seed", "3"]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        assert [row["fraction"] for row in doc["per_fraction"]] == [0.0, 0.5, 1.0]
        assert doc["seed"] == 3
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        lines = (tmp_path / "ood.csv").read_text().strip().splitlines()
        assert lines[0] == "fraction,n_distorted,min,q1,median,q3,max,mean"
        assert len(lines) == 4

    def test_ood_draws_from_the_stored_config_seed(self, tmp_path, cfg_path, dataset):
        ckpt = tmp_path / "seed5"
        assert main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(ckpt), "--seed", "5"]) == 0
        out = tmp_path / "ood.json"
        assert main(["ood", "--model", str(ckpt), "--data", str(dataset),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 5

    @pytest.mark.parametrize("level", ["100", "4096"])
    def test_blur_radius_wider_than_the_image_runs(self, tmp_path, dataset,
                                                   checkpoint, level):
        assert main(["ood", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "ood.json"), "--kind", "blur",
                     "--level", level]) == 0

    def test_bad_fractions(self, tmp_path, dataset, checkpoint, capsys):
        code = main(["ood", "--model", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "o.json"), "--fractions", "a,b"])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestCompare:
    def test_compare_report(self, tmp_path, cfg_path, dataset):
        test_data = tmp_path / "test_data"
        assert main(["gen-data", "--config", cfg_path, "--n", "5",
                     "--out", str(test_data), "--seed", "77"]) == 0
        out = tmp_path / "cmp.json"
        assert main(["compare", "--config", cfg_path,
                     "--train-data", str(dataset),
                     "--test-data", str(test_data),
                     "--out", str(out), "--seeds", "0"]) == 0
        doc = json.loads(out.read_text())
        # the run config is recorded once, as "config", less the seed that
        # "seeds" replaces
        assert set(doc) == {"seeds", "structures", "arms", "config"}
        assert doc["config"] == {k: v for k, v in load_config(cfg_path).as_dict().items()
                                 if k != "seed"}
        assert set(doc["arms"]) == {"edue", "le", "de"}
        assert doc["seeds"] == [0]
        lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
        assert lines[0] == "arm,metric,mean,std"
        assert len(lines) == 1 + 3 * 5  # three arms, five metric columns

    def data(self, tmp_path, structure, n):
        cfg = tmp_path / f"{structure}.json"
        cfg.write_text(json.dumps({**TINY, "structure": structure, "input_size": [32, 32]}))
        out = tmp_path / f"{structure}_{n}"
        assert main(["gen-data", "--config", str(cfg), "--n", str(n), "--out", str(out)]) == 0
        return cfg, out

    # (training set structure, test set structure, test images, what the
    # refusal says after naming both sets)
    REFUSALS = {
        "blob_test_for_nested": ("nested", "single_blob", 6,
                                 "whose structures differ: ['disc', 'cup'] and ['blob']"),
        "nested_test_for_blob": ("single_blob", "nested", 6,
                                 "whose structures differ: ['blob'] and ['disc', 'cup']"),
        "three_test_images": ("single_blob", "single_blob", 3,
                              "which has 3 images; the variance metrics need at least 4"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refuses_a_test_set_it_cannot_score_before_training(self, tmp_path, capsys,
                                                                monkeypatch, case):
        trained, scored, n, reason = self.REFUSALS[case]
        cfg, train_data = self.data(tmp_path, trained, 6)
        _, test_data = self.data(tmp_path, scored, n)
        calls = []
        monkeypatch.setattr("edue.harness.train_arm", lambda *args: calls.append(args))
        capsys.readouterr()
        out = tmp_path / "c.json"
        code = main(["compare", "--config", str(cfg), "--train-data", str(train_data),
                     "--test-data", str(test_data), "--out", str(out), "--seeds", "1"])
        assert calls == []
        assert code == 2
        assert capsys.readouterr().err == (f"data error: compare trains on {train_data} "
                                           f"and scores on {test_data}, {reason}\n")
        assert not out.exists()

    def test_seeds_come_from_seeds_alone(self):
        args = build_parser().parse_args(["compare", "--train-data", "d", "--test-data",
                                          "t", "--out", "c.json", "--seed", "2"])
        assert not hasattr(args, "seed")
        assert args.seeds == "2"  # argparse reads a prefix of --seeds

    def test_bad_seeds(self, tmp_path, cfg_path, dataset, capsys):
        code = main(["compare", "--config", cfg_path,
                     "--train-data", str(dataset), "--test-data", str(dataset),
                     "--out", str(tmp_path / "c.json"), "--seeds", "one"])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        code = main(["compare", "--config", cfg_path,
                     "--train-data", str(dataset), "--test-data", str(dataset),
                     "--out", str(tmp_path / "c.json"), "--seeds", "1,-2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --seeds must be")


class TestInspect:
    def test_prints_entry_table(self, dataset, capsys):
        path = dataset / "img_0000.edt"
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "image" in out and "masks/blob" in out
        assert "16x16" in out

    def test_truncated_file_exits_two(self, tmp_path, dataset, capsys):
        blob = (dataset / "img_0000.edt").read_bytes()
        broken = tmp_path / "broken.edt"
        broken.write_bytes(blob[:-7])
        assert main(["inspect", str(broken)]) == 2
        assert "container error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "ghost.edt")]) == 2
        assert "missing file" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["dance"]) == 1

    def test_missing_required_flag(self):
        assert main(["train", "--data", "d"]) == 1

    def test_preset_and_config_conflict(self, cfg_path, tmp_path):
        assert main(["gen-data", "--preset", "desk", "--config", cfg_path,
                     "--out", str(tmp_path / "x")]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["eval", "qc", "ood"])
    def test_help_describes_the_predictor_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "checkpoint directory" in out and "dataset directory" in out

    @pytest.mark.parametrize("command, flag, value", [
        ("qc", "--dice-threshold", "nan"),
        ("qc", "--dice-threshold", "inf"),
        ("ood", "--level", "nan"),
        ("ood", "--level", "inf"),
    ])
    def test_non_finite_flag(self, tmp_path, capsys, command, flag, value):
        code = main([command, "--model", str(tmp_path), "--data", str(tmp_path),
                     "--out", str(tmp_path / "r.json"), flag, value])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: {flag} must be a "
                                           f"finite number, got {value}\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("ood", "--fractions", "0,1.5", "--fractions must lie in [0, 1], got 1.5"),
        ("ood", "--fractions", "-0.5", "--fractions must lie in [0, 1], got -0.5"),
        ("ood", "--fractions", "0.5,nan", "--fractions must lie in [0, 1], got nan"),
        ("ood", "--level", "-1", "--level must be >= 0, got -1.0"),
        ("qc", "--dice-threshold", "0", "--dice-threshold must be in (0, 1], got 0.0"),
        ("qc", "--dice-threshold", "-0.1", "--dice-threshold must be in (0, 1], got -0.1"),
        ("qc", "--dice-threshold", "1.5", "--dice-threshold must be in (0, 1], got 1.5"),
        ("compare", "--seeds", "1,1", "--seeds must be comma-separated distinct "
                                      "non-negative integers, got '1,1'"),
    ], ids=["fraction_above_one", "fraction_negative", "fraction_nan", "level_negative",
            "dice_threshold_zero", "dice_threshold_negative", "dice_threshold_above_one",
            "seeds_repeated"])
    def test_ood_flag_out_of_range_exits_two_before_loading(self, tmp_path, capsys, command,
                                                            flag, value, message):
        # the model and data paths do not exist: the flag check must come
        # first, so the message names the flag, not them
        ghost = str(tmp_path / "ghost")
        paths = (["--train-data", ghost, "--test-data", ghost] if command == "compare"
                 else ["--model", ghost, "--data", ghost])
        code = main([command, *paths, "--out", str(tmp_path / "r.json"), flag, value])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["4097", "1e12", "1e308"])
    def test_blur_radius_beyond_the_largest_image_exits_two(self, tmp_path, capsys,
                                                             value):
        code = main(["ood", "--model", str(tmp_path), "--data", str(tmp_path),
                     "--out", str(tmp_path / "r.json"), "--kind", "blur",
                     "--level", value])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --level is a blur radius in pixels and must be at "
            f"most 4096, got {float(value)}\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "ghost", "--data", "ghost"],
        ["qc", "--model", "ghost", "--data", "ghost"],
        ["ood", "--model", "ghost", "--data", "ghost"],
        ["compare", "--train-data", "ghost", "--test-data", "ghost"],
    ], ids=["eval", "qc", "ood", "compare"])
    def test_missing_out_directory_exits_two_before_loading(self, tmp_path, capsys,
                                                            argv):
        # the model and data paths do not exist either: the directory check
        # must come first, so the message names the directory, not them
        missing = tmp_path / "missing"
        code = main(argv + ["--out", str(missing / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --out directory {missing} does not exist or is "
            f"not a directory\n")
        assert not missing.exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "ghost", "--data", "ghost"],
        ["qc", "--model", "ghost", "--data", "ghost"],
        ["ood", "--model", "ghost", "--data", "ghost"],
        ["compare", "--train-data", "ghost", "--test-data", "ghost"],
    ], ids=["eval", "qc", "ood", "compare"])
    def test_out_directory_exits_two_before_loading(self, tmp_path, capsys, argv):
        # a report path that is an existing directory: refused first, by name,
        # not after the work when the write fails
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --out {tmp_path} is a directory, not a report file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--preset", "desk", "--n", "2"],
        ["train", "--preset", "desk", "--data", "ghost"],
    ], ids=["gen-data", "train"])
    def test_out_file_exits_two_before_any_work(self, tmp_path, capsys, argv):
        # the data path does not exist either: the --out check must come
        # first, so the message names --out, not the data
        out = tmp_path / "taken"
        out.write_text("x")
        code = main(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: --out {out} is a file, not a directory\n")
        assert out.read_text() == "x"

    def alpha_zero_config(self, tmp_path):
        cfg = tmp_path / "alpha0.json"
        cfg.write_text(json.dumps({**TINY, "alpha": 0}))
        return cfg

    @pytest.mark.parametrize("arm", ["le", "de", "single-rater"])
    def test_alpha_zero_for_an_arm_without_beta_exits_two_before_loading(
            self, tmp_path, capsys, arm):
        # the data path does not exist: the config check must come first
        cfg = self.alpha_zero_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "m"), "--arm", arm])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: key 'alpha' must be > 0 for arm "
            f"{arm.replace('-', '_')!r}, which forces beta to 0\n")
        assert not (tmp_path / "m").exists()

    def test_alpha_zero_still_trains_edue(self, tmp_path, dataset):
        cfg = self.alpha_zero_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "m"), "--arm", "edue"]) == 0

    def test_compare_with_alpha_zero_exits_two_before_loading(self, tmp_path, capsys):
        cfg = self.alpha_zero_config(tmp_path)
        ghost = str(tmp_path / "ghost")
        code = main(["compare", "--config", str(cfg), "--train-data", ghost,
                     "--test-data", ghost, "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}: key 'alpha' must be > 0 for arm 'le', "
            f"which forces beta to 0\n")
        assert not (tmp_path / "c.json").exists()

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array")
        monkeypatch.setattr("edue.cli.generate_dataset", exhausted)
        code = main(["gen-data", "--preset", "desk", "--n", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == ("out of memory: Unable to allocate "
                                           "32.0 GiB for an array\n")

    @pytest.mark.parametrize("n", ["0", "-3", "100001"])
    def test_image_count_out_of_range_names_the_flag(self, tmp_path, capsys, n):
        code = main(["gen-data", "--preset", "desk", "--n", n,
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: --n must be in "
                                           f"[1, 100000], got {n}\n")
        assert not (tmp_path / "x").exists()

    def test_structure_too_big_for_input_size(self, tmp_path, capsys):
        cfg = tmp_path / "nested16.json"
        cfg.write_text(json.dumps({**TINY, "structure": "nested"}))
        code = main(["gen-data", "--config", str(cfg), "--n", "50",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: degenerate blob")
        assert "input_size [16, 16]" in err and "structure 'nested'" in err

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"epochs": "ten"}')
        code = main(["gen-data", "--config", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"n_d": 3}', "n_d"),
        ('{"bogus": 1}', "bogus"),
        ('{"lr": NaN, "epochs": 1}', "lr"),
        ('{"beta": Infinity}', "beta"),
        ('{"texture_noise": 1e999}', "texture_noise"),
        ('{"epochs": 0}', "epochs"),
        ('{"seed": -1}', "seed"),
        ('{"input_size": [1099511627776, 1099511627776]}', "input_size"),
        ('{"base_channels": 100000000}', "base_channels"),
        ('{"n_train": 100001}', "n_train"),
        ('{"n_e": 2, "input_size": [8, 8]}', "input_size"),
    ])
    def test_config_file_error_names_file_and_key(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["gen-data", "--config", str(bad), "--n", "2",
                     "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ")
        assert str(bad) in err and repr(key) in err
        assert not (tmp_path / "x").exists()


class TestDatasetValidation:
    def test_manifest_count_mismatch(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["n_images"] = 99
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="n_images"):
            load_dataset(dataset)

    def test_missing_image_file(self, dataset):
        os.unlink(dataset / "img_0003.edt")
        with pytest.raises(DataError, match="missing"):
            load_dataset(dataset)

    def test_missing_true_mask_entry(self, dataset):
        from edue.container import load_container, save_container

        tensors = load_container(dataset / "img_0001.edt")
        del tensors["true/blob"]
        save_container(dataset / "img_0001.edt", tensors)
        with pytest.raises(DataError, match="'true/blob'"):
            load_dataset(dataset)

    def test_old_dataset_with_heatmap_entry_loads(self, dataset):
        from edue.container import load_container, save_container

        before, _ = load_dataset(dataset)
        for path in sorted(dataset.glob("*.edt")):
            tensors = load_container(path)
            assert "heatmap/blob" not in tensors
            tensors["heatmap/blob"] = tensors["masks/blob"].var(axis=0)
            save_container(path, tensors)
        after, _ = load_dataset(dataset)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.masks, b.masks)
            np.testing.assert_array_equal(a.image, b.image)

    MASK_EDITS = {
        "one_rater": (lambda m: m[:1], "need at least 2 rater masks, got 1"),
        "half_pixel": (lambda m: np.where(np.indices(m.shape).sum(axis=0) == 0, 0.5, m),
                       "rater masks must be binary"),  # m[0, 0, 0] only
        "wrong_size": (lambda m: m[:, :-1, :], "differ from image"),
        "rank_two": (lambda m: m[0], "mask stack"),
    }

    @pytest.mark.parametrize("case", sorted(MASK_EDITS))
    def test_bad_mask_entry_exits_two_naming_file_and_entry(self, tmp_path, cfg_path,
                                                            dataset, capsys, case):
        from edue.container import load_container, save_container

        edit, message = self.MASK_EDITS[case]
        path = dataset / "img_0002.edt"
        tensors = load_container(path)
        tensors["masks/blob"] = edit(tensors["masks/blob"])
        save_container(path, tensors)
        capsys.readouterr()
        code = main(["train", "--config", cfg_path, "--data", str(dataset),
                     "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {path}: entry 'masks/blob': ")
        assert message in err
        assert not (tmp_path / "m").exists()

    NESTED_EDITS = {
        "cup_two_raters": ("masks/cup", lambda m: m[:2], "2 raters differ from the 3 of 'masks/disc'"),
        "true_disc_wrong_size": ("true/disc", lambda m: m[:-1], "differs from image (32, 32)"),
    }

    @pytest.mark.parametrize("case", sorted(NESTED_EDITS))
    def test_bad_nested_entry_exits_two_naming_file_and_entry(self, tmp_path, capsys, case):
        from edue.container import load_container, save_container

        cfg = tmp_path / "nested.json"
        cfg.write_text(json.dumps({**TINY, "structure": "nested", "input_size": [32, 32]}))
        data = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--n", "3", "--out", str(data)]) == 0
        key, edit, message = self.NESTED_EDITS[case]
        path = data / "img_0001.edt"
        tensors = load_container(path)
        tensors[key] = edit(tensors[key])
        save_container(path, tensors)
        capsys.readouterr()
        code = main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: {path}: entry '{key}': ")
        assert message in err
        assert not (tmp_path / "m").exists()
