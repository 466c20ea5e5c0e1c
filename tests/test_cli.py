"""End-to-end command-line runs: artifacts, exit codes, reproducibility."""

import csv
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import kpp
from kpp import trainer as trainer_mod
from kpp.cli import TRAIN_DEFAULTS, _config_flags, _load_corpus, _train_config, build_parser, main
from kpp.nets import MemoryVAE, ModelConfig, load_checkpoint, save_checkpoint
from kpp.trainer import METRICS_HEADER, MetricsRow, TrainConfig

FAST = ["--T", "2", "--K", "1", "--L", "8", "--epochs", "1",
        "--episodes-per-epoch", "2", "--batch", "1", "--warmup", "1"]


def run(argv):
    return main(argv)


def exit_code(argv):
    """The code a run returns, or the code argparse exits with."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def mask_wall(rows):
    i = rows[0].index("wall_seconds")
    out = [list(r) for r in rows]
    for r in out[1:]:
        r[i] = "masked"
    return out


COMMANDS = ["train", "generate", "denoise", "ablate"]


def command_argv(command, ckpt_dir):
    """A fast run of one artifact-writing command."""
    ckpt = ["--ckpt", str(ckpt_dir / "final.bin")]
    return {"train": ["train", "--data", "synth", *FAST],
            "generate": ["generate", *ckpt, "--n", "1"],
            "denoise": ["denoise", *ckpt, "--n", "1", "--steps", "1"],
            "ablate": ["ablate", "--data", "synth", "--values", "on", "--seeds", "1",
                       *FAST]}[command]


def with_config(src, dst, **entries):
    """A copy of checkpoint src whose stored config also holds entries."""
    arrays, config = load_checkpoint(src)
    save_checkpoint(dst, arrays, dict(config, **entries))
    return dst


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    rc = run(["train", "--data", "synth", *FAST, "--seed", "1", "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    def test_artifacts_and_row_count(self, ckpt_dir):
        assert (ckpt_dir / "manifest.txt").exists()
        assert (ckpt_dir / "best.bin").exists()
        assert (ckpt_dir / "final.bin").exists()
        rows = read_csv(ckpt_dir / "metrics.csv")
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + 2 * 1  # header + (train, test) per epoch

    def test_flag_defaults_match_config_defaults(self):
        """`kpp train` with no flags trains the dataclass defaults that
        TRAIN_DEFAULTS repeats."""
        args = build_parser().parse_args(["train"])
        train_set, _ = _load_corpus(args.data, args.binarize)
        assert _train_config(args, train_set, args.seed) == TrainConfig(
            model=ModelConfig(image_shape=(1, 16, 16)))

    def test_manifest_contents(self, ckpt_dir):
        text = (ckpt_dir / "manifest.txt").read_text()
        assert text.startswith("command = kpp train")
        assert "seed = 1" in text
        assert "epochs = 1" in text
        assert f"out = {ckpt_dir}" in text

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("named", [False, True], ids=["default-out", "given-out"])
    def test_manifest_has_one_out_line(self, ckpt_dir, tmp_path, monkeypatch, command, named):
        """Every command's manifest names its run directory exactly once,
        also when --out is left to its default."""
        monkeypatch.chdir(tmp_path)
        argv = command_argv(command, ckpt_dir)
        out = "given" if named else os.path.join("runs", command)
        if named:
            argv += ["--out", out]
        assert run(argv) == 0
        lines = (tmp_path / out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("out =")] == [f"out = {out}"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_manifest_has_one_seed_line(self, ckpt_dir, tmp_path, command):
        """The seed a run uses is written once; ablate runs its --seeds
        and writes no single seed."""
        assert run(command_argv(command, ckpt_dir) + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        seed_lines = [ln for ln in lines if ln.split(" = ")[0] in ("seed", "seeds")]
        assert seed_lines == (["seeds = 1"] if command == "ablate" else ["seed = 1"])

    def test_manifest_written_before_failure(self, tmp_path):
        out = tmp_path / "failing"
        rc = run(["train", "--data", str(tmp_path / "missing.idx"),
                  *FAST, "--out", str(out)])
        assert rc == 1
        assert (out / "manifest.txt").exists()
        assert not (out / "metrics.csv").exists()

    def test_T_beyond_a_split_rejected_before_writing(self, tmp_path, monkeypatch, capsys):
        """synth's test split holds 64 images: --T 100 exits 1 naming --T,
        with no run directory and no training."""
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "t100"
        i = FAST.index("--T")
        assert run(["train", "--data", "synth", *FAST[:i], "--T", "100", *FAST[i + 2:],
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("kpp: error: --T 100 exceeds the test split of 64 images")
        assert calls == []
        assert not out.exists()

    def test_label_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "labels.idx"
        path.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([3, 1, 4]))
        rc = run(["train", "--data", str(path), *FAST, "--out", str(tmp_path / "lab")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("kpp: error: ") and "bad IDX magic" in err
        assert "Traceback" not in err

    def test_divergence_exit_code(self, tmp_path):
        rc = run(["train", "--data", "synth", "--T", "2", "--K", "1", "--L", "8",
                  "--epochs", "10", "--episodes-per-epoch", "2", "--batch", "1",
                  "--warmup", "1", "--schedule", "constant", "--lr", "50.0",
                  "--out", str(tmp_path / "div")])
        assert rc == 2

    @pytest.mark.parametrize("argv,flag", [
        (["--lr", "nan"], "--lr"), (["--lr", "inf"], "--lr"),
        (["--weight-decay", "nan"], "--weight-decay"),
        (["--likelihood", "gaussian", "--sigma", "nan"], "--sigma")],
        ids=["lr-nan", "lr-inf", "weight-decay-nan", "sigma-nan"])
    def test_non_finite_flag_rejected_before_writing(self, tmp_path, monkeypatch, capsys,
                                                     argv, flag):
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "nan"
        assert run(["train", "--data", "synth", *FAST, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"kpp: error: {flag} must be finite")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_warmup_rejected_before_writing(self, tmp_path, monkeypatch, capsys,
                                                     source):
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: calls.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warmup = -3\n")
        fast = FAST[:-2]  # without FAST's --warmup, which would override the file
        assert FAST[-2] == "--warmup"
        given = ["--warmup", "-3"] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run(["train", "--data", "synth", *fast, *given, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("kpp: error: --warmup must be >= 0, got -3")
        assert calls == []
        assert not out.exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--frobnicate", "3"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 1


class TestSeedFlags:
    """A seed that is negative or not an integer exits 1 naming its flag,
    before a manifest is written or anything trains."""

    @pytest.mark.parametrize("command", ["train", "generate", "denoise", "eval"])
    @pytest.mark.parametrize("value", ["-3", "x", "1.5"])
    def test_bad_seed(self, ckpt_dir, tmp_path, capsys, command, value):
        out = tmp_path / "o"
        argv = (["eval", "--ckpt", str(ckpt_dir / "final.bin")] if command == "eval"
                else command_argv(command, ckpt_dir) + ["--out", str(out)])
        assert exit_code(argv + [f"--seed={value}"]) == 1
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1,-3", "1,x", "-1"])
    def test_bad_seeds(self, tmp_path, monkeypatch, capsys, seeds):
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "a"
        assert exit_code(["ablate", "--data", "synth", *FAST, f"--seeds={seeds}",
                          "--out", str(out)]) == 1
        assert "argument --seeds: must be a non-negative integer" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_seed_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -3\n")
        out = tmp_path / "o"
        assert exit_code(["train", "--data", "synth", *FAST, "--config", str(cfg),
                          "--out", str(out)]) == 1
        assert "argument --seed" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2   # short run\nT = 2\nK = 1\nL = 8\n"
                       "episodes_per_epoch = 2\nbatch = 1\nwarmup = 1\n")
        out = tmp_path / "from_file"
        rc = run(["train", "--data", "synth", "--config", str(cfg),
                  "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "metrics.csv")) == 1 + 2 * 2

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nT = 2\nK = 1\nL = 8\n"
                       "episodes_per_epoch = 2\nbatch = 1\nwarmup = 1\n")
        out = tmp_path / "overridden"
        rc = run(["train", "--data", "synth", "--config", str(cfg),
                  "--epochs", "1", "--out", str(out)])
        assert rc == 0
        assert len(read_csv(out / "metrics.csv")) == 1 + 2 * 1

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 5\n")
        rc = run(["train", "--data", "synth", "--config", str(cfg),
                  "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_parser_helper(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment only\nlr = 5e-4\ndata = hello # trailing\n"
                       "no_memory = yes\nepochs = 3\nepochs = 4\n")
        got = _config_flags(cfg, TRAIN_DEFAULTS)
        assert got == ["--lr=5e-4", "--data=hello", "--no-memory", "--epochs=4"]

    @pytest.mark.parametrize("command,line", [
        ("train", "epohcs = 1"), ("train", "k = 4"), ("ablate", "seed = 7")])
    def test_unknown_key_rejected(self, ckpt_dir, tmp_path, capsys, command, line):
        """A key the command lacks exits 1, as the same flag would, and
        the run writes nothing."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        argv = command_argv(command, ckpt_dir) + ["--config", str(cfg), "--out", str(out)]
        assert exit_code(argv) == 1
        err = capsys.readouterr().err
        key = line.split(" = ")[0]
        assert f"unknown key {key!r}" in err and str(cfg) in err
        assert not out.exists()

    def test_bad_bool_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_memory = ture\n")
        out = tmp_path / "out"
        assert exit_code(["train", "--data", "synth", *FAST, "--config", str(cfg),
                          "--out", str(out)]) == 1
        assert "no_memory takes true or false, got 'ture'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value,ablation", [("true", True), ("On", True),
                                                ("false", False)])
    def test_bool_key_reaches_model(self, tmp_path, monkeypatch, value, ablation):
        seen = []

        def fake_train(config, train_set, test_set, **kwargs):
            seen.append(config)
            return None, []

        monkeypatch.setattr(trainer_mod, "train", fake_train)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_memory = {value}\n")
        assert run(["train", "--data", "synth", *FAST, "--config", str(cfg),
                    "--out", str(tmp_path / "out")]) == 0
        assert [c.model.ablation for c in seen] == [ablation]

    @pytest.mark.parametrize("line,flag", [
        ("binarize = stochastic", ["--binarize", "stochastic"]),
        ("T = x", ["--T", "x"])], ids=["binarize", "T"])
    def test_same_checks_as_flags(self, tmp_path, line, flag):
        """A bad value exits 1 before anything is written, from a file as
        from the command line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        base = ["train", "--data", "synth", *FAST]
        for name, extra in (("file", ["--config", str(cfg)]), ("flag", flag)):
            out = tmp_path / name
            assert exit_code(base + extra + ["--out", str(out)]) == 1
            assert not out.exists()

    def test_file_and_flag_agree(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\n")
        i = FAST.index("--epochs")
        base = ["train", "--data", "synth", *FAST[:i], *FAST[i + 2:]]
        manifests = []
        for name, extra in (("file", ["--config", str(cfg)]), ("flag", ["--epochs", "2"])):
            out = tmp_path / "out"
            assert run(base + extra + ["--out", str(out)]) == 0
            lines = (out / "manifest.txt").read_text().splitlines()
            assert lines[0].startswith("command = kpp train")
            manifests.append(lines[1:])
        assert manifests[0] == manifests[1]
        assert "epochs = 2" in manifests[0]


class TestGenerate:
    def test_plain_generation_artifacts(self, ckpt_dir, tmp_path):
        out = tmp_path / "gen"
        rc = run(["generate", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--data", "synth", "--n", "3",
                  "--seed", "2", "--out", str(out)])
        assert rc == 0
        pgms = sorted(p.name for p in out.glob("gen_*.pgm"))
        assert pgms == ["gen_000.pgm", "gen_001.pgm", "gen_002.pgm", "gen_grid.pgm"]
        rows = read_csv(out / "keys.csv")
        assert rows[0] == ["image_id", "k", "s", "x", "y"]
        assert len(rows) == 1 + 3 * 1  # n images x K=1 keys

    def test_perturbed_generation_artifacts(self, ckpt_dir, tmp_path):
        out = tmp_path / "pgen"
        rc = run(["generate", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--data", "synth", "--n", "4",
                  "--perturb", "0.1", "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert (out / "base.pgm").exists()
        assert len(list(out.glob("gen_*.pgm"))) == 5  # 4 + grid
        rows = read_csv(out / "keys.csv")
        assert [r[0] for r in rows[1:]] == ["base"]

    def test_missing_checkpoint(self, tmp_path):
        rc = run(["generate", "--ckpt", str(tmp_path / "nope.bin"),
                  "--out", str(tmp_path / "g")])
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [("--perturb", "-0.5"), ("--perturb", "nan"),
                                            ("--perturb", "inf"), ("--n", "0")])
    def test_bad_count_or_scale_rejected(self, ckpt_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "g"
        rc = run(["generate", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--data", "synth", flag, value, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"kpp: error: {flag} must be")
        assert not out.exists()


class TestDenoise:
    def test_errors_csv_and_images(self, ckpt_dir, tmp_path):
        out = tmp_path / "dn"
        rc = run(["denoise", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--data", "synth", "--noise", "salt_pepper",
                  "--steps", "2", "--n", "2", "--seed", "3", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "errors.csv")
        assert rows[0] == ["image_id", "step", "l2_error"]
        assert len(rows) == 1 + 2 * 3  # n images x (steps + noisy baseline)
        by_img = {}
        for img, step, err in rows[1:]:
            by_img.setdefault(img, []).append(int(step))
        assert by_img == {"0": [0, 1, 2], "1": [0, 1, 2]}
        for i in range(2):
            assert (out / f"img{i:03d}_clean.pgm").exists()
            assert (out / f"img{i:03d}_noisy.pgm").exists()
            assert (out / f"img{i:03d}_step01.pgm").exists()
            assert (out / f"img{i:03d}_step02.pgm").exists()

    @pytest.mark.parametrize("flag", ["--n", "--steps"])
    def test_bad_count_rejected(self, ckpt_dir, tmp_path, capsys, flag):
        out = tmp_path / "d"
        argv = command_argv("denoise", ckpt_dir) + [flag, "0", "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"kpp: error: {flag} must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,rule", [
        ("--rate", "1.5", "in [0, 1]"), ("--rate", "-0.1", "in [0, 1]"),
        ("--std", "-1", "finite and >= 0"), ("--std", "inf", "finite and >= 0"),
        ("--std", "nan", "finite and >= 0"), ("--scale", "0", "finite and > 0"),
        ("--scale", "inf", "finite and > 0"), ("--scale", "nan", "finite and > 0"),
        ("--scale", "1e19", "finite and > 0, at most 1e+18")])
    def test_bad_noise_level_rejected(self, ckpt_dir, tmp_path, capsys, flag, value, rule):
        """Every noise flag is checked, whichever --noise uses it."""
        out = tmp_path / "d"
        argv = command_argv("denoise", ckpt_dir) + [flag, value, "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"kpp: error: {flag} must be {rule}")
        assert not out.exists()

    def test_unknown_noise_kind(self, ckpt_dir, tmp_path):
        rc = run(["denoise", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--noise", "blur", "--out", str(tmp_path / "d")])
        assert rc == 1


class TestAblate:
    def test_memory_axis_grid(self, tmp_path):
        out = tmp_path / "abl"
        rc = run(["ablate", "--data", "synth", "--axis", "memory",
                  "--values", "on,off", "--seeds", "1", *FAST,
                  "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "ablation.csv")
        assert rows[0] == ["axis", "value", "seed", "test_elbo", "test_kl"]
        assert [(r[0], r[1], r[2]) for r in rows[1:]] == [
            ("memory", "on", "1"), ("memory", "off", "1")]
        for r in rows[1:]:
            assert np.isfinite(float(r[3])) and np.isfinite(float(r[4]))

    def test_no_memory_flag_reaches_every_cell(self, tmp_path, monkeypatch):
        seen = []

        def fake_train(config, train_set, test_set):
            seen.append(config)
            row = MetricsRow(epoch=1, split="test", elbo=-1.0, recon_ll=-1.0,
                             kl_z=0.0, kl_y=0.0, wall_seconds=0.0, seed=config.seed)
            return None, [row]

        monkeypatch.setattr(trainer_mod, "train", fake_train)
        rc = run(["ablate", "--data", "synth", "--axis", "K", "--values", "1",
                  "--seeds", "1", "--epochs", "1", "--no-memory",
                  "--out", str(tmp_path / "a")])
        assert rc == 0
        assert len(seen) == 1
        assert seen[0].model.ablation is True
        assert seen[0].model.K == 1

    def test_bad_axis_value(self, tmp_path):
        rc = run(["ablate", "--data", "synth", "--axis", "memory",
                  "--values", "maybe", "--seeds", "1", *FAST,
                  "--out", str(tmp_path / "a")])
        assert rc == 1

    @pytest.mark.parametrize("argv,named", [
        (["--axis", "T", "--values", "2,x"], "--values"),
        (["--axis", "K", "--values", "1,0"], "--values"),
        (["--axis", "memory", "--values", "on,maybe"], "--values"),
        (["--axis", "T", "--values", "2,300"], "--values 300 exceeds the train split"),
        (["--axis", "K", "--values", "1,2", "--T", "65"], "--T 65 exceeds the test split"),
        (["--axis", "Q"], "--axis")],
        ids=["T-x", "K-0", "memory-maybe", "T-300", "T-65", "Q"])
    def test_bad_grid_rejected_before_training(self, tmp_path, monkeypatch, capsys,
                                               argv, named):
        """Every cell is checked before the manifest is written or any
        cell trains."""
        calls = []
        monkeypatch.setattr(trainer_mod, "train", lambda *a, **kw: calls.append(a))
        out = tmp_path / "a"
        assert exit_code(["ablate", "--data", "synth", *FAST, *argv, "--seeds", "1",
                          "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_single_seed_rejected(self, tmp_path):
        """--seeds picks each cell's seed, so a --seed would go unused."""
        with pytest.raises(SystemExit) as exc:
            run(["ablate", "--data", "synth", "--seeds", "1", "--seed", "7", *FAST,
                 "--out", str(tmp_path / "a")])
        assert exc.value.code != 0

    def test_empty_seed_list(self, tmp_path):
        rc = run(["ablate", "--data", "synth", "--seeds", ",",
                  "--out", str(tmp_path / "a")])
        assert rc == 1


class TestEval:
    def test_prints_metrics(self, ckpt_dir, capsys):
        rc = run(["eval", "--ckpt", str(ckpt_dir / "final.bin"),
                  "--data", "synth", "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(METRICS_HEADER)
        fields = lines[1].split(",")
        assert fields[1] == "test"
        assert np.isfinite(float(fields[2]))
        assert lines[2].startswith("negative elbo:") and "nats/image" in lines[2]

    def test_missing_checkpoint(self, tmp_path):
        rc = run(["eval", "--ckpt", str(tmp_path / "none.bin")])
        assert rc == 1

    def test_out_rejected(self, ckpt_dir, tmp_path):
        """eval writes nothing, so it takes no --out."""
        with pytest.raises(SystemExit) as exc:
            run(["eval", "--ckpt", str(ckpt_dir / "final.bin"), "--out", str(tmp_path)])
        assert exc.value.code == 1


class TestCheckpointConfig:
    """generate, denoise and eval take T and the model from the checkpoint."""

    @pytest.mark.parametrize("command", ["generate", "denoise", "eval"])
    def test_T_flag_rejected(self, ckpt_dir, tmp_path, capsys, command):
        argv = (["eval", "--ckpt", str(ckpt_dir / "final.bin")] if command == "eval"
                else command_argv(command, ckpt_dir) + ["--out", str(tmp_path / "o")])
        assert exit_code(argv + ["--T", "2"]) == 1
        assert "unrecognized arguments: --T 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_uses_checkpoint_T(self, tmp_path, capsys):
        out = tmp_path / "t4"
        i = FAST.index("--T")
        fast_t4 = FAST[:i] + ["--T", "4"] + FAST[i + 2:]
        assert run(["train", "--data", "synth", *fast_t4, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["eval", "--ckpt", str(out / "final.bin"), "--seed", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()[1]
        _, test_set = _load_corpus("synth")
        row = trainer_mod.eval_conditional(MemoryVAE.load(out / "final.bin"), test_set,
                                           4, [5, 30])
        row.seed = 5
        assert mask_wall([METRICS_HEADER, printed.split(",")]) == \
            mask_wall([METRICS_HEADER, [str(v) for v in row.as_list()]])

    def test_retired_keys_evaluate_alike(self, ckpt_dir, tmp_path, capsys):
        old = with_config(ckpt_dir / "final.bin", tmp_path / "old.bin",
                          tsm=True, log_std_min=-7.0, log_std_max=2.0)
        printed = []
        for path in (ckpt_dir / "final.bin", old):
            assert run(["eval", "--ckpt", str(path), "--seed", "5"]) == 0
            header, row, bound = capsys.readouterr().out.splitlines()
            printed.append((mask_wall([header.split(","), row.split(",")]), bound))
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("command", ["generate", "denoise", "eval"])
    @pytest.mark.parametrize("key,value", [("foo", 1), ("T", "x"), ("memory_shape", 5),
                                           ("tsm", False)])
    def test_bad_config_exits_one(self, ckpt_dir, tmp_path, capsys, command, key, value):
        bad = with_config(ckpt_dir / "final.bin", tmp_path / "bad.bin", **{key: value})
        out = tmp_path / "o"
        argv = [command, "--ckpt", str(bad)] + ([] if command == "eval" else ["--out", str(out)])
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"kpp: error: checkpoint {bad}: ")
        assert repr(key) in err and "Traceback" not in err
        assert not out.exists()


class TestReproducibility:
    def test_repeat_runs_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = run(["train", "--data", "synth", *FAST, "--seed", "7",
                      "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "final.bin").read_bytes() == (b / "final.bin").read_bytes()
        assert (a / "best.bin").read_bytes() == (b / "best.bin").read_bytes()
        # metrics agree except the wall-clock column
        assert mask_wall(read_csv(a / "metrics.csv")) == \
            mask_wall(read_csv(b / "metrics.csv"))

    def test_generate_byte_identical(self, ckpt_dir, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            rc = run(["generate", "--ckpt", str(ckpt_dir / "final.bin"),
                      "--data", "synth", "--n", "2",
                      "--seed", "9", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a, b = outs
        for p in sorted(a.glob("*.pgm")):
            assert p.read_bytes() == (b / p.name).read_bytes()
        assert (a / "keys.csv").read_bytes() == (b / "keys.csv").read_bytes()


def _threads_after_blas(kpp_threads):
    """Thread count of a fresh interpreter that imports kpp and then makes
    a BLAS call, with no BLAS caps in its environment but KPP_THREADS."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "KPP_THREADS")}
    if kpp_threads is not None:
        env["KPP_THREADS"] = kpp_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(kpp.__file__)), env.get("PYTHONPATH", "")])
    code = ("import os, kpp, numpy as np; a = np.ones((256, 256)); a @ a; "
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return int(out.stdout.strip())


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs /proc and more than one core")
def test_threads_env_applied():
    if _threads_after_blas(None) == 1:
        pytest.skip("BLAS starts no worker threads here; nothing to cap")
    assert _threads_after_blas("1") == 1


def test_binarize_sample_on_idx(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "imgs.idx"
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 40, 16, 16))
        f.write(rng.integers(0, 256, size=(40, 16, 16), dtype=np.uint8).tobytes())
    out = tmp_path / "run"
    rc = run(["train", "--data", str(path), "--binarize", "sample", *FAST,
              "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out / "metrics.csv")) == 3


def test_binarize_choices_enforced():
    with pytest.raises(SystemExit) as exc:
        run(["train", "--binarize", "stochastic"])
    assert exc.value.code == 1
