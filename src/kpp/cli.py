"""Command-line surface: train, generate, denoise, ablate, eval.

argparse resolves every option.  Each flag defaults to its value in the
command's ``*_DEFAULTS`` dict; a ``--config`` file's ``key = value`` lines
become ``--key=value`` flags placed before the command line's own, so
flags win over the file, the file wins over defaults, and file entries get
the same checks as flags.  ``generate``, ``denoise`` and ``eval`` take the
episode length T from the checkpoint.  Every run that writes files writes
a manifest of the resolved options before computing, keeps all outputs
inside its run directory, and is byte-reproducible given (args, seed).
Exit codes: 0 success, 1 usage or I/O error, 2 divergence abort.
"""

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import autodiff as ad
from . import data as data_mod
from . import objective
from . import trainer as trainer_mod
from .nets import MemoryVAE, ModelConfig
from .trainer import DivergenceError, TrainConfig

SYNTH_TRAIN_N = 256
SYNTH_TEST_N = 64
SYNTH_SIDE = 16
SYNTH_TRAIN_SEED = 4242
SYNTH_TEST_SEED = 4243

_CHOICES = {"binarize": (*data_mod.BINARIZE_MODES, "none"), "axis": ("memory", "T", "K")}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _seed(text):
    """A --seed value: a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _seeds(text):
    """A --seeds value, kept as given: comma-separated --seed values."""
    for seed in filter(None, text.split(",")):
        _seed(seed)
    return text


def _check_flags(*checks):
    """Raise a ValueError naming the first (flag, value, ok, rule) that is not ok."""
    for flag, value, ok, rule in checks:
        if not ok:
            raise ValueError(f"{flag} must be {rule}, got {value!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _config_flags(path, defaults):
    """The flags that a file of `key = value` lines stands for; '#' starts
    a comment, a later line wins over an earlier one for the same key, and
    a key must be one of the command's options."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (s.strip() for s in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            if key not in defaults:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if isinstance(defaults[key], bool) and val.lower() not in _BOOLS:
                raise ValueError(f"{path}:{lineno}: {key} takes true or false, got {val!r}")
            values[key] = val
    flags = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if not isinstance(defaults[key], bool):
            flags.append(f"{flag}={val}")
        elif _BOOLS[val.lower()]:
            flags.append(flag)
    return flags


def _load_corpus(spec, binarize_mode="threshold"):
    """Resolve --data into (train Dataset, test Dataset)."""
    if spec == "synth":
        return (data_mod.synth_shapes(SYNTH_TRAIN_N, SYNTH_SIDE, SYNTH_SIDE,
                                      seed=SYNTH_TRAIN_SEED),
                data_mod.synth_shapes(SYNTH_TEST_N, SYNTH_SIDE, SYNTH_SIDE,
                                      seed=SYNTH_TEST_SEED, split="test"))
    if os.path.isdir(spec):
        train_path = os.path.join(spec, "train-images-idx3-ubyte")
        test_path = os.path.join(spec, "t10k-images-idx3-ubyte")
        for p in (train_path, test_path):
            if not os.path.exists(p):
                raise FileNotFoundError(f"expected IDX file {p}")
        train = data_mod.load_idx(train_path, split="train")
        test = data_mod.load_idx(test_path, split="test")
    elif os.path.exists(spec):
        full = data_mod.load_idx(spec, split="train")
        n = len(full)
        cut = max(1, (n * 9) // 10)
        train = data_mod.Dataset(full.images[:cut], split="train")
        test = data_mod.Dataset(full.images[cut:], split="test")
    else:
        raise FileNotFoundError(f"--data {spec!r}: no such file or directory")
    if binarize_mode != "none":
        train = data_mod.binarize(train, binarize_mode, seed=11)
        test = data_mod.binarize(test, binarize_mode, seed=12)
    return train, test


def _load_checkpoint(path):
    if not path or not os.path.exists(path):
        raise FileNotFoundError(f"--ckpt {path!r}: checkpoint not found")
    return MemoryVAE.load(path)


def _write_manifest(out_dir, argv, args):
    """The command line, the version and every resolved option; ``out`` is
    the directory the run writes, whether or not --out named it."""
    os.makedirs(out_dir, exist_ok=True)
    options = {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config")}
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(f"command = kpp {' '.join(argv)}\n")
        f.write(f"version = {__version__}\n")
        for key, val in dict(options, out=out_dir).items():
            f.write(f"{key} = {val}\n")


TRAIN_DEFAULTS = dict(
    data="synth", T=8, K=2, L=64, epochs=30, seed=1, lr=1e-3,
    batch=4, episodes_per_epoch=32, warmup=10, schedule="cosine",
    weight_decay=1e-3, likelihood="bernoulli", sigma=1.0,
    binarize="threshold", no_memory=False, out="",
)


def _train_config(args, train_set, seed):
    # 0 < x < inf also fails for NaN
    _check_flags(("--lr", args.lr, 0 < args.lr < np.inf, "finite and > 0"),
                 ("--weight-decay", args.weight_decay, 0 <= args.weight_decay < np.inf,
                  "finite and >= 0"),
                 ("--sigma", args.sigma, 0 < args.sigma < np.inf, "finite and > 0"))
    model_cfg = ModelConfig(
        image_shape=train_set.image_shape, T=args.T, K=args.K, L=args.L,
        likelihood=args.likelihood, gaussian_std=args.sigma,
        ablation=args.no_memory,
    )
    return TrainConfig(
        model=model_cfg, epochs=args.epochs, batch_episodes=args.batch,
        episodes_per_epoch=args.episodes_per_epoch, lr=args.lr,
        schedule=args.schedule, warmup_epochs=args.warmup,
        weight_decay=args.weight_decay, seed=seed,
    )


def cmd_train(args, argv):
    out_dir = args.out or os.path.join("runs", "train")
    try:
        train_set, test_set = _load_corpus(args.data, args.binarize)
    except (OSError, ValueError):
        _write_manifest(out_dir, argv, args)  # a run whose data cannot load keeps its record
        raise
    config = _train_config(args, train_set, args.seed)
    data_mod.check_episode_length(args.T, train_set, test_set, name="--T")
    _write_manifest(out_dir, argv, args)
    _, history = trainer_mod.train(
        config, train_set, test_set, out_dir=out_dir,
        log=lambda msg: print(msg, flush=True),
    )
    print(f"wrote {os.path.join(out_dir, 'metrics.csv')} "
          f"({len(history)} rows), best.bin, final.bin")
    return 0


GEN_DEFAULTS = dict(
    ckpt="", data="synth", n=16, perturb=0.0, seed=1,
    binarize="threshold", out="",
)


def cmd_generate(args, argv):
    model = _load_checkpoint(args.ckpt)
    n, perturb, seed = args.n, args.perturb, args.seed
    _check_flags(("--n", n, n >= 1, ">= 1"),
                 ("--perturb", perturb, 0 <= perturb < np.inf, "finite and >= 0"))
    out_dir = args.out or os.path.join("runs", "generate")
    _write_manifest(out_dir, argv, args)
    _, test_set = _load_corpus(args.data, args.binarize)
    episode = data_mod.episode_grid(test_set, model.config.T, [seed, 10])
    memory = model.write_memory(model.encode(ad.constant(episode.images)))
    # one key set per image, or one base key set to perturb
    keys = np.random.default_rng([seed, 11]).standard_normal(
        (1 if perturb > 0 else n, model.config.K, 3))
    images = objective.generate_from_keys(memory, keys, model)
    if perturb > 0:
        data_mod.save_pgm(os.path.join(out_dir, "base.pgm"), images[0])
        images = objective.perturbed_generate(memory, keys[0], perturb, n, model,
                                              [seed, 12])
    for i, img in enumerate(images):
        data_mod.save_pgm(os.path.join(out_dir, f"gen_{i:03d}.pgm"), img)
    data_mod.save_pgm(os.path.join(out_dir, "gen_grid.pgm"),
                      data_mod.image_grid(np.asarray(images)))
    with open(os.path.join(out_dir, "keys.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "k", "s", "x", "y"])
        for i, image_keys in zip(["base"] if perturb > 0 else range(n), keys):
            for k, key in enumerate(image_keys):
                writer.writerow([i, k] + [f"{v:.10g}" for v in key])
    print(f"wrote {n} generations + grid + keys.csv under {out_dir}")
    return 0


DENOISE_DEFAULTS = dict(
    ckpt="", data="synth", noise="salt_pepper", steps=10, n=8, seed=1,
    rate=0.1, std=0.3, scale=30.0, binarize="threshold", out="",
)


def cmd_denoise(args, argv):
    model = _load_checkpoint(args.ckpt)
    kind, t, n, steps, seed = args.noise, model.config.T, args.n, args.steps, args.seed
    _check_flags(
        ("--noise", kind, kind in data_mod.NOISE_KINDS, f"one of {data_mod.NOISE_KINDS}"),
        ("--n", n, n >= 1, ">= 1"), ("--steps", steps, steps >= 1, ">= 1"),
        ("--rate", args.rate, 0 <= args.rate <= 1, "in [0, 1]"),
        ("--std", args.std, 0 <= args.std < np.inf, "finite and >= 0"),
        ("--scale", args.scale, 0 < args.scale < np.inf, "finite and > 0"))
    out_dir = args.out or os.path.join("runs", "denoise")
    _write_manifest(out_dir, argv, args)
    _, test_set = _load_corpus(args.data, args.binarize)
    sampler = data_mod.EpisodeSampler(test_set, t, np.random.SeedSequence([seed, 20]))
    rows = []
    done = 0
    while done < n:
        episode = sampler.sample()
        emb = model.encode(ad.constant(episode.images))
        memory = model.write_memory(emb)
        for i in range(min(t, n - done)):
            clean = episode.images[i]
            noisy, traj, errors = objective.denoise(
                memory, clean, kind, steps, model, [seed, 21, done],
                rate=args.rate, std=args.std, scale=args.scale,
            )
            data_mod.save_pgm(os.path.join(out_dir, f"img{done:03d}_clean.pgm"), clean)
            data_mod.save_pgm(os.path.join(out_dir, f"img{done:03d}_noisy.pgm"), noisy)
            for s, img in enumerate(traj, start=1):
                data_mod.save_pgm(
                    os.path.join(out_dir, f"img{done:03d}_step{s:02d}.pgm"), img)
            for s, err in enumerate(errors):
                rows.append([done, s, f"{err:.10g}"])
            done += 1
    with open(os.path.join(out_dir, "errors.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["image_id", "step", "l2_error"])
        writer.writerows(rows)
    print(f"denoised {n} images ({kind}), errors.csv under {out_dir}")
    return 0


# Each cell trains with one of --seeds, so ablate takes no --seed.
ABLATE_DEFAULTS = dict({k: v for k, v in TRAIN_DEFAULTS.items() if k != "seed"},
                       axis="memory", values="on,off", seeds="1,2,3")


def _ablate_model(model_cfg, axis, value):
    """The model config of one --values entry on one --axis."""
    try:
        if axis == "memory":
            return replace(model_cfg, ablation={"on": False, "off": True}[value])
        return replace(model_cfg, **{axis: int(value)})
    except (KeyError, ValueError):
        takes = "on or off" if axis == "memory" else "integers >= 1"
        raise ValueError(f"--values: axis {axis} takes {takes}, got {value!r}") from None


def cmd_ablate(args, argv):
    values = [v for v in args.values.split(",") if v]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not values:
        raise ValueError("--values list is empty")
    if not seeds:
        raise ValueError("--seeds list is empty")
    train_set, test_set = _load_corpus(args.data, args.binarize)
    base = _train_config(args, train_set, seeds[0])
    models = [_ablate_model(base.model, args.axis, value) for value in values]
    data_mod.check_episode_length(max(m.T for m in models), train_set, test_set,
                                  name="--values" if args.axis == "T" else "--T")
    out_dir = args.out or os.path.join("runs", "ablate")
    _write_manifest(out_dir, argv, args)
    rows = []
    for value, model_cfg in zip(values, models):
        for seed in seeds:
            config = replace(base, model=model_cfg, seed=seed)
            _, history = trainer_mod.train(config, train_set, test_set)
            final = [r for r in history if r.split == "test"][-1]
            elbo, kl = f"{final.elbo:.10g}", f"{final.kl_z + final.kl_y:.10g}"
            rows.append([args.axis, value, seed, elbo, kl])
            print(f"ablate {args.axis}={value} seed={seed}: "
                  f"test_elbo={elbo} test_kl={kl}", flush=True)
    with open(os.path.join(out_dir, "ablation.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["axis", "value", "seed", "test_elbo", "test_kl"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {os.path.join(out_dir, 'ablation.csv')}")
    return 0


EVAL_DEFAULTS = dict(ckpt="", data="synth", seed=1, binarize="threshold")


def cmd_eval(args, argv):
    model = _load_checkpoint(args.ckpt)
    _, test_set = _load_corpus(args.data, args.binarize)
    row = trainer_mod.eval_conditional(model, test_set, model.config.T, [args.seed, 30])
    row.seed = args.seed
    print(",".join(trainer_mod.METRICS_HEADER))
    print(",".join(str(v) for v in row.as_list()))
    pixels = int(np.prod(model.config.image_shape))
    if model.config.likelihood == "bernoulli":
        print(f"negative elbo: {-row.elbo:.4f} nats/image")
    else:
        print(f"negative elbo: {-row.elbo / (np.log(2) * pixels):.6f} bits/dim")
    return 0


COMMANDS = {
    "train": (TRAIN_DEFAULTS, cmd_train),
    "generate": (GEN_DEFAULTS, cmd_generate),
    "denoise": (DENOISE_DEFAULTS, cmd_denoise),
    "ablate": (ABLATE_DEFAULTS, cmd_ablate),
    "eval": (EVAL_DEFAULTS, cmd_eval),
}


def build_parser():
    parser = _Parser(prog="kpp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _) in COMMANDS.items():
        # flags match exactly, so ablate's --seeds never takes a --seed
        p = sub.add_parser(name, allow_abbrev=False)
        for key, val in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(val, bool):
                p.add_argument(flag, action="store_true")
            else:
                p.add_argument(flag, type={"seed": _seed, "seeds": _seeds}.get(key, type(val)),
                               default=val, choices=_CHOICES.get(key))
        p.add_argument("--config", type=str, default=None,
                       help="file of key = value lines (flags take precedence)")
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults, fn = COMMANDS[args.command]
    try:
        if args.config:
            args = parser.parse_args(
                argv[:1] + _config_flags(args.config, defaults) + argv[1:])
        return fn(args, argv)
    except (DivergenceError, ad.NonFiniteError) as exc:
        print(f"kpp: divergence: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"kpp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
