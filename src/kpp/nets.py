"""Model networks: encoder with temporal shift, memory writer, key and
latent posterior heads, memory-readout prior, decoder, and the no-memory
ablation head.

All parameters live in a flat name -> Tensor dict.  Each parameter's
initializer is seeded from (seed, parameter name), so two models built
with the same seed share identical values for every parameter they have
in common, regardless of which other parameters exist.  Gaussian heads
have zero-initialized final layers, which makes every posterior and
prior exactly standard normal at initialization (both KL terms start
at zero).

Parameters are float32 (``PARAM_DTYPE``), and everything a model computes
takes its parameters' dtype: images and other constant inputs are cast to
it on the way in.  A model whose parameters are set to float64 computes in
float64 through the same code.  Checkpoints hold float64 on disk, which
stores float32 values exactly.
"""

import json
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .distributions import DiagGaussian

PARAM_DTYPE = np.float32
CHECKPOINT_MAGIC = b"KPP1"
CONFIG_KEY = "__config__"
TSM_FOLD_DIV = 8  # shift fraction 0.125 per direction
LOG_STD_MIN, LOG_STD_MAX = -7.0, 2.0  # every Gaussian head's log-std range
# Keys older checkpoints store, each loadable only at the value this code builds.
_RETIRED = {"tsm": True, "log_std_min": LOG_STD_MIN, "log_std_max": LOG_STD_MAX}


@dataclass
class ModelConfig:
    image_shape: tuple = (1, 16, 16)
    T: int = 8
    K: int = 2
    L: int = 64
    memory_shape: tuple = (3, 64, 64)
    trace_size: tuple = (16, 16)
    embed_dim: int = 128
    enc_channels: tuple = (16, 32, 64)
    key_hidden: int = 64
    post_hidden: int = 128
    read_channels: tuple = (16, 32)
    dec_hidden: int = 128
    dec_base_channels: int = 32
    dec_mid_channels: int = 16
    mem_base_channels: int = 32
    writer_channels: tuple = (16, 8)
    likelihood: str = "bernoulli"
    gaussian_std: float = 1.0
    dense_nets: bool = False
    ablation: bool = False

    def __post_init__(self):
        self.image_shape = tuple(self.image_shape)
        self.memory_shape = tuple(self.memory_shape)
        self.trace_size = tuple(self.trace_size)
        self.enc_channels = tuple(self.enc_channels)
        self.read_channels = tuple(self.read_channels)
        self.writer_channels = tuple(self.writer_channels)
        if self.T < 1 or self.K < 1 or self.L < 1:
            raise ValueError("T, K and L must all be >= 1")
        if self.likelihood not in ("bernoulli", "gaussian"):
            raise ValueError(f"unknown likelihood {self.likelihood!r}")
        if self.likelihood == "gaussian" and not 0 < self.gaussian_std < np.inf:
            raise ValueError(f"gaussian_std must be finite and > 0, got {self.gaussian_std!r}")
        if not self.dense_nets:
            _, h, w = self.image_shape
            if h % 4 or w % 4 or h < 8 or w < 8:
                raise ValueError(
                    f"conv nets need image sides divisible by 4 and >= 8, got {h}x{w}"
                )
            mh, mw = self.memory_shape[1], self.memory_shape[2]
            if mh % 8 or mw % 8:
                raise ValueError(f"memory sides must be divisible by 8, got {mh}x{mw}")
            th, tw = self.trace_size
            if th % 4 or tw % 4:
                raise ValueError(f"trace sides must be divisible by 4, got {th}x{tw}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config a stored dict describes; a key of no field or a value of
        the wrong type is a ValueError."""
        allowed = {f.name: f.default for f in fields(cls)} | _RETIRED
        for key, value in d.items():
            if key not in allowed:
                raise ValueError(f"unknown config key {key!r}")
            if not _fits(value, allowed[key]) or (key in _RETIRED and value != _RETIRED[key]):
                raise ValueError(f"config key {key!r} cannot be {value!r}")
        return cls(**{k: v for k, v in d.items() if k not in _RETIRED})


def _fits(value, default):
    """Whether a stored value has a config default's type; an int passes
    for a float, and a list of as many entries for a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) == len(default)
                and all(map(_fits, value, default)))
    return type(value) is type(default) or (type(value), type(default)) == (int, float)


def tsm_shift(features: Tensor, t=None) -> Tensor:
    """Temporal shift within each episode of (B*T, C, h, w) features.

    Rows are B episodes of t samples each (one episode when t is None).
    The first floor(C/8) channels move one step toward later samples, the
    next floor(C/8) one step toward earlier samples, with zeros filling
    the vacated slots at each episode's ends; remaining channels pass
    through.  Nothing crosses an episode boundary.  One graph node: the
    forward pass copies basic slices of a (B, t, C, h, w) view, and the
    backward pass is the same shift with the two groups' directions
    swapped.
    """
    if len(features.shape) != 4:
        raise ValueError(f"tsm_shift expects (B*T,C,h,w), got {features.shape}")
    n, c = features.shape[0], features.shape[1]
    t = _episode_length(n, t)
    fold = c // TSM_FOLD_DIV
    if fold == 0:
        return features
    view = (n // t, t) + features.shape[1:]

    def shift(x, later, earlier):
        """x with channel group `later` one step later, `earlier` one step earlier."""
        src, out = x.reshape(view), np.empty(view, dtype=x.dtype)
        out[:, 1:, later], out[:, 0, later] = src[:, :-1, later], 0.0
        out[:, :-1, earlier], out[:, -1, earlier] = src[:, 1:, earlier], 0.0
        out[:, :, 2 * fold:] = src[:, :, 2 * fold:]
        return out.reshape(x.shape)

    first, second = slice(0, fold), slice(fold, 2 * fold)
    return ad.make_node("tsm_shift", shift(features.data, first, second), (features,),
                        lambda gy: ad.accumulate(features, shift(gy, second, first)))


def _episode_length(n, t):
    """The episode length of n rows: all of them when t is None."""
    if t is None:
        return n
    if t < 1 or n % t:
        raise ValueError(f"{n} rows do not split into episodes of length {t}")
    return t


def _split_head(out, event_shape):
    """The diagonal Gaussian in a head's output, whose last axis holds each
    row's d means then its d log-stds: one (n, 2, *event_shape) view, the
    log-std clamped."""
    out = ad.reshape(out, (-1, 2) + tuple(event_shape))
    return DiagGaussian(mean=out[:, 0], log_std=ad.clamp(out[:, 1], LOG_STD_MIN, LOG_STD_MAX))


def _conv_out(side, n_layers):
    for _ in range(n_layers):
        side = (side + 2 - 3) // 2 + 1
    return side


class MemoryVAE:
    """All learned networks of the latent-memory model."""

    def __init__(self, config: ModelConfig, seed: int, arrays=None):
        """Parameters drawn from seed, or taken from arrays (name -> array)
        when given; either way cast to PARAM_DTYPE."""
        self.config = config
        self.seed = int(seed)
        self.params = {}
        for name, shape, kind in self._build_spec(config):
            if self._owned(name):
                value = (self._init_value(name, shape, kind) if arrays is None
                         else _checked_array(arrays, name, shape))
                self.params[name] = ad.parameter(value.astype(PARAM_DTYPE), name=name)

    # -- parameter bookkeeping -------------------------------------------

    @property
    def dtype(self):
        """The dtype the model computes in: that of its parameters."""
        return next(iter(self.params.values())).data.dtype

    def _input(self, x):
        """x as a Tensor of the model's dtype.  A Tensor that needs a
        gradient is used as it is."""
        if isinstance(x, Tensor) and (x.requires_grad or x.data.dtype == self.dtype):
            return x
        return ad.tensor(np.asarray(x.data if isinstance(x, Tensor) else x, dtype=self.dtype))

    def _owned(self, name):
        head = name.split(".")[0]
        if self.config.ablation:
            return head in ("enc", "post", "dec", "abl")
        return head != "abl"

    def _init_value(self, name, shape, kind):
        if kind in ("bias", "zero"):
            return np.zeros(shape)
        rng = np.random.default_rng([self.seed, *name.encode()])
        if len(shape) == 2:  # dense (in, out)
            fan_in = shape[0]
        else:  # conv kernels: input-channel fan-in
            fan_in = shape[1] * shape[2] * shape[3]
        return rng.normal(size=shape) / np.sqrt(fan_in)

    @staticmethod
    def _gauss_head_spec(prefix, d_in, d_out):
        # zero-initialized final layer: standard-normal output at init
        return [(f"{prefix}.w", (d_in, 2 * d_out), "zero"),
                (f"{prefix}.b", (2 * d_out,), "zero")]

    def _build_spec(self, cfg):
        spec = []
        c_img, h_img, w_img = cfg.image_shape
        pixels = c_img * h_img * w_img

        def dense(prefix, d_in, d_out, zero=False):
            spec.append((f"{prefix}.w", (d_in, d_out), "zero" if zero else "weight"))
            spec.append((f"{prefix}.b", (d_out,), "bias"))

        def conv(prefix, c_in, c_out, k):
            spec.append((f"{prefix}.w", (c_out, c_in, k, k), "weight"))
            spec.append((f"{prefix}.b", (c_out,), "bias"))

        def convT(prefix, c_in, c_out, k):
            spec.append((f"{prefix}.w", (c_in, c_out, k, k), "weight"))
            spec.append((f"{prefix}.b", (c_out,), "bias"))

        if cfg.dense_nets:
            dense("enc.fc0", pixels, cfg.embed_dim)
            dense("enc.out", cfg.embed_dim, cfg.embed_dim)
        else:
            e0, e1, e2 = cfg.enc_channels
            conv("enc.conv0", c_img, e0, 3)
            conv("enc.conv1", e0, e1, 3)
            conv("enc.conv2", e1, e2, 3)
            side_h = _conv_out(h_img, 3)
            side_w = _conv_out(w_img, 3)
            dense("enc.fc", e2 * side_h * side_w, cfg.embed_dim)

        mc, mh, mw = cfg.memory_shape
        if cfg.dense_nets:
            dense("mem.fc0", cfg.embed_dim, cfg.embed_dim)
            dense("mem.out", cfg.embed_dim, mc * mh * mw)
        else:
            base = cfg.mem_base_channels
            dense("mem.fc", cfg.embed_dim, base * (mh // 8) * (mw // 8))
            w0, w1 = cfg.writer_channels
            convT("mem.up0", base, w0, 4)
            convT("mem.up1", w0, w1, 4)
            convT("mem.up2", w1, mc, 4)

        dense("key.fc", cfg.embed_dim, cfg.key_hidden)
        spec.extend(self._gauss_head_spec("key.out", cfg.key_hidden, cfg.K * 3))

        dense("post.fc", cfg.embed_dim, cfg.post_hidden)
        spec.extend(self._gauss_head_spec("post.out", cfg.post_hidden, cfg.L))

        th, tw = cfg.trace_size
        if cfg.dense_nets:
            dense("read.fc0", cfg.K * mc * th * tw, cfg.embed_dim)
            spec.extend(self._gauss_head_spec("read.out", cfg.embed_dim, cfg.L))
        else:
            r0, r1 = cfg.read_channels
            conv("read.conv0", cfg.K * mc, r0, 3)
            conv("read.conv1", r0, r1, 3)
            flat = r1 * _conv_out(th, 2) * _conv_out(tw, 2)
            spec.extend(self._gauss_head_spec("read.out", flat, cfg.L))

        if cfg.dense_nets:
            dense("dec.fc0", cfg.L, cfg.dec_hidden)
            dense("dec.out", cfg.dec_hidden, pixels)
        else:
            db = cfg.dec_base_channels
            dense("dec.fc", cfg.L, cfg.dec_hidden)
            dense("dec.spatial", cfg.dec_hidden, db * (h_img // 4) * (w_img // 4))
            convT("dec.up0", db, cfg.dec_mid_channels, 4)
            convT("dec.up1", cfg.dec_mid_channels, c_img, 4)

        # ablation head sized to match the memory path's parameter count
        mem_path = sum(
            int(np.prod(shape)) for name, shape, _ in spec
            if name.split(".")[0] in ("mem", "read")
        )
        h_abl = max(1, round((mem_path - 2 * cfg.L) / (cfg.embed_dim + 2 * cfg.L + 1)))
        dense("abl.fc", cfg.embed_dim, h_abl)
        spec.extend(self._gauss_head_spec("abl.out", h_abl, cfg.L))
        return spec

    def trainable(self):
        """Parameters in a fixed, name-sorted order."""
        return [self.params[k] for k in sorted(self.params)]

    # -- layer helpers ----------------------------------------------------

    def _dense(self, x, prefix):
        return ad.matmul(x, self.params[f"{prefix}.w"], bias=self.params[f"{prefix}.b"])

    def _conv(self, x, prefix, stride=2, pad=1):
        return ad.conv2d(x, self.params[f"{prefix}.w"], stride=stride, pad=pad,
                         bias=self.params[f"{prefix}.b"])

    def _convT(self, x, prefix, stride=2, pad=1):
        return ad.conv_transpose2d(x, self.params[f"{prefix}.w"], stride=stride, pad=pad,
                                   bias=self.params[f"{prefix}.b"])

    # -- networks ----------------------------------------------------------

    def encode(self, images, t=None) -> Tensor:
        """Per-sample embeddings (B*T, embed_dim) of B episodes of t images
        stacked (B*T, C, H, W); all rows form one episode when t is None."""
        x = self._input(images)
        if x.shape[1:] != self.config.image_shape:
            raise ValueError(
                f"episode images {x.shape[1:]} do not match configured "
                f"image shape {self.config.image_shape}"
            )
        n = x.shape[0]
        if self.config.dense_nets:
            flat = ad.reshape(x, (n, int(np.prod(self.config.image_shape))))
            h = ad.relu(self._dense(flat, "enc.fc0"))
            return self._dense(h, "enc.out")
        h = tsm_shift(ad.relu(self._conv(x, "enc.conv0")), t)
        h = tsm_shift(ad.relu(self._conv(h, "enc.conv1")), t)
        h = ad.relu(self._conv(h, "enc.conv2"))
        flat = ad.reshape(h, (n, int(np.prod(h.shape[1:]))))
        return self._dense(flat, "enc.fc")

    @staticmethod
    def _pool(embeddings, t):
        """Mean embedding (B, embed_dim) of each episode of t rows."""
        n, d = embeddings.shape
        t = _episode_length(n, t)
        return ad.mean_(ad.reshape(embeddings, (n // t, t, d)), axis=1)

    def write_memory(self, embeddings: Tensor, t=None) -> Tensor:
        """Mean-pool each episode's embeddings (episodes of t rows, one
        episode when t is None) and expand them into B memories (B, C, H, W)."""
        if self.config.ablation:
            raise RuntimeError("ablation model has no memory writer")
        pooled = self._pool(embeddings, t)                    # (B, embed)
        b = pooled.shape[0]
        mc, mh, mw = self.config.memory_shape
        if self.config.dense_nets:
            h = ad.relu(self._dense(pooled, "mem.fc0"))
            return ad.reshape(self._dense(h, "mem.out"), (b, mc, mh, mw))
        base = self.config.mem_base_channels
        h = ad.relu(self._dense(pooled, "mem.fc"))
        h = ad.reshape(h, (b, base, mh // 8, mw // 8))
        h = ad.relu(self._convT(h, "mem.up0"))
        h = ad.relu(self._convT(h, "mem.up1"))
        return self._convT(h, "mem.up2")

    def key_posterior(self, embeddings: Tensor) -> DiagGaussian:
        h = ad.relu(self._dense(embeddings, "key.fc"))
        return _split_head(self._dense(h, "key.out"), (self.config.K, 3))

    def latent_posterior(self, embeddings: Tensor) -> DiagGaussian:
        h = ad.relu(self._dense(embeddings, "post.fc"))
        return _split_head(self._dense(h, "post.out"), (self.config.L,))

    def readout_prior(self, traces) -> DiagGaussian:
        """Latent prior from (T, K, C, h, w) read traces, stacked along channels."""
        x = self._input(traces)
        if len(x.shape) != 5:
            raise ValueError(f"readout_prior expects (T,K,C,h,w) traces, got {x.shape}")
        t, k = x.shape[0], x.shape[1]
        if k != self.config.K:
            raise ValueError(f"expected {self.config.K} traces per sample, got {k}")
        mc = self.config.memory_shape[0]
        th, tw = self.config.trace_size
        if x.shape[2:] != (mc, th, tw):
            raise ValueError(
                f"trace shape {x.shape[2:]} does not match configured ({mc}, {th}, {tw})"
            )
        if self.config.dense_nets:
            flat = ad.reshape(x, (t, k * mc * th * tw))
            h = ad.relu(self._dense(flat, "read.fc0"))
            return _split_head(self._dense(h, "read.out"), (self.config.L,))
        stacked = ad.reshape(x, (t, k * mc, th, tw))
        h = ad.relu(self._conv(stacked, "read.conv0"))
        h = ad.relu(self._conv(h, "read.conv1"))
        flat = ad.reshape(h, (t, int(np.prod(h.shape[1:]))))
        return _split_head(self._dense(flat, "read.out"), (self.config.L,))

    def decode(self, z: Tensor) -> Tensor:
        """Map latents (N, L) to image-shaped Bernoulli logits or Gaussian means."""
        z = self._input(z)
        if len(z.shape) != 2 or z.shape[1] != self.config.L:
            raise ValueError(f"latents must be (N, L={self.config.L}), got {z.shape}")
        n = z.shape[0]
        c_img, h_img, w_img = self.config.image_shape
        if self.config.dense_nets:
            h = ad.relu(self._dense(z, "dec.fc0"))
            out = self._dense(h, "dec.out")
            return ad.reshape(out, (n, c_img, h_img, w_img))
        db = self.config.dec_base_channels
        h = ad.relu(self._dense(z, "dec.fc"))
        h = ad.relu(self._dense(h, "dec.spatial"))
        h = ad.reshape(h, (n, db, h_img // 4, w_img // 4))
        h = ad.relu(self._convT(h, "dec.up0"))
        return self._convT(h, "dec.up1")

    def ablation_prior(self, embeddings: Tensor, t=None) -> DiagGaussian:
        """Latent prior straight from each pooled episode embedding (no
        memory), repeated for the episode's t rows."""
        n = embeddings.shape[0]
        pooled = self._pool(embeddings, t)
        b, d = pooled.shape[0], 2 * self.config.L
        out = self._dense(ad.relu(self._dense(pooled, "abl.fc")), "abl.out")
        out = ad.broadcast_to(ad.reshape(out, (b, 1, d)), (b, n // b, d))
        return _split_head(out, (self.config.L,))

    # -- persistence -------------------------------------------------------

    def state_arrays(self):
        return {k: v.data.copy() for k, v in self.params.items()}

    def save(self, path):
        save_checkpoint(path, self.state_arrays(), self.config.to_dict())

    @classmethod
    def load(cls, path):
        """The model a checkpoint holds, with PARAM_DTYPE parameters."""
        arrays, config_dict = load_checkpoint(path)
        if config_dict is None:
            raise ValueError(f"checkpoint {path} carries no model config")
        try:
            return cls(ModelConfig.from_dict(config_dict), seed=0, arrays=arrays)
        except ValueError as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from None

    def load_arrays(self, arrays):
        """Overwrite every parameter from arrays, kept in the model's dtype."""
        for name, param in self.params.items():
            param.data = _checked_array(arrays, name, param.data.shape).astype(param.data.dtype)


def _checked_array(arrays, name, shape):
    if name not in arrays:
        raise KeyError(f"checkpoint missing parameter {name!r}")
    arr = arrays[name]
    if arr.shape != tuple(shape):
        raise ValueError(f"parameter {name!r} shape {arr.shape} != expected {tuple(shape)}")
    return arr


def save_checkpoint(path, arrays, config_dict=None):
    """Self-describing binary: magic, then per entry name/rank/dims/f64 data."""
    entries = dict(arrays)
    if config_dict is not None:
        blob = np.frombuffer(json.dumps(config_dict).encode(), dtype=np.uint8)
        entries[CONFIG_KEY] = blob.astype(np.float64)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name in sorted(entries):
            arr = np.asarray(entries[name], dtype="<f8")
            nb = name.encode()
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays, config_dict or None)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise ValueError(
            f"bad checkpoint magic at byte 0: expected {CHECKPOINT_MAGIC!r}, got {raw[:4]!r}"
        )
    pos = 4
    arrays = {}

    def need(n, what):
        if pos + n > len(raw):
            raise ValueError(
                f"truncated checkpoint: needed {n} bytes for {what} at byte {pos}, "
                f"file has {len(raw) - pos} left"
            )

    while pos < len(raw):
        need(4, "name length")
        (nlen,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        need(nlen, "name")
        name = raw[pos:pos + nlen].decode()
        pos += nlen
        need(4, "rank")
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        need(4 * rank, "dims")
        dims = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        count = int(np.prod(dims)) if rank else 1
        need(8 * count, f"data of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(dims).copy()
        pos += 8 * count
    config_dict = None
    if CONFIG_KEY in arrays:
        blob = arrays.pop(CONFIG_KEY)
        config_dict = json.loads(bytes(blob.astype(np.uint8)).decode())
    return arrays, config_dict
