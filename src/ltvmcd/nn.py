"""Layer primitives and network topologies.

Layers: dense (affine), relu, inverted dropout, and the cross layer used
by DCNv2-style models. A Network is either a plain sequential stack
("mlp") or the two-branch cross/deep topology ("dcnv2"): cross stack and
deep stack run in parallel on the input, their outputs are concatenated
and fed to a final dense head.

Forward modes:
    "eval"      dropout layers are identity; no RNG is consumed
    "train"     dropout active, tape kept for backward
    "mc_sample" dropout active at inference time (Monte Carlo sampling)

Dropout samples one mask per layer per forward pass, shared across every
row of the batch, and scales surviving units by 1/(1-p) at sample time so
eval mode needs no rescaling.

Only a train pass keeps a tape for backward. An eval or mc_sample pass
keeps no per-layer caches, and its relu and dropout layers overwrite
arrays that an earlier layer of the same pass created (never the caller's
input), which gives the same bits with fewer allocations.

Every eval or mc_sample pass on one input shares the layers no dropout
acts on, today the cross branch: Network.shared_part(x) computes it once
for forward(x, mode, rng, shared=...) to read, with the same bits. An
overflow in a pass gives inf or nan, which the finite checks reject.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import losses, numcore
from .data import atomic_open
from .numcore import RngStream, ShapeError

MODES = ("train", "mc_sample", "eval")

_OVERFLOW_IS_CHECKED = np.errstate(over="ignore", invalid="ignore")


class Dense:
    """Affine layer y = x W^T + b with weight shape (out_dim, in_dim)."""

    kind = "dense"

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[0],):
            raise ShapeError("dense expects w (out, in) and b (out,)")

    @property
    def out_dim(self):
        return self.w.shape[0]

    def params(self):
        return [self.w, self.b]

    def forward(self, x, mode="eval", rng=None, inplace=False):
        y = numcore.matmul(x, self.w.T)
        y += self.b
        return y, x

    def backward(self, cache, g):
        x = cache
        gw = numcore.matmul(g.T, x)
        gb = g.sum(axis=0)
        gx = numcore.matmul(g, self.w)
        return [gw, gb], gx


class Relu:
    kind = "relu"

    def params(self):
        return []

    def forward(self, x, mode="eval", rng=None, inplace=False):
        """inplace=True overwrites x with the output."""
        return np.maximum(x, 0.0, out=x if inplace else None), x

    def backward(self, cache, g):
        return [], g * (cache > 0.0)


class Dropout:
    """Inverted dropout: multipliers are 0 or 1/(1-p), expectation 1.

    With p == 0 the layer is identity in every mode and consumes no RNG.
    """

    kind = "dropout"

    def __init__(self, p):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = float(p)

    def params(self):
        return []

    def sample_mask(self, width, rng: RngStream):
        """One mask vector: entry j is 0 with probability p, else 1/(1-p)."""
        u = rng.uniform(width)
        return (u >= self.p).astype(np.float64) / (1.0 - self.p)

    def forward(self, x, mode="eval", rng=None, inplace=False):
        """inplace=True overwrites x with the output."""
        if mode == "eval" or self.p == 0.0:
            return x, None
        if rng is None:
            raise ValueError("dropout needs an RngStream in train/mc_sample mode")
        mask = self.sample_mask(x.shape[1], rng)
        return np.multiply(x, mask, out=x if inplace else None), mask

    def backward(self, cache, g):
        return [], g if cache is None else g * cache


class Cross:
    """Cross layer y = x0 * (xl W^T + b) + xl with square weight (d, d)."""

    kind = "cross"

    def __init__(self, w, b):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ShapeError("cross weight must be square (d, d)")
        if self.b.shape != (self.w.shape[0],):
            raise ShapeError("cross bias must have width d")

    def params(self):
        return [self.w, self.b]

    def forward(self, x0, xl):
        if x0.shape != xl.shape or x0.shape[1] != self.w.shape[0]:
            raise ShapeError("cross layer operand widths must all equal d")
        u = numcore.matmul(xl, self.w.T)
        u += self.b
        y = x0 * u
        y += xl
        return y, (x0, xl, u)

    def backward(self, cache, g):
        x0, xl, u = cache
        gu = g * x0
        gw = numcore.matmul(gu.T, xl)
        gb = gu.sum(axis=0)
        gxl = numcore.matmul(gu, self.w) + g
        gx0 = g * u
        return [gw, gb], gx0, gxl


class Network:
    """Ordered layer container; see the module docstring for topologies.

    In eval/mc_sample mode a Network is read-only and may be shared across
    threads as long as each caller passes its own RngStream.
    """

    def __init__(self, arch, input_dim, stack=(), cross=(), deep=(), head=None):
        if arch not in ("mlp", "dcnv2"):
            raise ValueError(f"unknown architecture {arch!r}")
        self.arch = arch
        self.input_dim = int(input_dim)
        self.stack = list(stack)
        self.cross = list(cross)
        self.deep = list(deep)
        self.head = head

    def stochastic(self):
        """True if any layer draws randomness in mc_sample mode."""
        return any(l.kind == "dropout" and l.p > 0.0 for l in self.stack + self.deep)

    @property
    def output_dim(self):
        return (self.head or [l for l in self.stack if l.kind == "dense"][-1]).out_dim

    def params(self):
        """Parameter matrices in fixed traversal order (stack, cross, deep, head)."""
        return [p for _, p in self.named_params()]

    def named_params(self):
        names = []
        for group, layers in (("stack", self.stack), ("cross", self.cross), ("deep", self.deep)):
            for i, layer in enumerate(layers):
                for j, p in enumerate(layer.params()):
                    names.append((f"{group}[{i}].{'wb'[j]}", p))
        if self.head is not None:
            for j, p in enumerate(self.head.params()):
                names.append((f"head.{'wb'[j]}", p))
        return names

    def _cross_branch(self, x, caches=None):
        """The cross branch's output on x; caches, if a list, gets each layer's."""
        xl = x
        for layer in self.cross:
            xl, c = layer.forward(x, xl)
            if caches is not None:
                caches.append(c)
        return xl

    @_OVERFLOW_IS_CHECKED
    def shared_part(self, x):
        """What every eval and mc_sample pass on x shares, for forward's
        shared=: the cross branch's output, which no dropout acts on. None
        for a network without cross layers."""
        return self._cross_branch(numcore.as_matrix(x)) if self.cross else None

    @_OVERFLOW_IS_CHECKED
    def forward(self, x, mode="eval", rng=None, shared=None):
        """Run the network; returns (output, tape). A train tape holds the
        intermediates backward() needs; other modes keep none. Identical
        (x, mode, rng stream) always reproduce the identical output.

        shared takes shared_part(x), which an eval or mc_sample pass reads,
        never writes, instead of computing it again; train passes refuse it."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if shared is not None and mode == "train":
            raise ValueError("a train pass computes its own shared part")
        x = numcore.as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ShapeError(f"batch width {x.shape[1]} != network input width {self.input_dim}")
        cross = [] if mode == "train" else None
        if shared is None:
            shared = self._cross_branch(x, cross)
        y, body = _stack_forward(self.stack + self.deep, x, mode, rng)
        head = None
        if self.head is not None:  # dcnv2: cross and deep outputs side by side
            y, head = self.head.forward(np.concatenate([shared, y], axis=1), mode, rng)
        numcore.ensure_finite(y, "network output")
        tape = {"mode": mode, "out_shape": y.shape}
        if mode == "train":
            k = len(self.stack)  # body runs the mlp's stack or the dcnv2's deep layers
            tape.update(stack=body[:k], cross=cross, deep=body[k:], head=head)
        return y, tape

    @_OVERFLOW_IS_CHECKED
    def backward(self, tape, grad_out):
        """Reverse-mode gradients. Returns (param_grads, input_grad) with
        param_grads aligned to params(). Dropout masks are reused from the
        tape, so forward and backward see the same mask."""
        if tape["mode"] != "train":
            raise ValueError(f"backward needs a train-mode tape, got {tape['mode']!r}")
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != tape["out_shape"]:
            raise ShapeError(
                f"upstream grad shape {grad_out.shape} != output shape {tape['out_shape']}"
            )
        if self.head is None:
            return _stack_backward(self.stack, tape["stack"], grad_out)
        head_pg, gz = self.head.backward(tape["head"], grad_out)
        gxl = gz[:, :self.input_dim]
        deep_pg, gh = _stack_backward(self.deep, tape["deep"], gz[:, self.input_dim:])
        gx0 = np.zeros_like(gxl)
        cross_rev = []
        for layer, cache in zip(reversed(self.cross), reversed(tape["cross"])):
            pg, gx0_c, gxl = layer.backward(cache, gxl)
            gx0 += gx0_c
            cross_rev.append(pg)
        param_grads = [p for pg in reversed(cross_rev) for p in pg] + deep_pg + head_pg
        # initial xl and the deep branch input are both the raw input
        return param_grads, gx0 + gxl + gh


def _stack_forward(layers, h, mode, rng):
    """Run a sequential stack; returns (output, per-layer caches). Outside
    train mode the caches are None, and each layer whose input an earlier
    layer of this stack created works in place; the caller's h is never
    written."""
    caches = [] if mode == "train" else None
    owned = False  # stays False in train mode, whose caches hold the inputs
    for layer in layers:
        out, c = layer.forward(h, mode, rng, inplace=owned)
        if caches is None:
            owned = owned or out is not h
        else:
            caches.append(c)
        h = out
    return h, caches


def _stack_backward(layers, caches, g):
    """Walk a sequential stack in reverse; returns (param_grads in the
    stack's params() order, input grad)."""
    rev = []
    for layer, cache in zip(reversed(layers), reversed(caches)):
        pg, g = layer.backward(cache, g)
        rev.append(pg)
    return [p for pg in reversed(rev) for p in pg], g


def _he_uniform(out_dim, in_dim, rng: RngStream):
    limit = math.sqrt(6.0 / in_dim)
    u = rng.uniform(out_dim * in_dim).reshape(out_dim, in_dim)
    return (2.0 * u - 1.0) * limit


def _check_dims(dims):
    for d in dims:
        if int(d) < 1:
            raise ValueError(f"layer dims must be positive, got {dims}")


def _hidden_layers(prev, dims, dropout_p, root, label):
    """[dense -> relu -> dropout] per entry of dims on prev inputs, dense i
    drawn from root's stream f"{label}{i}"; returns (layers, last width)."""
    layers = []
    for i, h in enumerate(dims):
        h = int(h)
        layers += [Dense(_he_uniform(h, prev, root.child(f"{label}{i}")), np.zeros(h)),
                   Relu(), Dropout(dropout_p)]
        prev = h
    return layers, prev


def build_mlp(input_dim, hidden_dims, dropout_p, out_dim=1, seed=0):
    """[dense -> relu -> dropout] per hidden dim, then a final dense.

    Weights are He-uniform from labeled streams of `seed`, biases zero;
    builds from the same seed are bit-identical.
    """
    _check_dims([input_dim, out_dim, *hidden_dims])
    root = RngStream(seed, "init")
    stack, prev = _hidden_layers(int(input_dim), hidden_dims, dropout_p, root, "dense")
    stack.append(Dense(_he_uniform(out_dim, prev, root.child(f"dense{len(hidden_dims)}")), np.zeros(out_dim)))
    return Network("mlp", input_dim, stack=stack)


def build_dcnv2(input_dim, n_cross, deep_dims, dropout_p, out_dim=1, seed=0):
    """n_cross stacked cross layers alongside a deep branch, concatenated
    into a dense head. Dropout sits after each deep activation only; with
    n_cross == 0 the cross branch passes the input through unchanged.
    """
    _check_dims([input_dim, out_dim, *deep_dims])
    if n_cross < 0:
        raise ValueError("n_cross must be >= 0")
    d = int(input_dim)
    root = RngStream(seed, "init")
    cross = [
        Cross(_he_uniform(d, d, root.child(f"cross{i}")), np.zeros(d))
        for i in range(n_cross)
    ]
    deep, prev = _hidden_layers(d, deep_dims, dropout_p, root, "deep")
    head = Dense(_he_uniform(out_dim, d + prev, root.child("head")), np.zeros(out_dim))
    return Network("dcnv2", input_dim, cross=cross, deep=deep, head=head)


CHECKPOINT_FORMAT = "ltvmcd-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    """A trained network plus what the pipeline needs to use it: the loss
    kind it was trained with and the feature standardization fitted on the
    training split (None if features were used raw)."""

    network: Network
    loss_kind: str = "log_mse"
    norm: tuple | None = None  # (mean, std) per feature


# kind -> (class, constructor fields in checkpoint key order)
_LAYERS = {
    "dense": (Dense, ("w", "b")),
    "relu": (Relu, ()),
    "dropout": (Dropout, ("p",)),
    "cross": (Cross, ("w", "b")),
}

# arch -> layer group -> layer kinds it may hold; "head" is a single layer
_ARCH_GROUPS = {
    "mlp": {"stack": ("dense", "relu", "dropout")},
    "dcnv2": {"cross": ("cross",), "deep": ("dense", "relu", "dropout"), "head": ("dense",)},
}


def _layer_doc(layer):
    doc = {"kind": layer.kind}
    for field in _LAYERS[layer.kind][1]:
        value = getattr(layer, field)
        doc[field] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def _layer_from_doc(doc, kinds, name):
    kind = doc["kind"]
    if kind not in kinds:
        raise ValueError(f"layer kind {kind!r} is not one of {kinds}")
    cls, fields = _LAYERS[kind]
    return cls(*(_numbers(doc[field], f"{name}.{field}") for field in fields))


def _numbers(value, key):
    """value if it is a number or nested lists of numbers (true and false
    are not numbers); else ValueError naming key."""
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, list):
            _numbers(item, key)
        elif type(item) not in (int, float):
            raise ValueError(f"{key} must be a number, got {numcore._json_text(item)}")
    return value


def save_checkpoint(path, ckpt: Checkpoint):
    """Write the JSON checkpoint atomically (temp file + rename).

    Floats are serialized with repr, which round-trips IEEE doubles
    exactly: save -> load -> forward is bit-identical.
    """
    net = ckpt.network
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arch": net.arch,
        "input_dim": net.input_dim,
        "loss": ckpt.loss_kind,
        "norm": None
        if ckpt.norm is None
        else {"mean": np.asarray(ckpt.norm[0]).tolist(), "std": np.asarray(ckpt.norm[1]).tolist()},
    }
    for group in _ARCH_GROUPS[net.arch]:
        layers = getattr(net, group)
        doc[group] = _layer_doc(layers) if group == "head" else [_layer_doc(l) for l in layers]
    with atomic_open(path) as f:
        f.write(json.dumps(doc, indent=1))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by save_checkpoint. Malformed content
    (bad or too deeply nested JSON, a missing or mistyped key, a version
    other than the integer 1, an input_dim that is not an integer, a
    dropout rate or a weight, bias or norm entry that is not a number, an
    unknown arch or layer kind, layer widths that do not chain, a head
    width that does not fit the loss, a weight, bias or norm mean that is
    not finite, a norm std that is not finite and > 0, a norm vector whose
    length is not input_dim) raises ValueError naming the path and, for a
    bad value, its key."""
    try:
        with open(path) as f:
            return _checkpoint_from_doc(json.load(f))
    except KeyError as exc:
        raise ValueError(f"{path}: bad checkpoint: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: bad checkpoint: {exc}") from None


def _checkpoint_from_doc(doc):
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if type(doc.get("version")) is not int or doc["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')}")
    arch = doc["arch"]
    if not isinstance(arch, str) or arch not in _ARCH_GROUPS:
        raise ValueError(f"unknown architecture {arch!r}")
    groups = {}
    for group, kinds in _ARCH_GROUPS[arch].items():
        if group == "head":
            groups[group] = _layer_from_doc(doc[group], kinds, group)
        else:
            groups[group] = [_layer_from_doc(d, kinds, f"{group}[{i}]") for i, d in enumerate(doc[group])]
    net = Network(arch, numcore._typed_value(int, doc["input_dim"], "input_dim"), **groups)
    for name, p in net.named_params():
        if not np.isfinite(p).all():
            raise ValueError(f"{name} must be finite")
    loss_kind = doc["loss"]
    width = losses.head_width(loss_kind)
    # a zero-row pass runs every layer's shape check on the chain of widths
    out, _ = net.forward(np.zeros((0, net.input_dim)), "eval")
    if out.shape[1] != width:
        raise ValueError(f"head width {out.shape[1]} does not fit loss {loss_kind!r}, "
                         f"which needs {width}")
    norm = doc["norm"]
    if norm is not None:
        norm = tuple(np.asarray(_numbers(norm[k], f"norm.{k}"), dtype=np.float64) for k in ("mean", "std"))
        if norm[0].shape != (net.input_dim,) or norm[1].shape != (net.input_dim,):
            raise ValueError(f"norm vectors must have length input_dim={net.input_dim}")
        if not np.isfinite(norm[0]).all():
            raise ValueError("norm.mean must be finite")
        if not (np.isfinite(norm[1]) & (norm[1] > 0.0)).all():
            raise ValueError("norm.std must be finite and > 0")
    return Checkpoint(network=net, loss_kind=loss_kind, norm=norm)
