"""Numeric substrate: dense float64 matrices, labeled deterministic RNG
streams, the Adam optimizer, and typed config dataclasses from JSON.

A "matrix" throughout this package is a 2-D float64 numpy array in
row-major order. Operations here validate shapes and reject non-finite
values, so callers can assume clean numerics downstream.
"""

import dataclasses
import hashlib
import json
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NumericError(ValueError):
    """A value that must be finite is NaN or infinite."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite float64 2-D array (copies only if needed)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    ensure_finite(arr, "matrix")
    return arr


def ensure_finite(arr, what: str = "array") -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains NaN or Inf")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape/finiteness checks.

    Summation order is fixed by the BLAS kernel for a given shape, so
    repeated calls on identical inputs are bit-reproducible.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = a @ b
    ensure_finite(out, "matmul result")
    return out


def _stream_key(master_seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{master_seed}\x1f{label}".encode()).digest()
    return int.from_bytes(digest[:16], "little")


class RngStream:
    """Deterministic random stream identified by (master_seed, label).

    The underlying generator is counter-based (Philox) keyed by a hash of
    the seed and label, so streams with different labels are independent
    and advancing one never affects another. Two streams constructed with
    the same (master_seed, label) replay the same sequence bit-for-bit.

    Single-owner: do not share one stream across threads; derive children
    with distinct labels instead.
    """

    def __init__(self, master_seed: int, label: str):
        self.master_seed = int(master_seed)
        self.label = label
        self.counter = 0
        self._gen = np.random.Generator(
            np.random.Philox(key=_stream_key(self.master_seed, label))
        )

    def child(self, sublabel) -> "RngStream":
        """A fresh independent stream labeled beneath this one."""
        return RngStream(self.master_seed, f"{self.label}/{sublabel}")

    def uniform(self, n: int) -> np.ndarray:
        """n draws from [0, 1); advances the counter by n."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        self.counter += n
        return self._gen.random(n)

    def normal(self, n: int) -> np.ndarray:
        """n standard-normal draws; advances the counter by n."""
        if n < 0:
            raise ValueError("draw count must be >= 0")
        self.counter += n
        return self._gen.standard_normal(n)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n); advances the counter by n."""
        self.counter += n
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.master_seed}, label={self.label!r}, counter={self.counter})"


@dataclass
class AdamState:
    """Adam accumulators for a fixed list of parameter matrices."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params):
        """Zeroed accumulators for params."""
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params, grads, cfg):
    """One bias-corrected Adam update, applied to `params` in place, with
    the learning_rate, beta1, beta2 and eps of cfg (a trainer.TrainConfig).

    The caller owns the parameter arrays (training is single-writer);
    everything else in this module treats matrices as immutable.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError("params/grads count does not match optimizer state")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape}")
        ensure_finite(g, "gradient")
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = cfg.beta1 * state.m[i] + (1.0 - cfg.beta1) * g
        state.v[i] = cfg.beta2 * state.v[i] + (1.0 - cfg.beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return params


def from_json(cls, doc, where="config"):
    """Build dataclass cls from a parsed JSON object, checking every value
    against its field's annotation: int takes an integer but not a bool,
    float a finite integer or float, str a string, list[X] a list of X,
    X | None also null, and a dataclass-typed field an object, built the
    same way. Absent keys take the field defaults; fields that __init__
    does not take are not keys. A non-object, an unknown or missing key,
    or a mistyped value raises ValueError naming its dotted path, such as
    config.model.hidden_dims[0]; a range check of cls.__post_init__ that
    fails is prefixed with the path of its object."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {_json_text(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"{where}: unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        if name in doc:
            kwargs[name] = _typed_value(hints[name], doc[name], f"{where}.{name}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{where}.{name} is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _typed_value(declared, value, where):
    tp = declared
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if typing.get_origin(tp) is list:
        if isinstance(value, list):
            (item,) = typing.get_args(tp)
            return [_typed_value(item, v, f"{where}[{i}]") for i, v in enumerate(value)]
    elif tp is float:
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):  # NaN and inf fail too
            return float(value)
    elif isinstance(value, tp) and not isinstance(value, bool):
        return value
    raise ValueError(f"{where} must be {_json_type(declared)}, got {_json_text(value)}")


def _json_type(tp):
    """The JSON type annotation tp takes, as an error message names it."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        return " or ".join(_json_type(a) for a in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        return "a list"
    if dataclasses.is_dataclass(tp):
        return "an object"
    return {int: "an integer", float: "a finite number", str: "a string",
            type(None): "null"}[tp]


def _json_text(value):
    """value as JSON for an error message, containers named, not shown."""
    if isinstance(value, list):
        return "a list"
    if isinstance(value, dict):
        return "an object"
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:40] + "..."
