"""Minimal reverse-mode autodiff engine.

Tensors wrap contiguous numpy arrays (float32 in production, float64 in the
gradient-check shadow mode) and record a computation graph through closures.
Only the primitives the vein networks need are provided; there is no
broadcasting beyond scalars, no GPU path, and no dynamic shapes inside a
graph.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateVectorError, DimensionError

EPS_NORM = 1e-8


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    # note: ascontiguousarray would promote 0-d arrays to shape (1,)
    return np.asarray(arr, order="C")


class Tensor:
    """N-dimensional float array with an optional gradient buffer and graph link."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @classmethod
    def _op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
            backward_fn: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out._parents = ()
            out._backward_fn = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out_data = self.data.reshape(shape)

        def bw(g):
            self.accumulate_grad(g.reshape(old))

        return Tensor._op(np.ascontiguousarray(out_data), (self,), bw)

    def flatten_from(self, axis: int) -> "Tensor":
        """Collapse all dims from `axis` onward into one."""
        keep = self.data.shape[:axis]
        return self.reshape(keep + (-1,))

    # -- reductions --------------------------------------------------------

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        if axis is None:
            out_data = np.asarray(self.data.sum(), dtype=self.data.dtype)

            def bw(g):
                self.accumulate_grad(np.broadcast_to(g, self.data.shape))

            return Tensor._op(out_data, (self,), bw)

        shape = self.data.shape
        out_data = self.data.sum(axis=axis)

        def bw_axis(g):
            self.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), shape))

        return Tensor._op(np.ascontiguousarray(out_data), (self,), bw_axis)

    def mean(self) -> "Tensor":
        n = self.data.size
        out_data = np.asarray(self.data.mean(), dtype=self.data.dtype)

        def bw(g):
            self.accumulate_grad(np.broadcast_to(g / n, self.data.shape))

        return Tensor._op(out_data, (self,), bw)

    # -- elementwise arithmetic (same shape or scalar only) ----------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.data.shape != self.data.shape and other.data.size != 1:
                raise DimensionError(
                    f"elementwise op on shapes {self.data.shape} and {other.data.shape}")
            return other
        if np.isscalar(other):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        raise DimensionError(f"cannot combine tensor with {type(other).__name__}")

    def __add__(self, other) -> "Tensor":
        o = self._coerce(other)
        out_data = self.data + o.data

        def bw(g):
            self.accumulate_grad(np.broadcast_to(g, self.data.shape) if g.shape != self.data.shape else g)
            o.accumulate_grad(np.asarray(g.sum(), dtype=o.data.dtype) if o.data.size == 1 and g.size > 1 else g)

        return Tensor._op(out_data, (self, o), bw)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def bw(g):
            self.accumulate_grad(-g)

        return Tensor._op(out_data, (self,), bw)

    def __sub__(self, other) -> "Tensor":
        o = self._coerce(other)
        out_data = self.data - o.data

        def bw(g):
            self.accumulate_grad(g)
            o.accumulate_grad(np.asarray(-g.sum(), dtype=o.data.dtype) if o.data.size == 1 and g.size > 1 else -g)

        return Tensor._op(out_data, (self, o), bw)

    def __rsub__(self, other) -> "Tensor":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Tensor":
        o = self._coerce(other)
        out_data = self.data * o.data

        def bw(g):
            self.accumulate_grad(g * o.data)
            go = g * self.data
            o.accumulate_grad(np.asarray(go.sum(), dtype=o.data.dtype) if o.data.size == 1 and go.size > 1 else go)

        return Tensor._op(out_data, (self, o), bw)

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def backward(loss: Tensor) -> None:
    """Populate grad buffers of every tensor reachable from `loss`.

    The loss must be scalar. Traversal is topological; every node's backward
    closure runs exactly once. Tensors with requires_grad=False are skipped.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# Neural-net primitives
# ---------------------------------------------------------------------------


def _check_4d(x: np.ndarray, what: str) -> np.ndarray:
    if x.ndim != 4:
        raise DimensionError(f"{what} must be [N,C,H,W], got {x.ndim} dims")
    return x


def _windows(x: np.ndarray, pads: tuple[int, int, int, int], kh: int, kw: int):
    """Zero-pad x [N,C,H,W] plus a spare bottom row and flatten each image's rows.

    Returns Ho, the padded width Wp and, per kernel offset (i, j) row-major,
    its window: the [N,C,Ho*Wp] view from i*Wp + j. Each window row ends in
    kw-1 wrap-around columns; the spare row keeps the last window in bounds.
    """
    pt, pb, pl, pr = pads
    n, c, h, w = x.shape
    hp, wp = h + pt + pb, w + pl + pr
    xp = np.zeros((n, c, hp + 1, wp), dtype=x.dtype)
    xp[:, :, pt:pt + h, pl:pl + w] = x
    ho, xf = hp - kh + 1, xp.reshape(n, c, -1)
    return ho, wp, [xf[:, :, i * wp + j:][:, :, :ho * wp] for i in range(kh) for j in range(kw)]


def _conv_core(x: np.ndarray, w: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """Cross-correlate x [N,C,H,W] with w [Co,C,kh,kw] under explicit padding.

    Per image, one [Co,C] @ [C,Ho*Wp] GEMM per kernel offset accumulates on the
    padded width: no unfolded copy, and an image's result ignores its batch.
    """
    co, c, kh, kw = w.shape
    ho, wp, wins = _windows(x, pads, kh, kw)
    taps = np.ascontiguousarray(w.transpose(2, 3, 0, 1)).reshape(kh * kw, co, c)
    out = np.empty((x.shape[0], co, ho, wp - kw + 1), dtype=np.result_type(x, w))
    acc, tmp = np.empty((2, co, ho * wp), dtype=out.dtype)
    for b in range(x.shape[0]):
        np.matmul(taps[0], wins[0][b], out=acc)
        for tap, win in zip(taps[1:], wins[1:]):
            np.matmul(tap, win[b], out=tmp)
            acc += tmp
        out[b] = acc.reshape(co, ho, wp)[:, :, :out.shape[3]]
    return out


def _conv_pads(padding: str, kh: int, kw: int) -> tuple[int, int, int, int]:
    if padding == "same":
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        return pt, kh - 1 - pt, pl, kw - 1 - pl
    if padding == "valid":
        return 0, 0, 0, 0
    raise ContractError(f"padding must be 'same' or 'valid', got {padding!r}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: str = "same") -> Tensor:
    """2-D convolution (stride 1) over [N,C,H,W] input.

    padding='same' preserves spatial dims for odd kernels; 'valid' yields
    H-kh+1 by W-kw+1. Differentiable w.r.t. input, weight and bias.
    """
    xd = _check_4d(x.data, "conv2d input")
    wd, bd = weight.data, bias.data
    if wd.ndim != 4:
        raise DimensionError(f"conv2d kernel must be [Co,Ci,kh,kw], got {wd.ndim} dims")
    n, c, h, w_ = xd.shape
    co, ci, kh, kw = wd.shape
    if ci != c:
        raise DimensionError(f"conv2d channel axis: input has {c} channels, kernel expects {ci}")
    if bd.shape != (co,):
        raise DimensionError(f"conv2d bias axis: expected shape ({co},), got {bd.shape}")
    pads = _conv_pads(padding, kh, kw)
    if h + pads[0] + pads[1] < kh or w_ + pads[2] + pads[3] < kw:
        raise DimensionError(
            f"conv2d spatial axis: kernel {kh}x{kw} larger than padded input {h}x{w_}")

    out = _conv_core(xd, wd, pads)
    out += bd[None, :, None, None]
    wo = out.shape[3]

    def bw(g):
        bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            # the forward's offsets with the operands swapped: g laid out on
            # the padded width, zero in the wrap-around columns
            _, wp, wins = _windows(xd, pads, kh, kw)
            gf = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wp - wo))).reshape(n, co, -1)
            gw = [np.matmul(gf, win.transpose(0, 2, 1)).sum(axis=0) for win in wins]
            weight.accumulate_grad(np.stack(gw, axis=-1).reshape(wd.shape))
        if x.requires_grad:
            # grad wrt input = correlation of upstream grad with the flipped,
            # channel-swapped kernel under complementary padding
            wflip = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gpads = (kh - 1 - pads[0], kh - 1 - pads[1], kw - 1 - pads[2], kw - 1 - pads[3])
            x.accumulate_grad(_conv_core(g, wflip, gpads))

    return Tensor._op(out, (x, weight, bias), bw)


def maxpool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2, as the maximum of the four strided corner views.

    Odd trailing rows/cols are dropped. Backward routes the gradient to the
    first (row-major) maximum of each block, or to its first NaN if it has one.
    """
    xd = _check_4d(x.data, "maxpool2 input")
    h, w = xd.shape[2], xd.shape[3]
    if h < 2 or w < 2:
        raise DimensionError(f"maxpool2 spatial axis: needs H,W >= 2, got {h}x{w}")
    corners = [(slice(a, h - h % 2, 2), slice(b, w - w % 2, 2)) for a in (0, 1) for b in (0, 1)]
    views = [xd[:, :, r, s] for r, s in corners]
    out = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def bw(g):
        gx = np.zeros_like(xd)
        free = np.ones(out.shape, dtype=bool)  # blocks whose maximum is not yet routed
        for (r, s), v in zip(corners, views):
            hit = ((v == out) | np.isnan(v)) & free
            np.multiply(g, hit, out=gx[:, :, r, s])
            free ^= hit
        x.accumulate_grad(gx)

    return Tensor._op(out, (x,), bw)


def upsample2_nearest(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling; backward sums each 2x2 block."""
    xd = _check_4d(x.data, "upsample2 input")
    n, c, h, w = xd.shape
    out = np.repeat(np.repeat(xd, 2, axis=2), 2, axis=3)

    def bw(g):
        x.accumulate_grad(g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))

    return Tensor._op(out, (x,), bw)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate [N,C,H,W] inputs along the channel axis; channels of a precede b."""
    ad = _check_4d(a.data, "concat_channels input")
    bd = _check_4d(b.data, "concat_channels input")
    if ad.shape[0] != bd.shape[0] or ad.shape[2:] != bd.shape[2:]:
        raise DimensionError(f"concat_channels batch or spatial axis: {ad.shape} vs {bd.shape}")
    ca = ad.shape[1]
    out = np.concatenate([ad, bd], axis=1)

    def bw(g):
        a.accumulate_grad(g[:, :ca])
        b.accumulate_grad(g[:, ca:])

    return Tensor._op(out, (a, b), bw)


def relu(x: Tensor) -> Tensor:
    xd = x.data
    out = np.maximum(xd, 0)

    def bw(g):
        x.accumulate_grad(g * (xd > 0))

    return Tensor._op(out, (x,), bw)


def clamp01(x: Tensor) -> Tensor:
    """Hard clamp to [0,1]; gradient passes through inside the range only."""
    xd = x.data
    out = np.clip(xd, 0.0, 1.0)

    def bw(g):
        x.accumulate_grad(g * ((xd >= 0.0) & (xd <= 1.0)))

    return Tensor._op(out, (x,), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [n] -> [m] or [B,n] -> [B,m] with weight [m,n], bias [m]."""
    xd, wd, bd = x.data, weight.data, bias.data
    if wd.ndim != 2:
        raise DimensionError(f"linear weight must be [m,n], got {wd.ndim} dims")
    m, nfeat = wd.shape
    if bd.shape != (m,):
        raise DimensionError(f"linear bias axis: expected ({m},), got {bd.shape}")
    batched = xd.ndim == 2
    x2 = xd if batched else xd[None]
    if x2.ndim != 2 or x2.shape[1] != nfeat:
        raise DimensionError(
            f"linear input axis: expected length {nfeat}, got shape {xd.shape}")
    out = x2 @ wd.T + bd

    def bw(g):
        g2 = g if g.ndim == 2 else g[None]
        bias.accumulate_grad(g2.sum(axis=0))
        if weight.requires_grad:
            weight.accumulate_grad(g2.T @ x2)
        if x.requires_grad:
            gx = g2 @ wd
            x.accumulate_grad(gx if batched else gx[0])

    out = out if batched else out[0]
    return Tensor._op(np.ascontiguousarray(out), (x, weight, bias), bw)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; scalar output."""
    if pred.data.shape != target.data.shape:
        raise DimensionError(
            f"mse_loss shape mismatch: {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    n = diff.size
    out = np.asarray((diff * diff).mean(), dtype=pred.data.dtype)

    def bw(g):
        scale = g * (2.0 / n)
        if pred.requires_grad:
            pred.accumulate_grad(scale * diff)
        if target.requires_grad:
            target.accumulate_grad(-scale * diff)

    return Tensor._op(out, (pred, target), bw)


def l2_normalize(x: Tensor) -> Tensor:
    """Project [d] (or rows of [B,d]) onto the unit hypersphere.

    Raises DegenerateVectorError when any input norm is at or below 1e-8.
    """
    xd = x.data
    if xd.ndim not in (1, 2):
        raise DimensionError(f"l2_normalize expects [d] or [B,d], got {xd.ndim} dims")
    norms = np.sqrt((xd * xd).sum(axis=-1, keepdims=True))
    if np.any(norms <= EPS_NORM):
        raise DegenerateVectorError(
            f"cannot normalize vector with norm <= {EPS_NORM}")
    out = xd / norms

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        x.accumulate_grad((g - out * dot) / norms)

    return Tensor._op(out, (x,), bw)


def adaptive_avg_pool2d(x: Tensor, out_hw: int) -> Tensor:
    """Average-pool [N,C,H,W] onto a fixed out_hw x out_hw grid.

    Regions follow the floor/ceil convention: row i covers
    [floor(i*H/G), ceil((i+1)*H/G)).
    """
    xd = _check_4d(x.data, "adaptive_avg_pool2d input")
    n, c, h, w = xd.shape
    g_ = out_hw
    if g_ < 1 or g_ > h or g_ > w:
        raise DimensionError(
            f"adaptive_avg_pool2d grid {g_} incompatible with input {h}x{w}")
    hs = [(i * h) // g_ for i in range(g_)] + [h]
    ws = [(j * w) // g_ for j in range(g_)] + [w]
    he = [-(-((i + 1) * h) // g_) for i in range(g_)]
    we = [-(-((j + 1) * w) // g_) for j in range(g_)]
    out = np.empty((n, c, g_, g_), dtype=xd.dtype)
    for i in range(g_):
        for j in range(g_):
            out[:, :, i, j] = xd[:, :, hs[i]:he[i], ws[j]:we[j]].mean(axis=(2, 3))

    def bw(gr):
        gx = np.zeros_like(xd)
        for i in range(g_):
            for j in range(g_):
                area = (he[i] - hs[i]) * (we[j] - ws[j])
                gx[:, :, hs[i]:he[i], ws[j]:we[j]] += gr[:, :, i:i + 1, j:j + 1] / area
        x.accumulate_grad(gx)

    return Tensor._op(out, (x,), bw)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class ParamSet:
    """Ordered, uniquely named collection of parameter tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def set_requires_grad(self, flag: bool) -> None:
        for t in self._params.values():
            t.requires_grad = flag

    @staticmethod
    def union(*groups: tuple[str, "ParamSet"]) -> "ParamSet":
        """Disjoint union under name prefixes; tensors are shared, not copied."""
        out = ParamSet()
        for prefix, ps in groups:
            for name, t in ps.items():
                out.add(f"{prefix}.{name}" if prefix else name, t)
        return out

    def __repr__(self) -> str:
        total = sum(t.size for t in self._params.values())
        return f"ParamSet({len(self._params)} tensors, {total} values)"


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def kaiming_uniform(rng: np.random.Generator, shape: Sequence[int], fan_in: int,
                    dtype=np.float32) -> Tensor:
    """Fan-in Kaiming-uniform init (gain sqrt(2), as used under ReLU)."""
    bound = float(np.sqrt(6.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=tuple(shape)).astype(dtype),
                  requires_grad=True)


def conv_params(rng: np.random.Generator, c_out: int, c_in: int, kh: int, kw: int,
                dtype=np.float32) -> tuple[Tensor, Tensor]:
    weight = kaiming_uniform(rng, (c_out, c_in, kh, kw), fan_in=c_in * kh * kw, dtype=dtype)
    bias = Tensor(np.zeros(c_out, dtype=dtype), requires_grad=True)
    return weight, bias


def linear_params(rng: np.random.Generator, n_out: int, n_in: int,
                  dtype=np.float32) -> tuple[Tensor, Tensor]:
    weight = kaiming_uniform(rng, (n_out, n_in), fan_in=n_in, dtype=dtype)
    bias = Tensor(np.zeros(n_out, dtype=dtype), requires_grad=True)
    return weight, bias
