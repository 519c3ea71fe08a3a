"""Dense N-D tensors with reverse-mode differentiation.

A :class:`Tensor` wraps a float32 or float64 ``numpy`` array. Operations on
tensors that require gradients build an implicit graph; ``backward`` replays
that graph once, in reverse topological order, and leaves ``.grad`` on every
leaf created with ``requires_grad=True``. Inside a ``no_grad()`` block no
graph is built.

The graph's vertices are :class:`_Fn` records: an op's result points at its
vertex, and a vertex at its inputs' vertices, not at their values. The graph
thus holds only what the backward closures capture, and ``backward`` clears
each vertex as it sweeps, so a consumed graph frees itself.

Design constraints honoured throughout:

* one precision per expression graph (mixing float32/float64 raises),
* no implicit broadcasting except scalar-with-tensor,
* ``linear`` maps the last axis of an [..., in] input, so a layer applies
  its own weight to a batch of token sequences,
* one backward pass per forward pass (a second backward raises),
* a backward closure captures only what it reads (arrays, shapes, flags),
  never an input ``Tensor``,
* a backward closure returns ``None`` for a parent that does not require
  grad (the convolutions and ``linear`` skip that work; ``backward``
  skips ``None``),
* convolution uses the cross-correlation convention (no kernel flip); a
  2-D one pads by k // 2 for its odd square kernel k, keeping the size,
* ``attention``'s forward and backward walk one plan of chunks of whole
  score rows: neither builds the [B, M, L] score map, and each softmax
  runs on complete rows, as an unfused matmul, softmax, matmul chain's,
* the convolution forwards, and the 2-D ones' weight gradients, never hold
  their whole input's padded or window copy, only one chunk's (``_CONV_CHUNK``).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError, UsageError

_ALLOWED_DTYPES = (np.float32, np.float64)

# Whether ops record the graph; a ContextVar so that each thread and task
# starts from the default and a block in one cannot switch off another's.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("sfcl_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Within the block, op results record no parents and no backward.

    Nothing is kept for a backward pass, so each intermediate array is freed
    as soon as the forward no longer reads it. Values are unchanged.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def grad_enabled() -> bool:
    """Whether ops in this thread or task record a graph: not inside ``no_grad``."""
    return _GRAD_ENABLED.get()


class _Fn:
    """The graph vertex of one recorded op.

    ``parents`` has one entry per op input: the input's own vertex, the
    input itself when it is a leaf that requires grad (so ``.grad`` lands
    there), or None for an input without grad. ``backward`` maps the output
    gradient to one gradient per entry, in the same order.
    """

    __slots__ = ("parents", "backward", "op")

    def __init__(self, parents: tuple, backward: Callable, op: str):
        self.parents = parents
        self.backward: Optional[Callable] = backward  # None once swept
        self.op = op


class Tensor:
    """Dense N-D array with optional recorded gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _ALLOWED_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._fn: Optional[_Fn] = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
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

    @property
    def precision(self) -> str:
        return "single" if self.data.dtype == np.float32 else "double"

    def item(self) -> float:
        if self.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}, {self.precision}"
        if self.requires_grad:
            head += ", grad"
        return head + ")"


def _vertex(t: Tensor):
    """t's entry in a vertex's parents: its op's vertex, t itself for a leaf
    that requires grad, else None."""
    if t._fn is not None:
        return t._fn
    return t if t.requires_grad else None


def _trace(root: Tensor) -> list:
    """The vertices behind ``root`` in topological order: each vertex's
    parents come earlier, so a single reverse sweep performs
    backpropagation. A leaf's vertex is the leaf ``Tensor`` itself."""
    order: list = []
    seen: set = set()
    stack: list = [(_vertex(root), False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if type(node) is _Fn:
            for parent in node.parents:
                if parent is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss; leaves with requires_grad get .grad.

    Gradient accumulation over multiple graph paths is a sum. A graph may be
    walked only once; rerunning backward on a consumed graph raises. Each
    vertex drops its closure and parents once swept, so the activations
    they held are freed during the sweep, not after it.
    """
    if loss.size != 1:
        raise UsageError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise UsageError("loss does not depend on any tensor with requires_grad")
    order = _trace(loss)
    if any(type(node) is _Fn and node.backward is None for node in order):
        raise UsageError("backward was already run on this graph; rerun the forward pass first")

    grads: dict = {id(order[-1]): np.ones_like(loss.data)}
    while order:
        node = order.pop()  # the list must not keep swept vertices alive
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if type(node) is not _Fn:  # a leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node.parents, node.backward(g)):
            if pg is None or parent is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
        node.backward = None  # free the closure and its captured buffers
        node.parents = ()


# -- construction helpers ----------------------------------------------


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          bw: Callable) -> Tensor:
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._fn = _Fn(tuple(_vertex(p) for p in parents), bw, op)
    return out


def _check_same_precision(op: str, *tensors: Tensor) -> None:
    """Raise unless every operand is a tensor and all share one precision."""
    for t in tensors:
        if not isinstance(t, Tensor):
            raise UsageError(f"{op}: operands must be tensors, got {type(t).__name__}")
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise UsageError(f"{op}: operands mix precisions {sorted(str(d) for d in dtypes)}")


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """Raise unless a and b have one shape or one of them is a scalar."""
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ and neither is a scalar")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Collapse a gradient onto a (possibly scalar) operand shape."""
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape).astype(g.dtype, copy=False)


# -- elementwise ops ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_precision("add", a, b)
    _check_broadcast("add", a, b)
    sa, sb = a.shape, b.shape

    def bw(g):
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _node(a.data + b.data, "add", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_precision("mul", a, b)
    _check_broadcast("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g):
        return _reduce_to(g * bd, ad.shape), _reduce_to(g * ad, bd.shape)

    return _node(ad * bd, "mul", (a, b), bw)


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN input stays NaN, so the loss check sees it."""
    out = np.maximum(x.data, 0)

    def bw(g):
        return (g * (out > 0),)

    return _node(out, "relu", (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_stable(x.data)

    def bw(g):  # a saturated gate's subnormal gradients become 0: they slow BLAS
        gx = g * s * (1 - s)
        return (np.where(np.abs(gx) < np.finfo(s.dtype).tiny, s.dtype.type(0), gx),)

    return _node(s, "sigmoid", (x,), bw)


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# -- reductions ----------------------------------------------------------


def _normalize_axes(x: Tensor, axes) -> Optional[tuple]:
    if axes is None:
        return tuple(range(x.ndim))
    axes = tuple(sorted(int(a) % x.ndim if x.ndim else 0 for a in axes))
    for a in axes:
        if a < 0 or a >= x.ndim:
            raise UsageError(f"reduction axis {a} invalid for shape {x.shape}")
    return axes


def reduce_sum(x: Tensor, axes: Optional[Iterable[int]] = None) -> Tensor:
    """Sum over `axes` (all axes when None); an empty axis set is a copy."""
    ax = _normalize_axes(x, axes)
    shape = x.shape

    def bw(g):
        gg = g
        for a in ax:
            gg = np.expand_dims(gg, a)
        return (np.broadcast_to(gg, shape).astype(g.dtype, copy=False),)

    return _node(x.data.sum(axis=ax), "sum", (x,), bw)


def reduce_mean(x: Tensor, axes: Optional[Iterable[int]] = None) -> Tensor:
    """Mean over `axes` (all axes when None); an empty axis set is a copy."""
    ax = _normalize_axes(x, axes)
    shape = x.shape
    count = 1
    for a in ax:
        count *= shape[a]

    def bw(g):
        gg = g / count
        for a in ax:
            gg = np.expand_dims(gg, a)
        return (np.broadcast_to(gg, shape).astype(g.dtype, copy=False),)

    return _node(x.data.mean(axis=ax), "mean", (x,), bw)


# -- structural ops -------------------------------------------------------


def reshape(x: Tensor, dims: Sequence[int]) -> Tensor:
    dims = tuple(int(d) for d in dims)
    try:
        data = x.data.reshape(dims)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {dims}") from None
    old = x.shape

    def bw(g):
        return (g.reshape(old),)

    return _node(data, "reshape", (x,), bw)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of axes of {x.shape}")
    inverse = np.argsort(axes)

    def bw(g):
        return (np.transpose(g, inverse),)

    return _node(np.transpose(x.data, axes), "transpose", (x,), bw)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise UsageError("concat needs at least one tensor")
    _check_same_precision("concat", *parts)
    ref = parts[0].shape
    for p in parts[1:]:
        a, b = list(ref), list(p.shape)
        if len(a) != len(b):
            raise ShapeError(f"concat: rank mismatch {ref} vs {p.shape}")
        a[axis] = b[axis] = -1
        if a != b:
            raise ShapeError(f"concat: non-concat dims differ, {ref} vs {p.shape}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        out = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(sl)])
        return tuple(out)

    return _node(np.concatenate([p.data for p in parts], axis=axis), "concat", parts, bw)


# -- linear algebra --------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ w + b`` of the last axis: x [..., in], w [in, out], b [out].

    Leading axes are batch axes. The weight and bias gradients sum over
    them as one [rows, in] by [rows, out] product on flattened views.
    """
    parents = (x, w) if b is None else (x, w, b)
    _check_same_precision("linear", *parents)
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or min(wd.shape) < 1:
        raise ShapeError(f"linear: expected [..., in] input and [in, out] weight with in, out >= 1, "
                         f"got {x.shape} and {w.shape}")
    d_in, d_out = wd.shape
    if b is not None and b.shape != (d_out,):
        raise ShapeError(f"linear: bias shape {b.shape} does not match output width {d_out}")
    y = xd @ wd
    if b is not None:
        y = y + b.data
    x_grad, w_grad, with_bias = x.requires_grad, w.requires_grad, b is not None

    def bw(g):
        dx = g @ wd.T if x_grad else None
        rows = g.reshape(-1, d_out)
        dw = xd.reshape(-1, d_in).T @ rows if w_grad else None
        if not with_bias:
            return dx, dw
        return dx, dw, rows.sum(axis=0)

    return _node(y, "linear", parents, bw)


def _softmax_last_(s: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``s``, computed in place and returned.

    Row max, subtract, exp, sum, divide. The max propagates NaN, so a NaN
    anywhere in a row raises here.
    """
    top = s.max(axis=-1, keepdims=True)
    if np.isnan(top).any():
        raise NumericError("attention received NaN input")
    s -= top
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _chunks(n: int, rows: int, row_size: int, budget: int, min_rows: int) -> list:
    """(sample slice, row slice) pairs that cover [N, rows] in whole rows.

    A sample costs ``rows * row_size`` of a per-chunk ``budget``. A chunk is
    as many whole samples as fit in the budget, at least one. A sample that
    does not fit is cut into chunks of as many rows as fit, at least
    ``min_rows``.
    """
    per_sample = rows * row_size
    if per_sample <= budget:
        step = max(1, budget // per_sample)
        return [(slice(i, i + step), slice(None)) for i in range(0, n, step)]
    step = max(min_rows, budget // row_size)
    return [(slice(i, i + 1), slice(r, r + step)) for i in range(n) for r in range(0, rows, step)]


# Scores per attention chunk: 256 KiB of float32, so the softmax passes over
# a chunk run in cache.
_ATTN_CHUNK = 1 << 16
# Fewest rows in a chunk of one sample's rows: below this the products are
# too small, and BLAS repacks all of k for each chunk (a 1024 px image's
# FAAE took 7.3 s in chunks of 4 rows and 1.9 s in chunks of 64).
_ATTN_ROWS = 64


def _attention_probs(q: np.ndarray, kt: np.ndarray, scale: np.ndarray) -> np.ndarray:
    s = np.matmul(q, kt)
    s *= scale
    return _softmax_last_(s)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """Row softmax of ``q @ kᵀ · scale``, times v, without the [B, M, L] score map.

    q: [B, M, d], k: [B, L, d], v: [B, L, dv] -> [B, M, dv]. The forward and
    the backward walk one plan of chunks: whole samples while a sample's map
    fits ``_ATTN_CHUNK`` scores, else rows of one sample. On a chunk the
    forward runs the unfused chain's steps into the output's rows; the
    backward recomputes the chunk's probabilities, writes its rows of dq and
    adds its terms to dk and dv. With whole samples the output and gradients
    equal the chain's bit for bit. With rows, BLAS may round some rows'
    product apart from the whole product's, and dk and dv sum over chunks,
    so they can differ from the chain's in the last bits.
    """
    _check_same_precision("attention", q, k, v)
    qd, kd, vd = q.data, k.data, v.data
    if not (qd.ndim == kd.ndim == vd.ndim == 3
            and qd.shape[0] == kd.shape[0] == vd.shape[0]
            and qd.shape[2] == kd.shape[2] and kd.shape[1] == vd.shape[1]
            and qd.shape[1] > 0 and kd.shape[1] > 0):
        raise ShapeError(f"attention: expected q [B,M,d], k [B,L,d], v [B,L,dv] with M, L >= 1, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    b, m, _ = qd.shape
    l = kd.shape[1]
    kt = kd.transpose(0, 2, 1)
    scale = np.asarray(scale, dtype=qd.dtype)  # as mul's scalar operand
    out = np.empty((b, m, vd.shape[2]), dtype=qd.dtype)
    plan = _chunks(b, m, l, _ATTN_CHUNK, _ATTN_ROWS)
    for n, r in plan:
        np.matmul(_attention_probs(qd[n, r], kt[n], scale), vd[n], out=out[n, r])

    def bw(g):
        dq = np.empty(qd.shape, dtype=qd.dtype)
        dkt = np.zeros((b, kd.shape[2], l), dtype=kd.dtype)
        dv = np.zeros(vd.shape, dtype=vd.dtype)
        for n, r in plan:
            p = _attention_probs(qd[n, r], kt[n], scale)
            dv[n] += p.transpose(0, 2, 1) @ g[n, r]
            ds = g[n, r] @ vd[n].transpose(0, 2, 1)  # gradient of the probabilities
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            np.matmul(ds, kd[n], out=dq[n, r])
            dkt[n] += qd[n, r].transpose(0, 2, 1) @ ds
        # dk as the transposed view transpose's backward hands on
        return dq, dkt.transpose(0, 2, 1), dv

    return _node(out, "attention", (q, k, v), bw)


# -- convolutions ----------------------------------------------------------

# Bytes of window copy per convolution chunk. einsum copies the strided
# windows it contracts into one array, so a forward holds one chunk's copy,
# never the whole input's.
_CONV_CHUNK = 1 << 22


def _channel_major(shape: tuple, dtype) -> np.ndarray:
    """An empty [N, C, ...] array in the layout the convolutions' einsums
    return: C outermost in memory when N > 1, C-ordered when N is 1.

    Later ops keep that layout, and reductions such as batchnorm's sum in
    memory order, so a chunked forward must write into this same layout.
    For N = 1 the element order is the same either way, but einsum returns
    C-ordered strides, and so does this.
    """
    if shape[0] == 1:
        return np.empty(shape, dtype=dtype)
    return np.empty((shape[1], shape[0]) + shape[2:], dtype=dtype).swapaxes(0, 1)


def _conv2d_geometry(op: str, x: np.ndarray, w: np.ndarray, stride: int) -> tuple:
    """(k, s, p, Ho, Wo) for an odd square kernel k padded by p = k // 2 per side."""
    kh, kw = w.shape[-2:]
    if kh != kw or kh % 2 == 0 or min(x.shape[1:] + w.shape) < 1:
        raise ShapeError(f"{op}: expected a non-empty input and a non-empty odd square kernel, "
                         f"got input {x.shape} and kernel {w.shape}")
    return kh, stride, kh // 2, (x.shape[2] - 1) // stride + 1, (x.shape[3] - 1) // stride + 1


def _windows(x: np.ndarray, rows: slice, ho: int, k: int, s: int, p: int) -> np.ndarray:
    """[N, C, rows, Wo, k, k] window view of x [N, C, H, W] for output ``rows``.

    It views a zero-padded copy of only the input rows those outputs read;
    for every row, that copy is the whole padded input. Output row r reads
    input row r * s < H, so every chunk copies at least one row of x.
    """
    n, c, h, w = x.shape
    r0, r1, _ = rows.indices(ho)
    lo = r0 * s - p
    hi = h + p if r1 == ho else (r1 - 1) * s - p + k
    xp = np.zeros((n, c, hi - lo, w + 2 * p), dtype=x.dtype)
    a, b = max(lo, 0), min(hi, h)
    xp[:, :, a - lo:b - lo, p:p + w] = x[:, :, a:b]
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]


def _weight_grad(spec: str, g: np.ndarray, xd: np.ndarray, plan: list, geometry: tuple) -> np.ndarray:
    """The ``spec`` einsum of g with xd's windows, rebuilt chunk by chunk over
    the forward's plan and summed in place from the first chunk's product, not
    from zeros (0.0 + -0.0 is +0.0): a one-chunk plan gives one einsum's bits."""
    (ns, rs), *rest = plan
    dw = np.einsum(spec, g[ns, :, rs], _windows(xd[ns], rs, *geometry), optimize=True)
    for ns, rs in rest:
        dw += np.einsum(spec, g[ns, :, rs], _windows(xd[ns], rs, *geometry), optimize=True)
    return dw


def conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """2D cross-correlation. x: [N,C_in,H,W]; w: [C_out,C_in,k,k], k odd.

    Each side is padded by k // 2: Ho = (H - 1) // stride + 1, so stride 1 keeps the size.

    The forward runs one einsum per chunk of ``_chunks`` (whole samples, or
    output rows of one sample whose windows exceed ``_CONV_CHUNK``) into an
    output laid out as one einsum over the batch lays it out. Each chunk's
    product covers a subset of the output columns. Where every chunk has a
    multiple of 16 columns per channel, the output was bit-equal to one
    einsum's in every case tested, the desk model's training and inference
    on 64 to 1024 px crops among them. Elsewhere BLAS may round a chunk's
    product apart from the whole one in the last bits, as an einsum over
    fewer samples already can. The weight gradient sums one einsum per chunk
    of the same plan, so over several chunks it can differ in the last bits.
    """
    _check_same_precision("conv2d", x, w)
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d: expected [N,C_in,H,W] input and 4D kernel, got {x.shape} and {w.shape}")
    n, ci, h, wd_ = xd.shape
    co, ci_w = wd.shape[:2]
    if ci != ci_w:
        raise ShapeError(f"conv2d: input channels {ci} do not match kernel channels {ci_w}")
    k, s, p, ho, wo = _conv2d_geometry("conv2d", xd, wd, stride)

    out = _channel_major((n, co, ho, wo), xd.dtype)
    plan = _chunks(n, ho, ci * k * k * wo * xd.itemsize, _CONV_CHUNK, 1)
    for ns, rs in plan:
        np.einsum("ncpqij,ocij->nopq", _windows(xd[ns], rs, ho, k, s, p), wd,
                  out=out[ns, :, rs], optimize=True)
    x_grad, w_grad = x.requires_grad, w.requires_grad

    def bw(g):
        dw = _weight_grad("nopq,ncpqij->ocij", g, xd, plan, (ho, k, s, p)) if w_grad else None
        if not x_grad:
            return None, dw
        # Channels-last accumulator: each tap adds rows of C contiguous values.
        # dx is handed on C-ordered: reductions downstream sum in memory
        # order, so a transposed view would change their bits.
        # One [C_out, N*H*W] copy of g serves every tap. einsum on it makes the
        # BLAS call einsum on g made, so dx keeps its bits; a matmul over an
        # [N*H*W, C_out] copy rounds differently on some shapes (tested).
        g_cols = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(co, -1)
        dxp = np.zeros((n, h + 2 * p, wd_ + 2 * p, ci), dtype=xd.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, i:i + s * ho:s, j:j + s * wo:s] += np.einsum(
                    "om,oc->mc", g_cols, wd[:, :, i, j], optimize=True).reshape(n, ho, wo, ci)
        return np.ascontiguousarray(dxp[:, p:p + h, p:p + wd_].transpose(0, 3, 1, 2)), dw

    return _node(out, "conv2d", (x, w), bw)


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Per-channel 2D cross-correlation. x: [N,C,H,W]; w: [C,k,k], k odd.

    Padded and chunked as :func:`conv2d`.
    """
    _check_same_precision("depthwise_conv2d", x, w)
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 3:
        raise ShapeError(
            f"depthwise_conv2d: expected [N,C,H,W] input and [C,kh,kw] kernel, got {x.shape} and {w.shape}")
    n, c, h, wd_ = xd.shape
    if c != wd.shape[0]:
        raise ShapeError(f"depthwise_conv2d: channels {c} do not match kernel channels {wd.shape[0]}")
    k, s, p, ho, wo = _conv2d_geometry("depthwise_conv2d", xd, wd, stride)

    out = _channel_major((n, c, ho, wo), xd.dtype)
    plan = _chunks(n, ho, c * k * k * wo * xd.itemsize, _CONV_CHUNK, 1)
    for ns, rs in plan:
        np.einsum("ncpqij,cij->ncpq", _windows(xd[ns], rs, ho, k, s, p), wd,
                  out=out[ns, :, rs], optimize=True)
    x_grad, w_grad = x.requires_grad, w.requires_grad

    def bw(g):
        dw = _weight_grad("ncpq,ncpqij->cij", g, xd, plan, (ho, k, s, p)) if w_grad else None
        if not x_grad:
            return None, dw
        # Channels-last accumulator, handed on C-ordered, as in conv2d.
        g_last = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
        dxp = np.zeros((n, h + 2 * p, wd_ + 2 * p, c), dtype=xd.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, i:i + s * ho:s, j:j + s * wo:s] += g_last * wd[:, i, j]
        return np.ascontiguousarray(dxp[:, p:p + h, p:p + wd_].transpose(0, 3, 1, 2)), dw

    return _node(out, "depthwise_conv2d", (x, w), bw)


def conv3d(x: Tensor, w: Tensor, stride_d: int = 1) -> Tensor:
    """Depth-only 3D cross-correlation: kernels span the depth axis, spatial extent 1x1.

    x: [N,C_in,D,H,W]; w: [C_out,C_in,kd]. Chunked as :func:`conv2d`, with
    rows along H.
    """
    _check_same_precision("conv3d", x, w)
    wd = w.data
    if wd.ndim != 3:
        raise ShapeError(f"conv3d: expected kernel [C_out,C_in,kd], got {w.shape}")
    xd = x.data
    if xd.ndim != 5:
        raise ShapeError(f"conv3d: expected [N,C_in,D,H,W] input, got {x.shape}")
    n, ci, d, h, wd_sp = xd.shape
    co, ci_w, kd = wd.shape
    if ci != ci_w:
        raise ShapeError(f"conv3d: input channels {ci} do not match kernel channels {ci_w}")
    if min(xd.shape[1:] + wd.shape) < 1:
        raise ShapeError(f"conv3d: expected a non-empty input and kernel, got {x.shape} and {w.shape}")
    if kd > d:
        raise ShapeError(f"conv3d: kernel depth {kd} exceeds input depth {d}")
    do = (d - kd) // stride_d + 1

    def windows(ns, rs):  # [N,C_in,D',H,W,kd], a view
        return sliding_window_view(xd[ns, :, :, rs], kd, axis=2)[:, :, ::stride_d]

    out = _channel_major((n, co, do, h, wd_sp), xd.dtype)
    for ns, rs in _chunks(n, h, ci * do * wd_sp * kd * xd.itemsize, _CONV_CHUNK, 1):
        np.einsum("ncdhwk,ock->nodhw", windows(ns, rs), wd, out=out[ns, :, :, rs], optimize=True)
    x_grad, w_grad = x.requires_grad, w.requires_grad

    def bw(g):
        dwk = None
        if w_grad:
            dwk = np.einsum("nodhw,ncdhwk->ock", g, windows(slice(None), slice(None)), optimize=True)
        if not x_grad:
            return None, dwk
        dxw = np.einsum("nodhw,ock->ncdkhw", g, wd, optimize=True)
        dx = np.zeros_like(xd)
        # Reverse k adds each depth's terms in np.add.at's order (d' rising),
        # so the sums are bit-identical to the scatter this replaces.
        for k in reversed(range(kd)):
            dx[:, :, k:k + stride_d * do:stride_d] += dxw[:, :, :, k]
        return dx, dwk

    return _node(out, "conv3d", (x, w), bw)


# -- batch normalization -----------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              running_mean: np.ndarray, running_var: np.ndarray,
              mode: str = "train") -> Tensor:
    """Per-channel batch normalization over axis 1 of x [N,C,...].

    Train mode normalizes by batch statistics (population variance) and folds
    them into the running statistics with ``BN_MOMENTUM``; its output and
    gradients never read the running statistics. Infer mode normalizes by the
    running statistics. Train mode requires N >= 2.
    """
    if mode not in ("train", "infer"):
        raise UsageError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    if x.ndim < 2 or x.shape[1] < 1 or not gamma.shape == beta.shape == x.shape[1:2]:
        raise ShapeError(f"batchnorm: expected [N,C,...] input with C >= 1 and [C] scale and shift, "
                         f"got {x.shape}, {gamma.shape} and {beta.shape}")
    c = x.shape[1]
    _check_same_precision("batchnorm", x, gamma, beta)
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)
    xd = x.data
    count = xd.size // c

    if mode == "train":
        if x.shape[0] < 2:
            raise ConfigError("batchnorm train mode needs a batch of at least 2")
        mu = xd.mean(axis=axes)
        centered = xd - mu.reshape(bshape)
        # np.var's own sequence (subtract, square, sum, divide) on the
        # centered values, which then become xhat
        var = np.square(centered).sum(axis=axes) / count
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu.astype(running_mean.dtype)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.astype(running_var.dtype)
    else:
        centered = xd - running_mean.astype(xd.dtype).reshape(bshape)
        var = running_var.astype(xd.dtype)

    inv_b = (1.0 / np.sqrt(var + BN_EPS)).reshape(bshape)
    xhat = centered
    xhat *= inv_b  # in place: nothing reads centered again
    # Without a graph nothing reads xhat again either, so it takes the output.
    out = xhat if not _records((x, gamma, beta)) else None
    gd = gamma.data
    out = np.multiply(xhat, gd.reshape(bshape), out=out)
    out += beta.data.reshape(bshape)

    def bw(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        scale = gd.reshape(bshape) * inv_b
        if mode == "infer":
            return g * scale, dgamma, dbeta
        # Closed form (Ioffe & Szegedy 2015, section 3):
        # dx = gamma * inv_sigma * (g - sum(g)/m - xhat * sum(g * xhat)/m)
        dx = xhat * (dgamma / -count).reshape(bshape)
        dx += g
        dx -= (dbeta / count).reshape(bshape)
        dx *= scale
        return dx, dgamma, dbeta

    return _node(out, "batchnorm", (x, gamma, beta), bw)


# -- losses --------------------------------------------------------------


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy computed stably from logits.

    ``targets`` is a constant array of 0/1 values with the same shape.
    """
    y = np.asarray(targets, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: logits {logits.shape} vs targets {y.shape}")
    z = logits.data
    if not np.isfinite(z).all():
        raise NumericError("bce_with_logits received non-finite logits")
    loss = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def bw(g):
        return (g * (_sigmoid_stable(z) - y),)

    return _node(loss, "bce_with_logits", (logits,), bw)


# -- finite-difference checking ----------------------------------------------


def fd_error(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
             picks: Iterable[tuple], h: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    One backward pass of ``loss_fn()`` gives the analytic gradients. Each
    ``(parameter index, flat index)`` pick is then nudged by +h and -h in
    place, the loss re-evaluated without a graph, and the value restored.
    loss_fn must be deterministic and must read ``params`` afresh on each
    call. Returns ``max |a - n| / max(1, |a|, |n|)`` over the picks; a NaN
    term makes the result NaN, so a NaN gradient cannot pass.
    """
    for p in params:
        p.grad = None
    backward(loss_fn())
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    analytic, numeric = [], []
    with no_grad():
        for which, j in picks:
            data = params[which].data
            orig = data.flat[j]
            data.flat[j] = orig + h
            up = loss_fn().item()
            data.flat[j] = orig - h
            down = loss_fn().item()
            data.flat[j] = orig
            analytic.append(grads[which].flat[j])
            numeric.append((up - down) / (2 * h))
    a, n = np.array(analytic), np.array(numeric)
    return float((np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))).max())


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               seed: int = 12345) -> float:
    """``fd_error`` at every element of x, for a fixed projection of f(x).

    The scalar objective is a fixed random projection of f's output, so
    outputs whose plain sum is constant (softmax rows) are still exercised.
    f must be deterministic and must not mutate state it reads.
    """
    if x.dtype != np.float64:
        raise UsageError("grad_check requires double precision input")
    xt = Tensor(x.data.copy(), requires_grad=True)
    with no_grad():
        r = Tensor(np.random.default_rng(seed).standard_normal(f(xt).shape))
    return fd_error(lambda: reduce_sum(mul(f(xt), r)), [xt],
                    [(0, i) for i in range(xt.size)], h)
