"""Dense tensors with reverse-mode automatic differentiation on numpy arrays.

Define-by-run: every operation records its parents and a backward closure,
and ``Tensor.backward()`` on a scalar loss walks the tape once in reverse
topological order. Storage defaults to float32; wrap model construction and
forward passes in ``use_dtype(np.float64)`` when checking gradients.

Only the operations the model actually needs are implemented: elementwise
arithmetic with numpy-style broadcasting, matmul and transpose over the last
two axes (leading batch axes broadcast), concat, numpy indexing (the
backward is one scatter-add, or one assignment under a boolean mask),
softmax, SiLU, GeLU, sum, a fused mean cross-entropy and an arena's L2
value. Inside ``no_grad()`` nothing is recorded. Ops check no values:
``train`` and ``load`` catch non-finite ones.

An ``Arena`` holds leaves (parameters) as views of one flat array; once its
``grad_flat()`` exists, a leaf's gradient lives in its slice of that array:
``zero_grads`` sets ``grad`` to None, the next backward writes the first
contribution into the slice (a product with ``out=``, a scatter into the
zeroed slice) and adds later ones in place. A caller that keeps a gradient
past the next backward copies it. Only this module touches the slices.
``keep_heap`` sets the process's heap policy, so arrays freed and made again
at every step or request keep their pages.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

_DTYPE = np.float32
_GRAD_ENABLED = True
# Elements per block for passes that stream over a whole arena (Adam, the
# L2 value): a few float32 blocks fit in a core's L2 cache.
BLOCK = 1 << 15


@contextmanager
def use_dtype(dtype):
    """Temporarily switch the storage dtype for newly created tensors."""
    global _DTYPE
    old = _DTYPE
    _DTYPE = np.dtype(dtype)
    try:
        yield
    finally:
        _DTYPE = old


@contextmanager
def no_grad():
    """Record no graph, so inference frees each intermediate once it is dead."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_buf")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._grad_buf = None

    # -- graph plumbing -------------------------------------------------

    @staticmethod
    def _result(data, parents):
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out._parents = parents if out.requires_grad else ()
        out._backward = None
        out._grad_buf = None
        return out

    def _first_grad_buffer(self):
        """The arena slice a leaf's first gradient of a step goes into, now its ``grad``, for the
        caller to fill; None when this has no slice or already has its gradient for the step."""
        if self.grad is not None or self._grad_buf is None:
            return None
        self.grad = self._grad_buf
        return self.grad

    def _accum(self, g):
        # ``g`` may be another node's gradient or a read-only broadcast view,
        # so it is never updated in place. A leaf with an arena slice copies
        # the first ``g`` of a step into it and adds later ones in place, so a
        # (D, |V|) gradient is not allocated and page-faulted in every step;
        # any other tensor keeps its first ``g`` as is.
        g = np.asarray(g, dtype=self.data.dtype)
        buf = self._first_grad_buffer()
        if buf is not None:
            np.copyto(buf, g)
        elif self.grad is None:
            self.grad = g
        elif self.grad is self._grad_buf:
            self.grad += g
        else:
            self.grad = self.grad + g

    def _accum_matmul(self, x, y):
        """``_accum(x @ y)``, with a leaf's first gradient written straight into its buffer."""
        buf = self._first_grad_buffer()
        if buf is None:
            self._accum(x @ y)
        else:
            np.matmul(x, y, out=buf)

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def backward(self):
        """Populate ``grad`` on every requires_grad leaf reachable from this scalar; an interior
        node's gradient is dropped as soon as its closure has passed it on."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic -----------------------------------------------------
    # A backward closure gets its output's gradient as ``g`` and never refers
    # to the output itself, so graphs hold no cycles and refcounting frees them.

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor._result(self.data + other.data, (self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g, other.data.shape))
            out._backward = bw
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor._result(self.data * other.data, (self, other))
        if out.requires_grad:
            def bw(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
            out._backward = bw
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Matrix product over the last two axes, leading axes broadcast."""
        out = Tensor._result(self.data @ other.data, (self, other))
        if out.requires_grad:
            def bw(g):
                a, b = self.data, other.data
                if self.requires_grad:
                    self._accum(_unbroadcast(g @ b.swapaxes(-1, -2), a.shape))
                if other.requires_grad and b.ndim == 2:
                    # One GEMM over all leading axes of ``a``: no stack of per-row products.
                    other._accum_matmul(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))
                elif other.requires_grad:
                    other._accum(_unbroadcast(a.swapaxes(-1, -2) @ g, b.shape))
            out._backward = bw
        return out

    def transpose(self):
        """Swap the last two axes."""
        out = Tensor._result(self.data.swapaxes(-1, -2), (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g.swapaxes(-1, -2))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def bw(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accum(np.broadcast_to(g, self.data.shape))
            out._backward = bw
        return out

    def __getitem__(self, key):
        """Numpy indexing; the backward scatter-adds, so repeated rows accumulate. A boolean
        mask selects each element once, so its backward assigns instead."""
        out = Tensor._result(self.data[key], (self,))
        if out.requires_grad:
            masked = isinstance(key, np.ndarray) and key.dtype == bool
            def bw(g):
                # A leaf's first gradient is scattered into its own zeroed arena slice.
                buf = self._first_grad_buffer()
                first = buf is not None
                if first:
                    buf.fill(0)
                else:
                    buf = np.zeros_like(self.data)
                if masked:
                    buf[key] = g
                else:
                    np.add.at(buf, key, g)
                if not first:
                    self._accum(buf)
            out._backward = bw
        return out

    # -- nonlinearities -------------------------------------------------

    def silu(self):
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor._result(self.data * sig, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(g * sig * (1.0 + self.data * (1.0 - sig)))
        return out

    def gelu(self):
        """x * Phi(x) with the exact erf formulation."""
        x = self.data
        # Python-float constants: a numpy float64 scalar would promote
        # float32 storage to float64.
        cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        out = Tensor._result(x * cdf, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(
                g * (cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)))
        return out

    def softmax(self, axis=-1):
        """Numerically stabilised softmax."""
        logits = self.data
        shifted = logits - logits.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)
        out = Tensor._result(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: self._accum(y * (g - (g * y).sum(axis=axis, keepdims=True)))
        return out

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def cross_entropy(logits, targets):
    """Mean over rows of ``-log softmax(logits)[row, target]``: logits (B, C), int targets (B,).

    One node with one (B, C) working array: the forward overwrites it with
    ``exp(logits - row max)`` and the backward with ``(softmax - onehot) * g / B``. When
    ``logits`` is the output of a recorded op, that array is ``logits.data`` itself, so the node
    allocates none: the caller then drops ``logits`` and makes it with an op whose backward does
    not read its own output (a matmul or a sum does not; a softmax does). A leaf's or a
    constant's data is copied.
    """
    x = logits.data if logits._parents else logits.data.copy()
    targets = np.asarray(targets, dtype=np.int64)
    if x.ndim != 2 or targets.shape != x.shape[:1]:
        raise ValueError(f"cross_entropy: logits {x.shape} and targets {targets.shape} misaligned")
    rows = np.arange(len(targets))
    np.subtract(x, x.max(axis=-1, keepdims=True), out=x)
    picked = x[rows, targets]
    np.exp(x, out=x)
    s = x.sum(axis=-1)
    out = Tensor._result(np.asarray(np.mean(np.log(s) - picked), dtype=x.dtype), (logits,))
    if out.requires_grad:
        def bw(g):
            np.divide(x, s[:, None], out=x)
            x[rows, targets] -= 1.0
            np.multiply(x, g / len(rows), out=x)
            logits._accum(x)
        out._backward = bw
    return out


def concat(tensors, axis=0):
    """Concatenate tensors; the backward pass splits gradients exactly."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        def bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    idx = [slice(None)] * g.ndim
                    idx[axis] = slice(lo, hi)
                    t._accum(g[tuple(idx)])
        out._backward = bw
    return out


class Arena(dict):
    """Named leaf tensors, zero at first, each a view of one flat array ``flat`` in ``shapes``' order.

    ``grad_flat()`` makes, once, a gradient array of the same layout; its slices are the leaves'
    gradient buffers from then on."""

    def __init__(self, shapes):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes), _DTYPE)
        self._grad, self._cuts = None, np.cumsum(sizes[:-1])
        for (name, shape), part in zip(shapes.items(), np.split(self.flat, self._cuts)):
            self[name] = Tensor(part.reshape(shape), requires_grad=True)

    def grad_flat(self):
        """The gradient arena; a gradient held outside its slice is copied in first."""
        if self._grad is None:
            self._grad = np.zeros_like(self.flat)
            for p, part in zip(self.values(), np.split(self._grad, self._cuts)):
                p._grad_buf = part.reshape(p.shape)
        for p in self.values():
            if p.grad is not None and p.grad is not p._grad_buf:
                np.copyto(p._grad_buf, p.grad)
        return self._grad

    def first_nonfinite(self):
        """The name of the first leaf, in layout order, holding a non-finite value, or None;
        checked BLOCK elements at a time, so no arena-sized temporary is made."""
        for lo in range(0, self.flat.size, BLOCK):
            finite = np.isfinite(self.flat[lo:lo + BLOCK])
            if not finite.all():
                return list(self)[np.searchsorted(self._cuts, lo + np.argmin(finite), "right")]
        return None


def l2_penalty(params):
    """Sum of squared values over the ``Arena`` ``params``, as one graph node; summed in float64
    over dot products of BLOCK-sized slices of the arena, so no squared copy is built.

    The backward adds ``2 g p`` to each gradient: into a leaf's arena slice when it is the first
    contribution, else BLOCK by BLOCK through one scratch array, with the operations of
    ``grad += 2.0 * g * p``, so the gradients are the same to the bit."""
    flat, tensors = params.flat, tuple(params.values())
    total = 0.0
    for lo in range(0, flat.size, BLOCK):
        total += float(np.vdot(flat[lo:lo + BLOCK], flat[lo:lo + BLOCK]))
    out = Tensor._result(np.asarray(total, dtype=flat.dtype), tensors)
    if out.requires_grad:
        def bw(g):
            c = 2.0 * g
            scratch = np.empty(min(flat.size, BLOCK), flat.dtype)
            for p in tensors:
                if not p.requires_grad:
                    continue
                buf = p._first_grad_buffer()
                if buf is not None:
                    np.multiply(c, p.data, out=buf)
                elif p.grad is None or p.grad is not p._grad_buf:  # not in its arena slice
                    p._accum(c * p.data)
                else:
                    x, acc = p.data.reshape(-1), p.grad.reshape(-1)
                    for lo in range(0, x.size, BLOCK):
                        xs, gs = x[lo:lo + BLOCK], acc[lo:lo + BLOCK]
                        s = scratch[:xs.size]
                        np.multiply(c, xs, out=s)
                        np.add(gs, s, out=gs)
        out._backward = bw
    return out


def keep_heap():
    """Keep freed memory in this process's heap for its lifetime, through glibc's ``mallopt``.

    A training step frees its graph (hundreds of KB to a few MB of arrays) and the next step
    allocates the same sizes again; a served request frees its forward's temporaries (0.5-1 MB
    of 100-200 KB arrays at T=200) and the next request allocates them again. With glibc's
    default dynamic thresholds the heap returns the freed pages to the kernel and the next step
    or request faults them back in: thousands of faults a training step, hundreds a request.
    ``train`` and ``SequentialRecommender.load`` call this, so a process that trains or serves
    keeps the policy from then on. Both thresholds are set: fixing only the trim threshold also
    freezes the mmap threshold where it is (128 KiB at the start), so every larger array is
    mapped and unmapped each time.
    Without glibc's ``mallopt`` this does nothing.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD: the heap keeps up to 1 GiB of freed memory


def zero_grads(params):
    for p in params.values() if isinstance(params, dict) else params:
        p.grad = None


def finite_diff_check(forward_fn, params, eps=1e-4, n_samples=5, seed=0):
    """Compare analytic gradients to central finite differences.

    ``forward_fn`` rebuilds the loss graph from the current parameter values
    on every call. For each parameter tensor a random coordinate sample is
    perturbed by +-eps and the relative error against the analytic gradient
    is reported. Purely informational; thresholds live in the tests.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    zero_grads(params)
    loss = forward_fn()
    loss.backward()
    analytic = {name: (np.array(p.grad, copy=True) if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    rng = np.random.default_rng(seed)
    report = {}
    for name, p in params.items():
        n = p.data.size
        coords = rng.choice(n, size=min(n_samples, n), replace=False)
        worst = 0.0
        for c in coords:
            orig = p.data.flat[c]
            p.data.flat[c] = orig + eps
            f_plus = forward_fn().item()
            p.data.flat[c] = orig - eps
            f_minus = forward_fn().item()
            p.data.flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[name].flat[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        report[name] = worst
    return report
