"""2-D convolution via im2col.

The convolution is lowered to one large GEMM per batch (the standard
im2col trick), which keeps the hot path inside BLAS instead of Python
loops — the central idiom of the HPC-Python guides.  Data layout is
channels-last ``(batch, height, width, channels)`` like Keras.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ml.initializers import get_initializer
from repro.ml.layers.base import ParamLayer
from repro.util.validation import check_one_of, check_positive


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, int):
        return (v, v)
    a, b = v
    return (int(a), int(b))


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int], pad: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Extract sliding patches of ``x`` as a 2-D matrix.

    Parameters
    ----------
    x:
        Input of shape ``(n, h, w, c)``.
    kh, kw:
        Kernel height/width.
    stride, pad:
        Stride and symmetric zero padding per spatial axis.

    Returns
    -------
    (cols, (oh, ow)):
        ``cols`` has shape ``(n * oh * ow, kh * kw * c)``; ``oh, ow`` are
        the output spatial dims.
    """
    n, h, w, c = x.shape
    sh, sw = stride
    ph, pw = pad
    if ph or pw:
        x = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    hp, wp = x.shape[1], x.shape[2]
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})"
        )
    sn, sh_, sw_, sc = x.strides
    # View of shape (n, oh, ow, kh, kw, c) without copying.
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, oh, ow, kh, kw, c),
        strides=(sn, sh_ * sh, sw_ * sw, sh_, sw_, sc),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows).reshape(n * oh * ow, kh * kw * c)
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: Tuple[int, int],
    pad: Tuple[int, int],
) -> np.ndarray:
    """Scatter-add column gradients back to input layout (inverse of im2col)."""
    n, h, w, c = x_shape
    sh, sw = stride
    ph, pw = pad
    hp, wp = h + 2 * ph, w + 2 * pw
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    grads = cols.reshape(n, oh, ow, kh, kw, c)
    x_grad = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    # Loop over the (small) kernel footprint only; each step is a strided
    # vectorised add over the whole batch.
    for i in range(kh):
        for j in range(kw):
            x_grad[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :] += grads[
                :, :, :, i, j, :
            ]
    if ph or pw:
        x_grad = x_grad[:, ph : ph + h, pw : pw + w, :]
    return x_grad


class Conv2D(ParamLayer):
    """2-D convolution (channels-last).

    Parameters
    ----------
    filters:
        Number of output channels.
    kernel_size:
        int or (kh, kw).
    strides:
        int or (sh, sw).
    padding:
        ``"valid"`` (no padding) or ``"same"`` (output spatial size equals
        ``ceil(input / stride)``).
    """

    def __init__(
        self,
        filters: int,
        kernel_size=3,
        strides=1,
        padding: str = "valid",
        kernel_initializer: str = "he_normal",
        bias_initializer: str = "zeros",
        use_bias: bool = True,
        name: Optional[str] = None,
    ):
        super().__init__(name)
        check_positive("filters", filters)
        check_one_of("padding", padding, ["valid", "same"])
        self.filters = int(filters)
        self.kernel_size = _pair(kernel_size)
        self.strides = _pair(strides)
        self.padding = padding
        self.kernel_initializer = kernel_initializer
        self.bias_initializer = bias_initializer
        self.use_bias = use_bias
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._pad: Tuple[int, int] = (0, 0)

    def _compute_pad(self, h: int, w: int) -> Tuple[int, int]:
        if self.padding == "valid":
            return (0, 0)
        kh, kw = self.kernel_size
        sh, sw = self.strides
        # "same": total pad so that out = ceil(in / stride); we use the
        # symmetric half (sufficient for the odd kernels used here).
        ph = max(0, ((-h) % sh) + kh - sh) // 2 if sh > 1 else (kh - 1) // 2
        pw = max(0, ((-w) % sw) + kw - sw) // 2 if sw > 1 else (kw - 1) // 2
        return (ph, pw)

    def build(self, input_shape: Tuple[int, ...], rng: np.random.Generator) -> None:
        if len(input_shape) != 3:
            raise ValueError(
                f"Conv2D expects (h, w, c) inputs, got shape {input_shape}"
            )
        h, w, c = (int(d) for d in input_shape)
        kh, kw = self.kernel_size
        sh, sw = self.strides
        self._pad = self._compute_pad(h, w)
        ph, pw = self._pad
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        if oh <= 0 or ow <= 0:
            raise ValueError(
                f"Conv2D kernel {self.kernel_size} with strides {self.strides} "
                f"does not fit input {input_shape}"
            )
        kinit = get_initializer(self.kernel_initializer)
        binit = get_initializer(self.bias_initializer)
        params = {"W": kinit((kh, kw, c, self.filters), rng)}
        if self.use_bias:
            params["b"] = binit((self.filters,), rng)
        self._register(params)
        self.input_shape = (h, w, c)
        self.output_shape = (oh, ow, self.filters)
        self.built = True

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        kh, kw = self.kernel_size
        cols, (oh, ow) = im2col(x, kh, kw, self.strides, self._pad)
        w_mat = self._params["W"].reshape(-1, self.filters)
        out = cols @ w_mat
        if self.use_bias:
            out += self._params["b"]
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return out.reshape(x.shape[0], oh, ow, self.filters)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        self._require_built()
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward() before forward(training=True)")
        kh, kw = self.kernel_size
        g = grad_out.reshape(-1, self.filters)
        np.matmul(self._cols.T, g, out=self._grads["W"].reshape(-1, self.filters))
        if self.use_bias:
            g.sum(axis=0, out=self._grads["b"])
        x_shape, self._cols, self._x_shape = self._x_shape, None, None
        if not need_input_grad:
            return None
        cols_grad = g @ self._params["W"].reshape(-1, self.filters).T
        return col2im(cols_grad, x_shape, kh, kw, self.strides, self._pad)
