"""The straightforward conv / pool kernels, kept as test references.

These are the kernels ``repro.layers`` ran before it was rewritten for
speed: loop ``im2col``/``col2im`` around ``einsum``, max-pool backward
through ``argmax`` + ``np.add.at``, pooling forward as a reduction of a
6-D window view.  They are slow and obviously right, which is what a
reference is for; ``test_layer_kernels.py`` holds the shipped kernels
to them.  Unlike the shipped conv, ``conv_backward`` always computes
the full ``dx``.

Every kernel computes in its operands' dtype, so the same kernels over
the operands' absolute values in float64 give each output entry's
``Σ|products|`` (:func:`conv_magnitudes`, :func:`pool_magnitudes`): the
scale of the rounding a float32 sum of those products may carry.
"""

import numpy as np

from repro.tensors.shapes import (
    as_pair,
    conv2d_out_shape,
    pool2d_out_shape,
)


def im2col(x, kh, kw, stride, pad):
    """Unfold NCHW input into (N, C*kh*kw, OH*OW) patch columns."""
    ph, pw = as_pair(pad)
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride,
                                  j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def col2im(cols, x_shape, kh, kw, stride, pad):
    """Fold patch columns back, accumulating overlaps (im2col adjoint)."""
    ph, pw = as_pair(pad)
    n, c, h, w = x_shape
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride,
               j:j + stride * ow:stride] += cols6[:, :, i, j]
    return xp[:, :, ph:ph + h, pw:pw + w]


def conv_forward(x, w, b, stride, pad):
    """``w`` is (K, C, kh, kw); ``b`` is (K, 1, 1, 1) or None."""
    k, _c, kh, kw = w.shape
    cols = im2col(x, kh, kw, stride, pad)
    out = np.einsum("kc,ncp->nkp", w.reshape(k, -1), cols, optimize=True)
    out = out.reshape(conv2d_out_shape(x.shape, k, (kh, kw), stride, pad))
    if b is not None:
        out = out + b.reshape(1, -1, 1, 1)
    return out.astype(x.dtype, copy=False)


def conv_backward(x, w, grad_out, stride, pad):
    """Returns ``(dx, dw, db)`` — always the full ``dx``."""
    k, _c, kh, kw = w.shape
    n = x.shape[0]
    go = grad_out.reshape(n, k, -1)
    cols = im2col(x, kh, kw, stride, pad)
    dw = np.einsum("nkp,ncp->kc", go, cols, optimize=True).reshape(w.shape)
    dcols = np.einsum("kc,nkp->ncp", w.reshape(k, -1), go, optimize=True)
    dx = col2im(dcols, x.shape, kh, kw, stride, pad)
    db = go.sum(axis=(0, 2)).reshape(-1, 1, 1, 1)
    return (dx.astype(x.dtype, copy=False),
            dw.astype(x.dtype, copy=False),
            db.astype(x.dtype, copy=False))


def _pool_padded(x, kernel, stride, pad, oh, ow, fill):
    """Pad so that every ceil-mode window is fully in bounds."""
    _n, _c, h, w = x.shape
    bottom = max(0, (oh - 1) * stride + kernel - (h + pad))
    right = max(0, (ow - 1) * stride + kernel - (w + pad))
    return np.pad(x, ((0, 0), (0, 0), (pad, bottom), (pad, right)),
                  constant_values=fill)


def _pool_windows(xp, kernel, stride, oh, ow):
    """View of shape (N, C, OH, OW, k, k) over the padded input."""
    n, c, _h, _w = xp.shape
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def pool_forward(x, kernel, stride, pad, mode):
    _, _, oh, ow = pool2d_out_shape(x.shape, kernel, stride, pad,
                                    ceil_mode=True)
    fill = -np.inf if mode == "max" else 0.0
    xp = _pool_padded(x, kernel, stride, pad, oh, ow, fill)
    win = _pool_windows(xp, kernel, stride, oh, ow)
    out = win.max(axis=(4, 5)) if mode == "max" else win.mean(axis=(4, 5))
    return out.astype(x.dtype, copy=False)


def pool_backward(x, grad_out, kernel, stride, pad, mode):
    n, c, h, w = x.shape
    _, _, oh, ow = grad_out.shape
    k, s = kernel, stride
    if mode == "max":
        xp = _pool_padded(x, k, s, pad, oh, ow, -np.inf)
        dxp = np.zeros_like(xp, dtype=grad_out.dtype)
        win = _pool_windows(xp, k, s, oh, ow).reshape(n, c, oh, ow, k * k)
        ki, kj = np.unravel_index(win.argmax(axis=4), (k, k))
        rows = (np.arange(oh)[None, None, :, None] * s + ki).ravel()
        cols = (np.arange(ow)[None, None, None, :] * s + kj).ravel()
        ni = np.repeat(np.arange(n), c * oh * ow)
        ci = np.tile(np.repeat(np.arange(c), oh * ow), n)
        np.add.at(dxp, (ni, ci, rows, cols), grad_out.ravel())
    else:
        xp = _pool_padded(x, k, s, pad, oh, ow, 0.0)
        dxp = np.zeros(xp.shape, dtype=grad_out.dtype)
        g = grad_out / (k * k)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += g
    return np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + w])


def _abs64(a):
    return None if a is None else np.abs(a).astype(np.float64)


def conv_magnitudes(x, w, b, grad_out, stride, pad):
    """``Σ|products|`` of every entry of :func:`conv_forward`'s output
    and :func:`conv_backward`'s ``(dx, dw, db)``, in float64:
    ``(out, dx, dw, db)``."""
    out = conv_forward(_abs64(x), _abs64(w), _abs64(b), stride, pad)
    return (out,) + conv_backward(_abs64(x), _abs64(w), _abs64(grad_out),
                                  stride, pad)


def pool_magnitudes(x, grad_out, kernel, stride, pad, mode):
    """``Σ|products|`` of every entry of the output (average pooling;
    a max pool's output is a selection, not a sum: None) and of ``dx``
    (its windows' ``dy`` routed or spread as :func:`pool_backward`
    does), in float64: ``(out, dx)``."""
    out = pool_forward(_abs64(x), kernel, stride, pad, mode) \
        if mode == "avg" else None
    return out, pool_backward(x, _abs64(grad_out), kernel, stride, pad,
                              mode)
