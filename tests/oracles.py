"""Independent reference implementations used to verify the library.

Everything here is deliberately naive (explicit loops, two-pass compensated
summation, hardcoded tables, whole-array numpy subtraction in
``differential_maps``) and shares no code with the package internals.
The one exception is ``high_band_energy``, a test measure of the synthetic
data computed over the shipped ``restructure``.
"""

import math

import numpy as np

from sfcl.frequency import restructure

# Canonical JPEG zigzag traversal as flat indices (row*8 + col), transcribed
# from the JPEG specification's table rather than generated.
ZIGZAG_FLAT_TABLE = [
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
]


def matmul_triple_loop(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_six_loops(x, w, stride=(1, 1), pad=(0, 0)):
    ci, h, wd = x.shape
    co, ci2, kh, kw = w.shape
    assert ci == ci2
    sh, sw = stride
    ph, pw = pad
    xp = np.zeros((ci, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for p in range(ho):
            for q in range(wo):
                acc = 0.0
                for c in range(ci):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[o, c, i, j] * xp[c, p * sh + i, q * sw + j]
                out[o, p, q] = acc
    return out


def conv3d_depth_loops(x, w, stride_d=1):
    ci, d, h, wd = x.shape
    co, ci2, kd = w.shape
    assert ci == ci2
    do = (d - kd) // stride_d + 1
    out = np.zeros((co, do, h, wd))
    for o in range(co):
        for t in range(do):
            for c in range(ci):
                for k in range(kd):
                    out[o, t] += w[o, c, k] * x[c, t * stride_d + k]
    return out


def depthwise_conv2d_loops(x, w, stride=(1, 1), pad=(0, 0)):
    c, h, wd = x.shape
    c2, kh, kw = w.shape
    assert c == c2
    sh, sw = stride
    ph, pw = pad
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((c, ho, wo))
    for ch in range(c):
        for p in range(ho):
            for q in range(wo):
                acc = 0.0
                for i in range(kh):
                    for j in range(kw):
                        acc += w[ch, i, j] * xp[ch, p * sh + i, q * sw + j]
                out[ch, p, q] = acc
    return out


def softmax_rows_mp(x, dps=50):
    """Row softmax in arbitrary precision (mpmath)."""
    import mpmath

    with mpmath.workdps(dps):
        out = np.zeros_like(np.asarray(x, dtype=np.float64))
        for i, row in enumerate(x):
            exps = [mpmath.e ** mpmath.mpf(float(v)) for v in row]
            total = mpmath.fsum(exps)
            out[i] = [float(e / total) for e in exps]
    return out


# _COS[u][x] = cos((2x + 1) u pi / 16): the 8-point DCT-II basis, in floats
_COS = [[math.cos((2 * x + 1) * u * math.pi / 16) for x in range(8)] for u in range(8)]


def dct8_double_sum(block, level_shift=True):
    """O(64^2) textbook orthonormal 2D DCT-II of one 8x8 block."""
    b = np.asarray(block, dtype=np.float64)
    if level_shift:
        b = b - 128.0
    rows = b.tolist()
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            su = math.sqrt(1.0 / 8) if u == 0 else math.sqrt(2.0 / 8)
            sv = math.sqrt(1.0 / 8) if v == 0 else math.sqrt(2.0 / 8)
            acc = 0.0
            for x in range(8):
                cu = _COS[u][x]
                for y in range(8):
                    acc += rows[x][y] * cu * _COS[v][y]
            out[u, v] = su * sv * acc
    return out


def two_pass_moments(values):
    """mean/std/skew/kurt of |values| via compensated two-pass summation."""
    a = [abs(float(v)) for v in np.asarray(values).reshape(-1)]
    n = len(a)
    mean = math.fsum(a) / n
    m2 = math.fsum((v - mean) ** 2 for v in a) / n
    m3 = math.fsum((v - mean) ** 3 for v in a) / n
    m4 = math.fsum((v - mean) ** 4 for v in a) / n
    std = math.sqrt(m2)
    if std < 1e-12:
        return mean, std, 0.0, 0.0
    return mean, std, m3 / std ** 3, m4 / std ** 4


def differential_maps(spectra):
    """Whole row, column and band-axis difference maps of [C, 64, rows, cols]
    spectra; the band map's band 63 is zero padding."""
    intra = np.zeros_like(spectra)
    intra[:, :63] = spectra[:, 1:] - spectra[:, :-1]
    return {"row": spectra[:, :, 1:, :] - spectra[:, :, :-1, :],
            "col": spectra[:, :, :, 1:] - spectra[:, :, :, :-1],
            "intra": intra}


def sida_pipeline_loops(pixels_rgb):
    """Full descriptor recomputation: scalar color transform, double-sum DCT,
    table zigzag, loop differentials, two-pass moments."""
    px = np.asarray(pixels_rgb, dtype=np.float64)
    _, h, w = px.shape
    gh, gw = h // 8 * 8, w // 8 * 8
    px = px[:, :gh, :gw]

    ycc = np.zeros_like(px)
    for i in range(gh):
        for j in range(gw):
            r, g, b = px[0, i, j], px[1, i, j], px[2, i, j]
            y = 0.299 * r + 0.587 * g + 0.114 * b
            cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
            cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
            ycc[:, i, j] = [min(max(y, 0.0), 255.0),
                            min(max(cb, 0.0), 255.0),
                            min(max(cr, 0.0), 255.0)]

    br, bc = gh // 8, gw // 8
    spectra = np.zeros((3, 64, br, bc))
    for ch in range(3):
        for bi in range(br):
            for bj in range(bc):
                coeffs = dct8_double_sum(ycc[ch, bi * 8:bi * 8 + 8, bj * 8:bj * 8 + 8])
                flat = coeffs.reshape(64)
                for band in range(64):
                    spectra[ch, band, bi, bj] = flat[ZIGZAG_FLAT_TABLE[band]]

    maps = differential_maps(spectra)
    descriptor = []
    for stat_index in range(4):
        for mode in ("row", "col", "intra"):
            for ch in range(3):
                for band in range(64):
                    stats = two_pass_moments(maps[mode][ch, band])
                    descriptor.append(stats[stat_index])
    return np.array(descriptor)


def auc_pairwise(scores, labels):
    """Plain pairwise Mann-Whitney: concordant + half ties over P*N."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def adam_scalar_oracle(theta0, grads, lr, weight_decay, beta1=0.9, beta2=0.999,
                       eps=1e-8):
    """Hand-rolled scalar Adam trajectory, one value per supplied gradient."""
    theta = float(theta0)
    m = v = 0.0
    history = []
    for t, grad in enumerate(grads, start=1):
        g = grad + weight_decay * theta
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(theta)
    return history


def high_band_energy(img, first_band=33):
    """Mean squared Y-channel coefficient magnitude over bands >= first_band."""
    spectra = restructure(img)
    return float((spectra.coefficients[0, first_band:] ** 2).mean())
