"""Independent brute-force oracles shared by the test modules.

Everything here is written with plain loops and scalar arithmetic on
purpose; none of it goes through the vectorized paths it is used to check.
"""

import math

import numpy as np

from incepformer.modules import InitCtx


def make_init(seed=0, dtype="f64"):
    np_dtype = np.dtype(np.float64 if dtype == "f64" else np.float32)
    return InitCtx(rng=np.random.default_rng(seed), dtype=np_dtype)


def int_valued(rng, shape):
    """Random float tensors whose values (and small sums of products) are
    exactly representable, so results are order-independent bit for bit."""
    return rng.integers(-3, 4, shape).astype(np.float64)


def conv2d_loops(x, w, b, stride, padding, groups):
    """Six-nested-loop cross-correlation oracle."""
    n, cin, h, wid = x.shape
    cout, cg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wid + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo))
    cout_g = cout // groups
    for ni in range(n):
        for oc in range(cout):
            g = oc // cout_g
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ic in range(cg):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[ni, g * cg + ic, oy * sh + u, ox * sw + v]
                                    * w[oc, ic, u, v]
                                )
                    out[ni, oc, oy, ox] = acc
            out[ni, oc] += b[oc]
    return out


def avg_pool_loops(x, k):
    """Scalar-loop mean over non-overlapping k x k windows."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // k, w // k))
    for ni in range(n):
        for ci in range(c):
            for oy in range(h // k):
                for ox in range(w // k):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            acc += x[ni, ci, oy * k + u, ox * k + v]
                    out[ni, ci, oy, ox] = acc / (k * k)
    return out


def bilinear_pixel_oracle(x, oh, ow, align_corners):
    """Scalar per-pixel interpolation: four taps per output pixel."""
    h, w = x.shape
    out = np.zeros((oh, ow))
    for p in range(oh):
        for q in range(ow):
            if align_corners:
                sy = p * (h - 1) / (oh - 1) if oh > 1 else 0.0
                sx = q * (w - 1) / (ow - 1) if ow > 1 else 0.0
            else:
                sy = min(max((p + 0.5) * h / oh - 0.5, 0.0), h - 1)
                sx = min(max((q + 0.5) * w / ow - 0.5, 0.0), w - 1)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[p, q] = (
                x[y0, x0] * (1 - fy) * (1 - fx)
                + x[y0, x1] * (1 - fy) * fx
                + x[y1, x0] * fy * (1 - fx)
                + x[y1, x1] * fy * fx
            )
    return out


def attention_loop_oracle(q_tok, kv_tok, attn):
    """Scalar per-element attention: exp/normalize/weighted-sum plus the
    projections, computed with python loops."""
    n, l, c = q_tok.shape
    lk = kv_tok.shape[1]
    hd = attn.heads
    dk = attn.head_dim
    wq, wk, wv, wo = (t.data for t in (attn.wq, attn.wk, attn.wv, attn.wo))
    bq, bk, bv, bo = (t.data for t in (attn.bq, attn.bk, attn.bv, attn.bo))
    out = np.zeros((n, l, c))
    for ni in range(n):
        q = q_tok[ni] @ wq + bq
        k = kv_tok[ni] @ wk + bk
        v = kv_tok[ni] @ wv + bv
        ctx = np.zeros((l, c))
        for h in range(hd):
            sl = slice(h * dk, (h + 1) * dk)
            for i in range(l):
                scores = np.array([float(q[i, sl] @ k[j, sl]) / math.sqrt(dk) for j in range(lk)])
                e = np.exp(scores - scores.max())
                wgt = e / e.sum()
                for j in range(lk):
                    ctx[i, sl] += wgt[j] * v[j, sl]
        out[ni] = ctx @ wo + bo
    return out


def naive_miou(gt_list, pred_list, n_cls, ignore_index):
    """Per-pixel double-loop confusion and IoU."""
    tp = [0] * n_cls
    fp = [0] * n_cls
    fn = [0] * n_cls
    for gt, pred in zip(gt_list, pred_list):
        h, w = gt.shape
        for y in range(h):
            for x in range(w):
                g, p = int(gt[y, x]), int(pred[y, x])
                if g == ignore_index:
                    continue
                if g == p:
                    tp[g] += 1
                else:
                    fp[p] += 1
                    fn[g] += 1
    ious = []
    for c in range(n_cls):
        union = tp[c] + fp[c] + fn[c]
        if union:
            ious.append(tp[c] / union)
    return sum(ious) / len(ious)
