"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately written as plain nested loops over output
positions, independent of the library's vectorized kernels.
"""

import numpy as np


def oracle_sup_conv(f, offsets, w, stride, out_extent):
    """out(x) = max_y f(K*x - y) + w(y); offsets outside f are skipped."""
    out = np.empty(out_extent)
    for x in np.ndindex(*out_extent):
        best = -np.inf
        for o, y in enumerate(offsets):
            src = tuple(k * xi - yi for xi, k, yi in zip(x, stride, y))
            if all(0 <= s < n for s, n in zip(src, f.shape)):
                best = max(best, f[src] + w[o])
        out[x] = best
    return out


def oracle_sup_conv_grads(f, offsets, w, stride, g):
    """Gradients of ``sum(g * sup_conv(f, w))`` for f and w.

    f may carry leading axes before the offsets' rank.  Each output cell
    sends its g to the source and the weight of its first attaining
    offset; a cell whose window lies wholly outside f sends nothing.
    """
    rank = len(offsets[0])
    df, dw = np.zeros(f.shape), np.zeros(len(offsets))
    for cell in np.ndindex(*g.shape):
        lead, x = cell[:g.ndim - rank], cell[g.ndim - rank:]
        best, winner = -np.inf, None
        for o, y in enumerate(offsets):
            src = tuple(k * xi - yi for xi, k, yi in zip(x, stride, y))
            inside = all(0 <= s < n for s, n in zip(src, f.shape[-rank:]))
            if inside and (winner is None or f[lead + src] + w[o] > best):
                best, winner = f[lead + src] + w[o], (o, lead + src)
        if winner is not None:
            df[winner[1]] += g[cell]
            dw[winner[0]] += g[cell]
    return df, dw


def oracle_pl(x, beta, alpha):
    """Elementwise min_j max_i beta[j,i] * x + alpha[j,i]; beta is [m, n]."""
    m, n = beta.shape
    out = np.empty_like(x)
    for pos in np.ndindex(x.shape):
        rows = [max(beta[j, i] * x[pos] + alpha[j, i] for i in range(n))
                for j in range(m)]
        out[pos] = min(rows)
    return out


def oracle_morpho1(x, beta, alpha, sf_list, stride, out_extent):
    """min_j dilate_pool(max_i affine, b_j) for a single-channel signal."""
    m = beta.shape[0]
    branches = []
    for j in range(m):
        inner = oracle_pl(x, beta[j:j + 1], alpha[j:j + 1])
        branches.append(oracle_sup_conv(inner, sf_list[j].offsets,
                                        sf_list[j].weights.data, stride,
                                        out_extent))
    return np.minimum.reduce(branches)


def oracle_morpho2(x, beta, alpha, sf_list, stride, out_extent):
    """min_i max_j (beta[j,i] * dilate_pool(x, b_i) + alpha[j,i])."""
    m, n = beta.shape
    branches = []
    for i in range(n):
        pooled = oracle_sup_conv(x, sf_list[i].offsets,
                                 sf_list[i].weights.data, stride, out_extent)
        vals = np.empty_like(pooled)
        for pos in np.ndindex(pooled.shape):
            vals[pos] = max(beta[j, i] * pooled[pos] + alpha[j, i]
                            for j in range(m))
        branches.append(vals)
    return np.minimum.reduce(branches)


def oracle_pl_maxmin(pl, x):
    """Nested-loop evaluation of a max-min PL function at one point.

    The inner product is an elementwise multiply plus np.sum so the
    per-component arithmetic matches the library bit for bit; the max-min
    structure is what this oracle checks.
    """
    best = -np.inf
    for fam in pl.families:
        val = min(float((pl.slopes[i] * x).sum() + pl.intercepts[i])
                  for i in fam)
        best = max(best, val)
    return best


def make_random_pl(rng, dim=None):
    """Random max-min PL function: components plus covering families."""
    from morphnn.representation import PLFunction

    d = dim if dim is not None else int(rng.integers(1, 4))
    k = int(rng.integers(1, 7))
    slopes = rng.normal(size=(k, d)) * 2.0
    intercepts = rng.normal(size=k)
    n_fam = int(rng.integers(1, 5))
    fams = []
    for _ in range(n_fam):
        size = int(rng.integers(1, k + 1))
        fams.append(tuple(int(i) for i in
                          rng.choice(k, size=size, replace=False)))
    return PLFunction(slopes, intercepts, tuple(fams))


def synth_classification(rng, n=200, side=10, classes=10, noise=0.08):
    """Separable synthetic image set: one bright block per class + noise.

    Returns uint8 images [n, side, side] and uint8 labels, suitable for the
    IDX writer, so tests can drive the full data pipeline.
    """
    labels = rng.integers(0, classes, size=n)
    images = rng.random(size=(n, side, side)) * noise
    for i, c in enumerate(labels):
        r = (c // 2) * 2
        col = (c % 2) * (side // 2)
        images[i, r:r + 2, col:col + 3] += 0.9
    images = np.clip(images, 0.0, 1.0)
    return (images * 255).astype(np.uint8), labels.astype(np.uint8)


def oracle_conv2d(x, w, b):
    """Direct-loop valid cross-correlation, [B,C,H,W] x [F,C,kh,kw]."""
    bb, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    out = np.zeros((bb, f, oh, ow))
    for n in range(bb):
        for q in range(f):
            for i in range(oh):
                for j in range(ow):
                    out[n, q, i, j] = np.sum(
                        x[n, :, i:i + kh, j:j + kw] * w[q])
            if b is not None:
                out[n, q] += b[q]
    return out
