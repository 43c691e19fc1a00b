"""Brute-force reference implementations shared by the test modules.

Everything here is deliberately written as plain nested loops over output
positions, independent of the library's vectorized kernels.
"""

from functools import reduce

import numpy as np


def oracle_sup_conv(f, offsets, w, stride, out_extent):
    """out(x) = max_y f(K*x - y) + w(y); offsets outside f are skipped.
    The max is ``np.maximum``'s, so a NaN in the window makes the cell NaN."""
    out = np.empty(out_extent)
    for x in np.ndindex(*out_extent):
        best = -np.inf
        for o, y in enumerate(offsets):
            src = tuple(k * xi - yi for xi, k, yi in zip(x, stride, y))
            if all(0 <= s < n for s, n in zip(src, f.shape)):
                best = np.maximum(best, f[src] + w[o])
        out[x] = best
    return out


def oracle_sup_conv_grads(f, offsets, w, stride, g):
    """Gradients of ``sum(g * sup_conv(f, w))`` for f and w.

    f may carry leading axes before the offsets' rank.  Each output cell
    sends its g to the source and the weight of its winner: the first
    offset whose candidate beats every earlier one strictly, starting from
    -inf, the lattice bottom, as ``np.maximum`` folds the value.  The
    dead-cell rule of ``oracle_layer_grads``: a cell sends nothing where
    its value is NaN or it has no winner (a window wholly outside f, or
    one whose every candidate is -inf).
    """
    rank = len(offsets[0])
    df, dw = np.zeros(f.shape), np.zeros(len(offsets))
    for cell in np.ndindex(*g.shape):
        lead, x = cell[:g.ndim - rank], cell[g.ndim - rank:]
        best, winner = -np.inf, None
        for o, y in enumerate(offsets):
            src = tuple(k * xi - yi for xi, k, yi in zip(x, stride, y))
            if all(0 <= s < n for s, n in zip(src, f.shape[-rank:])):
                cand = f[lead + src] + w[o]
                if cand > best:
                    winner = (o, lead + src)
                best = np.maximum(best, cand)
        if winner is not None and not np.isnan(best):
            df[winner[1]] += g[cell]
            dw[winner[0]] += g[cell]
    return df, dw


def chain_conv1(x, w, b=None):
    """``train.conv_feed`` as the unfused graph node ``conv2d`` once was for
    one input channel: x's whole im2col kept between the passes, and one
    GEMM each for the output ``wmat @ cols``, the w gradient
    ``gmat @ cols.T`` and the x gradient ``wmat.T @ gmat``, whose taps are
    added in (i, j) order.  The output and the x gradient are
    channel-major."""
    from morphnn import autodiff as ad

    bsz, c, h, wd = x.data.shape
    f, _, kh, kw = w.data.shape
    oh, ow = h - kh + 1, wd - kw + 1
    cols = np.empty((c, kh, kw, bsz, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x.data[:, :, i:i + oh, j:j + ow].transpose(
                1, 0, 2, 3)
    cols = cols.reshape(c * kh * kw, -1)
    wmat = w.data.reshape(f, -1)
    out = (wmat @ cols).reshape(f, bsz, oh, ow).transpose(1, 0, 2, 3)
    if b is not None:
        out += b.data.reshape(1, f, 1, 1)

    def back_x(g):
        gmat = g.transpose(1, 0, 2, 3).reshape(f, -1)
        d6 = (wmat.T @ gmat).reshape(c, kh, kw, bsz, oh, ow)
        dx = np.zeros((c, bsz, h, wd))
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + oh, j:j + ow] += d6[:, i, j]
        return dx.transpose(1, 0, 2, 3)

    parents = [(w, lambda g: (g.transpose(1, 0, 2, 3).reshape(f, -1)
                              @ cols.T).reshape(w.data.shape)),
               (x, back_x)]
    if b is not None:
        parents.append((b, lambda g: np.ascontiguousarray(
            g.sum(axis=(2, 3))).sum(axis=0)))
    return ad.make_node(out, parents)


def chain_act_pool(f, pool, alpha=0.0, cap=None):
    """``act_pool`` as the chain of graph nodes it replaced: rectify (and
    clamp) every input at full resolution, then max-pool."""
    from morphnn import autodiff as ad
    from morphnn import morphops as mo

    r = mo.relu(ad.add(f, alpha))
    if cap is not None:
        r = ad.minimum(r, cap)
    return mo.max_pool(r, pool)


def chain_selfdual_pool(f, pool):
    """``selfdual_pool`` as the chain it replaced: max-pool the rectified
    positive and negative parts."""
    from morphnn import autodiff as ad
    from morphnn import morphops as mo

    f = ad.lift(f)
    return ad.sub(mo.max_pool(mo.relu(f), pool),
                  mo.max_pool(mo.relu(ad.neg(f)), pool))


def chain_posneg_pool_param(f, pool, beta_pos, beta_neg):
    """``posneg_pool_param`` with its max half as the chain it replaced."""
    from morphnn import autodiff as ad
    from morphnn import morphops as mo

    f = ad.lift(f)
    return ad.add(mo.max_pool(mo.relu(ad.mul(f, beta_neg)), pool),
                  mo.min_pool(ad.minimum(ad.mul(f, beta_pos), 0.0), pool))


def oracle_pl(x, beta, alpha):
    """Elementwise min_j max_i beta[j,i] * x + alpha[j,i]; beta is [m, n].
    The max and min fold ``np.maximum`` and ``np.minimum`` in index order,
    so NaN propagates."""
    m, n = beta.shape
    out = np.empty_like(x)
    for pos in np.ndindex(x.shape):
        rows = [reduce(np.maximum, [beta[j, i] * x[pos] + alpha[j, i]
                                    for i in range(n)]) for j in range(m)]
        out[pos] = reduce(np.minimum, rows)
    return out


def oracle_pl_grads(x, beta, alpha, g, channel_axis=None):
    """Gradients of ``sum(g * pl_activation(x))``: (dx, dbeta, dalpha).

    ``beta`` and ``alpha`` are [m, n], or [c, m, n] with the channel read
    from ``channel_axis`` of x.  Each element picks its winner by the
    lowest-(j, i) rule (the first maximising i in each row, then the first
    minimising row j) and adds g * beta to dx, g * x to dbeta and g to
    dalpha there.
    """
    dx = np.zeros(x.shape)
    dbeta, dalpha = np.zeros(beta.shape), np.zeros(beta.shape)
    m, n = beta.shape[-2:]
    for pos in np.ndindex(x.shape):
        c = () if beta.ndim == 2 else (pos[channel_axis],)
        best = None  # (value, j, i)
        for j in range(m):
            row = None  # (value, i)
            for i in range(n):
                v = beta[c + (j, i)] * x[pos] + alpha[c + (j, i)]
                if row is None or v > row[0]:
                    row = (v, i)
            if best is None or row[0] < best[0]:
                best = (row[0], j, row[1])
        cell = c + best[1:]
        dx[pos] += g[pos] * beta[cell]
        dbeta[cell] += g[pos] * x[pos]
        dalpha[cell] += g[pos]
    return dx, dbeta, dalpha


def oracle_morpho1(x, beta, alpha, sf_list, stride, out_extent):
    """min_j dilate_pool(max_i affine, b_j) for a single-channel signal."""
    m = beta.shape[0]
    branches = []
    for j in range(m):
        inner = oracle_pl(x, beta[j:j + 1], alpha[j:j + 1])
        branches.append(oracle_sup_conv(inner, sf_list[j].offsets,
                                        sf_list[j].weights.data, stride,
                                        out_extent))
    return reduce(np.minimum, branches)


def oracle_morpho2(x, beta, alpha, sf_list, stride, out_extent):
    """min_i max_j (beta[j,i] * dilate_pool(x, b_i) + alpha[j,i])."""
    m, n = beta.shape
    branches = []
    for i in range(n):
        pooled = oracle_sup_conv(x, sf_list[i].offsets,
                                 sf_list[i].weights.data, stride, out_extent)
        vals = np.empty_like(pooled)
        for pos in np.ndindex(pooled.shape):
            vals[pos] = reduce(np.maximum, [beta[j, i] * pooled[pos]
                                            + alpha[j, i] for j in range(m)])
        branches.append(vals)
    return reduce(np.minimum, branches)


def oracle_layer_grads(x, beta, alpha, sf_list, stride, g, variant):
    """Gradients of ``sum(g * layer(x))`` for a layer form with per-channel
    parameters on axis 1 of x: (dx, dbeta, dalpha, [dw per bank member]).

    Every output cell is visited in the logical (batch, channel, position)
    order of g; its winner follows the documented tie rules (lowest inner
    index, first window offset, lowest outer branch), and each sum is
    accumulated in that order.  Each max and min folds ``np.maximum`` or
    ``np.minimum``, and a candidate wins only by beating the value so far
    strictly; a pool starts at -inf, the lattice bottom.  The dead-cell
    rule: a cell takes no gradient where its value is NaN, or where the
    winning branch's pool has no winner (a window wholly outside x, or one
    whose every candidate is -inf).
    """
    m, n = beta.shape[1:]
    rank = len(stride)
    dx, db, da = np.zeros(x.shape), np.zeros(beta.shape), np.zeros(beta.shape)
    dw = [np.zeros(len(sf.offsets)) for sf in sf_list]

    def affine_max(c, value, pieces):
        # max over the (j, i) pieces of beta * value + alpha, and its piece
        best, arg = None, None
        for j, i in pieces:
            v = beta[c, j, i] * value + alpha[c, j, i]
            if best is None or v > best:
                arg = (j, i)
            best = v if best is None else np.maximum(best, v)
        return best, arg

    def pool(sf, lead, p, value):
        # max over the window of value(src) + w, and its (offset, source,
        # what value(src) carries) winner, None if nothing beats -inf
        best, arg = -np.inf, None
        for o, y in enumerate(sf.offsets):
            src = tuple(k * pi - yi for pi, k, yi in zip(p, stride, y))
            if all(0 <= s < e for s, e in zip(src, x.shape[-rank:])):
                v, carried = value(lead + src)
                cand = v + sf.weights.data[o]
                if cand > best:
                    arg = (o, lead + src, carried)
                best = np.maximum(best, cand)
        return best, arg

    for cell in np.ndindex(*g.shape):
        lead, p = cell[:-rank], cell[-rank:]
        c = lead[1]
        out, best = None, None  # best: (offset, source, (j, i), piece input)
        for k, sf in enumerate(sf_list):
            if variant == 1:  # the bank member is row j = k
                val, won = pool(sf, lead, p, lambda src: affine_max(
                    c, x[src], [(k, i) for i in range(n)]))
                branch = won and won + (x[won[1]],)
            else:  # the bank member is column i = k
                pooled, won = pool(sf, lead, p, lambda src: (x[src], None))
                val, piece = affine_max(c, pooled, [(j, k) for j in range(m)])
                branch = won and won[:2] + (piece, pooled)
            if out is None or val < out:
                best = branch
            out = val if out is None else np.minimum(out, val)
        if best is None or np.isnan(out):
            continue
        o, src, (j, i), piece_input = best
        gv = g[cell]
        dx[src] += gv * beta[c, j, i]
        db[c, j, i] += gv * piece_input
        da[c, j, i] += gv
        bank = j if variant == 1 else i
        dw[bank][o] += gv if variant == 1 else gv * beta[c, j, i]
    return dx, db, da, dw


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


def oracle_basis_extract(kernel):
    """Minimal kernel elements by a greedy sweep in (popcount, mask) order."""
    ordered = sorted(kernel, key=lambda m: (bin(m).count("1"), m))
    minimal = []
    for m in ordered:
        if not any(b & m == b for b in minimal):
            minimal.append(m)
    return minimal


def oracle_sup_erosions(basis, size):
    """Table over ``size`` masks: True where some basis element fits."""
    return np.array([any(b & mask == b for b in basis)
                     for mask in range(size)], dtype=bool)


def oracle_inf_dilations(dual_basis, size):
    """Table over ``size`` masks: True where every element is met."""
    return np.array([all(b & mask != 0 for b in dual_basis)
                     for mask in range(size)], dtype=bool)


def oracle_is_antichain(masks):
    return not any(a != b and a & b == a for a in masks for b in masks)


def oracle_tables(window, se):
    """Each built-in operator table that applies, by its rule per subset.

    Returns name -> OperatorTable, or name -> the ValueError message when
    the structuring element does not fit in the window.
    """
    from morphnn.representation import OperatorTable

    se = frozenset(tuple(p) for p in se)
    refl = frozenset((-p[0], -p[1]) for p in se)
    translates = [frozenset((q[0] - b[0], q[1] - b[1]) for q in se)
                  for b in se]
    inside = set(tuple(p) for p in window)
    rules = {
        "erosion": ([se], lambda x: se <= x),
        "dilation": ([refl], lambda x: bool(refl & x)),
        "opening": (translates, lambda x: any(t <= x for t in translates)),
        "identity": ([], lambda x: (0, 0) in x),
    }
    if len(window) % 2:
        need = len(window) // 2 + 1
        rules["median"] = ([], lambda x: len(x) >= need)
    out = {}
    for name, (probes, rule) in rules.items():
        missing = next((t - inside for t in probes if t - inside), None)
        out[name] = (f"{name} probe points {sorted(missing)} fall outside "
                     "the window" if missing else
                     OperatorTable.from_rule(window, rule, name))
    return out


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


def channel_major(a):
    """a's values in memory ordered [C, B, ...], seen as [B, C, ...], like a
    conv2d output."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


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


def oracle_conv2d_gemm(x, w, b, g):
    """``conv2d``'s arithmetic in plain batch-major arrays: the output and
    the x, w and b gradients of ``sum(g * conv2d(x, w, b))``.

    One GEMM each on an im2col matrix gathered offset by offset; dx adds
    the window offsets' slices in (i, j) order.
    """
    bb, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh, ow = h - kh + 1, wd - kw + 1
    cols = np.empty((c, kh, kw, bb, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, :, i:i + oh, j:j + ow].transpose(1, 0, 2, 3)
    cols = cols.reshape(c * kh * kw, -1)
    wmat = w.reshape(f, -1)
    out = (wmat @ cols).reshape(f, bb, oh, ow).transpose(1, 0, 2, 3) + \
        b.reshape(1, f, 1, 1)
    gmat = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, -1)
    dw = (gmat @ cols.T).reshape(w.shape)
    d6 = (wmat.T @ gmat).reshape(c, kh, kw, bb, oh, ow)
    dx = np.zeros(x.shape)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + oh, j:j + ow] += d6[:, i, j].transpose(1, 0, 2, 3)
    return out, dx, dw, np.ascontiguousarray(g).sum(axis=(0, 2, 3))


def oracle_backward(root):
    """Reverse-mode sweep that keeps the whole graph: every node's edges and
    every non-leaf ``.grad`` stay until the graph is dropped.

    Same order as ``Tensor.backward``: a postorder walk that pushes each
    node's parents left to right, run in reverse, parents left to right
    within a node.
    """
    order, seen, stack = [], set(), [(root._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, rule in node.parents:
            contrib = rule(node.grad)
            parent.grad = (contrib if parent.grad is None
                           else parent.grad + contrib)


def full_size_layer_node(out, code, piece, sources, blocks, x, axis, params,
                         structuring, pool, pool_first):
    """A layer form's graph node (same arguments as
    ``activations._layer_node``) whose backward routes every output cell at
    once: full-size source, cell, bank, piece-input and slope arrays, and
    one ``np.bincount`` over all of them per edge, each sum taken in the
    frame's cell order.  The winner code is split with ``np.divmod`` into
    the inner index and the bank position, whose member is the outer
    branch.  It reads the piece inputs from x itself, not from ``piece``,
    and ignores ``blocks``.  It finds each cell's source from the cell's
    coordinates, not through ``morphops._decoder``: it ignores ``sources``.
    """
    from morphnn import autodiff as ad

    xf = x.data.swapaxes(0, axis)
    sizes = [len(sf.offsets) for sf in structuring]
    starts = np.cumsum([0] + sizes[:-1])
    offsets = [y for sf in structuring for y in sf.offsets]
    dead = (code < 0) | np.isnan(out)
    live = np.flatnonzero(~dead) if dead.any() else slice(None)
    inner, bank = np.divmod(code.astype(np.int64), len(offsets))
    bank = bank.ravel()[live]
    # each live cell's source K*p - y
    cells = np.indices(code.shape).reshape(code.ndim, -1)[:, live]
    lead = xf.ndim - pool.rank
    ys = np.asarray(offsets)[bank]
    src = np.ravel_multi_index(
        tuple(cells[:lead]) + tuple(k * cells[lead + a] - ys[:, a]
                                    for a, k in enumerate(pool.stride)),
        xf.shape)
    member = np.searchsorted(starts, bank, side="right") - 1
    inner = inner.ravel()[live]
    rows, cols = (inner, member) if pool_first else (member, inner)
    m, n = params.m_terms, params.n_terms
    cell = rows * n + cols
    if params.beta.data.ndim == 3:
        channel = np.broadcast_to(np.arange(len(xf)).reshape(
            (-1,) + (1,) * (xf.ndim - 1)), code.shape).ravel()[live]
        cell += channel * (m * n)
    piece_input = xf.ravel()[src]
    if pool_first:
        piece_input += np.concatenate(
            [sf.weights.data for sf in structuring])[bank]
    arrays = {"src": src, "cell": cell, "bank": bank, "input": piece_input,
              "slope": params.beta.data.reshape(-1)[cell]}

    def rule(parent, key, start, factor, framed):
        shape = (parent.data.swapaxes(0, axis).shape if framed
                 else parent.data.shape)

        def back(g):
            gl = (g.swapaxes(0, axis) if axis else g).ravel()[live]
            if factor is not None:
                gl = gl * arrays[factor]
            stop = start + parent.data.size
            gl = np.bincount(arrays[key], weights=gl,
                             minlength=stop)[start:stop].reshape(shape)
            return gl.swapaxes(0, axis) if framed else gl
        return back

    edges = [(x, "src", 0, "slope"), (params.beta, "cell", 0, "input"),
             (params.alpha, "cell", 0, None)]
    edges += [(sf.weights, "bank", start, "slope" if pool_first else None)
              for start, sf in zip(starts, structuring)]
    return ad.make_node(out.swapaxes(0, axis),
                        [(p, rule(p, key, start, factor, k == 0))
                         for k, (p, key, start, factor) in enumerate(edges)])


def add_wrong_backward_case(monkeypatch, name="wrong_backward"):
    """Make ``gradcheck.build_cases`` append a case whose backward is
    deliberately wrong: the node computes 3x but hands back 2g, so the
    checker's failure path runs on a real wrong gradient."""
    from morphnn import autodiff as ad
    from morphnn import gradcheck as gc

    real = gc.build_cases

    def build(lv):
        x = lv["x"]
        return lambda: ad.make_node(x.data * 3.0, [(x, lambda g: g * 2.0)])

    def cases(sizes=(1, 2, 3, 4)):
        return real(sizes) + [{"name": name, "build": build,
                               "draw": lambda rng: {"x": rng.normal(size=4)}}]

    monkeypatch.setattr(gc, "build_cases", cases)


def oracle_probe_losses(loss, x, h):
    """``autodiff.probe_losses`` as the per-coordinate loop it replaced:
    each coordinate of ``x`` is moved in place to x+h, then x-h, then
    restored, and ``loss()``, which reads x, is called at each probe."""
    hi, lo = np.empty(x.shape), np.empty(x.shape)
    for i in np.ndindex(x.shape):
        saved = x[i]
        x[i] = saved + h
        hi[i] = loss()
        x[i] = saved - h
        lo[i] = loss()
        x[i] = saved
    return hi, lo
