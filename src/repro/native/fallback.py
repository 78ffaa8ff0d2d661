"""Pure-numpy reference kernels for binning and the tree-grower hot loops.

This module is the **semantic definition** of the native kernels: the C
extension in ``_kernels.c`` must reproduce every function here bit for
bit (``tests/native/test_kernel_parity.py`` fuzzes that contract), and
any box without a working C compiler runs on this module alone.  The
code is the grower hot-loop numpy moved verbatim out of
``learners/tree.py`` / ``learners/catboost_like.py`` — accumulation
orders, in-place gain assembly and argmax tie-breaking are all part of
the contract, so edit with care and re-run the parity fuzz + golden
suites after any change.

:func:`grow_tree` is ``GradTreeGrower.grow``'s whole node loop — root
and child grad/hess sums, the stable row partition, leaf values, the
histogram builds with sibling subtraction, the split scan and the
best-first heap (or depth-wise FIFO).  Its C twin grows a tree in one
call; the modes that draw from the grower's RNG at every node
(``colsample_bylevel < 1``, ``extra_random``) run this loop on either
implementation, over the bound kernels' ``build_hists`` and
``best_split_scan``.  The node loop's own arithmetic is part of the
contract too: ``ndarray.sum`` is numpy's pairwise sum, the per-node
parent score is numpy *scalar* arithmetic (``np.float64 ** 2`` is libm
``pow``), and pending splits pop in ``heapq``'s tuple order.

:func:`bin_codes` is ``Binner.transform``'s rule (``searchsorted(edges,
x, side="left") + 1``, NaN to the missing bin 0) over a whole float
block; every binner transform goes through the bound kernels' copy.

Shared conventions (both implementations):

* ``codes`` are uint8/uint16 bin codes, values strictly below the
  per-feature ``n_bins`` (the :class:`~repro.learners.histogram.Binner`
  invariant — the kernels trust it); the C kernels read C-contiguous
  codes only, and the native wrappers route any other layout here;
* index/feature arrays are int64, grad/hess are float64;
* histograms are float64 ``(P, F, nbmax)`` with parts (grad, hess
  [, count]).
"""

from __future__ import annotations

import heapq
import sys

import numpy as np

__all__ = [
    "ObliviousLevelScorer",
    "best_split_scan",
    "bin_codes",
    "build_class_hists",
    "build_hists",
    "ensemble_predict",
    "grow_tree",
    "oblivious_predict",
    "soft_threshold",
]

_EPS = 1e-12

#: kernels modules advertise which implementation they are (logs/tests)
is_native = False


def soft_threshold(g, alpha: float):
    """L1 soft-thresholding, ufunc-chained exactly as the growers use it."""
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _score(G, H, alpha: float, lam: float):
    return soft_threshold(G, alpha) ** 2 / (H + lam)


def _leaf_value(G: float, H: float, alpha: float, lam: float) -> float:
    # scalar soft-threshold in plain python: the ufunc chain of
    # soft_threshold costs ~7 numpy dispatches per leaf, and leaves are
    # created once per node; plain float ops run the identical IEEE
    # arithmetic (sign/abs/subtract/divide), bit for bit
    a = abs(G) - alpha
    if a != a:  # NaN gradients must poison the leaf, as the ufunc
        return -a / (H + lam)  # chain did (trial -> inf)
    if a < 0.0:
        a = 0.0
    num = a if G > 0.0 else (-a if G < 0.0 else 0.0)
    return -num / (H + lam)


def bin_codes(X, edges, dtype):
    """Bin codes of the float64 block ``X`` (n, d): column ``j`` maps
    to ``searchsorted(edges[j], x, side="left") + 1``, and NaN to the
    missing bin 0.

    ``edges[j]`` is sorted ascending in numpy's order (NaN last), as
    every :class:`~repro.learners.histogram.Binner` builds it; ``dtype``
    is the uint8/uint16 code dtype of the result.
    """
    n, d = X.shape
    codes = np.empty((n, d), dtype=dtype)
    for j in range(d):
        col = X[:, j]
        c = np.searchsorted(edges[j], col, side="left") + 1
        c[np.isnan(col)] = 0
        codes[:, j] = c
    return codes


def walk_leaves(codes, feature, threshold, left, right):
    """The leaf id each row of ``codes`` reaches in one tree's node
    arrays (go left iff ``code <= threshold``; leaves have ``feature <
    0``), every row one tree level per step."""
    node = np.zeros(codes.shape[0], dtype=np.int32)
    while True:
        act = np.nonzero(feature[node] >= 0)[0]
        if act.size == 0:
            return node
        cur = node[act]
        goleft = codes[act, feature[cur]] <= threshold[cur]
        node[act] = np.where(goleft, left[cur], right[cur])


def build_hists(codes, g, h, idx, features, n_bins, nbmax, need_cnt,
                all_features=False):
    """(grad, hess[, count]) per-(feature, bin) histograms of one node.

    ``g``/``h`` are already gathered to ``idx`` order; ``all_features``
    says ``features`` is every column in order (enables the plain-row
    gather).  The count histogram is only materialised when
    ``min_samples_leaf`` needs it (``need_cnt``).

    The result is **one** stacked array of shape ``(P, F, nbmax)`` with
    ``P = 3 if need_cnt else 2`` (grad, hess[, count] parts).  Both
    branches below accumulate every (part, feature, bin) bucket in row
    (``idx``) order, so they are bitwise identical to each other and to
    the C kernel's plain row-major loop; what the flat single-bincount
    branch drops is per-call numpy dispatch, which dominates on the
    small nodes deep in a tree.
    """
    F = features.size
    W = F * nbmax
    P = 3 if need_cnt else 2
    if idx.size == 0:
        # growers never histogram empty nodes, but the kernel contract
        # is float64 zeros (np.bincount drops the weights dtype when
        # the input is empty and would return int64 here)
        return np.zeros((P, F, nbmax))
    if idx.size * F <= 200_000:
        # Small node: flat bincount over all candidate features at
        # once (block j of the histogram belongs to features[j]) —
        # per-feature Python loops are interpreter-overhead-bound here.
        sub = codes[idx] if all_features else codes[idx[:, None], features]
        flat = (sub + np.arange(F, dtype=np.int64) * nbmax).ravel()
        gw = np.repeat(g, F) if F > 1 else g
        hw = np.repeat(h, F) if F > 1 else h
        if need_cnt:
            keys = np.concatenate((flat, flat + W, flat + 2 * W))
            wts = np.concatenate((gw, hw, np.ones(flat.size)))
        else:
            keys = np.concatenate((flat, flat + W))
            wts = np.concatenate((gw, hw))
        return np.bincount(keys, weights=wts,
                           minlength=P * W).reshape(P, F, nbmax)
    # Large node: per-feature bincounts avoid materialising the
    # (rows x features) weight copies.
    hist = np.zeros((P, F, nbmax))
    for j, f in enumerate(features):
        c = codes[idx, f]
        hist[0, j, : n_bins[f]] = np.bincount(c, weights=g, minlength=n_bins[f])
        hist[1, j, : n_bins[f]] = np.bincount(c, weights=h, minlength=n_bins[f])
        if need_cnt:
            hist[2, j, : n_bins[f]] = np.bincount(c, minlength=n_bins[f])
    return hist


def build_class_hists(codes, yk, idx, w, features, n_classes, nbmax,
                      all_features=False):
    """Joint ``(class, feature, bin)`` count histograms of one node.

    The classification-tree analogue of :func:`build_hists`: ``yk`` is
    the node's class labels already gathered to ``idx`` order (int64,
    values in ``[0, n_classes)``), ``w`` is the matching per-row weight
    gather or ``None`` for unit weights.  Returns float64
    ``(n_classes, F, nbmax)``.

    This is the ``ClassTreeGrower._best_split`` joint-bincount moved
    verbatim: one flat bincount over ``class*(F*nbmax) + j*nbmax +
    code`` keys, so every bucket accumulates its rows in ``idx`` order
    — the same order the C kernel's plain row-major loop produces.
    """
    F = features.size
    if idx.size == 0:
        # same float64-zeros contract as build_hists on empty nodes
        return np.zeros((n_classes, F, nbmax))
    sub = codes[idx] if all_features else codes[idx[:, None], features]
    flat = (
        yk[:, None] * (F * nbmax)
        + sub
        + np.arange(F, dtype=np.int64) * nbmax
    ).ravel()
    flat_w = None if w is None else (np.repeat(w, F) if F > 1 else w)
    joint = np.bincount(
        flat, weights=flat_w, minlength=n_classes * F * nbmax
    ).astype(np.float64)
    return joint.reshape(n_classes, F, nbmax)


def ensemble_predict(codes, feature, threshold, left, right, value,
                     tree_offset, tree_class, lr, out):
    """Accumulate a packed ensemble's predictions into ``out`` in place.

    The node arrays are the concatenated per-tree buffers built by
    :class:`~repro.learners.tree.FlatEnsemble`: int64
    ``feature``/``threshold``/``left``/``right`` (child ids already
    absolute, leaves marked ``feature < 0``) and float64 ``value`` of
    shape ``(total_nodes, V)``.  ``tree_offset[t]`` is tree ``t``'s
    root node; ``tree_class[t] = k >= 0`` adds ``lr * value[leaf, 0]``
    into column ``k`` of the C-contiguous float64 ``out``; ``-1`` adds
    ``lr * value[leaf]`` across the whole row (forest-probability
    trees).

    Bitwise contract: per output cell, additions arrive in tree order
    and each is a single ``lr * leaf_value`` product followed by one
    add — exactly the ``scores += lr * tree.predict(codes)`` chain the
    engines used to run tree by tree.  Navigation is pure integer
    compare (``code <= threshold`` goes left), so leaf choice is exact.
    """
    n = codes.shape[0]
    for t in range(tree_offset.size - 1):
        node = np.full(n, tree_offset[t], dtype=np.int64)
        while True:
            act = np.nonzero(feature[node] >= 0)[0]
            if act.size == 0:
                break
            cur = node[act]
            goleft = codes[act, feature[cur]] <= threshold[cur]
            node[act] = np.where(goleft, left[cur], right[cur])
        vals = value[node]
        k = int(tree_class[t])
        if k < 0:
            out += lr * vals
        else:
            out[:, k] += lr * vals[:, 0]
    return out


def oblivious_predict(codes, features, thresholds, level_offset,
                      leaf_values, leaf_offset, tree_class, lr, out):
    """Accumulate a packed oblivious ensemble's predictions into ``out``.

    Per-tree layout (:class:`~repro.learners.catboost_like.
    FlatOblivious`): levels ``level_offset[t]:level_offset[t+1]`` of the
    int64 ``features``/``thresholds`` vectors are tree ``t``'s shared
    per-depth splits, and its ``2**depth`` leaf table starts at
    ``leaf_offset[t]`` in the flat float64 ``leaf_values``.  Leaf index
    is the usual bit pack — level ``lvl`` contributes ``(code >
    threshold) << lvl`` — then ``lr * leaf`` is added into column
    ``tree_class[t]`` of ``out``, one tree at a time (the engines'
    historical accumulation order).
    """
    for t in range(tree_class.size):
        lo, hi = int(level_offset[t]), int(level_offset[t + 1])
        idx = np.zeros(codes.shape[0], dtype=np.int64)
        for lvl in range(hi - lo):
            f = int(features[lo + lvl])
            thr = thresholds[lo + lvl]
            idx |= (codes[:, f] > thr).astype(np.int64) << lvl
        vals = leaf_values[int(leaf_offset[t]) + idx]
        out[:, int(tree_class[t])] += lr * vals
    return out


def best_split_scan(hists, nbf, n_idx, G, H, parent, min_child_weight,
                    reg_alpha, reg_lambda, min_samples_leaf, rng=None,
                    t_valid=None):
    """Best ``(gain, j, t)`` over one node's stacked histograms.

    ``j`` indexes into the candidate-feature list the histograms were
    built over; ``(0.0, -1, -1)`` means no valid split.  ``rng`` is the
    extra-trees mode: keep one random valid threshold per feature (the
    native wrapper delegates this mode here because the draw consumes
    the grower's generator mid-scan).  Thresholds are bin codes; split
    sends ``code <= t`` left (missing bin 0 always goes left).
    ``t_valid`` is the threshold-validity mask ``arange(nbmax-1) <
    (nbf-1)[:, None]`` — growers hoist it out of this per-node call
    (the C kernel derives it from ``nbf`` inline and ignores the arg).
    """
    P, F, nbmax = hists.shape
    # one cumulative sum over every (part, feature) row at once
    cs = hists.reshape(P * F, nbmax).cumsum(axis=1).reshape(P, F, nbmax)
    GL = cs[0, :, :-1]
    HL = cs[1, :, :-1]
    GR, HR = G - GL, H - HL
    valid = (HL >= min_child_weight) & (HR >= min_child_weight)
    if t_valid is None:
        # thresholds past a feature's own bin count are no real splits
        t_valid = np.arange(nbmax - 1) < (nbf - 1)[:, None]
    valid &= t_valid
    if P == 3:
        CL = cs[2, :, :-1]
        valid &= (CL >= min_samples_leaf) & (
            n_idx - CL >= min_samples_leaf
        )
    if rng is not None:
        # Extra-trees: keep one random valid threshold per feature.
        keep = np.zeros_like(valid)
        for j in range(F):
            cand = np.nonzero(valid[j])[0]
            if cand.size:
                keep[j, int(rng.choice(cand))] = True
        valid = keep
    if not valid.any():
        return 0.0, -1, -1
    # same association as 0.5*(score(L) + score(R) − parent), built
    # in place to avoid (F, T)-sized temporaries on every node
    gains = _score(GL, HL, reg_alpha, reg_lambda)
    gains += _score(GR, HR, reg_alpha, reg_lambda)
    gains -= parent
    gains *= 0.5
    gains = np.where(valid, gains, -np.inf)
    k = int(gains.argmax())
    j, t = divmod(k, gains.shape[1])
    return float(gains[j, t]), j, t


def grow_tree(codes, grad, hess, n_bins, idx0, features, *, max_leaves,
              max_depth, min_child_weight, reg_alpha, reg_lambda, min_gain,
              leaf_wise, colsample_bylevel, extra_random, min_samples_leaf,
              hist_subtraction, hist_cache_bytes, rng, out_leaf=None,
              kernels=None):
    """Grow one gradient tree over the rows ``idx0`` and candidate
    ``features``; returns its node arrays ``(feature int32, threshold
    int64, left int32, right int32, value float64)``.

    The keyword parameters are :class:`~repro.learners.tree.
    GradTreeGrower`'s (``hist_cache_bytes`` caps the histograms parked
    on pending nodes for the sibling-subtraction trick); ``rng`` is
    drawn from only by per-level column sampling and the extra-random
    scan.  ``out_leaf`` (int32, one entry per ``codes`` row) receives
    every row's leaf id: a grown row's from the partition, any row
    outside ``idx0`` from a walk of the finished tree -- the same leaf
    either way, since the partition routes rows by the walk's test.
    ``kernels`` supplies ``build_hists`` and ``best_split_scan``
    (default: this module's).
    """
    if kernels is None:
        kernels = sys.modules[__name__]
    d = codes.shape[1]
    subtract = (
        hist_subtraction and colsample_bylevel >= 1.0 and not extra_random
    )
    nbmax = int(n_bins[features].max()) if features.size else 0
    need_cnt = min_samples_leaf > 1
    hist_bytes = 0  # histograms currently parked on pending nodes
    # per-tree constants of the per-node split scoring
    all_features = features.size == d
    nbf = n_bins[features] if colsample_bylevel >= 1.0 else None
    t_valid = (
        np.arange(nbmax - 1) < (nbf - 1)[:, None]
        if nbf is not None and nbmax >= 2
        else None
    )
    feature, threshold, left, right, value = [], [], [], [], []

    def add_node(val: float) -> int:
        feature.append(-1)
        threshold.append(0)
        left.append(-1)
        right.append(-1)
        value.append(val)
        return len(feature) - 1

    def best_split(idx, hists):
        # (gain, feature, threshold, hists); the histograms actually
        # used are returned so the caller can derive the children's
        g, h = grad[idx], hess[idx]
        G, H = float(g.sum()), float(h.sum())
        parent = _score(G, H, reg_alpha, reg_lambda)
        feats, all_f, nbf_f, t_valid_f = features, all_features, nbf, t_valid
        if colsample_bylevel < 1.0:
            k = max(1, int(round(colsample_bylevel * feats.size)))
            feats = rng.choice(feats, size=k, replace=False)
            all_f, nbf_f, t_valid_f = False, None, None
        if nbf_f is None:
            nbf_f = n_bins[feats]
        nbmax_f = int(nbf_f.max())
        if nbmax_f < 2:
            return 0.0, -1, -1, None
        if hists is None:
            hists = kernels.build_hists(
                codes, g, h, idx, feats, n_bins, nbmax_f, need_cnt,
                all_features=all_f,
            )
        gain, j, t = kernels.best_split_scan(
            hists, nbf_f, idx.size, G, H, parent,
            min_child_weight, reg_alpha, reg_lambda, min_samples_leaf,
            rng=rng if extra_random else None, t_valid=t_valid_f,
        )
        if j < 0 or gain <= _EPS:
            return 0.0, -1, -1, hists
        return gain, int(feats[j]), int(t), hists

    root = add_node(_leaf_value(float(grad[idx0].sum()),
                                float(hess[idx0].sum()),
                                reg_alpha, reg_lambda))
    if out_leaf is not None:
        out_leaf[idx0] = root
    n_leaves = 1
    counter = 0  # heap tie-breaker

    def splittable(idx: np.ndarray, depth: int) -> bool:
        if max_depth is not None and depth >= max_depth:
            return False
        return idx.size >= 2 * min_samples_leaf and idx.size >= 2

    def try_split(nid: int, idx: np.ndarray, depth: int, hists=None):
        nonlocal counter, hist_bytes
        if not splittable(idx, depth):
            return None
        gain, f, t, hists = best_split(idx, hists)
        if f < 0 or gain <= min_gain:
            return None
        keep = None
        if subtract and hists is not None:
            if hist_bytes + hists.nbytes <= hist_cache_bytes:
                keep, hist_bytes = hists, hist_bytes + hists.nbytes
        counter += 1
        return (-gain, counter, nid, idx, depth, f, t, keep)

    heap: list = []
    first = try_split(root, idx0, 0)
    if first is not None:
        heapq.heappush(heap, first)
    while heap and n_leaves < max_leaves:
        if leaf_wise:
            _, _, nid, idx, depth, f, t, phists = heapq.heappop(heap)
        else:
            _, _, nid, idx, depth, f, t, phists = heap.pop(0)  # FIFO
        if phists is not None:
            hist_bytes -= phists.nbytes
        goleft = codes[idx, f] <= t
        li, ri = idx[goleft], idx[~goleft]
        lval = _leaf_value(float(grad[li].sum()), float(hess[li].sum()),
                           reg_alpha, reg_lambda)
        rval = _leaf_value(float(grad[ri].sum()), float(hess[ri].sum()),
                           reg_alpha, reg_lambda)
        lid, rid = add_node(lval), add_node(rval)
        feature[nid], threshold[nid], left[nid], right[nid] = f, t, lid, rid
        if out_leaf is not None:
            out_leaf[li] = lid
            out_leaf[ri] = rid
        n_leaves += 1
        lh = rh = None
        if phists is not None:
            # bincount the smaller child only; the larger child's
            # histograms are parent − sibling
            small_is_left = li.size <= ri.size
            small = li if small_is_left else ri
            small_ok = splittable(small, depth + 1)
            big_ok = splittable(ri if small_is_left else li, depth + 1)
            if small_ok or big_ok:
                sh = kernels.build_hists(
                    codes, grad[small], hess[small], small, features,
                    n_bins, nbmax, need_cnt, all_features=all_features,
                )
                bh = phists - sh if big_ok else None
                lh, rh = (sh, bh) if small_is_left else (bh, sh)
        for cid, cidx, chists in ((lid, li, lh), (rid, ri, rh)):
            if n_leaves >= max_leaves:
                break
            item = try_split(cid, cidx, depth + 1, hists=chists)
            if item is not None:
                if leaf_wise:
                    heapq.heappush(heap, item)
                else:
                    heap.append(item)
    arrays = (
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.int64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value, dtype=np.float64),
    )
    if out_leaf is not None:
        grown = np.zeros(codes.shape[0], dtype=bool)
        grown[idx0] = True
        rest = np.flatnonzero(~grown)
        if rest.size:
            out_leaf[rest] = walk_leaves(codes[rest], *arrays[:4])
    return arrays


class ObliviousLevelScorer:
    """Per-tree state for the oblivious whole-level scoring loop.

    Construction hoists everything that is constant across levels (the
    gathered candidate codes with per-feature offsets, the repeated
    grad/hess weight vector, the threshold-validity mask);
    :meth:`score_level` then scores one level from a single flat
    ``np.bincount`` over joint ``(node, feature, bin)`` keys.  The
    layout is bitwise-neutral: every bucket accumulates the same rows
    in the same order as per-feature loops would, and the cumulative
    sums are per-row independent.
    """

    def __init__(self, codes, cand_features, n_bins, grad, hess,
                 min_child_weight, reg_lambda):
        F = cand_features.size
        nbmax = int(n_bins[cand_features].max())
        self.F = F
        self.nbmax = nbmax
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)
        # joint (feature, bin) codes of the candidate features,
        # gathered once
        fcodes = codes[:, cand_features].astype(np.int64)
        fcodes += np.arange(F, dtype=np.int64)[None, :] * nbmax
        self._fcodes = fcodes
        # grad/hess repeated per feature (and concatenated) once, so
        # each level's histograms come from a single flat bincount
        self._gh = np.concatenate((
            np.repeat(grad, F) if F > 1 else grad,
            np.repeat(hess, F) if F > 1 else hess,
        ))
        self._gh_node = np.concatenate((grad, hess))
        # thresholds past a feature's own bin count are not real splits
        self._t_valid = (
            np.arange(nbmax - 1)[None, :]
            < (n_bins[cand_features] - 1)[:, None]
        )

    def score_level(self, node, lvl):
        """Score level ``lvl`` (``m = 2**lvl`` current nodes); returns
        ``(gain, j, t)`` with ``j = -1`` when no split is accepted."""
        m = 1 << lvl
        F, nbmax = self.F, self.nbmax
        W = m * F * nbmax
        # Node totals (shared across features).
        nodes2 = np.concatenate((node, node + m))
        GnHn = np.bincount(nodes2, weights=self._gh_node, minlength=2 * m)
        Gn, Hn = GnHn[:m], GnHn[m:]
        parent = Gn**2 / (Hn + self.reg_lambda)
        flat = (node[:, None] * (F * nbmax) + self._fcodes).ravel()
        keys = np.concatenate((flat, flat + W))
        hist = np.bincount(keys, weights=self._gh, minlength=2 * W)
        cs = hist.reshape(2 * m * F, nbmax).cumsum(axis=1)
        cs = cs.reshape(2, m, F, nbmax)
        GL = cs[0, :, :, :-1]  # (m, F, T)
        HL = cs[1, :, :, :-1]
        GR = Gn[:, None, None] - GL
        HR = Hn[:, None, None] - HL
        valid = (HL >= self.min_child_weight) & (HR >= self.min_child_weight)
        # same association as 0.5*(GL²/(HL+λ) + GR²/(HR+λ) − parent),
        # assembled in place to avoid temporaries the size of (m, F, T)
        HL += self.reg_lambda
        HR += self.reg_lambda
        gains = GL**2
        gains /= HL
        tmp = GR**2
        tmp /= HR
        gains += tmp
        gains -= parent[:, None, None]
        gains *= 0.5
        total = np.where(valid, gains, 0.0).sum(axis=0)  # (F, T)
        total = np.where(self._t_valid, total, -np.inf)
        # replicate the sequential accept rule exactly: walk features in
        # candidate order, take this feature's best threshold iff it
        # beats the running best by more than _EPS
        best = (0.0, -1, -1)
        per_f_t = np.argmax(total, axis=1)
        per_f_gain = total[np.arange(F), per_f_t]
        for j in range(F):
            if per_f_gain[j] > best[0] + _EPS:
                best = (float(per_f_gain[j]), j, int(per_f_t[j]))
        return best
