"""Exclusive feature bundling (EFB) for sparse one-hot blocks.

One-hot encoding turns one categorical column into ``k`` nearly-empty
columns; a histogram learner then pays ``k`` bincount passes per split
search where one would do.  Bundling merges columns that are *mutually
exclusive* — at most one of them is away from its default code in any
row — into a single coded feature whose bins are the disjoint union of
the members' bins (LightGBM's EFB, restricted to the conflict-free
case so the merge is lossless and invertible).

The merge operates on bin codes, not raw floats: member ``j`` with
code ``c != default_j`` contributes ``offset_j + c``; a row where every
member sits at its default gets code 0.  Because the members' code
ranges are disjoint, :meth:`BundleLayout.split_sources` can translate
any split threshold on the bundled feature back to the original
(column, code-interval) pairs — the "unbundled transparently at split
time" guarantee, exercised by ``tests/data/test_bundling.py``.

Candidate bundles are found greedily on a row sketch and must then be
*verified* conflict-free on the full columns before use (the shared
plane does this in :mod:`repro.data.binned`); a single conflicting row
disqualifies a member, so bundling never changes what a split can
express.
"""

from __future__ import annotations

import numpy as np

from ..learners.histogram import code_dtype

__all__ = ["BundleLayout", "BundledBinner", "find_bundles"]

#: a column is a bundling candidate only if at least this fraction of
#: (sketch) rows sit at its default code — dense columns gain nothing
#: and would conflict with everything
MIN_DEFAULT_FRAC = 0.8

#: never grow a bundle past this many codes (uint16 ceiling, minus the
#: all-default code 0)
MAX_BUNDLE_CODES = 65_534


def find_bundles(
    codes: np.ndarray,
    n_bins: np.ndarray,
    defaults: np.ndarray,
    min_default_frac: float = MIN_DEFAULT_FRAC,
) -> list[list[int]]:
    """Greedy conflict-free packing of sparse columns into bundles.

    ``codes`` is a (rows, d) code matrix (typically a sketch), ``n_bins``
    the per-feature code count, ``defaults`` the per-feature most-common
    code.  Columns are offered densest-first to the first bundle whose
    active-row mask they don't intersect (zero conflicts — strictly
    exclusive).  Returns only bundles with >= 2 members, each sorted by
    column index; deterministic for a given input.
    """
    n, d = codes.shape
    n_bins = np.asarray(n_bins, dtype=np.int64)
    defaults = np.asarray(defaults, dtype=np.int64)
    if n == 0 or d < 2:
        return []
    active_masks = {}
    cand = []
    for j in range(d):
        mask = codes[:, j] != defaults[j]
        frac = float(np.count_nonzero(mask)) / n
        if frac <= 1.0 - float(min_default_frac):
            cand.append(j)
            active_masks[j] = mask
    if len(cand) < 2:
        return []
    cand.sort(key=lambda j: (-int(np.count_nonzero(active_masks[j])), j))
    bundles: list[list[int]] = []
    busy: list[np.ndarray] = []
    sizes: list[int] = []
    for j in cand:
        mask = active_masks[j]
        for i, taken in enumerate(busy):
            if sizes[i] + int(n_bins[j]) > MAX_BUNDLE_CODES:
                continue
            if not np.any(taken & mask):
                bundles[i].append(j)
                busy[i] |= mask
                sizes[i] += int(n_bins[j])
                break
        else:
            bundles.append([j])
            busy.append(mask.copy())
            sizes.append(1 + int(n_bins[j]))
    out = [sorted(b) for b in bundles if len(b) >= 2]
    out.sort(key=lambda b: b[0])
    return out


class BundleLayout:
    """The code-space geometry of a set of bundles over ``d`` features.

    Output features are the unbundled columns in their original order,
    followed by one feature per bundle.  Member ``j`` of a bundle owns
    the disjoint code interval ``[offset_j, offset_j + n_bins_j)``;
    code 0 means every member is at its default.
    """

    def __init__(self, n_bins: np.ndarray, defaults: np.ndarray,
                 bundles: list[list[int]]) -> None:
        n_bins = np.asarray(n_bins, dtype=np.int64)
        self.defaults = np.asarray(defaults, dtype=np.int64)
        self.bundles = [list(map(int, b)) for b in bundles]
        bundled = {j for b in self.bundles for j in b}
        if len(bundled) != sum(len(b) for b in self.bundles):
            raise ValueError("a column appears in more than one bundle")
        self.d_in = int(n_bins.size)
        self.singles = [j for j in range(self.d_in) if j not in bundled]
        self.offsets: list[list[int]] = []
        out_bins = [int(n_bins[j]) for j in self.singles]
        for b in self.bundles:
            offs = []
            off = 1  # code 0 = all members at default
            for j in b:
                offs.append(off)
                off += int(n_bins[j])
            self.offsets.append(offs)
            out_bins.append(off)
        self.n_bins_ = np.asarray(out_bins, dtype=np.int64)

    @property
    def d_out(self) -> int:
        return int(self.n_bins_.size)

    def apply(self, codes: np.ndarray) -> np.ndarray:
        """Merge a (rows, d_in) code matrix into (rows, d_out)."""
        n = codes.shape[0]
        out = np.empty((n, self.d_out),
                       dtype=code_dtype(int(self.n_bins_.max())))
        for k, j in enumerate(self.singles):
            out[:, k] = codes[:, j]
        base = len(self.singles)
        for k, (b, offs) in enumerate(zip(self.bundles, self.offsets)):
            col = np.zeros(n, dtype=np.int64)
            for j, off in zip(b, offs):
                c = codes[:, j].astype(np.int64)
                hot = c != self.defaults[j]
                col[hot] = c[hot] + off
            out[:, base + k] = col
        return out

    # -- transparency ---------------------------------------------------
    def source_of(self, out_feature: int) -> list[int]:
        """Original column indices behind output feature ``out_feature``."""
        k = int(out_feature)
        if k < len(self.singles):
            return [self.singles[k]]
        return list(self.bundles[k - len(self.singles)])

    def member_interval(self, out_feature: int, j: int) -> tuple[int, int]:
        """Half-open bundled-code interval owned by original column ``j``
        inside bundled output feature ``out_feature``."""
        k = int(out_feature) - len(self.singles)
        b, offs = self.bundles[k], self.offsets[k]
        i = b.index(int(j))
        lo = offs[i]
        hi = offs[i + 1] if i + 1 < len(offs) else int(self.n_bins_[len(self.singles) + k])
        return lo, hi

    def split_sources(self, out_feature: int,
                      threshold: int) -> list[tuple[int, int, int]]:
        """Unbundle a ``code <= threshold`` split on a bundled feature.

        Returns ``(original column, lo, hi)`` triples: the member codes
        in ``[lo, hi)`` travel left with the split.  The all-default
        code 0 always travels left (thresholds are non-negative), which
        is exactly the missing-goes-left convention of the unbundled
        grid.  A single (non-bundled) output feature maps to itself.
        """
        k = int(out_feature)
        if k < len(self.singles):
            return [(self.singles[k], 0, int(threshold) + 1)]
        out = []
        for j in self.source_of(k):
            lo, hi = self.member_interval(k, j)
            cut = min(hi, int(threshold) + 1)
            if cut > lo:
                # member codes c with lo <= offset+c <= threshold
                off = lo  # interval start == member offset
                out.append((j, 0, cut - off))
        return out

    def unbundle_counts(self, per_feature: np.ndarray) -> np.ndarray:
        """Spread per-output-feature totals (e.g. split counts or
        importances) back over the ``d_in`` original columns; a bundle's
        total is divided evenly among its members."""
        per_feature = np.asarray(per_feature, dtype=np.float64)
        out = np.zeros(self.d_in, dtype=np.float64)
        for k, j in enumerate(self.singles):
            out[j] = per_feature[k]
        base = len(self.singles)
        for k, b in enumerate(self.bundles):
            out[list(b)] = per_feature[base + k] / len(b)
        return out


class BundledBinner:
    """A fitted binner view whose output features are bundled.

    Wraps an inner fitted binner (the sketch base grid or a
    :class:`~repro.learners.histogram.DerivedBinner`) plus a
    :class:`BundleLayout` in the inner binner's code space.  Exposes the
    surface histogram learners use — ``n_bins_``, ``bin_edges_`` (real
    edges for unbundled columns, empty placeholders for bundles),
    ``transform`` and ``total_bins`` — so it drops into the
    ``(codes, n_bins, binner)`` triple the binned plane serves.

    Final models carry it too: a winner retrained on the plane above the
    exact-binning limit (or a ``retrain_full=False`` trial model) bins
    raw rows through it at predict time, and
    :mod:`repro.learners.model_io` stores it as the inner binner's edges
    plus this layout's defaults and bundles.
    """

    def __init__(self, inner, layout: BundleLayout) -> None:
        self.inner = inner
        self.layout = layout
        self.max_bins = int(getattr(inner, "max_bins", 0))
        self.n_bins_ = layout.n_bins_
        edges = []
        for k in range(layout.d_out):
            src = layout.source_of(k)
            edges.append(inner.bin_edges_[src[0]] if len(src) == 1
                         else np.empty(0))
        self.bin_edges_ = edges

    def transform(self, X: np.ndarray) -> np.ndarray:
        return self.layout.apply(self.inner.transform(X))

    def codes_from_base(self, base_codes: np.ndarray) -> np.ndarray:
        return self.layout.apply(self.inner.codes_from_base(base_codes))

    @property
    def total_bins(self) -> int:
        return int(self.n_bins_.max())
