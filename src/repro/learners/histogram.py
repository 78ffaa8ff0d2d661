"""Feature binning for histogram-based tree learners.

All tree learners in this package (GBDT, random forest, extra-trees,
oblivious trees) operate on *binned* data: each feature column is mapped to
small integer codes via quantile binning.  This mirrors the design of
LightGBM/XGBoost-hist and keeps split finding a pure ``np.bincount``
operation, which is the fastest primitive available in NumPy for this job.

Missing values (NaN) are mapped to a dedicated bin (code 0).  Splits are of
the form ``code <= t`` so missing values always travel left; this is a
simplification of LightGBM's learned default direction that preserves the
cost/error trade-off FLAML's search exploits.
"""

from __future__ import annotations

import numpy as np

from ..native import active_kernels

__all__ = [
    "Binner",
    "BinnedMatrix",
    "DerivedBinner",
    "MISSING_BIN",
    "SketchBinner",
    "code_dtype",
    "split_importances",
]

#: Bin code reserved for missing values.
MISSING_BIN = 0


def code_dtype(n_codes: int) -> np.dtype:
    """Smallest unsigned dtype holding codes ``0 .. n_codes - 1``.

    ``n_codes`` counts *codes* (the missing bin included), so uint8 is
    correct up to 256 codes — the maximum code is then 255.  Getting
    this boundary right matters at scale: the default 255-bin binner
    produces exactly 256 codes per feature, and promoting it to uint16
    doubles every code matrix, cache entry, and shared-memory segment.
    """
    return np.dtype(np.uint16 if int(n_codes) > 256 else np.uint8)


class Binner:
    """Quantile binner mapping float features to uint8/uint16 codes.

    Parameters
    ----------
    max_bins:
        Maximum number of *non-missing* bins per feature (2..65534).  The
        total number of codes per feature is ``n_bins(j) + 1`` because code
        0 is reserved for missing values.
    rng:
        Generator used for subsampling rows when computing quantiles on
        large inputs.
    subsample:
        If the input has more rows than this, quantiles are estimated on a
        random subset (standard practice; exactness is irrelevant here).
    """

    def __init__(
        self,
        max_bins: int = 255,
        rng: np.random.Generator | None = None,
        subsample: int = 200_000,
    ) -> None:
        if not 2 <= max_bins <= 65_534:
            raise ValueError(f"max_bins must be in [2, 65534], got {max_bins}")
        self.max_bins = int(max_bins)
        self._rng = rng or np.random.default_rng(0)
        self._subsample = int(subsample)
        self.bin_edges_: list[np.ndarray] | None = None
        self.n_bins_: np.ndarray | None = None  # per-feature #codes incl. missing

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray) -> "Binner":
        """Compute per-feature quantile bin edges from ``X`` (n, d) floats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n, d = X.shape
        if n == 0:
            raise ValueError("cannot fit Binner on empty data")
        if n > self._subsample:
            idx = self._rng.choice(n, self._subsample, replace=False)
            Xs = X[idx]
        else:
            Xs = X
        edges: list[np.ndarray] = []
        n_bins = np.empty(d, dtype=np.int64)
        # Midpoint-of-unique-quantiles binning, one feature at a time.  The
        # Python loop over features is fine: d is small and each iteration is
        # a vectorised percentile computation.
        qs = np.linspace(0, 100, self.max_bins + 1)[1:-1]
        for j in range(d):
            col = Xs[:, j]
            col = col[~np.isnan(col)]
            if col.size == 0:
                edges.append(np.empty(0))
                n_bins[j] = 1
                continue
            uniq = np.unique(col)
            if uniq.size <= self.max_bins:
                e = (uniq[1:] + uniq[:-1]) / 2.0
            else:
                e = np.unique(np.percentile(col, qs, method="linear"))
            edges.append(e)
            n_bins[j] = e.size + 1
        self.bin_edges_ = edges
        self.n_bins_ = n_bins + 1  # +1 for the missing bin (code 0)
        return self

    # ------------------------------------------------------------------
    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map ``X`` to integer codes; code 0 = missing, 1.. = value bins.

        Column ``j`` maps to ``searchsorted(bin_edges_[j], x,
        side="left") + 1``.  The bound kernels' ``bin_codes`` applies
        that rule (:func:`repro.native.fallback.bin_codes` is the
        reference; the C kernel is bitwise-equal), so every trial, the
        plane's sketch, the final fit and every served predict bin
        through one place.  A block whose width differs from the fit's
        raises ``ValueError`` before any binning.
        """
        if self.bin_edges_ is None:
            raise RuntimeError("Binner.transform called before fit")
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        if d != len(self.bin_edges_):
            raise ValueError(
                f"X has {d} features, binner was fit with {len(self.bin_edges_)}"
            )
        return active_kernels().bin_codes(
            X, self.bin_edges_, code_dtype(int(self.n_bins_.max()))
        )

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit the bin edges and return the codes for X."""
        return self.fit(X).transform(X)

    def transform_column(self, col: np.ndarray, j: int) -> np.ndarray:
        """Codes for a single feature column ``j`` (same mapping as
        :meth:`transform`, without materialising the other columns)."""
        if self.bin_edges_ is None:
            raise RuntimeError("Binner.transform_column called before fit")
        col = np.asarray(col, dtype=np.float64).reshape(-1, 1)
        return active_kernels().bin_codes(
            col, [self.bin_edges_[j]], code_dtype(int(self.n_bins_[j]))
        )[:, 0]

    @property
    def total_bins(self) -> int:
        """Maximum code count over features (histogram allocation size)."""
        if self.n_bins_ is None:
            raise RuntimeError("Binner not fitted")
        return int(self.n_bins_.max())


def split_importances(binner, trees) -> np.ndarray:
    """Split-count importances of ``trees``, one per *input* column of
    ``binner``, normalised to sum to 1.

    Trees split on the binner's output features; under a bundled binner
    (``layout`` attribute) a merged column's count is spread evenly over
    the columns it bundles.
    """
    d = len(binner.bin_edges_)
    counts = np.zeros(d)
    for tree in trees:
        counts += tree.split_feature_counts(d)
    layout = getattr(binner, "layout", None)
    if layout is not None:
        counts = layout.unbundle_counts(counts)
    total = counts.sum()
    return counts / total if total > 0 else counts


# ----------------------------------------------------------------------
class SketchBinner(Binner):
    """Quantile binner whose edges come from a *seeded row sketch*.

    The base :class:`Binner` also subsamples huge inputs, but it draws
    from whatever rows one fit is given — two fits over different row
    subsets disagree.  The sketch binner instead draws its rows as a
    pure function of ``(n, sketch_size, seed)``, so the fitted edges are
    a property of the *dataset*: any process that fits it (or receives
    it pickled) maps every row subset to byte-identical codes.  That
    fold-independence is what legalises shipping one pre-binned code
    matrix over shared memory (:mod:`repro.exec.process`) and slicing
    it per fold (:mod:`repro.data.binned`).

    When ``sketch_size >= n`` the sketch is the full data and the fit
    equals ``Binner(max_bins).fit(X)`` exactly (property-tested).
    """

    def __init__(self, max_bins: int = 255, sketch_size: int = 131_072,
                 seed: int = 0) -> None:
        super().__init__(max_bins=max_bins)
        if sketch_size < 2:
            raise ValueError(f"sketch_size must be >= 2, got {sketch_size}")
        self.sketch_size = int(sketch_size)
        self.sketch_seed = int(seed)

    def sketch_rows(self, n: int) -> np.ndarray:
        """The (sorted) row indices the sketch draws from an ``n``-row
        input — deterministic in ``(n, sketch_size, seed)``."""
        n = int(n)
        if n <= self.sketch_size:
            return np.arange(n)
        rng = np.random.default_rng(self.sketch_seed)
        return np.sort(rng.choice(n, self.sketch_size, replace=False))

    def fit(self, X: np.ndarray) -> "SketchBinner":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        rows = self.sketch_rows(X.shape[0])
        sub = X if rows.size == X.shape[0] else X[rows]
        # the parent never re-subsamples: sub has at most sketch_size
        # (== self._subsample) rows by construction
        self._subsample = max(self._subsample, sub.shape[0])
        return Binner.fit(self, sub)

    def codes_from_base(self, base_codes: np.ndarray) -> np.ndarray:
        """The sketch binner *is* the base grid — identity."""
        return base_codes


class DerivedBinner(Binner):
    """A coarser grid derived from an already-fit base binner.

    Group boundaries are chosen equi-depth from per-base-bin occupancy
    counts (taken on the base binner's sketch), so the derived grid
    adapts to the data like a direct quantile fit would while remaining
    a pure function of ``(base edges, counts, max_bins)`` — both sides
    of a shared-memory boundary derive byte-identical grids without
    touching raw floats.

    The fitted state is a plain :class:`Binner` (``bin_edges_`` is a
    per-feature *subset* of the base edges, so the inherited float
    ``transform`` applies unchanged) plus per-feature ``remaps_`` that
    gather base codes straight to derived codes — provably equivalent
    to transforming the raw value, because no base edge lies strictly
    inside a base bin.
    """

    def __init__(self, base: Binner, counts: list[np.ndarray],
                 max_bins: int) -> None:
        super().__init__(max_bins=max_bins)
        if base.bin_edges_ is None:
            raise RuntimeError("DerivedBinner needs a fitted base binner")
        self.base = base
        mb = int(max_bins)
        edges: list[np.ndarray] = []
        n_bins = np.empty(len(base.bin_edges_), dtype=np.int64)
        remaps: list[np.ndarray] = []
        for j, be in enumerate(base.bin_edges_):
            cut = _equidepth_cuts(np.asarray(counts[j]), be.size, mb)
            e = be if cut is None else be[cut]
            edges.append(e)
            n_bins[j] = e.size + 1
            # base bin b (1..be.size+1) is represented by its right edge
            # (inf for the open top bin); searchsorted of that
            # representative against the derived edge subset is the
            # derived code every value in the bin maps to
            rep = np.append(be, np.inf)
            remap = np.zeros(be.size + 2, dtype=np.int64)
            remap[1:] = np.searchsorted(e, rep, side="left") + 1
            remaps.append(remap.astype(code_dtype(int(e.size + 2))))
        self.bin_edges_ = edges
        self.n_bins_ = n_bins + 1
        self.remaps_ = remaps

    def codes_from_base(self, base_codes: np.ndarray) -> np.ndarray:
        """Gather derived codes straight from *base* codes (no floats)."""
        out = np.empty(base_codes.shape,
                       dtype=code_dtype(int(self.n_bins_.max())))
        for j, remap in enumerate(self.remaps_):
            out[:, j] = remap[base_codes[:, j]]
        return out


def _equidepth_cuts(counts: np.ndarray, n_edges: int,
                    max_bins: int) -> np.ndarray | None:
    """Indices into the base edge array where the derived grid keeps an
    edge, placed equi-depth by base-bin occupancy; ``None`` = identity
    (the base already has at most ``max_bins`` value bins).

    ``counts`` is the per-code occupancy (index 0 = missing bin) of the
    ``n_edges + 1`` value bins the base edges delimit.
    """
    n_value_bins = n_edges + 1
    if n_value_bins <= max_bins:
        return None
    vc = np.asarray(counts[1:n_value_bins + 1], dtype=np.float64)
    if vc.size < n_value_bins:  # defensive: pad truncated counts
        vc = np.pad(vc, (0, n_value_bins - vc.size))
    if vc.sum() <= 0:  # sketch saw only NaN: fall back to uniform groups
        vc = np.ones(n_value_bins)
    csum = np.cumsum(vc)
    targets = csum[-1] * np.arange(1, max_bins) / max_bins
    cuts = np.searchsorted(csum, targets, side="left")
    return np.unique(np.clip(cuts, 0, n_edges - 1))


# ----------------------------------------------------------------------
class BinnedMatrix:
    """A row-subset of a dataset with a handle to shared pre-binned codes.

    The trial path hands this to histogram learners in place of the raw
    float matrix (they opt in via a ``_uses_binned_plane`` class marker).
    Instead of re-running :meth:`Binner.fit_transform` inside every
    ``fit``, the learner asks for

    * :meth:`binned` — codes for *these* rows under a binner fit on
      *these* rows, memoized in the owning
      :class:`~repro.data.binned.BinnedDataset` so the second trial that
      needs the same (rows, max_bins) pays a dict lookup; and
    * :meth:`codes_with` — these rows transformed by an already-fit
      binner (the validation side of a split), memoized likewise.

    The binner is fit on exactly the rows the learner would have fit it
    on, so trial errors are bit-for-bit identical to the unshared path.
    Anything that is not plane-aware can call :func:`numpy.asarray` on
    this object (or :meth:`raw`) and sees a plain float matrix copy.
    """

    ndim = 2

    def __init__(self, plane, rows: np.ndarray, rows_key: tuple) -> None:
        self._plane = plane
        self._rows = np.asarray(rows)
        self.rows_key = rows_key

    # -- array-likeness -------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_features) of the underlying slice."""
        return (int(self._rows.size), int(self._plane.data.d))

    def __len__(self) -> int:
        return int(self._rows.size)

    def raw(self) -> np.ndarray:
        """The raw float rows (a fresh copy, like ``X[rows]``)."""
        return self._plane.data.X[self._rows]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.raw()
        return out if dtype is None else out.astype(dtype)

    # -- the binned plane -----------------------------------------------
    @property
    def rows(self) -> np.ndarray:
        """Row indices into the plane's dataset."""
        return self._rows

    def binned(self, max_bins: int):
        """(codes, n_bins, binner) with the binner fit on these rows."""
        return self._plane.binned_for(self._rows, self.rows_key, max_bins)

    def codes_with(self, binner: Binner) -> np.ndarray:
        """These rows transformed by an already-fit ``binner``."""
        return self._plane.transform_with(binner, self._rows, self.rows_key)
