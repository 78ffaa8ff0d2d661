"""Shared binned-data plane: bin once per dataset, reuse everywhere.

The paper's premise is that AutoML cost is dominated by trial
wall-clock, yet without this module most of a small trial is *redundant*
work repeated hundreds of times per search:

* every histogram learner re-runs quantile binning over its training
  slice inside ``fit`` — per fold, per trial;
* every trial re-computes the same stratified holdout/k-fold indices
  from scratch (several ``argsort`` passes over the labels);
* the process backend pickles the full dataset into every worker.

:class:`BinnedDataset` is the fix for the first two (the third lives in
:mod:`repro.exec.process`): one plane per dataset memoizes split
indices per ``(kind, n, k/ratio, seed)`` and bin codes per
``(row-subset, max_bins)``.  Learners receive
:class:`~repro.learners.histogram.BinnedMatrix` views and skip their
internal ``Binner.fit_transform`` entirely.  Because the memoized binner
is fit on *exactly* the rows the learner would have used (and the
``Binner`` draws nothing from its RNG below its subsample threshold),
trial results are bit-for-bit identical to binning inside every trial
— asserted by ``tests/core/test_binned_equivalence.py`` against goldens
captured before the plane existed.

The sample-size schedule composes with the cache for free: under
holdout, a sample of size ``s`` is a *prefix* of the fixed shuffled
training order, so its rows key is just ``("ho-tr", ratio, seed, s)``
and the geometric schedule (s, 2s, 4s, ...) touches only ``O(log n)``
distinct entries per ``max_bins``.

Every holdout/CV trial takes this path.  Above
:attr:`BinnedDataset.EXACT_ROW_LIMIT` rows the plane always serves the
dataset-level sketch grid, with exclusive sparse columns bundled
(:mod:`repro.data.bundling`).
"""

from __future__ import annotations

import threading
import weakref
import zlib
from collections import OrderedDict

import numpy as np

from ..learners.histogram import (
    Binner,
    BinnedMatrix,
    DerivedBinner,
    SketchBinner,
    code_dtype,
)
from ..obs.metrics import REGISTRY
from ..obs.trace import trace_span
from .bundling import BundledBinner, BundleLayout, find_bundles
from .dataset import Dataset, holdout_indices, kfold_indices

__all__ = [
    "BinnedDataset",
    "plane_for",
    "row_sample_crc",
    "warm_plane",
]

# plane cache traffic, aggregated across every plane instance in the
# process (series objects bound once at import; inc() is lock+add)
_HELP_SPLIT = "Binned-plane split-index lookups, by cache result."
_HELP_CODES = "Binned-plane bin-code/transform lookups, by cache result."
_m_split_hit = REGISTRY.counter("repro_plane_split_total", _HELP_SPLIT,
                                result="hit")
_m_split_miss = REGISTRY.counter("repro_plane_split_total", _HELP_SPLIT,
                                 result="miss")
_m_codes_hit = REGISTRY.counter("repro_plane_codes_total", _HELP_CODES,
                                result="hit")
_m_codes_miss = REGISTRY.counter("repro_plane_codes_total", _HELP_CODES,
                                 result="miss")
#: rows actually pushed through the sketch base binner — the proof
#: counter that the sample-size schedule touches only the rows it bins
#: (a geometric schedule increments this by O(s), not O(n), per step)
_m_base_rows = REGISTRY.counter(
    "repro_plane_base_rows_binned_total",
    "Rows quantised by the sketch base binner (work actually done).",
)


def row_sample_crc(data: Dataset) -> int:
    """CRC32 of a first-64-row sample of ``X`` and ``y``.

    The shared cheap content probe: :func:`plane_for` revalidates it per
    lookup (in-place rescale/impute/relabel evicts the stale plane
    instead of silently serving old codes and splits), and
    :func:`repro.exec.engine.dataset_token` folds it into trial-cache
    keys.  Object-dtype labels have no stable buffer and are skipped.
    A mutation that leaves the first rows byte-identical escapes the
    probe — datasets handed to a search are treated as immutable (the
    plane marks everything it returns read-only for the same reason).
    """
    crc = zlib.crc32(np.ascontiguousarray(data.X[:64]))
    y = np.ascontiguousarray(data.y[:64])
    if not y.dtype.hasobject:
        crc = zlib.crc32(y, crc)
    return crc


def _quick_content_token(data: Dataset) -> tuple:
    """Shape + row-sample CRC, the plane staleness probe."""
    return (data.n, data.d, row_sample_crc(data))


class _LRU:
    """Tiny bounded mapping (not thread-safe; callers hold the lock).

    Bounded by entry count and, when ``max_bytes`` is given, by the
    summed ``nbytes`` reported at ``put`` time — entry counts alone
    would let a wide/tall dataset pin hundreds of MB of bin codes.
    """

    def __init__(self, maxsize: int, max_bytes: int | None = None) -> None:
        self.maxsize = int(maxsize)
        self.max_bytes = max_bytes
        self._d: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            value = self._d[key]
        except KeyError:
            self.misses += 1
            return None
        self._d.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value, nbytes: int = 0) -> None:
        if key in self._d:
            self.nbytes -= self._sizes.pop(key, 0)
        self._d[key] = value
        self._d.move_to_end(key)
        if self.max_bytes is not None:
            self._sizes[key] = int(nbytes)
            self.nbytes += int(nbytes)
        while len(self._d) > self.maxsize or (
            self.max_bytes is not None
            and self.nbytes > self.max_bytes
            and len(self._d) > 1
        ):
            old, _ = self._d.popitem(last=False)
            self.nbytes -= self._sizes.pop(old, 0)

    def __len__(self) -> int:
        return len(self._d)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _PrefixCodes:
    """A lazily-filled code buffer along a fixed row permutation.

    The controller's sample-size schedule asks for geometrically growing
    *prefixes* of one shuffled training order; this buffer materialises
    codes for exactly the rows each request adds (``[filled:s]``) and
    serves read-only views, so a search that never leaves small budgets
    never pays for (or allocates pages of) the full matrix — the buffer
    is ``np.empty``, untouched tail pages stay virtual.
    """

    def __init__(self, order: np.ndarray, binner) -> None:
        self._order = order
        self._binner = binner
        self._buf: np.ndarray | None = None
        self._filled = 0
        self._fill_lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of *filled* rows (what the schedule actually touched)."""
        if self._buf is None:
            return 0
        return self._filled * self._buf.shape[1] * self._buf.itemsize

    def codes(self, s: int, plane: "BinnedDataset") -> np.ndarray:
        # the owning plane is passed in, not stored: a back-reference
        # would put every plane in a cycle that only a full GC frees
        s = int(s)
        with self._fill_lock:
            if self._buf is None:
                d_out = int(len(self._binner.n_bins_))
                dtype = code_dtype(int(np.max(self._binner.n_bins_)))
                self._buf = np.empty((self._order.size, d_out), dtype=dtype)
            if s > self._filled:
                new_rows = self._order[self._filled:s]
                self._buf[self._filled:s] = self._binner.codes_from_base(
                    plane._base_codes_rows(new_rows)
                )
                self._filled = s
            view = self._buf[:s]
        view.flags.writeable = False
        return view


class BinnedDataset:
    """Per-dataset cache of split indices, fitted binners, and bin codes.

    One instance serves a whole search (and, on the process backend, a
    whole worker): every executor that evaluates trials against the same
    :class:`Dataset` object shares one plane via :func:`plane_for`.

    All returned arrays are marked read-only — they are shared across
    trials (and across threads on the thread backend), so accidental
    in-place mutation by a learner must fail loudly rather than corrupt
    every later trial.
    """

    #: up to this row count the plane pre-bins *exactly* as a learner's
    #: own binning would (a fresh ``Binner`` per (rows, max_bins)),
    #: so trial errors are bit-for-bit frozen against the goldens.
    #: Above it, per-fold refits are the scaling bottleneck and the
    #: plane switches to the dataset-level sketch grid below — an
    #: intended semantic change at scale (errors stay statistically
    #: equivalent, not bitwise)
    EXACT_ROW_LIMIT = 50_000

    #: the dataset-level sketch grid: one seeded :class:`SketchBinner`
    #: at SKETCH_BASE_BINS (255 value bins + missing -> uint8 codes)
    #: fit on a SKETCH_SIZE-row sketch; every searched ``max_bin`` is
    #: derived from it by equi-depth regrouping, so codes for any row
    #: subset are a gather — fold-independent and shippable over shm
    SKETCH_BASE_BINS = 255
    SKETCH_SIZE = 131_072
    SKETCH_SEED = 0

    #: byte budgets for the code caches (codes are uint8/uint16, so the
    #: defaults hold hundreds of fold x max_bins combinations for suite
    #: data while capping wide/tall datasets at a sane footprint)
    BINNED_CACHE_BYTES = 192 << 20
    TRANSFORM_CACHE_BYTES = 64 << 20

    #: bound on live prefix code buffers (one per (split, max_bins))
    MAX_PREFIX_BUFFERS = 8

    def __init__(self, data: Dataset, max_binned: int = 64,
                 max_transforms: int = 192, max_splits: int = 64) -> None:
        # held weakly: plane_for parks the plane on the dataset, and a
        # strong back-reference would keep every fit's data and caches
        # alive in a cycle until a full GC pass
        self._data_ref = weakref.ref(data)
        self._lock = threading.Lock()
        self._splits = _LRU(max_splits)
        # (rows_key, max_bins) -> (codes, n_bins, binner)
        self._binned = _LRU(max_binned, max_bytes=self.BINNED_CACHE_BYTES)
        # (binner token, rows_key) -> codes
        self._transforms = _LRU(max_transforms,
                                max_bytes=self.TRANSFORM_CACHE_BYTES)
        self._content_token = _quick_content_token(data)
        # sketch-path state: built lazily by _ensure_sketch (parent) or
        # injected by adopt_global_codes (shm worker)
        self._sketch_lock = threading.Lock()
        self._sketch_state: dict | None = None
        self._force_sketch = False
        self._global_binners: dict[int, object] = {}
        # (prefix base key, effective max_bins) -> _PrefixCodes
        self._prefix: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def data(self) -> Dataset:
        """The dataset this plane serves (the caller keeps it alive)."""
        data = self._data_ref()
        if data is None:
            raise ReferenceError("the plane's dataset has been freed")
        return data

    @property
    def exact(self) -> bool:
        """Whether pre-binning here is bit-for-bit equal to in-learner
        binning (see :attr:`EXACT_ROW_LIMIT`)."""
        if self._force_sketch:
            return False
        return self.data.n <= self.EXACT_ROW_LIMIT

    @property
    def sketch(self) -> bool:
        """Whether this plane serves dataset-level sketch-grid codes
        (large data, or a worker that adopted shipped codes)."""
        return not self.exact

    def stats(self) -> dict:
        """Cache occupancy/hit counters + byte footprint (observability,
        tests, and the large-n bench's memory column)."""
        with self._lock:
            prefix_bytes = sum(p.nbytes for p in self._prefix.values())
            out = {
                "splits": len(self._splits),
                "binned": len(self._binned),
                "transforms": len(self._transforms),
                "split_hits": self._splits.hits,
                "binned_hits": self._binned.hits,
                "transform_hits": self._transforms.hits,
                "prefix_buffers": len(self._prefix),
                "plane_bytes": (self._binned.nbytes + self._transforms.nbytes
                                + prefix_bytes),
                "sketch": self.sketch,
                "adopted_codes": self._force_sketch,
                "bundles": 0,
            }
        st = self._sketch_state
        if st is not None:
            out["bundles"] = len(st["bundles"])
            if st["base_codes"] is not None:
                out["base_codes_bytes"] = int(st["base_codes"].nbytes)
        return out

    # -- split memoization ---------------------------------------------
    def holdout_split(self, ratio: float, seed: int):
        """Memoized stratified holdout indices, exactly as
        ``evaluate_config`` computed them per-trial: a fresh
        ``default_rng(seed)`` over the full data."""
        key = ("holdout", float(ratio), int(seed))
        with self._lock:
            cached = self._splits.get(key)
        if cached is not None:
            _m_split_hit.inc()
            return cached
        _m_split_miss.inc()
        with trace_span("plane.split", kind="holdout"):
            y = self.data.y if self.data.is_classification else None
            tr, va = holdout_indices(
                self.data.n, ratio, y=y, rng=np.random.default_rng(seed)
            )
            value = (_readonly(tr), _readonly(va))
        with self._lock:
            self._splits.put(key, value)
        return value

    def kfold_split(self, n_sub: int, k: int, seed: int):
        """Memoized stratified k-fold indices over the first ``n_sub``
        rows (the paper's subsample-of-shuffled-data prefix)."""
        key = ("cv", int(n_sub), int(k), int(seed))
        with self._lock:
            cached = self._splits.get(key)
        if cached is not None:
            _m_split_hit.inc()
            return cached
        _m_split_miss.inc()
        with trace_span("plane.split", kind="cv"):
            y = self.data.y[:n_sub] if self.data.is_classification else None
            folds = [
                (_readonly(tr), _readonly(va))
                for tr, va in kfold_indices(
                    n_sub, k, y=y, rng=np.random.default_rng(seed)
                )
            ]
        with self._lock:
            self._splits.put(key, folds)
        return folds

    # -- binned codes ---------------------------------------------------
    def view(self, rows: np.ndarray, rows_key: tuple) -> BinnedMatrix:
        """A :class:`BinnedMatrix` over ``rows``; ``rows_key`` must
        uniquely describe the row subset (it is the memoization key)."""
        return BinnedMatrix(self, rows, rows_key)

    def binned_for(self, rows: np.ndarray, rows_key: tuple, max_bins: int):
        """(codes, n_bins, binner) for ``rows`` at ``max_bins``.

        Below :attr:`EXACT_ROW_LIMIT` this mirrors the in-learner path
        byte for byte: ``Binner(max_bins)`` fit and applied to
        ``X[rows]``.  On the sketch path (:attr:`sketch`) the binner is
        the dataset-level grid from :meth:`global_binner` and the codes
        are a gather — identical for every fold and on both sides of
        the shm boundary.  The binner carries a ``plane_token`` so
        validation-side transforms can memoize against it.
        """
        if self.sketch:
            return self._sketch_binned(rows, rows_key, max_bins)
        key = (rows_key, int(max_bins))
        with self._lock:
            cached = self._binned.get(key)
        if cached is not None:
            _m_codes_hit.inc()
            return cached
        _m_codes_miss.inc()
        with trace_span("plane.codes", max_bins=int(max_bins)):
            sub = self.data.X[rows]
            binner = Binner(max_bins=int(max_bins)).fit(sub)
            binner.plane_token = key
            codes = _readonly(binner.transform(sub))
            value = (codes, binner.n_bins_, binner)
        with self._lock:
            self._binned.put(key, value, nbytes=codes.nbytes)
        return value

    def transform_with(self, binner: Binner, rows: np.ndarray,
                       rows_key: tuple) -> np.ndarray:
        """``binner.transform(X[rows])``, memoized per (binner, rows).

        A binner without a ``plane_token`` (fit outside the plane) is
        applied directly — correctness never depends on the cache.
        """
        token = getattr(binner, "plane_token", None)
        if token is None:
            return binner.transform(self.data.X[rows])
        key = (token, rows_key)
        with self._lock:
            cached = self._transforms.get(key)
        if cached is not None:
            _m_codes_hit.inc()
            return cached
        _m_codes_miss.inc()
        with trace_span("plane.transform"):
            if token[0] == "global":
                # sketch-grid binner: derive from base codes (a gather
                # on adopted shm codes — never touches raw floats, so
                # this works against a codes-only worker's stub X)
                codes = binner.codes_from_base(self._base_codes_rows(rows))
            else:
                codes = binner.transform(self.data.X[rows])
            codes = _readonly(codes)
        with self._lock:
            self._transforms.put(key, codes, nbytes=codes.nbytes)
        return codes

    # -- the dataset-level sketch grid (large n) ------------------------
    def _ensure_sketch(self) -> dict:
        """Build (once) the sketch state: the base binner, per-base-bin
        sketch occupancy counts, per-feature default codes, and the
        exact-verified exclusive bundles.  Deterministic in the dataset
        content and the SKETCH_* class attributes.

        When the sketch is every row (``n <= SKETCH_SIZE``) its codes
        *are* the full base-code matrix: they are kept, so no later
        consumer bins a row again, and bundles found on them need no
        separate verification pass."""
        st = self._sketch_state
        if st is not None:
            return st
        with self._sketch_lock:
            if self._sketch_state is not None:
                return self._sketch_state
            with trace_span("plane.sketch_fit"):
                base = SketchBinner(self.SKETCH_BASE_BINS, self.SKETCH_SIZE,
                                    self.SKETCH_SEED).fit(self.data.X)
                rows = base.sketch_rows(self.data.n)
                every_row = rows.size == self.data.n
                sk = base.transform(
                    self.data.X if every_row else self.data.X[rows]
                )
                _m_base_rows.inc(int(sk.shape[0]))
                counts = [
                    np.bincount(sk[:, j], minlength=int(base.n_bins_[j]))
                    for j in range(sk.shape[1])
                ]
                defaults = np.asarray([int(np.argmax(c)) for c in counts],
                                      dtype=np.int64)
                bundles = find_bundles(sk, base.n_bins_, defaults)
                if not every_row:
                    bundles = self._verify_bundles(bundles, base, defaults)
            self._sketch_state = {
                "base": base, "counts": counts, "defaults": defaults,
                "bundles": bundles,
                "base_codes": _readonly(sk) if every_row else None,
            }
        return self._sketch_state

    def _verify_bundles(self, bundles: list[list[int]], base: Binner,
                        defaults: np.ndarray) -> list[list[int]]:
        """Exactness pass: a bundle found on the sketch is kept only for
        members proven conflict-free on the *full* columns — bundling
        must never let two active codes collide.  Touches only the
        candidate columns, never the whole matrix."""
        X = self.data.X
        verified = []
        for b in bundles:
            busy = np.zeros(self.data.n, dtype=bool)
            keep = []
            for j in b:
                act = base.transform_column(X[:, j], j) != defaults[j]
                if np.any(busy & act):
                    continue
                busy |= act
                keep.append(j)
            if len(keep) >= 2:
                verified.append(keep)
        return verified

    def sketch_state(self) -> dict:
        """The (built-on-demand) sketch grid state — what the process
        backend ships to codes-only workers."""
        return self._ensure_sketch()

    def adopt_global_codes(self, base: Binner, counts: list, defaults,
                           bundles: list, base_codes: np.ndarray) -> None:
        """Inject a shipped sketch grid plus the full base-code matrix
        (a shared-memory view, in workers).  The plane then serves every
        request by gathering from ``base_codes`` — raw ``X`` is never
        read again, so a stub feature matrix suffices."""
        with self._sketch_lock:
            self._sketch_state = {
                "base": base,
                "counts": [np.asarray(c) for c in counts],
                "defaults": np.asarray(defaults, dtype=np.int64),
                "bundles": [list(map(int, b)) for b in bundles],
                "base_codes": base_codes,
            }
            self._force_sketch = True

    def fill_base_codes(self, out: np.ndarray) -> np.ndarray:
        """Copy the full base-code matrix into ``out`` (the shm exporter
        passes the segment-backed array).  The matrix is the one the
        plane keeps (:meth:`_full_base_codes`) and the winner's retrain
        gathers from: on data the sketch covered the export bins
        nothing, and above ``SKETCH_SIZE`` every row is binned once for
        the export and the retrain together."""
        out[...] = self._full_base_codes()
        return out

    def _full_base_codes(self) -> np.ndarray:
        """The kept (n, d) base-code matrix, binned on first use.

        The sketch keeps it when it saw every row; above ``SKETCH_SIZE``
        the first consumer that needs every row (the shm export or the
        winner's retrain) bins them here, chunk-wise so transient float
        memory stays ~16 MB regardless of n.  Prefix requests made
        before then stay lazy (:class:`_PrefixCodes` bins O(s) rows)."""
        st = self._ensure_sketch()
        if st["base_codes"] is not None:
            return st["base_codes"]
        with self._sketch_lock:
            if st["base_codes"] is None:
                base = st["base"]
                n, d = self.data.n, self.data.d
                out = np.empty((n, d),
                               dtype=code_dtype(int(base.n_bins_.max())))
                step = max(1, (16 << 20) // max(1, d * 8))
                for i in range(0, n, step):
                    out[i:i + step] = base.transform(self.data.X[i:i + step])
                _m_base_rows.inc(int(n))
                st["base_codes"] = _readonly(out)
        return st["base_codes"]

    def global_binner(self, max_bins: int):
        """The dataset-level binner serving ``max_bins`` (memoized).

        ``max_bins >= SKETCH_BASE_BINS`` serves the base grid itself —
        the sketch grid is the fidelity ceiling, searched values above
        it are clamped; coarser values get an equi-depth
        :class:`DerivedBinner`.  When exclusive bundles exist the
        result is wrapped in a :class:`BundledBinner` so learners see
        the merged columns transparently.
        """
        st = self._ensure_sketch()
        base = st["base"]
        eff = min(int(max_bins), int(base.max_bins))
        with self._lock:
            binner = self._global_binners.get(eff)
        if binner is not None:
            return binner
        inner = (base if eff == int(base.max_bins)
                 else DerivedBinner(base, st["counts"], eff))
        if st["bundles"]:
            defaults = st["defaults"]
            if inner is base:
                inner_defaults = defaults
            else:
                inner_defaults = np.asarray(
                    [int(inner.remaps_[j][defaults[j]])
                     for j in range(len(defaults))],
                    dtype=np.int64,
                )
            layout = BundleLayout(inner.n_bins_, inner_defaults,
                                  st["bundles"])
            binner = BundledBinner(inner, layout)
        else:
            binner = inner
        binner.plane_token = ("global", eff)
        with self._lock:
            binner = self._global_binners.setdefault(eff, binner)
        return binner

    def _base_codes_rows(self, rows: np.ndarray) -> np.ndarray:
        """Base-grid codes for ``rows``: a gather when the plane holds
        the full matrix (kept by the sketch, built by a request for
        every row, or adopted from shm), a transform of just those rows
        otherwise."""
        st = self._ensure_sketch()
        bc = st["base_codes"]
        if bc is None and np.size(rows) == self.data.n:
            bc = self._full_base_codes()
        if bc is not None:
            return bc[rows]
        _m_base_rows.inc(int(np.size(rows)))
        return st["base"].transform(self.data.X[rows])

    def _sketch_binned(self, rows: np.ndarray, rows_key: tuple,
                       max_bins: int):
        binner = self.global_binner(max_bins)
        eff = binner.plane_token[-1]
        if rows_key and rows_key[0] == "ho-tr":
            # rows are a prefix of the fixed holdout training order
            # (rows_key == ("ho-tr", ratio, seed, s)); serve them from
            # the fill-on-demand prefix buffer
            codes = self._prefix_codes(rows_key, eff, binner,
                                       int(np.size(rows)))
            return (codes, binner.n_bins_, binner)
        key = (rows_key, "g", eff)
        with self._lock:
            cached = self._binned.get(key)
        if cached is not None:
            _m_codes_hit.inc()
            return cached
        _m_codes_miss.inc()
        with trace_span("plane.codes", max_bins=int(eff)):
            codes = _readonly(
                binner.codes_from_base(self._base_codes_rows(rows))
            )
            value = (codes, binner.n_bins_, binner)
        with self._lock:
            self._binned.put(key, value, nbytes=codes.nbytes)
        return value

    def _prefix_codes(self, rows_key: tuple, eff: int, binner,
                      s: int) -> np.ndarray:
        pkey = (rows_key[:3], eff)
        with self._lock:
            pc = self._prefix.get(pkey)
            if pc is not None:
                self._prefix.move_to_end(pkey)
        if pc is None:
            order, _ = self.holdout_split(rows_key[1], rows_key[2])
            fresh = _PrefixCodes(order, binner)
            with self._lock:
                pc = self._prefix.setdefault(pkey, fresh)
                self._prefix.move_to_end(pkey)
                while len(self._prefix) > self.MAX_PREFIX_BUFFERS:
                    self._prefix.popitem(last=False)
        if s <= pc._filled:
            _m_codes_hit.inc()
        else:
            _m_codes_miss.inc()
        return pc.codes(s, self)


# ----------------------------------------------------------------------
#: fallback ``max_bins`` set for plane warmup when the learner registry
#: cannot be inspected (LGBM/XGB 255, CatBoost-like 128, forests 64)
_WARM_MAX_BINS = (255, 128, 64)

_warm_bins_cache: tuple | None = None


def _default_warm_bins() -> tuple:
    """The ``max_bins`` values a first trial actually asks the plane for,
    derived from the registered plane-aware learners' own defaults
    (``max_bin`` constructor default, or the ``_plane_max_bins`` class
    attribute for learners that bin at a fixed width) — so warmup tracks
    the learners instead of a hardcoded copy of their defaults."""
    global _warm_bins_cache
    if _warm_bins_cache is not None:
        return _warm_bins_cache
    import inspect

    from ..core.registry import all_learners  # lazy: avoids import cycle

    bins = set()
    for spec in all_learners().values():
        for cls in (spec.classifier_cls, spec.regressor_cls):
            if cls is None or not getattr(cls, "_uses_binned_plane", False):
                continue
            fixed = getattr(cls, "_plane_max_bins", None)
            if fixed is not None:
                bins.add(int(fixed))
                continue
            try:
                default = inspect.signature(cls).parameters["max_bin"].default
                bins.add(int(default))
            except (KeyError, TypeError, ValueError):
                pass
    _warm_bins_cache = tuple(sorted(bins, reverse=True)) or _WARM_MAX_BINS
    return _warm_bins_cache


def warm_plane(
    data: Dataset,
    *,
    resampling: str = "holdout",
    holdout_ratio: float = 0.1,
    seed: int = 0,
    n_splits: int = 5,
    sample_size: int | None = None,
    max_bins: tuple | None = None,
):
    """Pre-populate the plane caches a search's first trial will hit.

    Process workers call this from their initializer
    (:func:`repro.exec.process._init_worker`) so the first trial per
    worker pays no cold-cache cost: the split indices for the search's
    (resampling, ratio/k, seed), the training-prefix bin codes at the
    default ``max_bins`` of each histogram learner family, and the
    matching validation-side transforms are computed up front.  Keys are
    built exactly as :func:`repro.core.evaluate._plane_error` builds
    them — a warmed entry *is* the entry a trial looks up.

    ``sample_size`` mirrors the controller's initial sample size (the
    fidelity the first trials run at); ``None`` warms the full training
    slice.  Returns the warmed plane.
    """
    if max_bins is None:
        max_bins = _default_warm_bins()
    plane = plane_for(data)
    if resampling == "holdout":
        tr, va = plane.holdout_split(holdout_ratio, seed)
        s = tr.size if sample_size is None else min(int(sample_size), tr.size)
        tr_key = ("ho-tr", float(holdout_ratio), int(seed), int(s))
        va_key = ("ho-va", float(holdout_ratio), int(seed))
        for mb in max_bins:
            _, _, binner = plane.binned_for(tr[:s], tr_key, mb)
            plane.transform_with(binner, va, va_key)
    elif resampling == "cv":
        n_sub = (
            data.n if sample_size is None else min(int(sample_size), data.n)
        )
        k = min(int(n_splits), n_sub)
        folds = plane.kfold_split(n_sub, k, seed)
        for i, (tr, va) in enumerate(folds):
            for mb in max_bins:
                _, _, binner = plane.binned_for(
                    tr, ("cv-tr", n_sub, k, int(seed), i), mb
                )
                plane.transform_with(
                    binner, va, ("cv-va", n_sub, k, int(seed), i)
                )
    return plane


_plane_attach_lock = threading.Lock()


def plane_for(data: Dataset) -> BinnedDataset:
    """The shared plane for ``data``, cached on the dataset object.

    Storing the plane as an attribute of the :class:`Dataset` ties its
    lifetime (and the up-to-hundreds-of-MB of cached codes it may hold)
    exactly to the data: the plane refers back to the dataset only
    weakly, so when the caller drops the dataset, reference counting
    frees both at once — no module-global registry pinning old datasets
    alive, and no cycle waiting for the garbage collector.  A
    row-sample CRC is revalidated per lookup so in-place mutation of
    the arrays rebuilds the plane rather than serving stale codes and
    splits.
    """
    token = _quick_content_token(data)
    plane = getattr(data, "_binned_plane", None)
    if (
        plane is not None
        and plane._data_ref() is data
        and plane._content_token == token
    ):
        return plane
    with _plane_attach_lock:
        plane = getattr(data, "_binned_plane", None)
        if (
            plane is not None
            and plane._data_ref() is data
            and plane._content_token == token
        ):
            return plane
        plane = BinnedDataset(data)
        try:
            data._binned_plane = plane
        except (AttributeError, TypeError):  # frozen/slotted container:
            pass  # fall back to an uncached per-call plane
    return plane
