"""Thin Python wrappers giving the C extension the fallback's API.

:class:`NativeKernels` exposes exactly the surface of
:mod:`repro.native.fallback` — ``bin_codes``, ``grow_tree``,
``build_hists``, ``build_class_hists``, ``best_split_scan``,
``ObliviousLevelScorer`` and the traversal pair
``ensemble_predict``/``oblivious_predict`` — so binners, growers and
engines hold one "kernels" object and never branch per node.  The
wrappers only normalise dtypes/contiguity (no-ops on the growers' own
arrays), allocate outputs and route inputs the C loops cannot read
(wide or non-C-contiguous codes, per-node RNG draws) to the reference;
all arithmetic lives in ``_kernels.c`` and is bitwise-equal to the
fallback.
"""

from __future__ import annotations

import math

import numpy as np

from . import fallback
from .fallback import _EPS  # single source of the gain tie-break epsilon

__all__ = ["NativeKernels"]


def _i64(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.int64 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.int64)


def _f64(arr: np.ndarray) -> np.ndarray:
    if arr.dtype == np.float64 and arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr, dtype=np.float64)


#: the code dtypes the C loops stride over
_C_DTYPES = (np.uint8, np.uint16)


def _c_codes(codes: np.ndarray) -> bool:
    """Whether the C kernels can read this codes array directly.

    The C loops stride by itemsize over C-contiguous uint8/uint16 rows —
    a wider integer dtype or another layout (legal on the public grower
    APIs, and handled fine by the numpy reference) would be misread or
    rejected, so those inputs route to the fallback instead.
    """
    return codes.dtype in _C_DTYPES and codes.flags.c_contiguous


class _ObliviousLevelScorer:
    """Native counterpart of ``fallback.ObliviousLevelScorer``."""

    def __init__(self, cmod, codes, cand_features, n_bins, grad, hess,
                 min_child_weight, reg_lambda):
        self._c = cmod
        # gather the candidate columns once per tree (a no-op view when
        # every feature is a candidate in order, the common case)
        if cand_features.size == codes.shape[1] and np.array_equal(
            cand_features, np.arange(codes.shape[1])
        ):
            self._codes_f = np.ascontiguousarray(codes)
        else:
            self._codes_f = np.ascontiguousarray(codes[:, cand_features])
        self._nbf = _i64(n_bins[cand_features])
        self._grad = _f64(grad)
        self._hess = _f64(hess)
        self.F = int(cand_features.size)
        self.nbmax = int(self._nbf.max())
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)

    def score_level(self, node, lvl):
        return self._c.oblivious_level(
            self._codes_f, self._codes_f.dtype.itemsize, node,
            self._grad, self._hess, self._nbf, self.F, 1 << lvl,
            self.nbmax, self.min_child_weight, self.reg_lambda, _EPS,
        )


class NativeKernels:
    """Kernels object backed by the compiled ``_repro_native`` module."""

    is_native = True

    def __init__(self, cmod) -> None:
        self._c = cmod

    def bin_codes(self, X, edges, dtype):
        n, d = X.shape
        out = np.empty((n, d), dtype=dtype)
        if out.dtype not in _C_DTYPES:
            return fallback.bin_codes(X, edges, dtype)
        # the edges are packed per call, never kept: one transient of at
        # most d * max_bins doubles
        offsets = np.zeros(d + 1, dtype=np.int64)
        np.cumsum([e.size for e in edges], out=offsets[1:])
        packed = _f64(np.concatenate(edges)) if d else np.empty(0)
        self._c.bin_codes(_f64(X), n, d, packed, offsets, out,
                          out.dtype.itemsize)
        return out

    def grow_tree(self, codes, grad, hess, n_bins, idx0, features, *,
                  out_leaf=None, **params):
        n = codes.shape[0]
        if (
            params["colsample_bylevel"] < 1.0 or params["extra_random"]
            or not _c_codes(codes)
            or grad.shape != (n,) or hess.shape != (n,)
            or (out_leaf is not None and not (
                out_leaf.dtype == np.int32 and out_leaf.shape == (n,)
                and out_leaf.flags.c_contiguous and out_leaf.flags.writeable
            ))
        ):
            # per-node RNG draws, or inputs the C loop cannot read: the
            # reference loop, still over the C histogram/scan kernels
            return fallback.grow_tree(
                codes, grad, hess, n_bins, idx0, features,
                out_leaf=out_leaf, kernels=self, **params,
            )
        max_depth = params["max_depth"]
        features = _i64(features)
        arrays = self._c.grow_tree(
            codes, codes.dtype.itemsize, codes.shape[1], n, _i64(idx0),
            _f64(grad), _f64(hess), features, _i64(n_bins[features]),
            int(params["max_leaves"]),
            -1 if max_depth is None else max(0, math.ceil(max_depth)),
            float(params["min_child_weight"]), float(params["reg_alpha"]),
            float(params["reg_lambda"]), float(params["min_gain"]), _EPS,
            1 if params["leaf_wise"] else 0,
            int(params["min_samples_leaf"]),
            1 if params["hist_subtraction"] else 0,
            int(params["hist_cache_bytes"]),
            bytearray() if out_leaf is None else out_leaf,
            0 if out_leaf is None else 1,
        )
        return tuple(
            np.frombuffer(buf, dtype=dtype) for buf, dtype in zip(
                arrays, (np.int32, np.int64, np.int32, np.int32, np.float64)
            )
        )

    def build_hists(self, codes, g, h, idx, features, n_bins, nbmax,
                    need_cnt, all_features=False):
        if not _c_codes(codes):
            return fallback.build_hists(codes, g, h, idx, features,
                                        n_bins, nbmax, need_cnt,
                                        all_features=all_features)
        features = _i64(features)
        F = features.size
        out = np.zeros((3 if need_cnt else 2, F, nbmax))
        self._c.build_hists(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(idx),
            _f64(g), _f64(h), features, nbmax, 1 if need_cnt else 0, out,
        )
        return out

    def best_split_scan(self, hists, nbf, n_idx, G, H, parent,
                        min_child_weight, reg_alpha, reg_lambda,
                        min_samples_leaf, rng=None, t_valid=None):
        # t_valid is the fallback's hoisted threshold mask; the C scan
        # derives the same predicate from nbf inline, so it is unused
        if rng is not None:
            # extra-trees threshold draws consume the grower's RNG
            # mid-scan; that mode stays on the numpy reference path
            return fallback.best_split_scan(
                hists, nbf, n_idx, G, H, parent, min_child_weight,
                reg_alpha, reg_lambda, min_samples_leaf, rng=rng,
                t_valid=t_valid,
            )
        P, F, nbmax = hists.shape
        return self._c.best_split_scan(
            hists, P, F, nbmax, _i64(nbf), G, H, parent,
            min_child_weight, reg_alpha, reg_lambda,
            int(min_samples_leaf), int(n_idx),
        )

    def build_class_hists(self, codes, yk, idx, w, features, n_classes,
                          nbmax, all_features=False):
        if not _c_codes(codes):
            return fallback.build_class_hists(
                codes, yk, idx, w, features, n_classes, nbmax,
                all_features=all_features,
            )
        features = _i64(features)
        out = np.zeros((n_classes, features.size, nbmax))
        self._c.build_class_hists(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(idx),
            _i64(yk), b"" if w is None else _f64(w),
            0 if w is None else 1, features, nbmax, out,
        )
        return out

    def ensemble_predict(self, codes, feature, threshold, left, right,
                         value, tree_offset, tree_class, lr, out):
        if not (_c_codes(codes) and out.flags.c_contiguous):
            return fallback.ensemble_predict(
                codes, feature, threshold, left, right, value,
                tree_offset, tree_class, lr, out,
            )
        self._c.ensemble_predict(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(feature),
            _i64(threshold), _i64(left), _i64(right), _f64(value),
            value.shape[1], _i64(tree_offset), _i64(tree_class),
            float(lr), out, out.shape[1],
        )
        return out

    def oblivious_predict(self, codes, features, thresholds, level_offset,
                          leaf_values, leaf_offset, tree_class, lr, out):
        if not (_c_codes(codes) and out.flags.c_contiguous):
            return fallback.oblivious_predict(
                codes, features, thresholds, level_offset, leaf_values,
                leaf_offset, tree_class, lr, out,
            )
        self._c.oblivious_predict(
            codes, codes.dtype.itemsize, codes.shape[1], _i64(features),
            _i64(thresholds), _i64(level_offset), _f64(leaf_values),
            _i64(leaf_offset), _i64(tree_class), float(lr), out,
            out.shape[1],
        )
        return out

    def ObliviousLevelScorer(self, codes, cand_features, n_bins, grad,
                             hess, min_child_weight, reg_lambda):
        # any layout works: the native scorer gathers its own
        # C-contiguous copy of the candidate columns
        if codes.dtype not in _C_DTYPES:
            return fallback.ObliviousLevelScorer(
                codes, cand_features, n_bins, grad, hess,
                min_child_weight, reg_lambda,
            )
        return _ObliviousLevelScorer(
            self._c, codes, cand_features, n_bins, grad, hess,
            min_child_weight, reg_lambda,
        )
