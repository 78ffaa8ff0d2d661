"""The ``python -m repro chaos`` drill: prove the recovery machinery.

A chaos drill is the executable form of the failure-semantics contract:
it installs a seeded :class:`~repro.faults.FaultPlan`, runs a small
search and a serving session *through the real code paths*, and checks
the properties the README promises —

1. **Determinism**: two drills with the same ``--seed`` inject the same
   faults and produce identical trial logs, retry counts, and best
   config.
2. **Absorption**: a search under 20 % soft worker crashes (with
   retries on) converges to the *same best config* as the fault-free
   run — crashes cost retries, never answers.
3. **Degradation without leaks**: an injected shared-memory failure
   degrades a process-backend search to the thread backend, and it and
   mid-drill pool rebuilds leave zero ``repro-ds-*`` segments in
   ``/dev/shm``.
4. **Load shedding**: an overloaded server rejects with
   :class:`AdmissionRejected` / :class:`BatcherSaturated` (the HTTP
   429/503 surface) instead of hanging, and serves normally again the
   moment pressure stops.
5. **Quarantine**: a corrupted registry artifact is quarantined and the
   ``latest`` alias falls back to the previous good version.

Exit code 0 iff every check passes, so CI can run the drill as a single
gate (``python -m repro chaos --seed 0 --budget 30s``).
"""

from __future__ import annotations

import glob
import json
import re
import threading
import time

from .plan import FaultPlan, install

__all__ = ["parse_budget", "run_drill"]

_SHM_GLOB = "/dev/shm/repro-ds-*"


def parse_budget(text: str) -> float:
    """``"30s"`` / ``"2m"`` / ``"500ms"`` / ``"45"`` -> seconds."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*(ms|s|m|h|)\s*",
                     str(text))
    if not m:
        raise ValueError(
            f"cannot parse budget {text!r}; use e.g. 30s, 2m, 500ms"
        )
    scale = {"ms": 1e-3, "s": 1.0, "": 1.0, "m": 60.0, "h": 3600.0}
    return float(m.group(1)) * scale[m.group(2)]


def _shm_segments() -> list[str]:
    return sorted(glob.glob(_SHM_GLOB))


def _sig(result) -> list[tuple]:
    """The deterministic identity of a trial log, retries included."""
    return [
        (t.learner, tuple(sorted(t.config.items())), t.error,
         t.failure is None, getattr(t, "attempts", 1))
        for t in result.trials
    ]


def _search(data, *, seed: int, plan_spec: dict | None, backend: str,
            budget_s: float, retries: int = 3):
    """One small search, optionally under an installed fault plan."""
    from ..core.automl import AutoML

    plan = FaultPlan.from_spec(plan_spec) if plan_spec else None
    prev = install(plan)
    try:
        automl = AutoML(seed=0, init_sample_size=150)
        automl.fit(
            data.X, data.y, task="classification",
            time_budget=budget_s, max_iters=6,
            n_workers=1 if backend == "serial" else 2,
            backend=None if backend == "serial" else backend,
            estimator_list=["lgbm"],
            use_sampling=False,  # proposals independent of trial timing
            resampling="holdout", cv_instance_threshold=0,
            retries=retries,
        )
    finally:
        install(prev)
    return automl, plan


def _drill_search(report: dict, problems: list, data, args,
                  remaining) -> object:
    """Phases 1+2: determinism and crash absorption.  Returns the
    fault-free AutoML (reused to build the serving artifact)."""
    # p=0.36 with retries=3: fault decisions are a pure function of
    # (seed, trial identity, attempt), so for the default --seed 0 this
    # fires a three-deep retry chain on one trial and still converges;
    # an unlucky seed could exhaust a trial's 4 attempts (p**4 ~ 1.7%)
    crash_plan = {
        "seed": args.seed,
        "rules": [{"site": "worker.crash", "probability": 0.36}],
    }
    budget = lambda: max(2.0, min(15.0, remaining()))  # noqa: E731
    clean, _ = _search(data, seed=args.seed, plan_spec=None,
                       backend=args.backend, budget_s=budget())
    faulted_a, _ = _search(data, seed=args.seed, plan_spec=crash_plan,
                           backend=args.backend, budget_s=budget())
    faulted_b, _ = _search(data, seed=args.seed, plan_spec=crash_plan,
                           backend=args.backend, budget_s=budget())
    sig_a, sig_b = _sig(faulted_a.search_result), _sig(faulted_b.search_result)
    retries_a = sum(a[4] - 1 for a in sig_a)
    deterministic = (
        sig_a == sig_b
        and faulted_a.best_config == faulted_b.best_config
        and faulted_a.best_estimator == faulted_b.best_estimator
    )
    absorbed = (
        faulted_a.best_config == clean.best_config
        and faulted_a.best_estimator == clean.best_estimator
        and faulted_a.best_loss == clean.best_loss
    )
    report["search"] = {
        "backend": faulted_a.search_result.backend,
        "trials": faulted_a.search_result.n_trials,
        "retries": retries_a,
        "deterministic": deterministic,
        "crashes_absorbed": absorbed,
        "best": {"learner": clean.best_estimator,
                 "error": clean.best_loss},
    }
    if not deterministic:
        problems.append(
            "nondeterministic: two same-seed faulted searches diverged"
        )
    if not absorbed:
        problems.append(
            "crash absorption failed: faulted best config != fault-free"
        )
    return clean


def _drill_infra(report: dict, problems: list, data, args,
                 remaining) -> None:
    """Phase 3: infra faults (shm attach, failed trials, native build)
    must degrade, not crash the search.  On the process backend the
    failed shared-memory export must have degraded the search to the
    thread backend."""
    import numpy as np

    infra_plan = {
        "seed": args.seed,
        "rules": [
            {"site": "shm.attach", "probability": 1.0, "count": 2},
            # count-capped: failed (non-crash) trials are not retried,
            # and a re-proposed config re-hits the same deterministic
            # decision — uncapped, a failing init config would fail the
            # whole search (every re-proposal shares its fault key)
            {"site": "trial.exception", "probability": 0.3, "count": 2},
            {"site": "native.build", "probability": 1.0, "count": 1},
        ],
    }
    try:
        automl, plan = _search(
            data, seed=args.seed, plan_spec=infra_plan,
            backend=args.backend,
            budget_s=max(2.0, min(15.0, remaining())),
        )
        finished = bool(np.isfinite(automl.best_loss))
        result = automl.search_result
        report["infra"] = {
            "backend": result.backend,
            "finished": finished,
            "trials": result.n_trials,
            "failed_trials": len(result.failures),
            "faults_fired_in_driver": plan.fired() if plan else 0,
        }
        if not finished:
            problems.append(
                "infra drill: search under shm/trial faults found no "
                "finite best error"
            )
        if args.backend == "process" and result.backend != "thread":
            problems.append(
                "infra drill: the process search under shm faults "
                f"finished on {result.backend!r}, not degraded to 'thread'"
            )
    except Exception as exc:  # the whole point is that this never throws
        report["infra"] = {"finished": False, "error": repr(exc)}
        problems.append(f"infra drill: search raised {exc!r}")


def _drill_registry(report: dict, problems: list, artifact,
                    tmpdir: str) -> None:
    """Phase 4: corrupt an artifact -> quarantine + alias fallback."""
    import os

    from ..serve.registry import ModelRegistry, RegistryError

    reg = ModelRegistry(os.path.join(tmpdir, "registry"))
    reg.register("chaos", artifact)
    v2 = reg.register("chaos", artifact)
    blob = os.path.join(reg.root, "chaos", f"v{v2}", "artifact.json")
    with open(blob, "ab") as f:
        f.write(b" corrupted")
    try:
        reg.get("chaos", "latest")  # must fall back to v1
        served = True
    except RegistryError:
        served = False
    quarantined = any(
        e["version"] == v2 and e.get("quarantined")
        for e in reg.versions("chaos")
    )
    report["registry"] = {
        "fallback_served": served, "quarantined": quarantined,
    }
    if not served:
        problems.append(
            "registry drill: alias read failed instead of falling back"
        )
    if not quarantined:
        problems.append(
            "registry drill: corrupted version was not quarantined"
        )


def _drill_serving(report: dict, problems: list, artifact,
                   args) -> None:
    """Phase 5: overload -> bounded sheds, then immediate recovery."""
    from ..serve.batching import BatcherSaturated
    from ..serve.server import (AdmissionRejected, DeadlineExceeded,
                                ModelServer)

    server = ModelServer(
        artifacts={"chaos": artifact},
        max_batch=4, max_delay_ms=2.0,
        max_inflight=2, max_queue=2,
    )
    # every predict sleeps 20 ms while holding its admission slot, so
    # 8 concurrent clients must overflow max_inflight=2 deterministically
    prev = install({
        "seed": args.seed,
        "rules": [{"site": "http.predict", "probability": 1.0,
                   "mode": "delay", "param": 0.02}],
    })
    counts = {"ok": 0, "shed": 0, "other": 0}
    lock = threading.Lock()
    row = [0.0] * int(artifact.metadata.get("n_features_in") or 6)

    def client() -> None:
        for _ in range(4):
            try:
                server.predict("chaos", row)
                outcome = "ok"
            except (AdmissionRejected, BatcherSaturated,
                    DeadlineExceeded):
                outcome = "shed"
            except Exception:
                outcome = "other"
            with lock:
                counts[outcome] += 1

    try:
        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        install(prev)
    # pressure is off: the very next request must be served normally
    try:
        server.predict("chaos", row)
        recovered = True
    except Exception:
        recovered = False
    finally:
        server.close()
    report["serving"] = {**counts, "recovered": recovered,
                        "sheds_counted": server.shed_counts}
    if counts["shed"] == 0:
        problems.append("serving drill: overload shed zero requests")
    if counts["ok"] == 0:
        problems.append("serving drill: overload starved every request")
    if counts["other"]:
        problems.append(
            f"serving drill: {counts['other']} requests failed with an "
            "unexpected error (not a shed)"
        )
    if not recovered:
        problems.append("serving drill: server did not recover after load")


def run_drill(args) -> int:
    """Entry point behind ``python -m repro chaos``; returns exit code."""
    import tempfile

    from ..data import make_classification

    budget_s = parse_budget(args.budget)
    t0 = time.monotonic()
    remaining = lambda: budget_s - (time.monotonic() - t0)  # noqa: E731
    shm_before = set(_shm_segments())

    report: dict = {"seed": args.seed, "backend": args.backend,
                    "budget_s": budget_s}
    problems: list[str] = []

    data = make_classification(500, 6, class_sep=1.2, seed=0,
                               name="chaos").shuffled(0)
    clean = _drill_search(report, problems, data, args, remaining)
    _drill_infra(report, problems, data, args, remaining)

    if not args.skip_serving:
        artifact = clean.export_artifact()
        with tempfile.TemporaryDirectory() as tmpdir:
            _drill_registry(report, problems, artifact, tmpdir)
        _drill_serving(report, problems, artifact, args)

    leaked = sorted(set(_shm_segments()) - shm_before)
    report["shm_leaked_segments"] = leaked
    if leaked:
        problems.append(f"leaked /dev/shm segments: {leaked}")

    report["elapsed_s"] = round(time.monotonic() - t0, 2)
    report["passed"] = not problems
    report["problems"] = problems
    if args.json:
        print(json.dumps(report, indent=1, default=str))
    else:
        search, infra = report["search"], report["infra"]
        print(f"search : backend={search['backend']} "
              f"{search['trials']} trials, "
              f"{search['retries']} retries, "
              f"deterministic={search['deterministic']}, "
              f"crashes_absorbed={search['crashes_absorbed']}")
        print(f"infra  : backend={infra.get('backend', '?')} "
              f"finished={infra.get('finished')} "
              f"failed_trials={infra.get('failed_trials', '?')}")
        if "registry" in report:
            r = report["registry"]
            print(f"registry: fallback_served={r['fallback_served']} "
                  f"quarantined={r['quarantined']}")
        if "serving" in report:
            s = report["serving"]
            print(f"serving: ok={s['ok']} shed={s['shed']} "
                  f"recovered={s['recovered']}")
        print(f"shm    : {len(leaked)} leaked segments")
        for p in problems:
            print(f"PROBLEM: {p}")
        print(f"CHAOS DRILL {'PASS' if not problems else 'FAIL'} "
              f"(seed={args.seed}, {report['elapsed_s']}s)")
    return 0 if not problems else 1
