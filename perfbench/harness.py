"""Benchmark harness: set-up, timed phases, output checks and the result.

``run.py`` pins the BLAS threads, checks that the program is present and
calls ``run``.  The program is driven only through its public entry
points, except for the private hooks listed in ``tracer.HOOKS``.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np
import scipy

from uqcr import certainty, cli
from uqcr import coherence as coh
from uqcr import majorization as mj

from tracer import Tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_REPS = 3
T_TOL = 1e-7      # |t - reference|: the solver's default tolerance
S_TOL = 1e-9      # |s - reference|: s comes from exact eigenvalues
SANDWICH_TOL = 1e-8
CHAIN_TOL = 1e-9
# Share of each measurement cycle per phase: bounds pass, certify,
# coherence.  certify_stream solves its two small configs during set-up
# and again in every cycle, so that bounds_s samples the whole run too.
BUDGET = {"certify_stream": (0.4, 0.35, 0.25)}
DEFAULT_BUDGET = (0.6, 0.2, 0.2)
CHUNK_S = 0.5


class Session:
    """Inputs, outputs and check results of one benchmark run."""

    def __init__(self, workload, seed, smoke, refs):
        self.workload, self.seed, self.smoke, self.refs = workload, seed, smoke, refs
        self.attempted = 0
        self.failures = {}
        self.t_err = self.s_err = 0.0
        self.dual_gaps = []
        self.stats = {"polyak_iters": 0, "levels_at_max_iter": 0, "min_levels": 0,
                      "oracle_won": 0, "bounds_bytes": 0}
        # per job, kept across set-up repetitions: first bounds file, (t, s)
        self.first_bytes = {}
        self.envelopes = {}
        self.cert_i = self.coh_i = 0  # cursors into the read-side pools

    def record(self, attempted, failed=0, **where):
        """Count attempted operations and the failed ones, keyed by where."""
        self.attempted += attempted
        if failed:
            key = json.dumps(where, sort_keys=True)
            self.failures[key] = self.failures.get(key, 0) + int(failed)

    @property
    def failed(self):
        return sum(self.failures.values())

    # -- set-up ------------------------------------------------------------

    def setup(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir)
        self.jobs = self.prepare(wl.jobs_for(self.workload, self.seed))
        plan, coh_job = wl.READ_PLANS[self.workload]
        if self.smoke:
            self.jobs = self.jobs[:1]
            plan, coh_job = [(self.jobs[0].name, 1)], self.jobs[0].name
        by_name = {job.name: job for job in self.jobs}
        pools = []
        for i, (name, weight) in enumerate(plan):
            job = by_name[name]
            mats = wl.sample_states(job.constraint, job.dim, wl.STATE_POOL, wl.rng(self.seed, 7, i))
            pools.append((job, weight, wl.density_pool(mats)))
        self.read_ops = [(job, pool[(k * weight + j) % wl.STATE_POOL])
                         for k in range(wl.STATE_POOL)
                         for job, weight, pool in pools for j in range(weight)]
        job = by_name[coh_job]
        bases = wl.coherence_bases(job, job.observables)
        states = wl.density_pool(wl.sample_states("all", job.dim, 64, wl.rng(self.seed, 13)))
        self.coherence_ops = [(rho, basis) for rho in states for basis in bases]

    def prepare(self, jobs):
        """Parse-check and write each job's observable file; draw its sandwich states."""
        for i, job in enumerate(jobs):
            job.observables = wl.parse_checked(job)
            stem = os.path.join(self.workdir, job.ref_key.replace("/", "-"))
            job.obs_path, job.out_path = stem + ".observables.json", stem + ".bounds.json"
            with open(job.obs_path, "w", encoding="utf-8") as fh:
                json.dump(job.doc, fh)
            job.sandwich_states = wl.sample_states(
                job.constraint, job.dim, wl.SANDWICH_SAMPLES, wl.rng(self.seed, 11, i))
        return jobs

    # -- bounds ------------------------------------------------------------

    def bounds_pass(self, k=0):
        """Pass ``k`` over the workload's ``uqcr bounds`` jobs; returns each job's time."""
        jobs = self.jobs
        if k and self.workload in wl.ROTATING and not self.smoke:
            jobs = self.prepare(wl.jobs_for(self.workload, self.seed + k % wl.ROTATION))
        codes, times = [], []
        for job in jobs:
            start = time.perf_counter()
            codes.append(cli.main(job.argv(job.obs_path, job.out_path, self.seed)))
            times.append(time.perf_counter() - start)
        for job, code in zip(jobs, codes):
            self.record(1, code != 0, check="exit_code", job=job.ref_key, code=code)
            if code != 0:
                continue
            with open(job.out_path, "rb") as fh:
                blob = fh.read()
            first = self.first_bytes.setdefault(job.ref_key, blob)
            if first is blob:
                self.stats["bounds_bytes"] += len(blob)
                self._check_bounds(job, json.loads(blob))
            else:
                self.record(1, blob != first, check="byte_identical", job=job.ref_key)
        return times

    def _check_bounds(self, job, doc):
        t, s = np.array(doc["t"]), np.array(doc["s"])
        ref = self.refs.get(job.ref_key)
        self.record(1, ref is None, check="reference_missing", job=job.ref_key)
        if ref is not None:
            ref_t = job.closed_t if job.closed_t is not None else np.array(ref["t"])
            for kind, got, want, tol in (("t", t, ref_t, T_TOL),
                                         ("s", s, np.array(ref["s"]), S_TOL)):
                dev = np.abs(got - want) if got.shape == want.shape else np.array([np.inf])
                if kind == "t":
                    self.t_err = max(self.t_err, float(dev.max()))
                else:
                    self.s_err = max(self.s_err, float(dev.max()))
                bad = [int(i) + 1 for i in np.flatnonzero(~(dev <= tol))]
                self.record(1, bool(bad), check=f"reference_{kind}", job=job.ref_key, levels=bad)
        # sampled admissible states must sit inside the sandwich t < P < s
        proj = np.concatenate([np.stack(obs.projectors) for obs in job.observables])
        probs = np.einsum("sij,pji->sp", job.sandwich_states, proj).real
        prefix = np.cumsum(-np.sort(-probs, axis=1), axis=1)
        outside = ((prefix < np.cumsum(t)[None, :] - SANDWICH_TOL)
                   | (prefix > np.cumsum(s)[None, :] + SANDWICH_TOL))
        self.record(len(prefix))
        bad_rows = outside.any(axis=1)
        first = np.argmax(outside[bad_rows], axis=1) + 1
        for lvl in np.unique(first):
            self.record(0, int(np.sum(first == lvl)), check="sandwich_sampled",
                        job=job.ref_key, level=int(lvl))
        max_iter = doc["solver_config"]["max_iter"]
        for cert in doc["certificates"]["min"]:
            diag = cert["diagnostics"]
            self.stats["min_levels"] += 1
            self.stats["oracle_won"] += diag["residual"] > 0.0
            if doc["constraint"]["kind"] == "all_states":
                self.stats["polyak_iters"] += diag["iterations"]
                self.stats["levels_at_max_iter"] += diag["iterations"] >= max_iter
            if diag["dual_gap"] is not None:
                self.dual_gaps.append((diag["dual_gap"], job.ref_key, cert["level"]))
        total = float(doc["total"])
        self.envelopes[job.ref_key] = (mj.ProbVector(t, total), mj.ProbVector(s, total))

    # -- read side ---------------------------------------------------------

    def certify_one(self):
        """certify_state + lorenz for the next state; returns its latency."""
        job, rho = self.read_ops[self.cert_i % len(self.read_ops)]
        self.cert_i += 1
        t0 = time.perf_counter()
        report = certainty.certify_state(job.observables, rho, self.envelopes[job.ref_key])
        curve = mj.lorenz(report.P)
        latency = time.perf_counter() - t0
        self._check_report(job, report, curve)
        return latency

    def _check_report(self, job, report, curve):
        """Sandwich, then the entropy chain sum H <= H(t) - D(P||t) <= H(t)."""
        chain = abs(curve.values[-1] - report.P.total) <= 1e-9
        if report.tightened_cap is not None:
            chain = (chain and report.entropy_sum <= report.tightened_cap + CHAIN_TOL
                     and report.tightened_cap <= report.entropy_cap + CHAIN_TOL)
        if report.sandwich_ok != (True, True):
            self.record(1, 1, check="certify_sandwich", job=job.ref_key,
                        sandwich_ok=list(report.sandwich_ok))
        else:
            self.record(1, not chain, check="entropy_chain", job=job.ref_key)

    def coherence_one(self):
        """Coherence vector of the next mixed state; returns its latency."""
        rho, basis = self.coherence_ops[self.coh_i % len(self.coherence_ops)]
        self.coh_i += 1
        cfg = coh.CoherenceSampling(samples=wl.COHERENCE_SAMPLES, seed=self.seed)
        t0 = time.perf_counter()
        mu = coh.coherence_vector_mixed_approx(rho, basis, cfg)
        latency = time.perf_counter() - t0
        # the joined vector majorizes the state's own outcome distribution
        born = np.sort(np.einsum("pij,ji->p", np.stack(basis.projectors), rho.matrix).real)[::-1]
        ok = (abs(mu.vector.total - 1.0) <= 1e-12
              and bool(np.all(np.cumsum(born) <= np.cumsum(mu.vector.entries) + 1e-10)))
        self.record(1, not ok, check="coherence_majorizes_born", basis=basis.name)
        return latency


def chunks(op, seconds):
    """Call ``op`` for ``seconds`` in chunks of CHUNK_S; latencies per chunk."""
    out = []
    end = time.perf_counter() + seconds
    while not out or time.perf_counter() < end:
        lat = []
        chunk_end = time.perf_counter() + CHUNK_S
        while not lat or time.perf_counter() < chunk_end:
            lat.append(op())
        out.append(lat)
    return out


def slow_side(values, higher_is_slower=True):
    """The 90th percentile of per-pass or per-chunk values, on the slow side."""
    if len(values) < 2:
        return values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[8] if higher_is_slower else q[0]


# ---------------------------------------------------------------------------

def measure(sess, args, setup_times):
    """Cycles of one bounds pass, a certify slice and a coherence slice.

    The host's speed drifts by up to a factor of two in phases of ten
    seconds to two minutes, and the slow phases are the steady part (see
    README.md).  So the phases are interleaved, the read side is timed in
    CHUNK_S chunks, and every time is reported on the slow side: the 90th
    percentile over passes or chunks (for a rotating workload, bounds_s is
    the median over its instances of each one's slower pass).  The first
    cycle warms up and is not counted.  Cycles continue until the next
    would overrun --seconds; there are at least three.
    """
    share_b, share_c, share_h = BUDGET.get(args.workload, DEFAULT_BUDGET)
    cert, cohs, passes, cycles = [], [], [], []
    start = time.perf_counter()
    while len(cycles) < 3 or time.perf_counter() - start + cycles[-1] <= args.seconds:
        t0 = time.perf_counter()
        times = sess.bounds_pass(len(cycles))
        if cycles:
            # paced by the typical pass, so that one dear pass does not
            # stretch the read-side slices of its cycle
            pace = statistics.median([sum(p) for p in passes + [times]]) / share_b
        else:
            pace = 0.0  # warm-up: one chunk of each
        c = chunks(sess.certify_one, share_c * pace)
        h = chunks(sess.coherence_one, share_h * pace)
        if cycles:
            passes.append(times)
            cert += c
            cohs += h
        cycles.append(time.perf_counter() - t0)
    pass_s = [sum(p) for p in passes]
    if args.workload in wl.ROTATING:
        # Passes solve instances of unequal cost in turn: the slower pass
        # of each instance, then the median over the run's instances, which
        # one dear instance moves by a rank at most.
        per_instance = {}
        for k, t in enumerate(pass_s, start=1):
            per_instance.setdefault(k % wl.ROTATION, []).append(t)
        bounds_s = statistics.median(max(v) for v in per_instance.values())
    else:
        bounds_s = slow_side(pass_s)
    cert_rate = [len(c) / sum(c) for c in cert]
    coh_rate = [len(c) / sum(c) for c in cohs]
    all_coh = [x for c in cohs for x in c]
    cert_p50 = [statistics.median(c) * 1e6 for c in cert]
    all_cert = [x for c in cert for x in c]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (sess.import_s + statistics.median(setup_times), "s"),
        "bounds_s": (bounds_s, "s"),
        "certify_per_s": (slow_side(cert_rate, higher_is_slower=False), "1/s"),
        "certify_p50_us": (slow_side(cert_p50), "us"),
        "coherence_per_s": (slow_side(coh_rate, higher_is_slower=False), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    facts = {
        "cycles": len(cycles), "bounds_passes": len(passes),
        "certify_states": len(all_cert), "certify_chunks": len(cert),
        "coherence_vectors": len(all_coh), "coherence_chunks": len(cohs),
        # recorded but not a gated metric: between runs on a 2-core Xeon VM
        # it moved by more than the largest bound allowed (see README.md)
        "certify_p99_us": statistics.quantiles(all_cert, n=100)[98] * 1e6,
        # whole-run figures, for comparison with the slow-side ones
        "whole_run": {
            "bounds_s": statistics.median(pass_s),
            "certify_per_s": len(all_cert) / sum(all_cert),
            "certify_p50_us": statistics.median(all_cert) * 1e6,
            "coherence_per_s": len(all_coh) / sum(all_coh),
        },
    }
    return metrics, facts


def traced_unit(sess):
    """Fixed work, identical on every call: one bounds pass plus a read batch."""
    start = time.perf_counter()
    sess.bounds_pass()
    sess.cert_i = sess.coh_i = 0
    for _ in range(wl.UNIT_CERTIFY):
        sess.certify_one()
    for _ in range(wl.UNIT_COHERENCE):
        sess.coherence_one()
    return time.perf_counter() - start


def measure_traced(sess, args, trace_path):
    """Alternate untraced and traced units; per-layer figures are per unit."""
    tr = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start) + plain[-1] + traced[-1] <= args.seconds:
        plain.append(traced_unit(sess))
        tr.install()
        try:
            traced.append(traced_unit(sess))
        finally:
            tr.uninstall()
    tr.dump(trace_path)
    inc, own, calls = tr.totals()
    n = len(traced)

    def self_s(*names):
        return sum(own[x] for x in names) / n

    def incl_s(*names):
        return sum(inc[x] for x in names) / n

    st = sess.stats
    metrics = {
        "bounds.enumerate_s": (self_s("bounds.enumerate_choices"), "s"),
        "bounds.choice_ops": (tr.counts["choice_ops"] / n, "count"),
        "bounds.eig_sweep_s": (self_s("bounds.max_topn_over_states"), "s"),
        "bounds.seed_eig_s": (self_s("bounds._eig_seed_states"), "s"),
        "bounds.oracle_s": (self_s("bounds._Oracle"), "s"),
        "bounds.oracle_states": (tr.counts["oracle_states"] / n, "count"),
        "bounds.dual_s": (incl_s("bounds._kelley_dual_bound"), "s"),
        "bounds.lp_solves": (calls["scipy.optimize.linprog"] / n, "count"),
        "bounds.primal_s": (self_s("bounds._min_level_all_states"), "s"),
        "bounds.polyak_iters": (st["polyak_iters"], "count"),
        "bounds.levels_at_max_iter": (st["levels_at_max_iter"], "count"),
        "bounds.manifold_s": (incl_s("bounds._nm_multistart"), "s"),
        "bounds.nm_calls": (calls["scipy.optimize.minimize"] / n, "count"),
        "bounds.nm_fevs": (tr.counts["nm_fevs"] / n, "count"),
        "bounds.oracle_won_frac": (st["oracle_won"] / max(st["min_levels"], 1), "fraction"),
        "bounds.assembly_s": (self_s("bounds.infimum_t", "bounds.supremum_s"), "s"),
        "bounds.t_err_max": (sess.t_err, "prob"),
        "bounds.s_err_max": (sess.s_err, "prob"),
        "bounds.dual_gap_max": (max((g[0] for g in sess.dual_gaps), default=0.0), "prob"),
        "cli.parse_s": (incl_s("cli.parse_observable_file"), "s"),
        "cli.write_s": (incl_s("cli._dump_json", "cli._atomic_write"), "s"),
        "cli.bounds_bytes": (st["bounds_bytes"], "bytes"),
        "certainty.certify_s": (self_s("certainty.certify_state"), "s"),
        "quantum.born_s": (incl_s("quantum.born_probabilities"), "s"),
        "majorization.order_s": (self_s("majorization.is_majorized_by", "majorization.lorenz",
                                        "majorization.from_unsorted",
                                        "majorization.direct_sum"), "s"),
        "majorization.entropy_s": (self_s("majorization.shannon_entropy",
                                          "majorization.relative_entropy_term"), "s"),
        "coherence.mixed_s": (self_s("coherence.coherence_vector_mixed_approx"), "s"),
        "majorization.join_s": (incl_s("majorization.join"), "s"),
        "majorization.join_calls": (calls["majorization.join"] / n, "count"),
    }
    facts = {
        "units": n,
        "unit_s_untraced": statistics.median(plain),
        "unit_s_traced": statistics.median(traced),
        "trace_overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "private_hooks": tr.private,
        "absent_hooks": tr.absent,
        "spans": len(tr.spans),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    return metrics, facts


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_record(args, sess, facts):
    gaps = sorted(sess.dual_gaps, reverse=True)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": sess.blas_threads,
        "import_s": sess.import_s,
        "jobs": [{"job": j.ref_key, "constraint": j.constraint, "flags": list(j.flags)}
                 for j in sess.jobs],
        "jobs_checked": sorted(sess.first_bytes),
        "failed_frac": sess.failed / max(sess.attempted, 1),
        "failures": [dict(json.loads(k), count=v) for k, v in sorted(sess.failures.items())],
        "t_err_max": sess.t_err, "s_err_max": sess.s_err,
        "dual_gap_max": gaps[0][0] if gaps else None,
        "dual_gap_max_at": {"job": gaps[0][1], "level": gaps[0][2]} if gaps else None,
        "polyak_iters": sess.stats["polyak_iters"],
        "levels_at_max_iter": sess.stats["levels_at_max_iter"],
        **facts,
    }


def run(args, import_s, blas_threads):
    """One benchmark run; prints the run record and the result, returns the exit code."""
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["references"]
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    sess = Session(args.workload, args.seed, args.smoke, refs)
    sess.import_s, sess.blas_threads = import_s, blas_threads
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            sess.setup(os.path.join(OUT, f"{tag}.{rep}"))
            if args.workload == "certify_stream":
                sess.bounds_pass()
            setup_times.append(time.perf_counter() - start)
        if args.trace:
            metrics, facts = measure_traced(
                sess, args, os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics, facts = measure(sess, args, setup_times)
    finally:
        for rep in range(SETUP_REPS):
            shutil.rmtree(os.path.join(OUT, f"{tag}.{rep}"), ignore_errors=True)
    print(json.dumps({"run_record": run_record(args, sess, facts)}))
    print(json.dumps({
        "correct": sess.failed == 0,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if sess.failed == 0 else 1
