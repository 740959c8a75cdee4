import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anderson_lab import accelerators, analysis, linalg
from anderson_lab.accelerators import AccelConfig, IterationTrace, run_batch, run_scheme
from anderson_lab.analysis import (
    derivative_norm_samples,
    estimate_r_factor,
    estimate_r_factors,
    m_sweep,
    monte_carlo_sweep,
    sample_inits,
    scheme_label,
    worst_case_rho,
)
from anderson_lab.augmented import directional_derivative
from anderson_lab.errors import Diverged, InsufficientData
from anderson_lab.problems import (AffineSpec, FixedPointProblem, make_affine,
                                   problem_linear_2x2, problem_linear_200,
                                   problem_nonlinear_2x2, problem_scalar)


def _synthetic_trace(error_norms):
    errs = [float(e) for e in error_norms]
    n = len(errs)
    return IterationTrace(
        iterates=np.zeros((n, 1)),
        residual_norms=errs,
        error_norms=errs,
        x_star_norm=0.0,
        converged=False,
    )


def _full_sequence_estimate(errs, x_star_norm, converged):
    """estimate_r_factor defined on the whole sigma_k sequence; None if nothing is usable."""
    floor = 1e-14 * (1.0 + x_star_norm)
    usable = [k for k in range(1, len(errs)) if errs[k] > floor]
    if not usable:
        return None
    sigma = [e ** (1.0 / k) if k else float("nan") for k, e in enumerate(errs)]
    cauchy = len(usable) >= 2 and abs(sigma[usable[-1]] - sigma[usable[-2]]) <= 1e-3
    return (sigma[usable[-1]], max(sigma[k] for k in usable[-20:]), usable[-1],
            converged or cauchy)


def _assert_tail_scan_matches_full_sequence(errs, x_star_norm=0.0, converged=False):
    tr = IterationTrace(residual_norms=list(errs), error_norms=list(errs),
                        x_star_norm=x_star_norm, converged=converged)
    expected = _full_sequence_estimate(errs, x_star_norm, converged)
    if expected is None:
        with pytest.raises(InsufficientData):
            estimate_r_factor(tr)
        return
    est = estimate_r_factor(tr)
    got = (est.sigma_final, est.sigma_tail_max, est.k_used, est.converged)
    assert [type(v) for v in got] == [float, float, int, bool]
    assert np.array(got[:2]).tobytes() == np.array(expected[:2]).tobytes()
    assert got[2:] == expected[2:]


_ERROR_NORMS = st.one_of(
    st.floats(min_value=1e-18, max_value=1e3),   # above and below the rounding floor
    st.sampled_from([0.0, 1e-14, 1.001e-11, float("inf")]))


_EDGE_CASES = [
    # dips below the floor and rises above it again
    ([1.0, 0.5, 1e-16, 0.25, 1e-15, 0.1, 1e-17], 0.0),
    ([1.0] + [0.9 ** k if k % 3 else 1e-16 for k in range(1, 70)], 0.0),
    ([0.5 ** k for k in range(8)], 0.0),                 # fewer than 20 usable
    # the max is the oldest of the last 20 usable (k = 11), a larger one just before it
    ([0.99 ** k if k == 10 else 0.9 ** k if k == 11 else 0.5 ** k for k in range(31)], 0.0),
    ([1.0, 0.3], 0.0),                                   # exactly 1 usable
    ([1.0, 1e-16, 0.3, 1e-15], 0.0),
    ([1.0, 1e-16, 1e-15], 0.0),                          # none usable
    ([1.0], 0.0),
    ([1.0, float("inf"), 0.5, float("inf"), 0.2], 0.0),  # inf entries
    ([0.8 ** k for k in range(40)] + [float("inf")], 0.0),
    ([1.0] + [10.0 ** -k for k in range(1, 16)], 1e3),   # floor 1.001e-11
    ([1.0, 0.0, 0.5, 0.0], 0.0),                         # zero errors
    ([1.0, float("inf"), float("inf")], 0.0),            # the newest two infinite
    # the newest two agree (Cauchy) and the tail maximum lies further back
    ([0.9 ** 15 if k == 15 else 0.5 ** k for k in range(30)], 0.0),
    ([], 0.0),
]


class TestEstimateRFactor:
    @settings(max_examples=300, deadline=None)
    @given(errs=st.lists(_ERROR_NORMS, max_size=60),
           x_star_norm=st.sampled_from([0.0, 1.0, 1e3]), converged=st.booleans())
    def test_tail_scan_matches_full_sequence_bitwise(self, errs, x_star_norm, converged):
        _assert_tail_scan_matches_full_sequence(errs, x_star_norm, converged)

    @pytest.mark.parametrize("errs,x_star_norm", _EDGE_CASES)
    def test_tail_scan_edge_cases(self, errs, x_star_norm):
        _assert_tail_scan_matches_full_sequence(errs, x_star_norm)

    def test_pure_geometric_is_exact(self):
        c = 0.5
        tr = _synthetic_trace([c ** k for k in range(30)])
        est = estimate_r_factor(tr)
        assert est.sigma_final == c
        assert est.sigma_tail_max == c

    def test_oscillating_sequence_limsup_proxy(self):
        c = 0.5
        errs = [c ** k * (2 + (-1) ** k) for k in range(150)]
        tr = _synthetic_trace(errs)
        est = estimate_r_factor(tr)
        # sigma_k = c * (2 + (-1)^k)^(1/k) approaches c from above
        assert c <= est.sigma_tail_max <= c * 1.05
        assert est.sigma_tail_max >= est.sigma_final - 1e-15

    def test_tail_is_the_last_twenty_usable_iterations(self):
        # sigma_k peaks at k = 10; the tail k = 11..30 leaves it out, k = 10..29 takes it
        assert accelerators.TAIL_WINDOW == 20
        for n, peak_in_tail in ((31, False), (30, True)):
            errs = [0.5 ** k for k in range(n)]
            errs[10] = 0.9 ** 10
            est = estimate_r_factor(_synthetic_trace(errs))
            assert (est.sigma_tail_max == 0.9) == peak_in_tail

    def test_fp_baseline_near_spectral_radius(self):
        p = problem_linear_2x2()
        tr = run_scheme(p, np.array([0.2, 0.1]),
                        AccelConfig(window_m=0, max_iters=100, stop_tol=0.0))
        est = estimate_r_factor(tr)
        # the rounding floor truncates usable iterations near k = 76, so the
        # finite-k estimate sits slightly below the spectral radius
        assert est.k_used < 100
        assert abs(est.sigma_final - 2.0 / 3.0) < 0.02

    def test_rounding_floor_excluded(self):
        # errors below 1e-14*(1+||x*||) must not contribute
        errs = [0.5 ** k for k in range(10)] + [1e-16] * 5
        est = estimate_r_factor(_synthetic_trace(errs))
        assert est.k_used == 9
        assert est.sigma_final == 0.5

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_r_factor(_synthetic_trace([1e-16, 1e-16]))
        tr = IterationTrace(iterates=[np.zeros(1)], residual_norms=[1.0])
        with pytest.raises(InsufficientData):
            estimate_r_factor(tr)


def _row(est, i):
    """Row i of estimate columns as Python scalars, in field order."""
    return tuple(column[i].item() for column in
                 (est.sigma_final, est.sigma_tail_max, est.k_used, est.converged))


def _traces(specs, failed):
    """A trace per spec (error norms, x_star_norm, converged), failed at the indices in failed."""
    return [IterationTrace(residual_norms=np.ones(len(errs)),
                           error_norms=np.array(errs, dtype=float),
                           x_star_norm=x_star_norm, converged=converged,
                           failure=Diverged("diverged") if i in failed else None)
            for i, (errs, x_star_norm, converged) in enumerate(specs)]


def _assert_batch_matches_full_sequence(specs, failed=()):
    """estimate_r_factors over traces (error norms, x_star_norm, converged), bit for bit.

    The traces at the indices in failed carry a failure.  The columns must
    be float64, float64, int and bool with a row per trace.  A trace that
    failed or has no usable iteration (the NaN error norms of an unknown x*
    are never usable) must give the row NaN, NaN, 0, False, and no numpy
    warning may be raised.
    """
    traces = _traces(specs, failed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimate_r_factors(traces)
    columns = (got.sigma_final, got.sigma_tail_max, got.k_used, got.converged)
    assert [c.dtype for c in columns] == [np.float64, np.float64, np.dtype(int), np.bool_]
    assert all(c.shape == (len(traces),) for c in columns)
    for i, (errs, x_star_norm, converged) in enumerate(specs):
        expected = (None if i in failed
                    else _full_sequence_estimate(errs, x_star_norm, converged))
        if expected is None:
            expected = (float("nan"), float("nan"), 0, False)
        values = _row(got, i)
        assert [type(v) for v in values] == [float, float, int, bool]
        assert np.array(values[:2]).tobytes() == np.array(expected[:2]).tobytes()
        assert values[2:] == expected[2:]


# geometric errors c^k have sigma_k = c up to rounding, so the tail maximum
# is decided in the last bits of the power
_GEOMETRIC = st.builds(lambda c, n: [c ** k for k in range(n)],
                       st.floats(min_value=0.05, max_value=0.999), st.integers(0, 80))
# an unknown x* gives a column of NaN error norms
_UNKNOWN = st.builds(lambda n: [float("nan")] * n, st.integers(0, 60))
_TRACE_SPEC = st.tuples(
    st.one_of(_UNKNOWN, st.lists(_ERROR_NORMS, max_size=60), _GEOMETRIC),
    st.sampled_from([0.0, 1.0, 1e3]), st.booleans())


# 200 traces of 100 steps and one of 50000
ESTIMATES_RSS = """
import resource
import numpy as np
from anderson_lab.accelerators import IterationTrace
from anderson_lab.analysis import estimate_r_factors
traces = [IterationTrace(error_norms=0.9 ** np.arange(100.0)) for _ in range(200)]
traces.append(IterationTrace(error_norms=np.full(50000, 0.5)))
start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
est = estimate_r_factors(traces)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert est.k_used.tolist() == [99] * 200 + [49999]
print((peak - start) * 1024)  # ru_maxrss is in KiB
"""


def _rss_growth(script: str) -> int:
    """The ru_maxrss growth in bytes that script prints, run in a fresh interpreter."""
    src = str(Path(analysis.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return int(proc.stdout)


class TestEstimateRFactors:
    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(_TRACE_SPEC, max_size=8))
    def test_batch_matches_full_sequence_bitwise(self, specs):
        _assert_batch_matches_full_sequence(specs)
        # a failed run has no estimate, whatever its error norms
        _assert_batch_matches_full_sequence(specs, failed=range(0, len(specs), 2))

    def test_edge_cases_in_one_batch(self):
        specs = ([(errs, x_star_norm, i % 2 == 0)
                  for i, (errs, x_star_norm) in enumerate(_EDGE_CASES)]
                 + [([float("nan")] * 5, 0.0, True), ([float("nan")] * 3, float("nan"), False),
                    ([1.0], 0.0, False),
                    ([0.5 ** k for k in range(30)], 0.0, True),
                    ([0.5 ** k for k in range(30)], 0.0, True)])
        _assert_batch_matches_full_sequence(specs, failed={2, len(specs) - 1})

    @settings(max_examples=100, deadline=None)
    @given(specs=st.lists(_TRACE_SPEC, max_size=12), failed=st.sets(st.integers(0, 11)),
           budget=st.integers(1, 200))
    def test_chunks_change_no_estimate(self, specs, failed, budget):
        # a budget of at most 200 floats puts one trace or a few in each
        # chunk's padded table; the columns keep their bits
        traces = _traces(specs, failed)
        want = estimate_r_factors(traces)
        rows = []
        usable = analysis.last_usable
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "CHUNK_FLOATS", budget)
            patch.setattr(analysis, "last_usable",
                          lambda e, k, norms: rows.append(len(e)) or usable(e, k, norms))
            got = estimate_r_factors(traces)
        _assert_same_columns(got, want)
        longest = max([1] + [len(errs) for errs, _, _ in specs])
        assert sum(rows) == len(traces) and max(rows, default=1) <= max(1, budget // longest)

    def test_memory_follows_each_trace_length(self):
        # padding the short traces to the long one would hold 201 x 50000
        # error norms (80 MB) and last_usable's tables of that size
        assert _rss_growth(ESTIMATES_RSS) <= 16 * 2**20

    def test_sweep_estimates_equal_single_estimates(self):
        p = problem_linear_2x2()
        cfg = AccelConfig(window_m=1, max_iters=100, stop_tol=1e-12)
        r = monte_carlo_sweep(p, [cfg], np.tile([-0.25, 0.25], (2, 1)), 40, seed=3)
        for i, x0 in enumerate(r.inits):
            single = estimate_r_factor(run_scheme(p, x0, cfg))
            assert _row(r.estimates["aa(1)"], i) == (
                single.sigma_final, single.sigma_tail_max, single.k_used, single.converged)


_TAIL_ROW = st.integers(0, accelerators.TAIL_WINDOW).flatmap(lambda c: st.tuples(
    st.lists(st.floats(min_value=0.0, allow_nan=False), min_size=c, max_size=c),
    st.lists(st.integers(1, 1000), min_size=c, max_size=c),
    st.booleans(), st.booleans()))


def _reference_estimate(e, k, converged, failed):
    """One row's estimate, element by element with Python floats, as a tuple."""
    nan = float("nan")
    if failed or not k[-1]:
        return nan, nan, 0, False
    sigma = [x ** (1.0 / j) if j else nan for x, j in zip(e, k)]
    cauchy = abs(sigma[-1] - sigma[-2]) <= 1e-3
    return sigma[-1], max(x for x in sigma if x == x), k[-1], converged or cauchy


class TestEstimates:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_TAIL_ROW, min_size=1, max_size=8))
    def test_equals_an_element_by_element_reference(self, rows):
        # a row holds its usable errors newest last, NaN and 0 before them;
        # a failed row keeps its errors and has no estimate
        W = accelerators.TAIL_WINDOW
        e, k = np.full((len(rows), W), np.nan), np.zeros((len(rows), W), dtype=int)
        for i, (errs, gaps, _, _) in enumerate(rows):
            if errs:
                e[i, W - len(errs):], k[i, W - len(errs):] = errs, np.cumsum(gaps)
        converged = np.array([c for _, _, c, _ in rows])
        failed = np.array([f for _, _, _, f in rows])
        est = analysis._estimates(e, k, converged, failed)
        for i in range(len(rows)):
            expected = _reference_estimate(e[i].tolist(), k[i].tolist(), converged[i], failed[i])
            got = _row(est, i)
            assert np.array(got[:2]).tobytes() == np.array(expected[:2]).tobytes()
            assert got[2:] == expected[2:]


class TestSampleInits:
    def test_inside_box_and_deterministic(self):
        box = np.array([[-0.25, 0.25], [0.0, 1.0]])
        a = sample_inits(box, 50, seed=3)
        b = sample_inits(box, 50, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (50, 2)
        assert np.all(a[:, 0] >= -0.25) and np.all(a[:, 0] <= 0.25)
        assert np.all(a[:, 1] >= 0.0) and np.all(a[:, 1] <= 1.0)

    def test_different_seed_differs(self):
        box = np.array([[-1.0, 1.0]])
        assert not np.array_equal(sample_inits(box, 10, 0), sample_inits(box, 10, 1))


class TestWorstCaseRho:
    def test_linear_2x2(self):
        assert abs(worst_case_rho(problem_linear_2x2()) - 2.0 / 3.0) < 1e-12

    def test_nonlinear_2x2(self):
        assert abs(worst_case_rho(problem_nonlinear_2x2()) - 0.5) < 1e-12

    def test_no_fixed_point_and_no_jacobian_give_nan(self):
        rho = worst_case_rho(FixedPointProblem(dim=2, q=lambda x: 0.5 * x))
        assert type(rho) is float and np.isnan(rho)


SWEEP_RSS = """
import resource
import numpy as np
from anderson_lab.accelerators import AccelConfig
from anderson_lab.analysis import monte_carlo_sweep
from anderson_lab.problems import AffineSpec, make_affine
problem = make_affine(AffineSpec(M=np.diag([0.999, 0.5]), b=np.zeros(2)))
box = np.tile([-1.0, 1.0], (2, 1))
def sweep(steps):
    cfg = AccelConfig(window_m=0, max_iters=steps, stop_tol=0.0)
    est = monte_carlo_sweep(problem, [cfg], box, 1000, 0).estimates["fp"]
    assert (est.k_used == steps).all()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = sweep(100)
print((sweep(4000) - start) * 1024)  # ru_maxrss is in KiB
"""


def _histogram(est):
    """(bin_edges, counts) of the sigma_final column of the runs with an estimate."""
    return analysis.bin_counts(est.sigma_final[~np.isnan(est.sigma_final)], analysis.SWEEP_BINS)


# (problem, extra starts) for the sweep equality test
_SWEEP_PROBLEMS = [
    (problem_linear_2x2(), []),
    # x* of norm ~1e4, which lifts the rounding floor to ~1e-10
    (make_affine(AffineSpec(M=np.diag([0.5, -0.3]),
                            b=np.diag([0.5, 1.3]) @ np.array([1e4, -3e3]))), []),
    # a box through 0: q raises at x = 0, which the start -1 reaches at k = 1
    (problem_scalar(), [[0.0], [-1.0]]),
    # FP diverges from every start but x* = 0
    (make_affine(AffineSpec(M=np.array([[1.5]]), b=np.zeros(1))), [[0.0]]),
    # x* unknown: NaN error norms, never usable
    (FixedPointProblem(dim=2, q=lambda x: 0.5 * x), []),
    # x* is declared 1e-14 off the true fixed point 0, so once |x_k| < 1e-14
    # the error |x_k - 1e-14| falls below the floor 1e-14 (1 + 1e-14) at
    # every other step, as x_k alternates in sign, and rises above it again
    # until |x_k| < 1e-28
    (FixedPointProblem(dim=1, q=lambda x: -0.5 * x, known_fixed_point=np.array([1e-14])), []),
]


def _assert_same_columns(got, want):
    for name in ("sigma_final", "sigma_tail_max", "k_used", "converged"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestMonteCarloSweep:
    @settings(max_examples=150, deadline=None)
    @given(case=st.integers(0, len(_SWEEP_PROBLEMS) - 1), seed=st.integers(0, 2**32 - 1),
           B=st.integers(1, 12), m=st.integers(0, 4), restart=st.booleans(),
           stop_tol=st.sampled_from([1e-12, 0.0]), max_iters=st.integers(1, 90),
           budget=st.sampled_from([None, 40, 200]))
    # a budget of 40 floats chunks the updates of a batch whose rows run past
    # the end of the sweep's window of 32 steps, once or twice
    @example(case=0, seed=0, B=5, m=0, restart=False, stop_tol=1e-12, max_iters=33, budget=40)
    @example(case=0, seed=0, B=5, m=1, restart=True, stop_tol=0.0, max_iters=65, budget=40)
    def test_estimates_equal_those_of_the_traces_bitwise(self, case, seed, B, m, restart,
                                                          stop_tol, max_iters, budget):
        # the sweep keeps each run's tail in the run loop; estimate_r_factors
        # reads the same tails from the traces of run_batch.  A budget of 40
        # or 200 floats chunks the batch's updates
        problem, extra = _SWEEP_PROBLEMS[case]
        X0 = np.concatenate([np.random.default_rng(seed).uniform(-1.0, 1.0, (B, problem.dim)),
                             np.reshape(extra, (-1, problem.dim))])
        cfg = AccelConfig(window_m=m, restart=restart and m > 0, max_iters=max_iters,
                          stop_tol=stop_tol)
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(linalg, "CHUNK_FLOATS", budget)
            patch.setattr(analysis, "sample_inits", lambda box, n_inits, seed: X0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = monte_carlo_sweep(problem, [cfg], None, len(X0), 0)
            want = estimate_r_factors(run_batch(problem, X0, cfg))
        _assert_same_columns(got.estimates[scheme_label(cfg)], want)

    def test_rows_that_leave_and_reenter_the_floor(self):
        # the declared x* sits 1e-14 off the true one: from k ~ 45 to ~ 90
        # every other error is below the floor, so the tail holds every other
        # step.  The rows start to skip steps at k = 44 (0.3) and 46, and all
        # of them are usable at every odd step
        problem = _SWEEP_PROBLEMS[-1][0]
        X0 = np.array([[1.0], [0.7], [0.3]])
        cfg = AccelConfig(window_m=0, max_iters=80, stop_tol=0.0)
        traces = run_batch(problem, X0, cfg)
        floor = accelerators.ERROR_FLOOR_SCALE * (1.0 + 1e-14)
        for tr in traces:
            usable = tr.error_norms[1:] > floor
            assert usable[:40].all() and not usable.all() and usable[-2:].any()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "sample_inits", lambda box, n_inits, seed: X0)
            got = monte_carlo_sweep(problem, [cfg], None, len(X0), 0).estimates["fp"]
        want = estimate_r_factors(traces)
        _assert_same_columns(got, want)
        assert (want.k_used > 70).all()

    def test_memory_does_not_grow_with_the_steps(self):
        # FP on M = diag(0.999, 0.5) with stop_tol = 0: 1000 rows run all
        # 4000 steps, and the sweep's peak stays that of 100 steps
        assert _rss_growth(SWEEP_RSS) <= 4 * 2**20

    def _sweep(self, seed=5, n_inits=30):
        p = problem_linear_2x2()
        schemes = [AccelConfig(window_m=0, max_iters=100, stop_tol=0.0),
                   AccelConfig(window_m=1, max_iters=100, stop_tol=1e-12)]
        box = np.tile([-0.25, 0.25], (2, 1))
        return monte_carlo_sweep(p, schemes, box, n_inits, seed)

    def test_determinism_bitwise(self):
        r1, r2 = self._sweep(), self._sweep()
        assert np.array_equal(r1.inits, r2.inits)
        for label in r1.estimates:
            e1, e2 = r1.estimates[label], r2.estimates[label]
            assert e1.sigma_final.tobytes() == e2.sigma_final.tobytes()
            assert e1.sigma_tail_max.tobytes() == e2.sigma_tail_max.tobytes()
            assert np.array_equal(_histogram(e1)[1], _histogram(e2)[1])

    def test_scheme_labels_and_counts(self):
        r = self._sweep()
        assert set(r.estimates) == {"fp", "aa(1)"}
        assert all(len(est.sigma_final) == 30 for est in r.estimates.values())
        for est in r.estimates.values():
            assert _histogram(est)[1].sum() == 30

    def test_s_fraction_range_and_separation(self):
        # the fraction of inits whose sigma_final beats rho_{q,x*} by the 0.05 margin
        r = self._sweep(n_inits=50)
        rho = worst_case_rho(problem_linear_2x2())
        s_fraction = {label: np.mean(est.sigma_final[~np.isnan(est.sigma_final)] < rho - 0.05)
                      for label, est in r.estimates.items()}
        for v in s_fraction.values():
            assert 0.0 <= v <= 1.0
        # AA(1) beats the FP worst-case factor; plain FP essentially never does
        # (inits nearly aligned with the weak eigenvector can dip below)
        assert s_fraction["aa(1)"] == 1.0
        assert s_fraction["fp"] <= 0.1

    def test_single_init_collapsed_box(self):
        p = problem_linear_2x2()
        cfg = AccelConfig(window_m=1, max_iters=100, stop_tol=1e-12)
        box = np.array([[0.2, 0.2], [0.1, 0.1]])
        r = monte_carlo_sweep(p, [cfg], box, 1, seed=0)
        from anderson_lab.accelerators import aa_run
        from anderson_lab.analysis import estimate_r_factor as erf
        direct = erf(aa_run(p, np.array([0.2, 0.1]), cfg))
        assert r.estimates["aa(1)"].sigma_final[0] == direct.sigma_final

    def test_unknown_fixed_point_gives_rows_without_an_estimate(self):
        # q(x) = x / 2 without its fixed point: NaN error norms, so no estimate
        p = FixedPointProblem(dim=2, q=lambda x: 0.5 * x)
        schemes = [AccelConfig(window_m=0), AccelConfig(window_m=1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = monte_carlo_sweep(p, schemes, np.tile([-1.0, 1.0], (2, 1)), 6, seed=2)
            direct = estimate_r_factors(run_batch(p, r.inits, schemes[1]))
            with pytest.raises(InsufficientData):
                estimate_r_factor(run_scheme(p, r.inits[0], schemes[0]))
        assert set(r.estimates) == {"fp", "aa(1)"}
        for est in (*r.estimates.values(), direct):
            assert [_row(est, i)[2:] for i in range(6)] == [(0, False)] * 6
            assert np.isnan(est.sigma_final).all() and np.isnan(est.sigma_tail_max).all()
            assert est.sigma_final.shape == est.sigma_tail_max.shape == (6,)


class TestDerivativeNorms:
    def test_nonnegative_and_deterministic(self):
        M = problem_linear_2x2().affine.M
        a = derivative_norm_samples(M, m=1, n_samples=200, seed=7)
        b = derivative_norm_samples(M, m=1, n_samples=200, seed=7)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0)

    def test_histogram_counts_permutation_invariant(self):
        M = problem_linear_2x2().affine.M
        norms = derivative_norm_samples(M, 1, 500, seed=8)
        edges, counts = analysis.bin_counts(norms, 30)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(norms)
        counts2, _ = np.histogram(shuffled, bins=edges)
        assert np.array_equal(counts, counts2)

    @pytest.mark.parametrize("values", [
        np.array([0.3, 0.9, 0.5, 0.31]),
        np.full(7, 2.5),
        np.array([]),
    ])
    def test_bin_counts_is_np_histogram_where_that_works(self, values):
        edges, counts = analysis.bin_counts(values, 10)
        counts2, edges2 = np.histogram(values, bins=10)
        assert np.array_equal(edges, edges2) and np.array_equal(counts, counts2)

    def test_bin_counts_takes_a_spread_below_the_bin_resolution(self):
        values = np.sqrt(2.0) + np.array([0.0, 2.0 ** -52, 2.0 ** -51])
        with pytest.raises(ValueError):
            np.histogram(values, bins=60)
        edges, counts = analysis.bin_counts(values, 60)
        assert np.all(np.diff(edges) > 0) and counts.sum() == values.size
        assert edges[0] == values.min() - 0.5 and edges[-1] == values.max() + 0.5

    def test_some_norms_exceed_one(self):
        M = problem_linear_2x2().affine.M
        norms = derivative_norm_samples(M, m=1, n_samples=2000, seed=9)
        assert norms.max() > 1.0

    @staticmethod
    def _one_direction_at_a_time(M, m, n_samples, seed):
        n = M.shape[0]
        rng = np.random.default_rng(seed)
        norms = np.empty(n_samples)
        for i in range(n_samples):
            blocks = rng.standard_normal((m + 1, n))
            blocks /= np.linalg.norm(blocks, axis=1, keepdims=True)
            norms[i] = np.linalg.norm(directional_derivative(M, blocks).value)
        return norms

    @pytest.mark.parametrize("M,m,n_samples", [
        (problem_linear_2x2().affine.M, 1, 400),
        (problem_linear_2x2().affine.M, 2, 400),
        (problem_linear_2x2().affine.M, 3, 400),
        (problem_linear_200(-0.9, 0.7, -0.7).affine.M, 1, 5),
        (problem_linear_200(-0.9, 0.7, -0.7).affine.M, 3, 5),
    ])
    def test_matches_one_direction_at_a_time(self, M, m, n_samples):
        batched = derivative_norm_samples(M, m, n_samples, seed=21)
        looped = self._one_direction_at_a_time(M, m, n_samples, seed=21)
        np.testing.assert_allclose(batched, looped, rtol=0, atol=1e-14)

    def test_norms_are_the_derivative_values_bitwise(self, monkeypatch):
        M = problem_linear_2x2().affine.M
        results = []

        def logged(M, d):
            results.append(directional_derivative(M, d))
            return results[-1]

        monkeypatch.setattr(analysis, "directional_derivative", logged)
        norms = derivative_norm_samples(M, 2, 300, seed=3)
        rng = np.random.default_rng(3)
        blocks = rng.standard_normal((300, 3, 2))
        blocks /= np.linalg.norm(blocks, axis=2, keepdims=True)
        value = directional_derivative(M, blocks).value
        assert value.shape == blocks.shape
        expected = np.linalg.norm(value.reshape(300, -1), axis=1)
        assert norms.tobytes() == expected.tobytes()
        # the samples read the values only, so no rank flag was computed
        assert len(results) == 1 and "formula_rank_ok" not in results[0].__dict__

    @pytest.mark.parametrize("n,m", [(2, 1), (200, 2)])
    def test_prefix_bitwise_across_chunk_boundary(self, n, m):
        rng = np.random.default_rng(5)
        M = 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
        chunk = linalg.CHUNK_FLOATS // ((m + 1) * n)
        full = derivative_norm_samples(M, m, chunk + 3, seed=4)
        for k in (0, 1, 2, chunk - 1, chunk, chunk + 1):
            assert np.array_equal(full[:k], derivative_norm_samples(M, m, k, seed=4))


class TestMSweep:
    def test_row_structure(self):
        p = problem_linear_2x2()
        for m_values in ([1], [1, 1]):
            rows = m_sweep(p, m_values, n_inits=5, seed=2, max_iters=60)
            # one row per requested (m, scheme), in request order
            assert [(r.m, r.scheme) for r in rows] == [
                (m, s) for m in m_values for s in ("windowed", "restarted")]
            for r in rows:
                assert np.isfinite(r.worst_sigma)
            assert rows[2:] == rows[:2] * (len(m_values) - 1)

    def test_every_run_failing_gives_nan_without_a_warning(self):
        # q(-1) = 0, and q raises at 0: no run of either scheme has an estimate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = m_sweep(problem_scalar(), [1], 3, 0, box=np.array([[-1.0, -1.0]]))
        assert [r.scheme for r in rows] == ["windowed", "restarted"]
        assert all(np.isnan(r.worst_sigma) for r in rows)

    def test_scheme_label(self):
        assert scheme_label(AccelConfig(window_m=0)) == "fp"
        assert scheme_label(AccelConfig(window_m=2)) == "aa(2)"
        assert scheme_label(AccelConfig(window_m=3, restart=True)) == "aa_restarted(3)"
