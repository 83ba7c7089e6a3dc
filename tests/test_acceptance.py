"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 8 checks the remainder of the N-layer heat expansion of the
inverse-quadratic symbol S = (1+|z|^2)^(-1), whose order in |z| is m = -2.
heat_layers builds layer k with degree m-k, so the remainder after N layers
is promised to be O(|z|^(m-N)): slopes at most -3, -4, -5.  For this symbol
the rate is sharper: S = sum_i (-1)^i |z|^(-2-2i) has only even-degree
layers and the Laplacian lowers degree by 2, so the odd heat layers vanish
and the remainder decays like the first nonvanishing omitted layer, degree
-2-2*ceil(N/2): slopes -4, -4, -6.  The externally stated targets -1-N
(m-N with m read as the exponent -1 of (1+|z|^2)) are kept in the printed
line as a record; no correct expansion lands within 0.3 of them.  The
companion checks live in test_weyl.py (generic rate for a fully populated
symbol, accelerated rate for this one, closed form of layer 2).
"""

import math

import numpy as np

from focktrace.cli import loglog_slope, run_experiment
from focktrace.dixmier import extrapolate
from focktrace.fock_matrices import FockContext
from focktrace.sphere_calculus import boundary_pairing, boundary_pairing_limit
from focktrace.spectral import diagonal_spectrum, toeplitz_config
from focktrace.symbols import RadialSymbol
from focktrace.weyl_calculus import heat_layers, heat_quadrature


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    msg = f"criterion {num:02d} [{status}] {detail}"
    print(msg, flush=True)
    try:
        import conftest
        conftest.record_criterion_line(msg)
    except ImportError:
        pass
    return msg


def _get(report, name):
    for c in report["checks"]:
        if c["name"] == name:
            return c
    raise KeyError(name)


def test_criterion_01_model_symbol_trace():
    ok = True
    details = []
    rep = run_experiment("model-operator", {"n": 1, "gamma": 1.0})
    pw = _get(rep, "pointwise-median")
    ex = _get(rep, "extrapolated-log-mean")
    ok &= abs(pw["computed"] - 1.0) <= 0.005 and abs(ex["computed"] - 1.0) <= 0.02
    details.append(f"n=1 g=1: pw={pw['computed']:.6f} ex={ex['computed']:.6f}")
    assert rep["timing_seconds"] < 60

    rep2 = run_experiment("model-operator", {"n": 2, "gamma": 1.0,
                                             "K_degree": 10_000})
    ex2 = _get(rep2, "extrapolated-log-mean")
    ok &= abs(ex2["computed"] - 0.5) <= 0.02 * 0.5
    details.append(f"n=2 g=1: ex={ex2['computed']:.6f}")
    assert rep2["timing_seconds"] < 60

    rep3 = run_experiment("model-operator", {"n": 1, "gamma": 2.0})
    pw3 = _get(rep3, "pointwise-median")
    ex3 = _get(rep3, "extrapolated-log-mean")
    ok &= abs(pw3["computed"] - 2.0) <= 0.005 * 2.0
    ok &= abs(ex3["computed"] - 2.0) <= 0.02 * 2.0
    details.append(f"n=1 g=2: pw={pw3['computed']:.6f} ex={ex3['computed']:.6f}")
    msg = _line(1, ok, "model radial symbol traces: " + "; ".join(details))
    assert ok, msg


def test_criterion_02_toeplitz_trace_boundary_integral():
    rep = run_experiment("toeplitz-trace", {"n": 2, "gamma": 1.0})
    c = _get(rep, "trace-vs-boundary-integral")
    ok = (abs(c["target"] - 0.25) < 1e-12
          and abs(c["computed"] - c["target"]) <= 0.02 * abs(c["target"]))
    msg = _line(2, ok, f"toeplitz trace: computed={c['computed']:.6f} "
                       f"target={c['target']:.6f} (diagonal fast path)")
    assert ok, msg


def test_criterion_03_hankel_trace():
    ok = True
    details = []
    rep1 = run_experiment("hankel-trace", {"n": 1, "gamma": 1.0})
    c1 = _get(rep1, "hankel-trace-vs-bracket-integral")
    ok &= abs(c1["target"] - 0.25) < 1e-12
    ok &= abs(c1["computed"] - 0.25) <= 0.01 * 0.25
    details.append(f"n=1 g=1: {c1['computed']:.6f}")

    rep3 = run_experiment("hankel-trace", {"n": 1, "gamma": 3.0})
    c3 = _get(rep3, "hankel-trace-vs-bracket-integral")
    ok &= abs(c3["computed"] - 0.25) <= 0.01 * 0.25
    ok &= abs(c3["computed"] - c1["computed"]) <= 0.01 * 0.25
    details.append(f"n=1 g=3: {c3['computed']:.6f} (gamma-independent)")

    rep2 = run_experiment("hankel-trace", {"n": 2, "gamma": 1.0})
    c2 = _get(rep2, "hankel-trace-vs-bracket-integral")
    ok &= abs(c2["target"] - 1.0 / 96.0) < 1e-12
    ok &= abs(c2["computed"] - c2["target"]) <= 0.05 * abs(c2["target"])
    details.append(f"n=2: {c2['computed']:.8f} vs {c2['target']:.8f}")
    msg = _line(3, ok, "hankel traces: " + "; ".join(details))
    assert ok, msg


def test_criterion_04_commutator_trace():
    rep = run_experiment("commutator-trace", {"n": 1, "gamma": 1.0})
    c = _get(rep, "commutator-trace-vs-boundary-integral")
    # the symbolic target is exactly zero for this pair; 5% is absolute
    ok = abs(c["target"]) < 1e-12 and abs(c["computed"]) <= 0.05
    msg = _line(4, ok, f"commutator trace: computed={c['computed']:.3e} "
                       f"target={c['target']:.1e} (absolute 0.05)")
    assert ok, msg


def test_criterion_05_mixed_products():
    rep = run_experiment("mixed-trace", None)
    c1 = _get(rep, "mixed-trace-hankel-toeplitz")
    c2 = _get(rep, "mixed-trace-toeplitz-chain")
    ok = (abs(c1["target"] - 1.0 / 6.0) < 1e-12
          and abs(c1["computed"] - c1["target"]) <= 0.05 * abs(c1["target"])
          and abs(c2["target"] - 1.0) < 1e-12
          and abs(c2["computed"] - c2["target"]) <= 0.02 * abs(c2["target"]))
    msg = _line(5, ok, f"mixed products: hankel*toeplitz={c1['computed']:.6f} "
                       f"(target {c1['target']:.6f}); "
                       f"toeplitz chain={c2['computed']:.6f} (target 1)")
    assert ok, msg


def test_criterion_06_pairing_adjudication():
    rng = np.random.default_rng(2024)
    n = 2
    pairs = []
    for mf in (0, 1, 2):
        for mg in (0, 1, 2):
            pairs.append(((1, 0), (0, 0), mf, (1, 0), (0, 0), mg))
    pairs.append(((0, 1), (1, 0), 1, (1, 0), (0, 1), 2))
    assert len(pairs) == 10
    pts = []
    for _ in range(20):
        v = rng.normal(size=2 * n)
        v /= np.linalg.norm(v)
        pts.append(v[:n] + 1j * v[n:])
    worst = 0.0
    for p, q, mf, pg, qg, mg in pairs:
        f = RadialSymbol.monomial(n, p, q, -mf - sum(p) - sum(q))
        g = RadialSymbol.monomial(n, pg, qg, -mg - sum(pg) - sum(qg))
        _, f0 = f.leading_sphere_part()
        _, g0 = g.leading_sphere_part()
        sym = boundary_pairing(f0, mf, g0, mg)
        nums = boundary_pairing_limit(f, g, pts, exponent=mf + mg + 2)
        for zeta, num in zip(pts, nums):
            worst = max(worst, abs(num - sym.evaluate(zeta)))
    ok = worst <= 1e-6
    msg = _line(6, ok, f"pairing symbolic-vs-numeric (conjugated first slot): "
                       f"max dev {worst:.2e} over 10 pairs x 20 points")
    assert ok, msg


def test_criterion_07_composition_calculus_exactness():
    rep = run_experiment("calculus-check", None, seed=7)
    names = ["star-associativity", "star-conjugation", "generator-commutators",
             "heat-roundtrip", "composition-vs-star"]
    devs = {name: _get(rep, name) for name in names}
    ok = all(devs[name]["pass"] for name in names)
    msg = _line(7, ok, "star/heat calculus: " + ", ".join(
        f"{name}={devs[name]['computed']:.1e}" for name in names))
    assert ok, msg


def test_criterion_08_heat_layer_remainder_slopes_as_stated():
    # S = (1+|z|^2)^(-1) has order m = -2 in |z|.  Promised: the remainder
    # after N heat layers is O(|z|^(m-N)), so its slope is at most m-N.
    # Sharp: S's symbol layers have even degree only (-2, -4, ...) and heat
    # layer k sums Laplacian^l of symbol layer j over j + 2l = k, so odd heat
    # layers vanish and the first omitted nonvanishing layer has degree
    # m - 2*ceil(N/2) = -2-2*ceil(N/2) (layer 2 is (1/(2 gamma) - 1)|z|^-4,
    # nonzero at gamma = 1).  The stated -1-N is recorded, not asserted.
    gamma = 1.0
    S = RadialSymbol.radial_power(1, -2.0)
    m = S.order()
    radii = [10.0, 30.0, 100.0]
    slopes = {}
    sharp = {N: -2 - 2 * math.ceil(N / 2) for N in (1, 2, 3)}
    ok = True
    for N in (1, 2, 3):
        layers = heat_layers(S, N, gamma)
        rem = [abs(heat_quadrature(S, r, gamma, nodes=140)
                   - sum(l.evaluate([r]) for l in layers if not l.is_zero()))
               for r in radii]
        slopes[N] = loglog_slope(radii, rem)
        ok &= slopes[N] <= (m - N) + 0.3
        ok &= abs(slopes[N] - sharp[N]) <= 0.3
    msg = _line(8, ok, "heat-layer remainder slopes: " + ", ".join(
        f"N={N}: {slopes[N]:.2f} (promised <= {m - N:g}, sharp {sharp[N]}, "
        f"stated {-1-N})" for N in (1, 2, 3)))
    assert ok, msg


def test_criterion_09_berezin_identities():
    rep = run_experiment("calculus-check", None, seed=9)
    bt = _get(rep, "berezin-toeplitz")
    bw = _get(rep, "berezin-weyl")
    ok = bt["pass"] and bw["pass"]
    msg = _line(9, ok, f"coherent-state symbols: toeplitz dev={bt['computed']:.1e}, "
                       f"heat-inverse dev={bw['computed']:.1e} (tol 1e-6)")
    assert ok, msg


def test_criterion_10_schatten_tails():
    gamma = 1.0
    ctx = FockContext(1, gamma)
    # p=2 borderline: m = -2n/p = -1
    seq = diagonal_spectrum(ctx, toeplitz_config(
        RadialSymbol.radial_power(1, -1.0)), 10_000)
    j = np.arange(1000, 10_000)
    weak = seq.pointwise_values(1000, 9999) / np.sqrt(j + 1.0)
    drift = (weak.max() - weak.min()) / np.median(weak)
    ok = drift < 0.02

    # strictly inside: m = -2n/p - 0.5
    seq2 = diagonal_spectrum(ctx, toeplitz_config(
        RadialSymbol.radial_power(1, -1.5)), 10_000)
    vals = np.repeat(seq2.values, seq2.mults) ** 2
    S = np.cumsum(np.sort(vals)[::-1])
    K = S.size - 1
    tail_ratio = (S[K] - S[int(0.9 * K)]) / S[K]
    ok &= tail_ratio < 1e-3
    msg = _line(10, ok, f"schatten tails: weak-law drift {drift:.2%} (<2%), "
                        f"p-sum tail/head {tail_ratio:.2e} (<1e-3)")
    assert ok, msg


def test_criterion_11_snumber_properties():
    rng = np.random.default_rng(1234)
    ok = True
    worst = 0.0
    for _ in range(100):
        A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        B = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        sA = np.linalg.svd(A, compute_uv=False)
        sB = np.linalg.svd(B, compute_uv=False)
        sAB = np.linalg.svd(A @ B, compute_uv=False)
        sApB = np.linalg.svd(A + B, compute_uv=False)
        sAstar = np.linalg.svd(A.conj().T, compute_uv=False)
        tol = 1e-10 * max(sA[0] * sB[0], 1.0)
        ok &= np.max(np.abs(sA - sAstar)) <= 1e-10 * sA[0]
        for j in range(8):
            for k in range(8 - j):
                ok &= sAB[j + k] <= sA[j] * sB[k] + tol
                # additive law (two-index form)
                ok &= sApB[j + k] <= sA[j] + sB[k] + tol
            ok &= sAB[j] <= sA[j] * sB[0] + tol
            ok &= sAB[j] <= sA[0] * sB[j] + tol
        # weak-Schatten product bound implied by the multiplicative law
        j = np.arange(8)
        CA = np.max(np.sqrt(j + 1) * sA)
        CB = np.max(np.sqrt(j + 1) * sB)
        lhs = np.max((j + 1) * sAB)
        ok &= lhs <= 2 * CA * CB + tol
        worst = max(worst, lhs / (2 * CA * CB))

    # direct-sum additivity of trace estimates over random scalings
    from focktrace.spectral import diagonal_spectrum, toeplitz_config
    K = 1 << 18
    grid = [2**e for e in range(10, 19, 2)]
    seq_a = diagonal_spectrum(FockContext(1, 1.0), toeplitz_config(
        RadialSymbol.radial_power(1, -2.0)), K)
    seq_b = diagonal_spectrum(FockContext(1, 2.0), toeplitz_config(
        RadialSymbol.radial_power(1, -2.0)), K)
    a = extrapolate(seq_a, grid).value
    b = extrapolate(seq_b, grid).value
    add_dev = 0.0
    for _ in range(100):
        lam, mu = rng.uniform(0.2, 3.0, size=2)
        merged = seq_a.scaled(lam).merge(seq_b.scaled(mu))
        tot = extrapolate(merged, grid).value
        add_dev = max(add_dev, abs(tot - (lam * a + mu * b))
                      / abs(lam * a + mu * b))
        ok &= add_dev <= 0.02
    msg = _line(11, ok, f"s-number laws over 100 seeds (weak-product ratio "
                        f"{worst:.3f} <= 1) and direct-sum additivity "
                        f"(max dev {add_dev:.2%})")
    assert ok, msg
