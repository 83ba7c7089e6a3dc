"""Experiment driver.

Each experiment builds an operator configuration, produces a spectral
estimate, computes the matching closed-form target through the symbolic
sphere calculus (a code path disjoint from the spectral one), and emits a
machine-readable report.  Every trace experiment's target comes from one
product formula with one decay rule, `_product_target`.  Exit code 0 means
every check passed, 1 means a quantitative failure, 2 a configuration
error.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import time
from functools import partial, reduce
from operator import mul

import numpy as np

from .core import (SpherePolynomial, enumerate_basis, sphere_integral,
                   sphere_norm_sq)
from .dixmier import DEFAULT_RANK_GRID_1D, _line_fit, extrapolate, pointwise
from .fock_matrices import (FockContext, berezin, buffered_product,
                            toeplitz_matrix, weyl_matrix)
from .sphere_calculus import (boundary_pairing, boundary_pairing_limit,
                              sphere_laplacian, tangential_bracket)
from .spectral import (DiagonalityError, commutator_config,
                       diagonal_spectrum, hankel_config, toeplitz_config)
from .symbols import HomogeneousSymbol, RadialSymbol, json_number
from .weyl_calculus import (hankel_leading_symbol, heat_inverse, heat_layers,
                            heat_quadrature, heat_transform, star)

REPORT_SCHEMA = 1

# target magnitudes below this are treated as zero and checked absolutely
ZERO_TARGET_FLOOR = 1e-9


class ConfigError(ValueError):
    pass


class _Config(dict):
    """A config object, or a mixed-trace case, and the keys read from it so
    far (`_option`), so that a key nothing reads can be refused
    (`_all_read`)."""

    def __init__(self, obj):
        super().__init__(obj)
        self.read = set()


def write_report(report: dict, path=None):
    """The report as indented JSON: floats by repr, which read back bit for
    bit; a non-finite float raises ValueError, any non-JSON value TypeError."""
    import json  # here and in main, so that importing the package skips it
    text = json.dumps(report, indent=2, allow_nan=False)
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def make_check(name: str, computed: float, target: float, tolerance: float):
    """Pass/fail record; relative tolerance against the target, absolute when
    the target is (numerically) zero, where the relative deviation is None."""
    abs_deviation = abs(computed - target)
    if abs(target) > ZERO_TARGET_FLOOR:
        ok = abs_deviation <= tolerance * abs(target)
        kind = "relative"
        deviation = float(abs_deviation / abs(target))
    else:
        ok = abs_deviation <= tolerance
        kind = "absolute-zero-target"
        deviation = None
    return {
        "name": name,
        "computed": float(computed),
        "target": float(target),
        "deviation": deviation,
        "abs_deviation": float(abs_deviation),
        "tolerance": float(tolerance),
        "tolerance_kind": kind,
        "pass": bool(ok),
    }


def _option(cfg: _Config, key, default, read):
    """read(cfg[key]), or default when key is absent; a KeyError, TypeError,
    ValueError or OverflowError of read is a ConfigError naming key."""
    cfg.read.add(key)
    if key not in cfg:
        return default
    try:
        return read(cfg[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _all_read(cfg: _Config, where=""):
    """Refuses the keys of cfg that no `_option` has read, before any
    spectrum is built: a misspelt key would run the default without a
    word."""
    unread = [key for key in cfg if key not in cfg.read]
    if unread:
        raise ConfigError(
            f"unknown config key{'s' * (len(unread) > 1)} "
            f"{', '.join(map(repr, unread))}{where}; this experiment reads "
            f"{', '.join(map(repr, sorted(cfg.read)))}")


_whole = partial(json_number, whole=True)


def _list(read, length=None):
    """Reader of a JSON list, of the given length if any, of items read takes."""
    def read_list(items):
        if not isinstance(items, list) or length not in (None, len(items)):
            raise ValueError(f"need a list{f' of {length}' if length else ''}, "
                             f"got {items!r}")
        return [read(item) for item in items]
    return read_list


def _symbol(n):
    """Reader of a symbol in JSON form on C^n."""
    def read(obj):
        sym = RadialSymbol.from_json_dict(obj)
        if sym.n != n:
            raise ValueError(f"symbol dimension {sym.n} does not match n={n}")
        return sym
    return read


def _context(cfg, default_n: int) -> FockContext:
    """The FockContext of the config's n and gamma."""
    n = _option(cfg, "n", default_n, lambda v: _whole(v, least=1))
    gamma = _option(cfg, "gamma", 1.0,
                    lambda v: FockContext(n, json_number(v)).gamma)
    return FockContext(n, gamma)


def _trace_options(cfg, n, default_tol):
    """A trace check's degree cutoff, tolerance and rank grid (None: the
    default grid)."""
    return (_option(cfg, "K_degree", 4000 if n > 1 else 1 << 20, _whole),
            _option(cfg, "tolerance", default_tol, json_number),
            _option(cfg, "grid", None, _list(_whole)))


def _extrapolated_check(name, seq, target, tol, grid, n):
    """The check of seq's extrapolated log-Cesaro limit against target, and
    the estimate's diagnostics with the spectrum's certificate and the
    number of ranks it certifies.  The default
    grid is the spec'd one below the spectrum's length at n = 1, else the
    certified auto grid; a grid the spectrum cannot carry is a configuration
    error."""
    if grid is None and n == 1:
        grid = [k for k in DEFAULT_RANK_GRID_1D if k < seq.total]
    try:
        est = extrapolate(seq, grid)
    except ValueError as exc:
        raise ConfigError(
            f"cannot extrapolate over {seq.total} ranks: {exc}") from exc
    return (make_check(name, est.value, target, tol),
            {"estimate_method": "extrapolated",
             "estimate_K": est.diagnostics["grid"][-1],
             "certificate": seq.certificate,
             "certified_rank": seq.certified_rank,
             **est.diagnostics})


def _trace_check(ctx, config, target, options, check_name, csv_label,
                 csv_sink):
    """The spectral half of a trace experiment: the per-degree spectrum of
    config, its extrapolated log-Cesaro limit checked against the symbolic
    target, and the estimate's diagnostics, as an experiment returns them."""
    K, tol, grid = options
    seq = diagonal_spectrum(ctx, config, K)
    csv_sink(csv_label, seq)
    check, diags = _extrapolated_check(check_name, seq, target, tol, grid, ctx.n)
    return [check], diags


def loglog_slope(xs, ys):
    """Least-squares slope of log|y| against log x."""
    ys = np.abs(np.asarray(ys, dtype=float))
    if np.any(ys == 0):
        raise ValueError("zero values have no log-log slope")
    return _line_fit(np.log(xs), np.log(ys))[1]


def _leading(sym: RadialSymbol):
    """(m, leading sphere part) of sym, whose order must be an integer -m <= 0
    (to 1e-9, from below: every term then has t <= 0)."""
    m, lead = sym.leading_sphere_part()
    mi = int(round(-m))
    if abs(m + mi) > 1e-9 or m > 0:
        raise ConfigError(f"symbol order {m:g} is not a nonpositive integer")
    return mi, lead


def _product_target(ctx, pairs, factors, form):
    """The Dixmier trace of the product of the Hankel-type pairs (f, g) and
    the Toeplitz factors h: gamma^(n - len(pairs)) / n! times the sphere
    integral of prod form(f0, mf, g0, mg) * prod h0, with each symbol's
    order -m and leading sphere part from `_leading`.  It holds in the
    Dixmier class only, so a total decay (mf + mg + 2 a pair, mh a factor)
    other than 2n is refused.  Callers pass form as looked up at the call,
    never bound at import, so a wrapper patched onto its name here is the
    one called."""
    n = ctx.n
    integrand = SpherePolynomial.constant(n)
    decay = 0
    for f, g in pairs:
        mf, f0 = _leading(f)
        mg, g0 = _leading(g)
        decay += mf + mg + 2
        integrand = integrand * form(f0, mf, g0, mg)
    for h in factors:
        mh, h0 = _leading(h)
        decay += mh
        integrand = integrand * h0
    if decay != 2 * n:
        raise ConfigError(f"total decay {decay} must equal 2n = {2 * n}: the "
                          f"trace formula holds in the Dixmier class only")
    return (ctx.gamma ** (n - len(pairs)) / math.factorial(n)
            * sphere_integral(integrand).real)


def _commutator_form(f0, mf, g0, mg):
    """The boundary form of a commutator [T_f, T_g] (its symbols' decay
    makes mf = mg = 0): the bracket of (g0, f0) minus that of (f0, g0)."""
    return tangential_bracket(g0, f0) - tangential_bracket(f0, g0)


# ---------------------------------------------------------------------------
# experiments

def _exp_model_operator(cfg, seed, csv_sink):
    ctx = _context(cfg, 1)
    n = ctx.n
    S = RadialSymbol.radial_power(n, -2.0 * n)
    target = _product_target(ctx, [], [S], boundary_pairing)
    tol_extrapolated = _option(cfg, "tol_extrapolated", 0.02, json_number)
    grid = _option(cfg, "grid", None, _list(_whole))
    if n == 1:
        K = _option(cfg, "K_ranks", 1 << 20, _whole)
        tol_pointwise = _option(cfg, "tol_pointwise", 0.005, json_number)
        window = _option(cfg, "window", [500_000, 1_000_000], _list(_whole, 2))
    else:
        K = _option(cfg, "K_degree", 10_000, _whole)
    _all_read(cfg)
    seq = diagonal_spectrum(ctx, toeplitz_config(S), K)
    if n == 1:
        try:
            med, spread = pointwise(seq, [min(w, seq.total - 1) for w in window])
        except ValueError as exc:
            raise ConfigError(f"invalid window: {exc}") from exc
        checks = [make_check("pointwise-median", med, target, tol_pointwise)]
        diags = {"pointwise_spread": spread}
    else:
        top = seq.certified_rank or seq.total
        med, spread = pointwise(seq, (max(0, top - 200_000), top - 1))
        checks = []
        diags = {"pointwise_median": med, "pointwise_spread": spread}
    check, est_diags = _extrapolated_check("extrapolated-log-mean", seq, target,
                                           tol_extrapolated, grid, n)
    csv_sink("model-operator", seq)
    return checks + [check], {**diags, **est_diags}


def _exp_toeplitz_trace(cfg, seed, csv_sink):
    ctx = _context(cfg, 2)
    n = ctx.n
    default = (RadialSymbol.coordinate(n, 1)
               * RadialSymbol.coordinate(n, 1, conjugated=True)
               * RadialSymbol.radial_power(n, -2.0 * (n + 1)))
    f = _option(cfg, "f", default, _symbol(n))
    options = _trace_options(cfg, n, 0.02)
    target = _product_target(ctx, [], [f], boundary_pairing)
    _all_read(cfg)
    return _trace_check(ctx, toeplitz_config(f), target, options,
                        "trace-vs-boundary-integral", "toeplitz-trace", csv_sink)


def _exp_hankel_trace(cfg, seed, csv_sink):
    ctx = _context(cfg, 1)
    n = ctx.n
    default = (RadialSymbol.coordinate(n, 1)
               * RadialSymbol.radial_power(n, -1.0))
    f = _option(cfg, "f", default, _symbol(n))
    g = _option(cfg, "g", default, _symbol(n))
    options = _trace_options(cfg, n, 0.01 if n == 1 else 0.05)
    target = _product_target(ctx, [(f, g)] * n, [], boundary_pairing)
    _all_read(cfg)
    return _trace_check(ctx, hankel_config(f, g) ** n, target, options,
                        "hankel-trace-vs-bracket-integral", "hankel-trace",
                        csv_sink)


def _exp_commutator_trace(cfg, seed, csv_sink):
    ctx = _context(cfg, 1)
    n = ctx.n
    # (z_j w, conj(z_j) w), w = (1+|z|^2)^(-1/2), for j = 1..n
    du = RadialSymbol.radial_power(n, -1.0)
    default_pairs = [(RadialSymbol.coordinate(n, j) * du,
                      RadialSymbol.coordinate(n, j, conjugated=True) * du)
                     for j in range(1, n + 1)]
    pairs = _option(cfg, "pairs", default_pairs, _list(_list(_symbol(n), 2)))
    if len(pairs) != n:
        raise ConfigError(f"need exactly n = {n} commutator pairs")
    options = _trace_options(cfg, n, 0.05)
    target = _product_target(ctx, pairs, [], _commutator_form)
    config = reduce(mul, [commutator_config(f, g) for f, g in pairs])
    _all_read(cfg)
    return _trace_check(ctx, config, target, options,
                        "commutator-trace-vs-boundary-integral",
                        "commutator-trace", csv_sink)


def _mixed_case(case):
    """The context, configuration, symbolic target and trace options of one
    mixed-trace case."""
    ctx = _context(case, 2)
    n = ctx.n
    pairs = _option(case, "hankel_pairs", [], _list(_list(_symbol(n), 2)))
    factors = _option(case, "toeplitz_factors", [], _list(_symbol(n)))
    options = _trace_options(case, n, 0.05)
    target = _product_target(ctx, pairs, factors, boundary_pairing)
    config = reduce(mul, [hankel_config(f, g) for f, g in pairs]
                    + [toeplitz_config(h) for h in factors])
    return ctx, config, target, options


def _default_mixed_cases():
    # one Hankel pair against one Toeplitz factor in two variables, and a
    # pure Toeplitz chain in one variable
    z1 = RadialSymbol.coordinate(2, 1)
    z1b = RadialSymbol.coordinate(2, 1, conjugated=True)
    w2 = RadialSymbol.radial_power(2, -2.0)
    fg = (z1 * w2).to_json_dict()
    h = (z1 * z1b * w2).to_json_dict()
    case1 = {"n": 2, "gamma": 1.0, "hankel_pairs": [[fg, fg]],
             "toeplitz_factors": [h], "K_degree": 4000, "tolerance": 0.05,
             "label": "hankel-toeplitz"}
    u = RadialSymbol.radial_power(1, -1.0).to_json_dict()
    case2 = {"n": 1, "gamma": 1.0, "hankel_pairs": [],
             "toeplitz_factors": [u, u], "tolerance": 0.02,
             "label": "toeplitz-chain"}
    return [case1, case2]


def _case(obj) -> _Config:
    """A mixed-trace case: a JSON object."""
    if not isinstance(obj, dict):
        raise TypeError(f"a case is a JSON object, got {obj!r}")
    return _Config(obj)


def _label(value) -> str:
    """A mixed-trace case's label, which names its check and its CSV file: a
    non-empty string with no /, \\ or NUL, other than . and .."""
    if (not isinstance(value, str) or value in ("", ".", "..")
            or any(c in value for c in "/\\\0")):
        raise ValueError(f"need a file name, got {value!r}")
    return value


def _exp_mixed_trace(cfg, seed, csv_sink):
    cases = _option(cfg, "cases", None, _list(_case))
    if cases is None:
        cases = _list(_case)(_default_mixed_cases())
    if not cases:
        raise ConfigError("invalid cases: need at least one case, got []")
    # every case is read, and its target computed, before the first spectrum
    labels = [_option(c, "label", f"case{i}", _label) for i, c in enumerate(cases)]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"invalid label: two cases share one in {labels}")
    runs = [_mixed_case(case) for case in cases]
    _all_read(cfg)
    for label, case in zip(labels, cases):
        _all_read(case, f" in case {label!r}")
    checks = []
    diags = {}
    for label, (ctx, config, target, options) in zip(labels, runs):
        name = f"mixed-trace-{label}"
        chk, diags[label] = _trace_check(ctx, config, target, options, name,
                                         name, csv_sink)
        checks += chk
    return checks, diags


# --- calculus-check helpers -------------------------------------------------

def _random_sum(kind, rng, n, deg):
    """A RadialSymbol (t = 0) or SpherePolynomial on C^n: each z^p conj(z)^q
    with |p| + |q| <= deg is kept with probability 0.4 (0.35 on the sphere),
    with a standard complex normal coefficient; the constant 1 when none is."""
    radial = kind is RadialSymbol
    # graded: the multi-indices of degree <= d are the first C(d + n, n)
    basis = enumerate_basis(n, deg)
    terms = {}
    for p in basis:
        for q in basis[:math.comb(deg - sum(p) + n, n)]:
            if rng.random() < (0.4 if radial else 0.35):
                terms[(p, q, 0.0) if radial else (p, q)] = complex(
                    rng.normal(), rng.normal())
    out = kind(n, terms)
    return out if out.terms else kind.constant(n)


def _sym_rel_dev(a: RadialSymbol, b: RadialSymbol) -> float:
    keys = set(a.terms) | set(b.terms)
    scale = max(max((abs(c) for c in a.terms.values()), default=0.0),
                max((abs(c) for c in b.terms.values()), default=0.0), 1e-300)
    worst = max((abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys),
                default=0.0)
    return worst / scale


def _random_disc_point(rng):
    """A complex normal draw, scaled into the closed unit disc."""
    w = rng.normal() + 1j * rng.normal()
    w /= max(1.0, abs(w))
    return w


def _random_sphere_points(rng, n, count):
    pts = []
    for _ in range(count):
        v = rng.normal(size=2 * n).astype(float)
        v /= np.linalg.norm(v)
        pts.append(v[:n] + 1j * v[n:])
    return pts


def _monomial_pair(n, p, q, mf, pg, qg, mg):
    """f = z^p conj(z)^q and g = z^pg conj(z)^qg, radially weighted to the
    orders -mf and -mg, and the boundary pairing of their leading parts."""
    f = RadialSymbol.monomial(n, p, q, -mf - sum(p) - sum(q))
    g = RadialSymbol.monomial(n, pg, qg, -mg - sum(pg) - sum(qg))
    _, f0 = f.leading_sphere_part()
    _, g0 = g.leading_sphere_part()
    return f, g, boundary_pairing(f0, mf, g0, mg)


def _star_checks(gamma, triples):
    """Associativity, conjugation and unit of the star product on random
    triples (a, b, c) of symbols."""
    dev_assoc = 0.0
    dev_conj = 0.0
    dev_unit = 0.0
    for a, b, c in triples:
        ab = star(a, b, gamma)
        dev_assoc = max(dev_assoc,
                        _sym_rel_dev(star(ab, c, gamma),
                                     star(a, star(b, c, gamma), gamma)))
        dev_conj = max(dev_conj,
                       _sym_rel_dev(ab.conj(), star(b.conj(), a.conj(), gamma)))
        dev_unit = max(dev_unit,
                       _sym_rel_dev(star(a, RadialSymbol.constant(a.n), gamma), a))
    return [make_check("star-associativity", dev_assoc, 0.0, 1e-12),
            make_check("star-conjugation", dev_conj, 0.0, 1e-12),
            make_check("star-unit", dev_unit, 0.0, 1e-14)]


def _generator_check(gamma):
    dev_comm = 0.0
    for g in (gamma, 2.7 * gamma):
        for j in (1, 2):
            for k in (1, 2):
                zj = RadialSymbol.coordinate(2, j)
                zkb = RadialSymbol.coordinate(2, k, conjugated=True)
                comm = star(zj, zkb, g) - star(zkb, zj, g)
                expect = RadialSymbol.constant(2, -1.0 / g if j == k else 0.0)
                dev_comm = max(dev_comm, _sym_rel_dev(comm, expect))
    return [make_check("generator-commutators", dev_comm, 0.0, 1e-14)]


def _heat_roundtrip_check(gamma, sums):
    dev_heat = 0.0
    for a in sums:
        dev_heat = max(dev_heat, _sym_rel_dev(
            heat_inverse(heat_transform(a, gamma), gamma), a))
    return [make_check("heat-roundtrip", dev_heat, 0.0, 1e-12)]


def _coordinate_check(gamma):
    """Coordinate symbols quantize identically through both routes."""
    ctx1 = FockContext(1, gamma)
    z = RadialSymbol.coordinate(1, 1)
    Tz = toeplitz_matrix(ctx1, z, 10)
    Wz = weyl_matrix(ctx1, z, 10)
    dev_coord = float(np.max(np.abs(Tz.entries - Wz.entries)))
    zzb = z * z.conj()
    Tzzb = toeplitz_matrix(ctx1, zzb, 10)
    Wzzb = weyl_matrix(ctx1, zzb, 10)
    expect = Tzzb.entries - np.eye(Tzzb.size) / (2 * gamma)
    dev_coord = max(dev_coord, float(np.max(np.abs(Wzzb.entries - expect))))
    return [make_check("coordinate-quantization", dev_coord, 0.0, 1e-13)]


def _composition_check(gamma, pairs):
    """Operator composition matches the star product on the truncated block,
    for random pairs (a, b) of symbols."""
    dev_star_op = 0.0
    for a, b in pairs:
        ctx = FockContext(a.n, gamma)
        D = 12 if a.n == 1 else 8
        Wab = buffered_product(
            ctx, [heat_inverse(a, gamma), heat_inverse(b, gamma)], D)
        Wc = weyl_matrix(ctx, star(a, b, gamma), D)
        scale = max(float(np.max(np.abs(Wc.entries))), 1e-300)
        dev_star_op = max(dev_star_op, float(
            np.max(np.abs(Wab.entries - Wc.entries))) / scale)
    return [make_check("composition-vs-star", dev_star_op, 0.0, 1e-10)]


def _berezin_checks(gamma, draws):
    """Coherent-state symbols, for random symbols on C^1 and points of the
    closed unit disc: toeplitz sees the double heat flow, the heat-inverse
    quantization sees a single one."""
    ctx1 = FockContext(1, gamma)
    dev_btoe = 0.0
    dev_bweyl = 0.0
    for a, points in draws:
        Ta = toeplitz_matrix(ctx1, a, 40)
        Wa = weyl_matrix(ctx1, a, 40)
        E1 = heat_transform(a, gamma)
        E2 = heat_transform(E1, gamma)
        for w in points:
            ref2 = E2.evaluate([w])
            ref1 = E1.evaluate([w])
            bt, bw = berezin(ctx1, [Ta, Wa], [w])
            dev_btoe = max(dev_btoe, abs(bt - ref2) / max(abs(ref2), 1e-300))
            dev_bweyl = max(dev_bweyl, abs(bw - ref1) / max(abs(ref1), 1e-300))
    return [make_check("berezin-toeplitz", dev_btoe, 0.0, 1e-6),
            make_check("berezin-weyl", dev_bweyl, 0.0, 1e-6)]


def _hankel_lead_check(gamma):
    """The leading symbol of the Hankel product against the tangential
    pairing."""
    dev_lead = 0.0
    for n, p, q, mf, pg, qg, mg in [
        (1, (1,), (0,), 0, (1,), (0,), 0),
        (2, (1, 0), (0, 0), 0, (1, 0), (0, 0), 0),
        (2, (1, 0), (0, 0), 1, (1, 0), (0, 0), 1),
        (2, (0, 1), (1, 0), 1, (1, 0), (0, 1), 2),
    ]:
        f, g, ref = _monomial_pair(n, p, q, mf, pg, qg, mg)
        lead_sym = hankel_leading_symbol(f, g, gamma)
        if lead_sym.is_zero():
            continue
        _, lead = lead_sym.leading_sphere_part()
        scaled = gamma * lead
        num = sphere_norm_sq(scaled - ref)
        den = 1.0 + sphere_norm_sq(scaled) + sphere_norm_sq(ref)
        dev_lead = max(dev_lead, num / den)
    return [make_check("hankel-leading-symbol", dev_lead, 0.0, 1e-10)]


def _laplacian_check(polys):
    """Tangential operators assemble the ambient Laplacian on the sphere, for
    random sphere polynomials."""
    dev_lap = 0.0
    for P in polys:
        lhs = sphere_laplacian(P)
        rhs = _ambient_laplacian_on_sphere(P)
        num = sphere_norm_sq(lhs - rhs)
        den = 1.0 + sphere_norm_sq(lhs) + sphere_norm_sq(rhs)
        dev_lap = max(dev_lap, num / den)
    return [make_check("sphere-laplacian-identity", dev_lap, 0.0, 1e-10)]


def _heat_layer_check(gamma):
    """Heat-layer remainders decay at the generic rate for a symbol with all
    layers populated."""
    S = RadialSymbol.radial_power(1, -1.0) + RadialSymbol.radial_power(1, -2.0)
    m = S.order()
    radii = [10.0, 30.0, 100.0]
    exact = [heat_quadrature(S, r, gamma, nodes=120) for r in radii]
    worst_slope_gap = 0.0
    for N in (1, 2, 3):
        layers = heat_layers(S, N, gamma)
        rem = []
        for r, e in zip(radii, exact):
            part = sum(layer.evaluate([r]) for layer in layers
                       if not layer.is_zero())
            rem.append(abs(e - part))
        slope = loglog_slope(radii, rem)
        worst_slope_gap = max(worst_slope_gap, abs(slope - (m - N)))
    return [make_check("heat-layer-decay-slope", worst_slope_gap, 0.0, 0.3)]


def _pairing_check(pts):
    """The symbolic boundary pairing against the exact radial limits at
    points of the sphere in C^2."""
    pairs = [((1, 0), (0, 0), mf, (1, 0), (0, 0), mg)
             for mf in (0, 1, 2) for mg in (0, 1, 2)]
    pairs.append(((0, 1), (1, 0), 1, (1, 0), (0, 1), 2))
    dev_pair = 0.0
    for p, q, mf, pg, qg, mg in pairs:
        f, g, sym = _monomial_pair(2, p, q, mf, pg, qg, mg)
        nums = boundary_pairing_limit(f, g, pts, exponent=mf + mg + 2)
        for zeta, num in zip(pts, nums):
            dev_pair = max(dev_pair, abs(num - sym.evaluate(zeta)))
    return [make_check("pairing-numeric-vs-symbolic", dev_pair, 0.0, 1e-6)]


def _in_two_processes(here, forked):
    """(here(), forked()), with forked run in a child made with os.fork while
    here runs in this process.

    The child sends its result, or the exception it raised, pickled through
    a pipe, and leaves by os._exit, so it neither flushes this process's
    stdio buffers nor runs its exit hooks.  forked's exception is raised
    here with its type and message, and on Python 3.11 and later with the
    child's traceback as a note; a result or exception that pickle cannot
    carry is a RuntimeError with its repr.  The child is
    reaped before this returns or raises, and killed first if here raised or
    was interrupted.

    The child first moves off the CPU this process ran on at the fork, where
    its affinity allows another: a forked child starts on its parent's CPU,
    and the kernel moves it only where scheduling domains span the CPUs,
    which a cpuset with load balancing off (cgroup v1 `sched_load_balance`
    0) removes.

    The fork is made only on Linux, and only while this is the process's
    one Python thread: a fork copies only the calling thread, so a lock
    that another thread holds stays held in the child, and macOS's system
    libraries are not safe to use after a fork.  Elsewhere, and while other
    Python threads run, forked runs here after here.  The wait for
    the child is not bounded: a child that blocks on a lock a native thread
    held at the fork blocks this call too.
    """
    import threading
    if not (sys.platform == "linux" and hasattr(os, "fork")
            and threading.active_count() == 1):
        return here(), forked()
    import pickle
    try:
        with open("/proc/self/stat") as fh:
            # field 39: the CPU this process last ran on
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        cpu = None
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            others = os.sched_getaffinity(0) - {cpu}
            if cpu is not None and others:
                try:
                    os.sched_setaffinity(0, others)
                except OSError:
                    pass
            try:
                payload = (True, forked())
            except BaseException as exc:
                if hasattr(exc, "add_note"):
                    import traceback
                    exc.add_note("in the forked child:\n" + traceback.format_exc())
                payload = (False, exc)
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)
            except Exception as exc:
                data = pickle.dumps((False, RuntimeError(
                    f"the forked child could not send {payload[1]!r}: {exc!r}")))
            with open(wfd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as pipe:
            mine = here()
            data = pipe.read()
    except BaseException:
        import signal
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"the forked child exited with code "
                           f"{os.waitstatus_to_exitcode(status)} and no result")
    ok, theirs = pickle.loads(data)
    if not ok:
        raise theirs
    return mine, theirs


def _exp_calculus_check(cfg, seed, csv_sink):
    """The Weyl calculus's checks: star product, generators, heat transform,
    quantization of coordinates, composition, Berezin symbols, the Hankel
    leading symbol, the sphere Laplacian, heat layers and the boundary
    pairing, at fixed n = 1, 2, 3 and the config's gamma.

    Every random input is drawn first, from the seed's generator, in the
    order the checks take them.  The checks share nothing else, so they run
    in three groups:

    - first, here: composition-vs-star and heat-layer-decay-slope, the two
      whose BLAS calls OpenBLAS may run on several threads (the 120 x 120
      complex products at n = 2, and the eigenvalues behind the 120-node
      Gauss-Hermite rule).  OpenBLAS stops its worker threads at a fork and
      starts them again at the next threaded call, which after the fork
      would put a worker, spinning between calls, on a CPU that the other
      group needs;
    - then at once, through `_in_two_processes`: the star-product,
      generator and heat-roundtrip checks in a child made with os.fork,
      the rest here.

    The checks run in this process still call the star product, the heat
    functions, a dense matrix, sphere norms and the sphere Laplacian, where
    a tracer of this process sees them.  The report lists the checks in one
    fixed order, and its diagnostics name the checks the child group ran,
    say whether it ran in a forked child, and give each group's wall
    seconds."""
    # the checks run at fixed n = 1, 2, 3: only gamma is read
    gamma = _option(cfg, "gamma", 1.0, lambda v: FockContext(1, json_number(v)).gamma)
    _all_read(cfg)

    rng = np.random.default_rng(seed)
    triples = [tuple(_random_sum(RadialSymbol, rng, n, 3) for _ in range(3))
               for n in (1, 2) for _ in range(3)]
    heat_sums = [_random_sum(RadialSymbol, rng, n, 8 if n == 1 else 4)
                 for n in (1, 2)]
    composed = [(_random_sum(RadialSymbol, rng, n, 4),
                 _random_sum(RadialSymbol, rng, n, 4))
                for n in (1, 2) for _ in range(2)]
    berezin_draws = [(_random_sum(RadialSymbol, rng, 1, 4),
                      [_random_disc_point(rng) for _ in range(10)])
                     for _ in range(5)]
    polys = [_random_sum(SpherePolynomial, rng, n, 3)
             for n in (1, 2, 3) for _ in range(3)]
    pts = _random_sphere_points(rng, 2, 20)

    # (checks, group) in report order
    sections = [(partial(_star_checks, gamma, triples), "child"),
                (partial(_generator_check, gamma), "child"),
                (partial(_heat_roundtrip_check, gamma, heat_sums), "child"),
                (partial(_coordinate_check, gamma), "here"),
                (partial(_composition_check, gamma, composed), "first"),
                (partial(_berezin_checks, gamma, berezin_draws), "here"),
                (partial(_hankel_lead_check, gamma), "here"),
                (partial(_laplacian_check, polys), "here"),
                (partial(_heat_layer_check, gamma), "first"),
                (partial(_pairing_check, pts), "here")]

    def group(name):
        t0 = time.perf_counter()
        out = [run() for run, where in sections if where == name]
        return out, time.perf_counter() - t0, os.getpid()

    first = group("first")
    here, child = _in_two_processes(partial(group, "here"),
                                    partial(group, "child"))
    diags = {"child_checks": [c["name"] for sec in child[0] for c in sec],
             "forked": child[2] != os.getpid(), "first_wall_s": first[1],
             "parent_wall_s": here[1], "child_wall_s": child[1]}
    groups = {"first": iter(first[0]), "here": iter(here[0]),
              "child": iter(child[0])}
    return [c for _, where in sections for c in next(groups[where])], diags


def _ambient_laplacian_on_sphere(P: SpherePolynomial) -> SpherePolynomial:
    """Quarter of the Euclidean Laplacian of the degree-0 homogeneous
    extension of P, restricted back to the sphere."""
    ext = HomogeneousSymbol(P.n, 0.0, {(p, q, -(sum(p) + sum(q))): c
                                       for (p, q), c in P.terms.items()})
    return (1.0 / 4.0) * ext.laplacian().restrict_sphere()


EXPERIMENTS = {
    "model-operator": _exp_model_operator,
    "toeplitz-trace": _exp_toeplitz_trace,
    "hankel-trace": _exp_hankel_trace,
    "commutator-trace": _exp_commutator_trace,
    "mixed-trace": _exp_mixed_trace,
    "calculus-check": _exp_calculus_check,
}


def run_experiment(name: str, config: dict | None = None, seed: int = 0,
                   csv_dir=None) -> dict:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment '{name}'; choose from "
                          f"{sorted(EXPERIMENTS)}")
    if not isinstance(config or {}, dict):
        raise ConfigError(f"a config is a JSON object, got {config!r}")
    cfg = _Config(config or {})
    written = []

    def csv_sink(label, seq):
        if csv_dir is not None:
            os.makedirs(csv_dir, exist_ok=True)
            path = os.path.join(csv_dir, f"{label}.csv")
            seq.to_csv(path)
            written.append(path)

    t0 = time.perf_counter()
    try:
        checks, diagnostics = EXPERIMENTS[name](cfg, seed, csv_sink)
    except DiagonalityError as exc:
        raise ConfigError(str(exc)) from exc
    elapsed = time.perf_counter() - t0
    return {
        "schema": REPORT_SCHEMA,
        "experiment": name,
        "config": dict(cfg),
        "seed": seed,
        "checks": checks,
        "diagnostics": diagnostics,
        "spectra_csv": written,
        "passed": all(c["pass"] for c in checks),
        "timing_seconds": elapsed,
    }


def _finite(text: str) -> float:
    """The float of a JSON number or constant (NaN, Infinity, -Infinity) as
    json reads it, refused (ValueError) unless finite: a config holds no
    non-finite number, and a report could not carry one."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def main(argv=None) -> int:
    import argparse  # with gettext, only for the command line
    import json

    # what the imports built lives until exit: frozen, exit's collection skips it
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="focktrace",
        description="Numerical and symbolic verification of trace formulas "
                    "for Toeplitz, Hankel and Weyl-type operators on "
                    "Gaussian-weighted entire-function spaces.")
    parser.add_argument("--experiment", required=True,
                        choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="report JSON output path (default: stdout)")
    parser.add_argument("--csv-spectra", help="directory for spectra CSV dumps")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = None
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh, parse_float=_finite,
                                   parse_constant=_finite)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_experiment(args.experiment, config, seed=args.seed,
                                csv_dir=args.csv_spectra)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_report(report, args.out)
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {report['experiment']}::{c['name']}: "
              f"computed={c['computed']:.8g} target={c['target']:.8g} "
              f"tol={c['tolerance']:g} ({c['tolerance_kind']})",
              file=sys.stderr)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
