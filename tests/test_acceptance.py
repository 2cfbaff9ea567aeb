"""End-to-end acceptance checks at desk scale (N = 64 windows).

Each test certifies one criterion at its stated tolerance and prints a
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they appear.
"""

import numpy as np
import pytest

from mobshift import cli
from mobshift.homogeneity import (
    homogeneity_defect,
    infinitesimal_reports,
    reducible_lambda_check,
)
from mobshift.inductive import (
    FIT_NEITHER,
    FIT_T2,
    FIT_T3,
    classify_a_minus1,
    ladder_cancellation,
)
from mobshift.mobius import GroupPath, path_to_mobius
from mobshift.numkernel import (
    BILATERAL,
    UNILATERAL,
    OperatorMatrix,
    TruncationWindow,
)
from mobshift.repn import (
    Realization,
    RepnParams,
    circle_rep_matrix,
    generator_matrix,
    gram,
    reducible_generator_matrix,
    unitarity_residual,
)
from mobshift.shifts import (
    canonical_shift,
    reducible_shift,
    weight_sequence,
)

from oracles import orthonormal, te_tf_coefficients

N = 64
PAD = 16
PATHS = tuple(GroupPath.parse(t) for t in ("L:0.1", "M:0.1", "h:0.3", "L:0.1,M:-0.05,h:0.2"))

HOLO_POINTS = tuple(RepnParams(UNILATERAL, lam) for lam in (0.5, 1.0, 2.7))
PRINCIPAL_POINTS = tuple(
    RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, im))
    for lam in (-0.5, 0.3, 1.0)
    for im in (0.5, 2.0)
)
COMPLEMENTARY_POINTS = (RepnParams(BILATERAL, 0.4, 0.2 + 0j),)
ALL_POINTS = HOLO_POINTS + PRINCIPAL_POINTS + COMPLEMENTARY_POINTS

# defects this small are at the rounding floor: there is no truncation error
# left for extra padding to remove
FLOOR = 1e-12


def report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def homogeneous_cases():
    """The certified operator families: (label, T, realization, window), T in
    the orthonormal basis."""
    cases = []
    for p in HOLO_POINTS:
        w = TruncationWindow(UNILATERAL, N, PAD)
        t1, t1s = (orthonormal(canonical_shift(kind, p, w), p, w) for kind in ("T1", "T1star"))
        cases.append((f"T1/holo lam={p.lam:g}", t1, Realization.plain(p), w))
        cases.append((f"T1star/sharp lam={p.lam:g}", t1s, Realization.sharp(p), w))
    for p in PRINCIPAL_POINTS:
        w = TruncationWindow(BILATERAL, N, PAD)
        label = f"principal lam={p.lam:g} im_mu={p.mu.imag:g}"
        cases.append((f"T2/{label}", orthonormal(canonical_shift("T2", p, w), p, w), Realization.plain(p), w))
        cases.append((f"T3/{label}", orthonormal(canonical_shift("T3", p, w), p, w), Realization.plain(p), w))
    for p in COMPLEMENTARY_POINTS:
        w = TruncationWindow(BILATERAL, N, PAD)
        cases.append((f"T2/complementary", orthonormal(canonical_shift("T2", p, w), p, w), Realization.plain(p), w))
        cases.append((f"T3/complementary", orthonormal(canonical_shift("T3", p, w), p, w), Realization.plain(p), w))
    for r in (0.3, 1.0, 2.0):
        w = TruncationWindow(BILATERAL, N, PAD)
        rel = Realization.reducible(1.0, r)
        cases.append((f"reducible r={r:g}", orthonormal(reducible_shift(rel, w), rel.params, w), rel, w))
    return cases


def test_criterion_01_unitarity():
    worst = 0.0
    worst_ratio_note = "padding sweep at rounding floor"
    failures = []
    for p in ALL_POINTS:
        w = TruncationWindow(p.index_set, N, PAD)
        for path in PATHS:
            R = Realization.plain(p).along_path(path, w)
            d16 = unitarity_residual(R, w)
            worst = max(worst, d16)
            if d16 > 1e-7:
                failures.append((p, path.describe(), "defect", d16))
            d4 = unitarity_residual(R, TruncationWindow(w.kind, w.N, 4))
            d24 = unitarity_residual(R, TruncationWindow(w.kind, w.N, 24))
            if not (d4 <= FLOOR or d4 >= 100.0 * d24):
                failures.append((p, path.describe(), "shrink", d4, d24))
            if d4 > FLOOR:
                worst_ratio_note = f"min shrink ratio {d4 / d24:.1f}x"
    ok = not failures
    report(1, "unitarity", ok, f"max defect {worst:.2e} at pad {PAD}; {worst_ratio_note}")
    assert ok, failures


def test_criterion_02_homogeneity():
    worst = 0.0
    failures = []
    for label, T, rel, w in homogeneous_cases():
        for path in PATHS:
            R = rel.along_path(path, w)
            rep = homogeneity_defect(T, R, path_to_mobius(path), w, tolerance=1e-6)
            worst = max(worst, rep.value)
            if not rep.passed:
                failures.append((label, path.describe(), rep.value))
    ok = not failures
    report(2, "homogeneity certificates", ok, f"max defect {worst:.2e} over {len(homogeneous_cases()) * len(PATHS)} checks")
    assert ok, failures


def test_criterion_03_negative_controls():
    path = GroupPath.parse("L:0.1")
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.5))
    w = TruncationWindow(BILATERAL, N, PAD)
    scaled = 2.0 * orthonormal(canonical_shift("T2", p, w), p, w)
    d_scaled = homogeneity_defect(scaled, Realization.plain(p).along_path(path, w), path_to_mobius(path), w).value

    ph = RepnParams(UNILATERAL, 2.0)
    wh = TruncationWindow(UNILATERAL, N, PAD)
    decaying = orthonormal(OperatorMatrix.from_band(wh, -1, 1.0 / (wh.indices()[:-1] + 2)), ph, wh)
    d_decay = homogeneity_defect(decaying, Realization.plain(ph).along_path(path, wh), path_to_mobius(path), wh).value

    wb = TruncationWindow(BILATERAL, 16, 4)
    exact_err = 0.0
    rng = np.random.default_rng(9)
    for _ in range(20):
        lam = float(rng.uniform(0.1, 1.9))
        r = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = reducible_lambda_check(Realization.reducible(lam, r), wb).value
        exact_err = max(exact_err, abs(got - abs(r) * abs(lam - 1.0)))
    seam = reducible_lambda_check(Realization.reducible(1.5), wb).value

    ok = d_scaled >= 1e-2 and d_decay >= 1e-2 and exact_err <= 1e-12 and abs(seam - 0.5) <= 1e-12
    report(
        3,
        "negative controls",
        ok,
        f"scaled shift {d_scaled:.2e}, decaying shift {d_decay:.2e}, seam witness error {exact_err:.1e}",
    )
    assert ok


def test_criterion_04_infinitesimal_relations():
    worst_identity = 0.0
    worst_route = 0.0
    failures = []
    for label, T, rel, w in homogeneous_cases():
        for rep in infinitesimal_reports(T, rel, w, step=1e-4, identity_tol=1e-6):
            if rep.name.endswith("identity"):
                worst_identity = max(worst_identity, rep.value)
            else:
                worst_route = max(worst_route, rep.value)
            if not rep.passed:
                failures.append((label, rep.name, rep.value))
    ok = not failures
    report(
        4,
        "infinitesimal relations",
        ok,
        f"max identity defect {worst_identity:.2e}, max route gap {worst_route:.2e}",
    )
    assert ok, failures


def test_criterion_05_algebraic_identities():
    rng = np.random.default_rng(123)
    worst_ladder = 0.0
    for _ in range(500):
        lam = float(rng.uniform(-3, 3))
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        m = int(rng.integers(1, 9)) * (1 if rng.uniform() < 0.5 else -1)
        n = int(rng.integers(-25, 26))
        for side in ("e", "f"):
            worst_ladder = max(worst_ladder, abs(ladder_cancellation(lam, mu, m, n, side) - 2.0 * m * m))

    # diagonal commutator formula on 100 random coefficient vectors
    w = TruncationWindow(BILATERAL, 10, 2)
    worst_diag = 0.0
    for _ in range(100):
        lam = float(rng.uniform(-0.9, 0.9))
        mu = complex(rng.uniform(0.05, 0.95), rng.uniform(-1, 1))
        p = RepnParams(BILATERAL, lam, mu)
        a = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(w.lo, w.hi + 1)}
        te, _ = te_tf_coefficients(a, 0, p, w)
        t = OperatorMatrix.from_band(w, 0, list(a.values()))
        t_e = OperatorMatrix.from_band(w, 1, list(te.values()))
        bracket = t @ t_e - t_e @ t
        for n in range(w.lo + 1, w.hi + 1):
            expected = -(mu - n) * (a[n - 1] - a[n]) ** 2
            worst_diag = max(worst_diag, abs(bracket.entry(n - 1, n) - expected))

    # coefficient maps against matrix commutators, canonical and random shifts
    wb = TruncationWindow(BILATERAL, 24, 4)
    p = RepnParams(BILATERAL, 0.3, complex(0.35, 0.7))
    probes = [
        (-1, {n: 1.0 + 0j for n in range(wb.lo, wb.hi)}, p),
        (-1, {n: (p.lam + p.mu + n) / (n + 1.0 - p.mu) for n in range(wb.lo, wb.hi)}, p),
    ]
    wu = TruncationWindow(UNILATERAL, 24, 4)
    hp = RepnParams(UNILATERAL, 2.0)
    probes.append((-1, {n: 1.0 + 0j for n in range(0, wu.hi)}, hp))
    for _ in range(20):
        m = int(rng.integers(-3, 4))
        pr = RepnParams(BILATERAL, float(rng.uniform(-0.9, 0.9)), complex(rng.uniform(0.1, 0.9), rng.uniform(-1, 1)))
        coeffs = {
            n: complex(rng.standard_normal(), rng.standard_normal())
            for n in range(wb.lo, wb.hi + 1)
            if wb.contains(n - m)
        }
        probes.append((m, coeffs, pr))
    worst_map = 0.0
    for m, coeffs, pp in probes:
        w_here = wb if pp.index_set == BILATERAL else wu
        t = OperatorMatrix.from_band(w_here, m, list(coeffs.values()))
        te, tf = te_tf_coefficients(coeffs, m, pp, w_here)
        e = generator_matrix(pp, "e", w_here)
        f = generator_matrix(pp, "f", w_here)
        comm_e = e @ t - t @ e
        comm_f = f @ t - t @ f
        interior = set(int(n) for n in w_here.interior_positions() + w_here.lo)
        for n, value in te.items():
            if n in interior and (n - m - 1) in interior:
                worst_map = max(worst_map, abs(comm_e.entry(n - m - 1, n) - value))
        for n, value in tf.items():
            if n in interior and (n - m + 1) in interior:
                worst_map = max(worst_map, abs(comm_f.entry(n - m + 1, n) - value))

    ok = worst_ladder <= 1e-10 and worst_diag <= 1e-11 and worst_map <= 1e-11
    report(
        5,
        "algebraic identities",
        ok,
        f"ladder {worst_ladder:.2e}, diagonal formula {worst_diag:.2e}, coefficient maps {worst_map:.2e}",
    )
    assert ok


def test_criterion_06_weight_consistency():
    worst = 0.0
    failures = []

    def check(label, got, want):
        nonlocal worst
        err = abs(got - want)
        worst = max(worst, err)
        if err > 1e-12:
            failures.append((label, err))

    for p in HOLO_POINTS:
        w = TruncationWindow(UNILATERAL, N, PAD)
        ortho = Realization.plain(p).orthonormal(canonical_shift("T1", p, w), w)
        for n in range(0, w.hi):
            check(f"T1 lam={p.lam:g} n={n}", ortho.entry(n + 1, n), weight_sequence(Realization.plain(p), n))
        ortho = Realization.plain(p).orthonormal(canonical_shift("T1star", p, w), w)
        for n in range(1, w.hi + 1):
            check(f"T1star lam={p.lam:g} n={n}", ortho.entry(n - 1, n), weight_sequence(Realization.sharp(p), -n))
    for p in PRINCIPAL_POINTS:
        w = TruncationWindow(BILATERAL, N, PAD)
        g = gram(p, w)
        if not np.array_equal(g.data, np.eye(w.size)):
            failures.append((f"principal gram lam={p.lam:g}", "not exactly identity"))
        for kind, branch in (("T2", "T2"), ("T3", "T3")):
            ortho = Realization.plain(p).orthonormal(canonical_shift(kind, p, w), w)
            for n in range(w.lo, w.hi):
                check(
                    f"{kind} principal lam={p.lam:g} n={n}",
                    ortho.entry(n + 1, n),
                    weight_sequence(Realization.plain(p), n, branch=branch),
                )
    for p in COMPLEMENTARY_POINTS:
        w = TruncationWindow(BILATERAL, N, PAD)
        ortho = Realization.plain(p).orthonormal(canonical_shift("T2", p, w), w)
        for n in range(w.lo, w.hi):
            check(f"T2 complementary n={n}", ortho.entry(n + 1, n), weight_sequence(Realization.plain(p), n))
    for lam in (0.5, 1.0, 1.5):
        rel = Realization.reducible(lam, 0.5 - 0.25j)
        w = TruncationWindow(BILATERAL, N, PAD)
        ortho = rel.orthonormal(reducible_shift(rel, w), w)
        for n in range(w.lo, w.hi):
            check(f"reducible lam={lam:g} n={n}", ortho.entry(n + 1, n), weight_sequence(rel, n))

    unimodular = 0.0
    for p in PRINCIPAL_POINTS:
        for n in range(-N, N + 1):
            wgt = weight_sequence(Realization.plain(p), n, branch="T3")
            unimodular = max(unimodular, abs(abs(wgt) - 1.0))
    ok = not failures and unimodular <= 1e-12
    report(
        6,
        "weight-sequence consistency",
        ok,
        f"max weight mismatch {worst:.2e}, unimodularity defect {unimodular:.2e}",
    )
    assert ok, failures[:5]


def test_criterion_07_classifier():
    rng = np.random.default_rng(2024)
    failures = []
    worst_residual = 0.0

    def principal_draw():
        lam = float(rng.uniform(-0.95, 0.95))
        return RepnParams(BILATERAL, lam, complex((1.0 - lam) / 2.0, rng.uniform(0.2, 2.5)))

    def complementary_draw():
        lam = float(rng.uniform(-0.9, 0.9))
        lo, hi = max(0.0, -lam), min(1.0, 1.0 - lam)
        width = hi - lo
        mu = lo + width * rng.uniform(0.2, 0.8)
        if abs(mu - (1.0 - lam) / 2.0) < 0.02:
            mu = lo + 0.15 * width  # step off the branch-coincidence line
        return RepnParams(BILATERAL, lam, complex(mu, 0.0))

    for draw in (principal_draw, complementary_draw):
        for _ in range(50):
            p = draw()
            c = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
            ns = range(-20, 21)
            const = {n: c for n in ns}
            fit = classify_a_minus1(const, p)
            worst_residual = max(worst_residual, fit.residual)
            if fit.branch != FIT_T2 or fit.residual > 1e-10:
                failures.append(("T2", p, fit.branch, fit.residual))
            rational = {n: c * (p.lam + p.mu + n) / (n + 1.0 - p.mu) for n in ns}
            fit = classify_a_minus1(rational, p)
            worst_residual = max(worst_residual, fit.residual)
            if fit.branch != FIT_T3 or fit.residual > 1e-10:
                failures.append(("T3", p, fit.branch, fit.residual))

    corrupted_ok = 0
    for k in range(20):
        p = principal_draw()
        if k % 2 == 0:
            coeffs = {n: 1.0 + 0.05 * float(rng.standard_normal()) * (1 + abs(n)) for n in range(-20, 21)}
        else:
            coeffs = {n: complex(n * n, n) for n in range(-20, 21)}
        if classify_a_minus1(coeffs, p).branch == FIT_NEITHER:
            corrupted_ok += 1
    ok = not failures and corrupted_ok == 20
    report(
        7,
        "branch classifier",
        ok,
        f"200 exact fits, max residual {worst_residual:.2e}; {corrupted_ok}/20 corrupted rejected",
    )
    assert ok, failures[:5]


def test_criterion_08_cross_route_representations():
    worst = 0.0
    failures = []
    for p in ALL_POINTS:
        w = TruncationWindow(p.index_set, N, PAD)
        ip = w.interior_positions()
        for text in ("L:0.1", "M:0.1"):
            path = GroupPath.parse(text)
            R = Realization.plain(p).along_path(path, w)
            C = circle_rep_matrix(p, path, w)
            diff = float(np.max(np.abs(R.data[np.ix_(ip, ip)] - C.data[np.ix_(ip, ip)])))
            worst = max(worst, diff)
            if diff > 1e-7:
                failures.append((p, text, diff))
    ok = not failures
    report(8, "cross-route representation agreement", ok, f"max interior mismatch {worst:.2e}")
    assert ok, failures


def test_criterion_09_direct_sum_seam_coincidence():
    w = TruncationWindow(BILATERAL, N, PAD)
    seam = RepnParams(BILATERAL, 1.0, 0j)
    worst = 0.0
    for gen in ("h", "e", "f"):
        a = reducible_generator_matrix(seam, gen, w)
        b = generator_matrix(seam, gen, w)
        worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    ok = worst <= 1e-14
    report(9, "direct-sum seam coincidence at lam=1", ok, f"max entry difference {worst:.2e}")
    assert ok


def test_criterion_10_determinism(capsys):
    invocations = [
        ["verify", "lemmas", "--samples", "50", "--seed", "11"],
        ["verify", "homogeneity", "--series", "holo", "--lambda", "2", "--op", "T1", "--path", "L:0.1"],
        ["weights", "--series", "complementary", "--lambda", "0.4", "--mu", "0.2", "--n0", "-8", "--n1", "8"],
        ["sweep", "--series", "complementary", "--lambda-grid", "0.4", "--suites", "unitarity,homogeneity"],
    ]
    ok = True
    for argv in invocations:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        ok = ok and first == second and first
    report(10, "byte-identical reports", bool(ok), f"{len(invocations)} invocations repeated")
    assert ok
