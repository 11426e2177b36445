"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion is realized by a named suite (seeded, deterministic); the
tests print one line per criterion so the run reads as a checklist.
Criteria 2 and 3 share the factorization suite and are asserted on its
thm4-*/thm5-* cases respectively; criterion 8 covers both hypersphere
suites.
"""

import hashlib
import json

from cdconf.suites import SUITES, run_suite

SEED = 20_240_817
_cache = {}


def report(name):
    if name not in _cache:
        _cache[name] = run_suite(name, seed=SEED)
    return _cache[name]


def check(number, label, suite_names, case_prefixes=None):
    cases = []
    for sname in suite_names:
        rep = report(sname)
        for case in rep.cases:
            if case_prefixes and not any(case.name.startswith(p) for p in case_prefixes):
                continue
            cases.append(case)
    assert cases, f"criterion {number} selected no cases"
    ok = all(c.passed for c in cases)
    worst = max(c.worst for c in cases)
    line = f"ACCEPTANCE {number:>2} {label}: {'PASS' if ok else 'FAIL'} " \
           f"(worst {worst:.3e} across {len(cases)} case(s))"
    print(line)
    for c in cases:
        assert c.passed, f"criterion {number}: case {c.name} at {c.worst:.3e} " \
                         f"exceeds {c.tolerance:.1e}"


def test_criterion_01_algebra_laws():
    check(1, "algebra laws at 1e-11", ["algebra-laws"])


def test_criterion_02_quaternion_factorization():
    check(2, "SO(4) factorization round-trip at 1e-7",
          ["thm4-thm5-factorization"], ["thm4-"])


def test_criterion_03_octonion_givens():
    check(3, "SO(8) Givens factorization at 1e-8, <= 28 angles",
          ["thm4-thm5-factorization"], ["thm5-"])


def test_criterion_04_closure():
    check(4, "composition/inverse closure, lambda within 1e-6 rel",
          ["thm6-closure"])


def test_criterion_05_antiderivative_and_integrals():
    check(5, "symbolic round-trip exact; loop/endpoint integrals at 1e-8",
          ["thm17-antiderive-roundtrip"])


def test_criterion_06_argument_principle():
    check(6, "argument-principle counts and Rouche equality",
          ["thm23-argument-principle"])


def test_criterion_07_maximum_principle():
    check(7, "interior modulus within boundary sup + 1e-9",
          ["thm28-max-principle"])


def test_criterion_08_hypersphere_and_symmetry():
    check(8, "sphere images at 1e-9; symmetry squares at 1e-8",
          ["thm33-hypersphere", "thm35-symmetry"])


def test_criterion_09_ball_automorphisms():
    check(9, "ball involution properties at 1e-9",
          ["thm37-ball-automorphism"])


def test_criterion_10_cayley_transform():
    check(10, "half-space round-trip and positivity identity at 1e-10",
          ["sec32-cayley"])


def test_criterion_11_cartan_uniqueness():
    check(11, "squared involution certified identity at 1e-8",
          ["thm30-cartan"])


def test_criterion_12_schwarz_lemma():
    check(12, "norm shrinking for 0-fixing maps at 1e-9",
          ["thm36-schwarz"])


def test_criterion_13_montel_extraction():
    check(13, "bounded family yields a 1e-3 proximity-Cauchy subsequence",
          ["thm13-montel"])


def test_criterion_14_finite_difference_validity():
    check(14, "FD Jacobians within 10 step^2, second order observed",
          ["fd-validity"])


def test_every_suite_is_tied_to_a_criterion():
    # the registry carries exactly the fourteen acceptance suites
    assert len(SUITES) == 14


# sha256 of the JSON of all fourteen reports at SEED, computed before the
# suite sizes and tolerances moved from parameters into the suite bodies
SUITES_PIN_SHA256 = "54013e807e4c5df93304313fc2db99c2d8df303b3310c26fc29e7be91d70e359"


def test_suite_reports_keep_their_bytes():
    text = json.dumps([report(s.name).to_json() for s in SUITES], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUITES_PIN_SHA256
