"""Named certificates binding computations to their published expected values.

Each claim has three parts.  Its compute step ``run(cfg)`` recomputes a
finite quantity from scratch (minima with witnesses, enumerations, property
sweeps) and returns a :class:`Computed`: the report rows and the observed
value.  A compute step reads no expected value: what it searches (orders,
cases, fields) comes from the computation's own modules, never from
:mod:`ballquot.tables`.  ``expected(cfg)`` is the claim's default expected
value, taken from :mod:`ballquot.tables` or an exact bound, and
``judge(computed, expected)`` gives the verdict: the observed value equals
the expected one and the claim's intrinsic checks (such as every
``mc(r) >= 1``) hold.
:func:`certify` joins the parts into a :class:`Certificate` with PASS/FAIL
verdict, inputs, search bounds and witnesses, so one computation can be
judged against many expected values; rationals are serialized in lowest
terms, never as floats.  A claim that reads a search limit declares its
default and accepted range once, as a :class:`Limit`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import cusp, reidtai, tables
from .cyclo import euler_phi
from .qfield import (QElem, QMatrix, _elem, fmt_rational, in_ring_of_integers,
                     is_squarefree)
from .reidtai import (CASE_FAMILIES, DIMENSION_COEFF, c_min_red_with_witness,
                      case_analysis, enumerate_exceptional_orders,
                      enumerate_small_d, is_quasi_reflection, mc_for_field,
                      mc_literal_reading, mc_with_witness, qr_allowed_patterns,
                      reid_tai_sum)

PASS = "PASS"
FAIL = "FAIL"

FRAMES_PER_FIELD = 100
ORDER2_PER_FIELD = 16
SIGMA_PER_FIELD = 50


class RunConfig(NamedTuple):
    claims: Tuple[str, ...] = ("all",)
    d_range: Tuple[int, int] = (5, 15)
    r_limit: Optional[int] = None
    d_limit: Optional[int] = None
    seed: int = 0
    perturb: bool = False


class Computed(NamedTuple):
    """What a claim's compute step returns: the report rows (labels, values
    and witnesses), the value its judge compares with the expected one, and
    whether the checks that need no expected value hold.  No inputs or
    search bounds (None) are reported as empty ones."""
    rows: List[Dict]
    observed: object
    inputs: Optional[Dict] = None
    search_bounds: Optional[Dict] = None
    intrinsic: bool = True


class Certificate(NamedTuple):
    claim_id: str
    inputs: Dict
    computed: List[Dict]
    verdict: str
    search_bounds: Dict
    expected: object = None
    bound_checked: Optional[str] = None

    def passed(self) -> bool:
        return self.verdict == PASS

    def to_obj(self):
        return {
            "claim_id": self.claim_id,
            "inputs": _render(self.inputs),
            "computed": _render(self.computed),
            "expected": _render(self.expected),
            "bound_checked": self.bound_checked,
            "verdict": self.verdict,
            "bounds": _render(self.search_bounds),
        }


def _render(x):
    """Recursively stringify exact values for reports (no floats anywhere)."""
    if isinstance(x, Fraction):
        return fmt_rational(x)
    if isinstance(x, (QElem, QMatrix)):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _render(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, (list, tuple)):
        return [_render(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# judges


def _matches(result: Computed, expected) -> bool:
    """The intrinsic checks hold and the observed value is the expected one."""
    return result.intrinsic and result.observed == expected


def _order_differences(result: Computed, expected) -> List[Dict]:
    got, want = set(result.observed), set(expected)
    return [{"label": "missing_from_expected", "value": sorted(got - want)},
            {"label": "extra_in_expected", "value": sorted(want - got)}]


def _qr_patterns_allowed(result: Computed, expected) -> bool:
    return all(orders == expected.get(d, expected["generic"])
               for d, orders in result.observed.items())


# ---------------------------------------------------------------------------
# claims on the minimization tables


def _mc_row(label: str, wit) -> Dict:
    return {"label": label, "value": wit.value,
            "witness": {"orbit": wit.orbit_label, "D": wit.d_field, "k1": wit.k1}}


def _sweep_minimum(rows: List[Dict], values, **where) -> Computed:
    """A sweep of values that must each reach 1, observed by its minimum."""
    return Computed(rows, {"min_value": min(values, default=None)},
                    intrinsic=all(v >= 1 for v in values), **where)


def _claim_cminred(cfg: RunConfig) -> Computed:
    rows, observed = [], {}
    for d in sorted(d for d in DIMENSION_COEFF if d >= 3):
        value, d_tag, label, shift = c_min_red_with_witness(d)
        observed[d] = value
        rows.append({"label": f"c_min_red({d})", "value": value,
                     "witness": {"D": d_tag, "orbit": label, "shift": shift}})
    return Computed(rows, observed, search_bounds={"d_values": sorted(observed)})


def _claim_mc_phi10(cfg: RunConfig) -> Computed:
    wits = [(r, mc_with_witness(r)) for r in range(3, cfg.r_limit + 1)
            if euler_phi(r) >= 10]
    return _sweep_minimum([_mc_row(f"mc({r})", wit) for r, wit in wits],
                          [wit.value for _, wit in wits], inputs={"r_limit": cfg.r_limit},
                          search_bounds={"r_limit": cfg.r_limit, "phi_min": 10})


def _claim_mc_9_16_18(cfg: RunConfig) -> Computed:
    d_abs_limit = 1000
    rows, values = [], []
    for r in (9, 16, 18):
        wit = mc_with_witness(r)
        rows.append(_mc_row(f"mc({r})", wit))
        worst = min(
            (mc_for_field(r, -k), -k)
            for k in range(1, d_abs_limit + 1) if is_squarefree(-k)
        )
        rows.append({"label": f"min over fields |D|<={d_abs_limit} of mc_for_field({r})",
                     "value": worst[0], "witness": {"D": worst[1]}})
        values += [wit.value, worst[0]]
    return _sweep_minimum(rows, values, search_bounds={"r_set": [9, 16, 18],
                                                       "d_abs_limit": d_abs_limit})


def _claim_mc_phi4(cfg: RunConfig) -> Computed:
    r_set = [r for r in range(3, 50) if euler_phi(r) == 4]
    wits = [(r, mc_with_witness(r, d_filter=lambda D: D < -3)) for r in r_set]
    return _sweep_minimum([_mc_row(f"mc({r}) with D < -3", wit) for r, wit in wits],
                          [wit.value for _, wit in wits], inputs={"filter": "D < -3"},
                          search_bounds={"r_set": r_set})


def _claim_mc_literal(cfg: RunConfig) -> Computed:
    mismatches = [r for r in range(3, cfg.r_limit + 1)
                  if reidtai.mc(r) != mc_literal_reading(r)]
    return Computed([{"label": "quantifier readings disagree at", "value": mismatches}],
                    {"mismatches": len(mismatches)}, search_bounds={"r_limit": cfg.r_limit})


def _claim_exceptional(cfg: RunConfig) -> Computed:
    got = enumerate_exceptional_orders(cfg.r_limit)
    return Computed([{"label": "count", "value": len(got)},
                     {"label": "orders", "value": list(got)}],
                    tuple(got), search_bounds={"limit": cfg.r_limit})


def _claim_small_d(cfg: RunConfig) -> Computed:
    got = enumerate_small_d(cfg.d_limit)
    return Computed([{"label": "orders", "value": list(got)}], tuple(got),
                    search_bounds={"limit": cfg.d_limit})


def _claim_case_tables(cfg: RunConfig) -> Computed:
    rows, observed, intrinsic = [], {}, True
    for case_id in sorted(CASE_FAMILIES):
        report = case_analysis(case_id)
        observed[case_id] = {
            "per_d": report.per_d_contribution,
            "omega": report.omega_contribution,
            "threshold_n": report.threshold_n,
            "threshold_desc": report.threshold_desc,
        }
        intrinsic = intrinsic and all(v >= 1 for v in report.excluded_d_minima.values())
        rows.append({"label": case_id,
                     "value": {**observed[case_id],
                               "excluded_d_minima": report.excluded_d_minima}})
    return Computed(rows, observed, intrinsic=intrinsic,
                    search_bounds={"cases": sorted(CASE_FAMILIES)})


def _claim_dimension_coeffs(cfg: RunConfig) -> Computed:
    recomputed = {d: (euler_phi(d) if euler_phi(d) <= 2 else euler_phi(d) // 2)
                  for d in DIMENSION_COEFF}
    return Computed([{"label": "coefficients", "value": recomputed}], recomputed,
                    intrinsic=recomputed == DIMENSION_COEFF)


def _claim_omega_unsplit(cfg: RunConfig) -> Computed:
    r_set = [7, 14, 15, 20, 24, 30]
    rows, values = [], []
    for r in r_set:
        value = reidtai.mc_unsplit(r)
        values.append(value)
        rows.append({"label": f"full-orbit minimum, r={r}", "value": value})
    return _sweep_minimum(rows, values, search_bounds={"r_set": r_set})


def _claim_qr_patterns(cfg: RunConfig) -> Computed:
    fields = [-1, -2, -3, -5, -7, -13]
    patterns = {d_tag: qr_allowed_patterns(d_tag) for d_tag in fields}
    return Computed([{"label": f"D={d}", "value": orders}
                     for d, orders in patterns.items()],
                    patterns, search_bounds={"fields": fields})


# ---------------------------------------------------------------------------
# cusp claims


def _sweep_fields(cfg: RunConfig):
    lo, hi = cfg.d_range
    fields = [-k for k in range(max(lo, 4), hi + 1) if is_squarefree(-k)]
    if not fields:
        raise ConfigError(f"no squarefree D with |D| in {cfg.d_range} and D < -3")
    return fields


class _Checks:
    """The checks of a property sweep over fields: how many ran, and where
    each failing one was made."""

    def __init__(self):
        self.count = 0
        self.failures: List[Dict] = []

    def note(self, cond: bool, **where) -> None:
        self.count += 1
        if not cond:
            self.failures.append(where)

    def computed(self, cfg: RunConfig, *rows: Dict, **search_bounds) -> Computed:
        """The sweep observed by its number of failures: the given report
        rows, then the check count and the failures."""
        return Computed([*rows, {"label": "checks", "value": self.count},
                         {"label": "failures", "value": self.failures}],
                        {"failures": len(self.failures)}, inputs={"seed": cfg.seed},
                        search_bounds=search_bounds)


def _random_unnormalized(rng, frame: cusp.CuspFrame):
    """P^H Q P for a random flag-compatible unipotent P: keeps the zero
    pattern and the (a, B) data while scrambling the rest."""
    d, m = frame.d, frame.n - 1
    p = cusp.BoundaryElement.from_blocks(
        QElem.one(d), cusp.random_vector(rng, d, m).h, cusp.random_qelem(rng, d),
        QMatrix.identity(d, m), cusp.random_vector(rng, d, m), QElem.one(d)).mat
    return p.h @ frame.q_matrix() @ p


def _claim_cusp_suite(cfg: RunConfig) -> Computed:
    rng = random.Random(cfg.seed)
    fields = _sweep_fields(cfg)
    checks = _Checks()
    for d_tag in fields:
        for i in range(FRAMES_PER_FIELD):
            n = rng.choice((2, 2, 3, 3, 4))
            frame = cusp.random_frame(rng, d_tag, n)
            q = frame.q_matrix()
            note = partial(checks.note, D=d_tag, frame=i)

            qprime = _random_unnormalized(rng, frame)
            n_mat, recovered = cusp.normalize_cusp_basis(qprime)
            note(n_mat.h @ qprime @ n_mat == recovered.q_matrix(),
                 check="normalization block shape")
            note(recovered.a == frame.a and recovered.b_mat == frame.b_mat,
                 check="normalization preserves (a, B)")

            g1 = cusp.random_nf_element(rng, frame)
            g2 = cusp.random_nf_element(rng, frame)
            note(cusp.is_in_NF(g1, frame) and cusp.is_in_NF(g2, frame),
                 check="membership of constructed elements")
            note(cusp.is_in_NF(g1.compose(g2), frame), check="closure under product")
            g1inv = g1.inverse()
            note(cusp.is_in_NF(g1inv, frame), check="closure under inverse")
            # g^H Q = Q g^-1 with the inverse built above, not is_in_NF's g^H Q g
            note(g1.mat.h @ q == q @ g1inv.mat, check="form preservation")

            w1 = cusp.random_wf_element(rng, frame)
            w2 = cusp.random_wf_element(rng, frame)
            note(cusp.is_in_WF(w1, frame) and cusp.is_in_WF(w1.compose(w2), frame),
                 check="radical membership and closure")
            u0 = cusp.random_uf_element(rng, frame)
            note(cusp.is_in_UF(u0, frame), check="centre membership")
            note(u0.compose(w1) == w1.compose(u0), check="centrality in the radical")

            pt = cusp.BoundaryPoint(
                cusp.random_qelem(rng, d_tag),
                cusp.random_vector(rng, d_tag, n - 1),
            )
            lhs = cusp.apply_boundary_action(g1.compose(g2), pt, frame)
            rhs = cusp.apply_boundary_action(
                g1, cusp.apply_boundary_action(g2, pt, frame), frame)
            note(lhs == rhs, check="action compatibility with composition")
    return checks.computed(cfg, fields=fields, frames_per_field=FRAMES_PER_FIELD)


def _brute_sigma(a: QElem) -> Fraction:
    """Independent oracle: scan a sound grid for the least x > 0 with
    x*a*sqrt(D) integral, testing ring membership directly.

    The grid is unchanged from the Fraction scan kept in
    tests/reference_kernel.py and is now computed on the integers of
    a = (a.a + a.b*sqrt(D)) / den.  Each nonzero c of 2*a.a and 2*a.b*D
    asks that x*c/den be an integer, which holds on the multiples of
    (den/g) / (|c|/g), g = gcd(c, den); the step sn/sd is the lcm of those
    numerators over the gcd of those denominators.  At a grid point
    x = m/sd, x*a*sqrt(D) = (a.b*D*m + a.a*m*sqrt(D)) / (den*sd)."""
    d_tag, den = a.d, a.den
    sn, sd = 1, 0
    for c in (2 * a.a, 2 * a.b * d_tag):
        if c:
            g = gcd(c, den)
            sn, sd = lcm(sn, den // g), gcd(sd, abs(c) // g)
    for m in range(sn, (10 ** 6 + 1) * sn, sn):
        if in_ring_of_integers(_elem(d_tag, den * sd, a.b * d_tag * m, a.a * m)):
            return Fraction(m, sd)
    raise AssertionError("oracle scan exhausted")


def _claim_sigma_oracle(cfg: RunConfig) -> Computed:
    rng = random.Random(cfg.seed + 1)
    fields = _sweep_fields(cfg)
    checks = _Checks()
    for d_tag in fields:
        cases = [
            QElem.of(d_tag, cusp.random_rational(rng, 6, 5), 0),  # f = 0
            QElem.of(d_tag, 0, cusp.random_rational(rng, 6, 5)),  # e = 0
        ]
        cases = [c for c in cases if not c.is_zero]
        while len(cases) < SIGMA_PER_FIELD + 2:
            cases.append(cusp.random_qelem(rng, d_tag, 5, 5, nonzero=True))
        for a in cases:
            got = cusp.uf_lattice_generator(a)
            want = _brute_sigma(a)
            checks.note(got == want, D=d_tag, a=a, got=got, oracle=want)
    return checks.computed(cfg, fields=fields, per_field=SIGMA_PER_FIELD + 2)


def _claim_sigma_lcm(cfg: RunConfig) -> Computed:
    rng = random.Random(cfg.seed + 2)
    fields = [d for d in _sweep_fields(cfg) if d % 4 in (2, 3)]
    checks = _Checks()
    for d_tag in fields:
        dprime = -d_tag
        for _ in range(SIGMA_PER_FIELD):
            e = cusp.random_rational(rng, 4, 4)
            f = cusp.random_rational(rng, 4, 4)
            if e == 0 or f == 0:
                continue
            a = QElem.of(d_tag, e, f)
            p, q = abs(e.numerator), e.denominator
            r, s = abs(f.numerator), f.denominator
            formula = Fraction(
                (s * p * r * dprime * q) // gcd(s * p, r * dprime * q),
                r * dprime * p,
            )
            got = cusp.uf_lattice_generator(a)
            checks.note(got == formula, D=d_tag, a=a, got=got, formula=formula)
    return checks.computed(cfg, fields=fields, per_field=SIGMA_PER_FIELD)


def _claim_boundary_order2(cfg: RunConfig) -> Computed:
    rng = random.Random(cfg.seed + 3)
    fields = _sweep_fields(cfg)
    checks = _Checks()
    half = Fraction(1, 2)
    for d_tag in fields:
        for i in range(ORDER2_PER_FIELD):
            n = rng.choice((2, 3, 3, 4))
            frame = cusp.random_frame(rng, d_tag, n)
            inst = cusp.random_order2_element(rng, frame)
            g, w0 = inst.element, inst.fixed_point
            note = partial(checks.note, D=d_tag, instance=i)
            note(cusp.is_in_NF(g, frame), check="stabiliser membership")
            gsq = g.compose(g)
            # the lattice that judges the square is tied to the scan oracle
            note(cusp.is_in_UF(gsq, frame)
                 and cusp.in_sigma_lattice(gsq.w, frame)
                 and frame.sigma_gen == _brute_sigma(frame.a),
                 check="square lies in the integral centre")
            note(cusp.fixes_boundary_point(g, w0), check="fixes the boundary point")
            note(cusp.check_qr_congruences(g, frame), check="congruence relations")
            es = cusp.boundary_tangent_exponents(g, w0, frame)
            note(all(Fraction(a, es.order) in (0, half) for a in es.exponents),
                 check="tangent exponents in {0, 1/2}")
            if not is_quasi_reflection(es):
                note(reid_tai_sum(es) >= 1, check="non-reflection sum >= 1")
            note(cusp.boundary_divisor_fixed(g, frame) is False,
                 check="no fixed boundary divisor")
    return checks.computed(cfg, {"label": "elements",
                                 "value": len(fields) * ORDER2_PER_FIELD},
                           fields=fields, per_field=ORDER2_PER_FIELD)


# ---------------------------------------------------------------------------
# registry


def _no_failures(cfg: RunConfig):
    return {"failures": 0}


class Limit(NamedTuple):
    """A search limit a claim reads from its configuration: the RunConfig
    field, its value when none is given, and the accepted range [lo, hi]
    (no upper end when hi is None)."""
    option: str
    default: int
    lo: int
    hi: Optional[int] = None

    def accepts(self, value: int) -> bool:
        return self.lo <= value and (self.hi is None or value <= self.hi)

    def describe(self) -> str:
        return f">= {self.lo}" if self.hi is None else f"in [{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class Claim:
    """A registered claim.  It is the one dataclass of the package, because
    the benchmark's tracer and the tests swap a claim's compute step with
    ``dataclasses.replace`` on registry entries; the docstring also spares
    ``@dataclass`` building one from the signature at import."""

    claim_id: str
    description: str
    # the compute step and the default expected value; both see the
    # configuration with the claim's limit filled in (claim_config)
    run: Callable[[RunConfig], Computed]
    expected: Callable[[RunConfig], object]
    bound_checked: str
    judge: Callable[[Computed, object], bool] = _matches
    # report rows a FAIL adds, from the computation and the expected value
    explain: Optional[Callable[[Computed, object], List[Dict]]] = None
    sweeps_fields: bool = False  # runs over the fields of cfg.d_range
    limit: Optional[Limit] = None


CLAIMS: Dict[str, Claim] = {
    c.claim_id: c for c in [
        Claim("cminred_table", "the eleven reduced shifted-orbit minima",
              _claim_cminred, lambda cfg: tables.CMINRED_EXPECTED,
              "c_min_red(d) == expected[d]"),
        Claim("mc_ge_1_phi10", "orbit minima reach 1 for phi(r) >= 10",
              _claim_mc_phi10, lambda cfg: {"min_value": tables.MC_PHI10_MIN},
              "mc(r) >= 1 for phi(r) >= 10; sweep minimum matches the "
              "recorded worst case",
              # from r = 11, the worst case; r <= 1000 takes about 0.8 s, most
              # of it reading (D/p) at the primes for the per-field tables of
              # the character scans
              limit=Limit("r_limit", 300, 11, 1000)),
        Claim("mc_r_9_16_18", "orbit minima reach 1 for r = 9, 16, 18",
              _claim_mc_9_16_18, lambda cfg: {"min_value": tables.MC_9_16_18_MIN},
              "mc(r) >= 1 overall and per field; sweep minimum matches the "
              "recorded worst case"),
        Claim("mc_phi4_restricted", "orbit minima reach 1 for phi(r) = 4, D < -3",
              _claim_mc_phi4,
              lambda cfg: {"min_value": tables.MC_PHI4_RESTRICTED_MIN},
              "mc(r) >= 1 for phi(r) = 4, D < -3; sweep minimum matches the "
              "recorded worst case"),
        Claim("mc_literal_reading", "both quantifier readings of mc agree",
              _claim_mc_literal, lambda cfg: {"mismatches": 0},
              "both quantifier readings of mc agree",
              limit=Limit("r_limit", 100, 3, 300)),
        Claim("exceptional_orders", "coarse-estimate enumeration matches tables",
              _claim_exceptional,
              lambda cfg: tables.expand_exceptional_families(cfg.r_limit),
              "analytic-bound enumeration == family tables",
              explain=_order_differences, limit=Limit("r_limit", 10 ** 5, 3)),
        Claim("small_d_list", "orders with small half-orbit sums",
              _claim_small_d,
              lambda cfg: tuple(d for d in tables.SMALL_D_EXPECTED
                                if d <= cfg.d_limit),
              "enumeration == displayed list", limit=Limit("d_limit", 10 ** 4, 1)),
        Claim("case_tables", "contribution tables and dimension thresholds",
              _claim_case_tables, lambda cfg: tables.CASE_EXPECTED,
              "per-d tables, omega terms, thresholds; excluded d contribute >= 1"),
        Claim("dimension_coefficients", "isotypic dimension coefficients",
              _claim_dimension_coeffs, lambda cfg: tables.DIMENSION_COEFF_EXPECTED,
              "coeff(d) = phi(d) for phi <= 2, else phi(d)/2"),
        Claim("omega_unsplit", "non-splitting fields contribute >= 1",
              _claim_omega_unsplit,
              lambda cfg: {"min_value": tables.OMEGA_UNSPLIT_MIN},
              "distinguished piece over a non-splitting field contributes "
              ">= 1; sweep minimum matches the recorded worst case"),
        Claim("qr_patterns", "allowed quasi-reflection eigenvalue orders",
              _claim_qr_patterns, lambda cfg: tables.QR_PATTERNS_EXPECTED,
              "allowed orders match the field class", judge=_qr_patterns_allowed),
        Claim("cusp_suite", "frame normalization and stabiliser group laws",
              _claim_cusp_suite, _no_failures,
              "all frame/group/action identities exact", sweeps_fields=True),
        Claim("sigma_oracle", "lattice generator vs brute-force scan",
              _claim_sigma_oracle, _no_failures,
              "lattice generator == brute-force scan", sweeps_fields=True),
        Claim("sigma_lcm_formula", "lattice generator vs closed formula",
              _claim_sigma_lcm, _no_failures,
              "generator == lcm(sp, rD'q)/(rD'p) for D = 2,3 mod 4, e*f != 0",
              sweeps_fields=True),
        Claim("boundary_order2", "2-torsion boundary elements behave",
              _claim_boundary_order2, _no_failures,
              "congruences, exponents in {0,1/2}, non-reflection sums >= 1, "
              "no fixed divisor", sweeps_fields=True),
    ]
}


class UnknownClaimError(ValueError):
    pass


class ConfigError(ValueError):
    """A run configuration the selected claims cannot run with."""


def select_claims(selectors) -> List[str]:
    """Resolve comma/glob selectors against the registry, sorted by id.

    Raises UnknownClaimError for a selector that matches no claim, and when
    the selectors, being empty, select nothing at all.
    """
    import fnmatch
    ids = sorted(CLAIMS)
    chosen = []
    for sel in selectors:
        for part in str(sel).split(","):
            part = part.strip()
            if not part:
                continue
            if part == "all":
                matched = ids
            else:
                matched = [i for i in ids if fnmatch.fnmatch(i, part)]
            if not matched:
                raise UnknownClaimError(f"no claim matches selector {part!r}")
            chosen.extend(matched)
    if not chosen:
        raise UnknownClaimError("no claim selected")
    return sorted(set(chosen))


def perturb_value(value):
    """Return a slightly different scalar (negative controls)."""
    if isinstance(value, Fraction):
        return value + Fraction(1, 997)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, frozenset):
        return value | {max(value, default=0) + 1}
    raise TypeError(f"cannot perturb {type(value)!r}")


def list_expected_slots(value, prefix=()):
    """Paths of every scalar inside an expected structure."""
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            yield from list_expected_slots(value[k], prefix + (k,))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from list_expected_slots(v, prefix + (i,))
    else:
        yield prefix


def perturb_at(value, path):
    """Copy of the structure with the scalar at path perturbed."""
    if not path:
        return perturb_value(value)
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        out = dict(value)
        out[head] = perturb_at(value[head], rest)
        return out
    out = list(value)
    out[head] = perturb_at(value[head], rest)
    return type(value)(out) if isinstance(value, tuple) else out


def certify(claim: Claim, result: Computed, expected) -> Certificate:
    """Judge one computation of a claim against one expected value."""
    ok = claim.judge(result, expected)
    rows = result.rows
    if not ok and claim.explain is not None:
        rows = rows + claim.explain(result, expected)
    return Certificate(claim.claim_id, result.inputs or {}, rows, PASS if ok else FAIL,
                       result.search_bounds or {}, expected=expected,
                       bound_checked=claim.bound_checked)


def claim_config(claim: Claim, cfg: RunConfig) -> RunConfig:
    """``cfg`` with the claim's limit set to its default where none is given."""
    limit = claim.limit
    if limit is None or getattr(cfg, limit.option) is not None:
        return cfg
    return cfg._replace(**{limit.option: limit.default})


def validate_config(cfg: RunConfig) -> None:
    """Reject a bad configuration before any claim runs.

    Raises UnknownClaimError when the selectors select no claim or one of
    them matches none, and ConfigError for a |D| window with LO > HI, for a
    window without a field to sweep when a selected claim sweeps fields, and
    for a limit outside the accepted range of a selected claim that reads it.
    """
    claims = [CLAIMS[claim_id] for claim_id in select_claims(cfg.claims)]
    lo, hi = cfg.d_range
    if lo > hi:
        raise ConfigError(f"empty |D| window: LO = {lo} exceeds HI = {hi}")
    if any(claim.sweeps_fields for claim in claims):
        _sweep_fields(cfg)
    for claim in claims:
        limit = claim.limit
        value = None if limit is None else getattr(cfg, limit.option)
        if value is not None and not limit.accepts(value):
            raise ConfigError(f"claim {claim.claim_id} needs {limit.option} "
                              f"{limit.describe()}, got {value}")


def _certify_run(claim: Claim, cfg: RunConfig, expected=None) -> Certificate:
    """Compute the claim once and judge it against ``expected`` (default:
    the claim's own), perturbed at its first slot under ``cfg.perturb``."""
    cfg = claim_config(claim, cfg)
    if expected is None:
        expected = claim.expected(cfg)
    if cfg.perturb:
        expected = perturb_at(expected, next(list_expected_slots(expected)))
    return certify(claim, claim.run(cfg), expected)


def run_claims(cfg: RunConfig) -> List[Certificate]:
    """Compute each selected claim once and judge it against its default
    expected value, or against a perturbed copy of it under ``cfg.perturb``."""
    return [_certify_run(CLAIMS[claim_id], cfg) for claim_id in select_claims(cfg.claims)]


def verify_claim(claim_id: str, expected=None, **fields) -> Certificate:
    """Run a single registered claim.

    ``fields`` are those of :class:`RunConfig` (``seed``, ``d_range``,
    ``r_limit``, ``d_limit``, ``perturb``, ...), validated as the command
    line's are; ``expected`` replaces the claim's default expected value
    (the negative-control hook).
    """
    if claim_id not in CLAIMS:
        raise UnknownClaimError(f"unknown claim id {claim_id!r}")
    cfg = RunConfig(claims=(claim_id,), **fields)
    validate_config(cfg)
    return _certify_run(CLAIMS[claim_id], cfg, expected)
