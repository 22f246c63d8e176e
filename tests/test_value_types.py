"""The package's value types without dataclass code generation.

``@dataclass`` compiles every method it generates with ``exec`` at each
import, so the package keeps one dataclass only.  The five value types with
checks, operators or cached properties are plain classes on one frozen base;
the records with no checks are ``NamedTuple``s.  These tests pin what the
generated methods gave: equality and hashing by value, immutability, the
validation errors, and pickling.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
from fractions import Fraction as F
from pathlib import Path
from typing import NamedTuple

import pytest

import ballquot
from ballquot import certificates, cusp, qfield
from ballquot.cusp import BoundaryElement, CuspFrame
from ballquot.cyclo import FULL, PLUS, OrbitSet, full_orbit, orbit_sets
from ballquot.qfield import QElem, QMatrix
from ballquot.reidtai import EigenSystem


def _package_classes():
    for info in pkgutil.iter_modules(ballquot.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        name = f"ballquot.{info.name}"
        module = importlib.import_module(name)
        yield from (obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == name)


def test_claim_is_the_only_dataclass():
    """A start-up guard.  Claim stays a dataclass because the benchmark's
    tracer (bench/tracing.py) and the tests swap a registry entry's compute
    step with dataclasses.replace; every other class is written out, so that
    importing the package compiles no generated method."""
    assert [cls for cls in _package_classes()
            if dataclasses.is_dataclass(cls)] == [certificates.Claim]


def test_records_share_no_mutable_default():
    records = [cls for cls in _package_classes()
               if issubclass(cls, tuple) and hasattr(cls, "_field_defaults")]
    assert certificates.Computed in records and certificates.RunConfig in records
    for cls in records:
        for name, default in cls._field_defaults.items():
            hash(default)  # None, numbers, strings and tuples of them only


def test_certificates_of_a_bare_computation_share_no_dict():
    result = certificates.Computed([], 0)
    claim = certificates.CLAIMS["dimension_coefficients"]
    one, two = (certificates.certify(claim, result, 0) for _ in range(2))
    assert one.inputs == one.search_bounds == {}
    assert len({id(one.inputs), id(one.search_bounds), id(two.inputs),
                id(two.search_bounds)}) == 4


# ---------------------------------------------------------------------------
# the five hand-written value types


def _frame():
    b = QMatrix.from_rows(-7, [[2, QElem.of(-7, 0, 1)], [QElem.of(-7, 0, -1), 5]])
    return CuspFrame(QElem.of(-7, F(1, 2), 1), b)


class Case(NamedTuple):
    make: object    # builds a value
    twin: object    # builds an equal value by another route
    other: object   # builds a value of the same class that differs


CASES = {
    "QMatrix": Case(
        lambda: QMatrix(-7, 2, 2, 2, (2, 0, 0, 2), (0, 0, 0, 0)),
        lambda: QMatrix.identity(-7, 2),
        lambda: QMatrix.identity(-5, 2)),
    "OrbitSet": Case(
        lambda: full_orbit(7),
        lambda: OrbitSet(7, (1, 2, 3, 4, 5, 6), FULL, None),
        lambda: full_orbit(9)),
    "EigenSystem": Case(
        lambda: EigenSystem(4, (5, 3)),
        lambda: EigenSystem(4, (1, 3)),
        lambda: EigenSystem(8, (1, 3))),
    "CuspFrame": Case(
        _frame,
        lambda: CuspFrame(QElem.of(-7, F(2, 4), F(3, 3)),
                          QMatrix.from_rows(-7, _frame().b_mat.to_rows())),
        # the same a, another B: the is_in_NF memo must tell them apart
        lambda: CuspFrame(_frame().a, _frame().b_mat.scale(2))),
    "BoundaryElement": Case(
        lambda: cusp.uf_translation(_frame(), _frame().sigma_gen),
        lambda: BoundaryElement(cusp.uf_translation(_frame(), _frame().sigma_gen).mat),
        lambda: cusp.uf_translation(_frame(), 2 * _frame().sigma_gen)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_equal_values_compare_and_hash_equal(case):
    x, twin, other = case.make(), case.twin(), case.other()
    assert x is not twin and x == twin and hash(x) == hash(twin)
    assert not x != twin
    assert x != other and other != x
    assert len({x, twin, other}) == 2


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_another_class_compares_unequal(case):
    x = case.make()
    fields = tuple(getattr(x, name) for name in type(x)._fields)
    assert x.__eq__(fields) is NotImplemented and x != fields and fields != x
    others = [c.make() for c in CASES.values()]
    assert all(x != y and y != x for y in others if type(y) is not type(x))
    # no tuple base: * and + do not repeat or concatenate
    assert not isinstance(x, tuple)
    with pytest.raises(TypeError):
        2 * x


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_assignment_and_deletion_raise(case):
    x = case.make()
    names = type(x)._fields + ("extra",)
    if isinstance(x, CuspFrame):
        x.q_matrix()
        names += ("n", "d", "_q", "sigma_gen", "_b_inv")
    if isinstance(x, BoundaryElement):
        names += ("u", "v", "w", "x_mat", "y", "z")
    for name in names:
        before = getattr(x, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert getattr(x, name, None) is before
    assert x == case.twin()


@pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
def test_pickle_and_deepcopy_round_trip(case):
    x = case.make()
    if isinstance(x, CuspFrame):
        x.q_matrix(), x.sigma_gen  # cached values travel with the frame
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(y, type(x)._fields[0], None)
    if isinstance(x, CuspFrame):
        y = pickle.loads(pickle.dumps(x))
        assert (y.n, y.d, y.q_matrix(), y.sigma_gen) == (x.n, x.d, x.q_matrix(), x.sigma_gen)


def test_repr_names_the_fields():
    assert repr(EigenSystem(4, (5, 3))) == "EigenSystem(order=4, exponents=(1, 3))"
    assert repr(QMatrix.identity(-7, 1)) == (
        "QMatrix(d=-7, rows=1, cols=1, den=1, re=(1,), rt=(0,))")
    assert repr(full_orbit(3)) == "OrbitSet(d=3, members=(1, 2), label='FULL', d_field=None)"


def test_trusted_builds_compare_with_checked_ones():
    # _mat and _orbit build without __init__; the values still compare
    rng = random.Random(3)
    frame = cusp.random_frame(rng, -7, 3)
    x = cusp.random_b_unitary(rng, frame)
    assert x == QMatrix(x.d, x.rows, x.cols, x.den, x.re, x.rt)
    plus, minus = orbit_sets(7, -7)
    assert plus == OrbitSet(7, plus.members, PLUS, -7) and plus != minus


def test_only_qfield_names_the_trusted_matrix_builder():
    """A QMatrix is built from integers by qfield._mat alone: every other
    module builds one from parts through _block_matrix, or through a public
    constructor, an operation or _identity/_zero."""
    names = set()
    for info in pkgutil.iter_modules(ballquot.__path__):
        tree = ast.parse(Path(ballquot.__path__[0], f"{info.name}.py").read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "_mat"
                    or isinstance(node, ast.Attribute) and node.attr == "_mat"
                    or isinstance(node, ast.alias) and node.name == "_mat"):
                names.add(info.name)
    assert names == {"qfield"}


def _b():
    return QMatrix.from_rows(-5, [[2, 0], [0, 3]])


# (constructor call, the ValueError message it raises)
VALIDATION_ERRORS = [
    (lambda: QMatrix(7, 1, 1, 1, (1,), (0,)),
     "field tag must be a squarefree negative integer, got 7"),
    (lambda: QMatrix(-7, 0, 1, 1, (), ()), "matrix dimensions must be positive"),
    (lambda: QMatrix(-7, 1, 2, 1, (1,), (0,)), "entry count does not match dimensions"),
    (lambda: QMatrix(-7, 1, 1, 0, (1,), (0,)), "the common denominator must be positive"),
    (lambda: OrbitSet(8, (1, 3), "HALF", -2), "bad orbit label 'HALF'"),
    (lambda: OrbitSet(8, (1, 3), FULL, -2),
     "d_field must be set exactly for PLUS/MINUS orbits"),
    (lambda: OrbitSet(8, (1, 3), PLUS, None),
     "d_field must be set exactly for PLUS/MINUS orbits"),
    (lambda: OrbitSet(8, (3, 1), PLUS, -2), "orbit members must be sorted and distinct"),
    (lambda: OrbitSet(8, (1, 2), PLUS, -2), "orbit member 2 is not a unit in [1, 8)"),
    (lambda: EigenSystem(0, (1,)), "order must be positive"),
    (lambda: EigenSystem(3, ()), "eigen system needs at least one exponent"),
    (lambda: CuspFrame(QElem.one(-5), qfield._mat(-5, 0, 0, 1, (), ())),
     "frames need a nonempty B (ambient dimension n >= 2)"),
    (lambda: CuspFrame(QElem.one(-6), _b()), "field tags of frame data disagree"),
    (lambda: CuspFrame(QElem.zero(-5), _b()),
     "the isotropic pairing entry a must be nonzero"),
    (lambda: CuspFrame(QElem.one(-5), QMatrix.from_rows(-5, [[2, 0, 0], [0, 3, 0]])),
     "B must be square"),
    (lambda: CuspFrame(QElem.one(-5), QMatrix.from_rows(-5, [[2, 1], [0, 3]])),
     "B must be hermitian"),
    (lambda: CuspFrame(QElem.one(-5), QMatrix.from_rows(-5, [[-1, 0], [0, 1]])),
     "B must be positive definite"),
    (lambda: BoundaryElement(QMatrix.identity(-7, 2)),
     "boundary elements are square of size >= 3"),
    (lambda: BoundaryElement(QMatrix.zero(-7, 3, 4)),
     "boundary elements are square of size >= 3"),
    (lambda: BoundaryElement(QMatrix.from_rows(-7, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])),
     "matrix is not block upper-triangular"),
    (lambda: BoundaryElement(QMatrix.from_rows(-7, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])),
     "matrix is not block upper-triangular"),
]


@pytest.mark.parametrize("build, message", VALIDATION_ERRORS,
                         ids=[message for _, message in VALIDATION_ERRORS])
def test_validation_errors_are_unchanged(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message
