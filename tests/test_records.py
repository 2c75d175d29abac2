"""Value semantics of the package's record classes: equality, hash, repr, read-only fields, pickling."""

from __future__ import annotations

import copy
import pickle
from array import array
from collections.abc import Hashable
from fractions import Fraction

import pytest

from partalg.centralizer import VerificationReport
from partalg.cli import Command
from partalg.diagram import AlgebraElement, Diagram, Poly, RectDiagram
from partalg.rep import PermWord, SparseMat
from partalg.seqmodel import GeometricWeights, MonomialInvariant, NormProfile
from partalg.setpart import SetPartition

P = SetPartition((0, 1, 0, 1))
D = Diagram(1, SetPartition((0, 1)))

# per class: a factory called twice with equal but distinct arguments, the field tuple it must hold,
# and the repr it must print (for the former dataclasses, the one they printed)
CASES = {
    "SetPartition": (lambda: SetPartition([0, 1, 0]), ((0, 1, 0),), "SetPartition(rgs=(0, 1, 0))"),
    "Diagram": (lambda: Diagram(2, SetPartition([0, 1, 0, 1])), (2, P), "Diagram(2, \"1,1'|2,2'\")"),
    "Poly": (
        lambda: Poly([Fraction(1, 2), 0, 3, 0]),
        ((Fraction(1, 2), Fraction(0), Fraction(3)),),
        "Poly(coeffs=(Fraction(1, 2), Fraction(0, 1), Fraction(3, 1)))",
    ),
    "RectDiagram": (
        lambda: RectDiagram(1, 2, SetPartition([0, 0, 1])),
        (1, 2, SetPartition((0, 0, 1))),
        "RectDiagram(\"1,2:1,1'|2'\")",
    ),
    "PermWord": (lambda: PermWord([2, 3, 1]), ((2, 3, 1),), "PermWord(images=(2, 3, 1))"),
    "SparseMat": (
        lambda: SparseMat(3, [(2, 0, "1/2"), (0, 1, 1), (2, 0, 1)]),
        (3, array("q", [1, 6]).tobytes(), (Fraction(1), Fraction(3, 2))),  # positions r * 3 + c, packed
        "SparseMat(dim=3, nnz=2)",
    ),
    "GeometricWeights": (
        lambda: GeometricWeights("1/3"), (Fraction(1, 3),), "GeometricWeights(ratio=Fraction(1, 3))"
    ),
    "NormProfile": (
        lambda: NormProfile(Diagram(1, SetPartition((0, 1))), (4, 8), (Fraction(1), Fraction(3, 2)), False),
        (D, (4, 8), (Fraction(1), Fraction(3, 2)), False, None),
        "NormProfile(diagram=Diagram(1, \"1|1'\"), truncations=(4, 8), norms=(Fraction(1, 1), Fraction(3, 2)), "
        "divergent=False, ratio=None)",
    ),
    "MonomialInvariant": (
        lambda: MonomialInvariant(SetPartition((0, 0)), 2, (1, 0, 0, 1)),
        (SetPartition((0, 0)), 2, (1, 0, 0, 1)),
        "MonomialInvariant(pi=SetPartition(rgs=(0, 0)), n=2, vector=(1, 0, 0, 1))",
    ),
    "VerificationReport": (
        lambda: VerificationReport(2, 2, 14, 8, 14, 2, 2, 2),
        (2, 2, 14, 8, 14, 2, 2, 2),
        "VerificationReport(n=2, k=2, centralizer_dim=14, diagram_span_rank=8, commutant_of_perms_dim=14, "
        "perm_span_dim=2, commutant_of_diagrams_dim=2, perm_span_expected=2)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_a_record_is_a_frozen_value(name):
    make, fields, text = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a != fields and a != object()
    assert repr(a) == text
    for field in a.__match_args__:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    assert a == make() and repr(a) == text  # the failed assignments changed nothing


def test_records_with_other_fields_differ():
    assert SetPartition((0, 1)) != SetPartition((0, 0))
    assert Diagram(1, SetPartition((0, 1))) != Diagram(1, SetPartition((0, 0)))
    assert VerificationReport(2, 2, 14, 8, 14, 2, 2, 2) != VerificationReport(2, 2, 14, 8, 14, 2, 2, 3)
    assert GeometricWeights() == GeometricWeights(Fraction(1, 2)) != GeometricWeights(Fraction(1, 3))


def test_block_readings_are_computed_and_not_kept():
    p = SetPartition((0, 1, 0))
    assert p.blocks == ((0, 2), (1,)) and SetPartition.__slots__ == ("rgs",)  # the blocks are not kept
    d = Diagram(2, SetPartition((0, 1, 0, 2)))
    assert d.block_rows == (((0,), (0,)), ((1,), ()), ((), (1,))) and Diagram.__slots__ == ("k", "part")
    assert d == Diagram(2, SetPartition((0, 1, 0, 2)))  # reading the blocks changed nothing


def test_an_algebra_element_is_a_frozen_unhashable_value():
    d, e = Diagram(1, SetPartition((0, 1))), Diagram(1, SetPartition((0, 0)))
    a = AlgebraElement(1, [(d, Poly.of(1, 2)), (e, 3), (d, Poly.of(0, -2))])
    assert a == AlgebraElement(1, {e: Poly.of(3), d: Poly.of(1)}) == AlgebraElement(1, [(d, 1), (e, 3)])
    assert a != AlgebraElement(1, [(d, 1)]) and a != AlgebraElement(2) and a != (1, {d: Poly.of(1), e: Poly.of(3)})
    assert not isinstance(a, Hashable)
    with pytest.raises(TypeError, match="unhashable type: 'AlgebraElement'"):
        hash(a)
    for field in ("k", "_terms"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a.k == 1 and pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


def test_command_is_a_mutable_unhashable_record():
    a = Command(name="count bell", payload={"g": 5}, json_mode=False)
    b = Command("count bell", {"g": 5}, False)
    assert a == b and a != Command("count bell", {"g": 5}, True) and a != ("count bell", {"g": 5}, False)
    assert repr(a) == "Command(name='count bell', payload={'g': 5}, json_mode=False)"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    a.json_mode = True
    assert a == Command("count bell", {"g": 5}, True)
