"""The package's immutable records: construction, equality, hash, repr.

Every record class is a frozen value: it equals only an instance of its
own class with equal fields, hashes like the tuple of its fields (so set
and dict orders follow the field values), prints as
``Name(field=value, ...)`` and refuses assignment and deletion.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from braidcount.braid import POWER_OF_DELTA, BraidWord, CosetElement, NormalForm
from braidcount.classes import FamilyWord, ForbiddenConjugation, LowerBoundReport
from braidcount.counting import WordBoundChain
from braidcount.invariants import BoundInterval, LogInteger, Scale
from braidcount.verify import CheckResult
from braidcount.words import FreeWord, Syllable, SyllableDecomposition

WORD = FreeWord(((2, 1), (1, -3)))
SYLLABLE = Syllable("first", 2, 1, 1)
HALF = Scale(Fraction(1, 2), -1)

# class -> (its field names, the values of one instance, that instance's repr)
CASES = {
    FreeWord: (("terms",), (((2, 1), (1, -3)),), "FreeWord(terms=((2, 1), (1, -3)))"),
    Syllable: (
        ("kind", "degree", "sign", "start"), ("first", 2, 1, 1),
        "Syllable(kind='first', degree=2, sign=1, start=1)",
    ),
    SyllableDecomposition: (
        ("syllables",), ((SYLLABLE,),),
        "SyllableDecomposition(syllables=(Syllable(kind='first', degree=2, sign=1, start=1),))",
    ),
    BraidWord: (("runs",), (((1, 3), (2, -1)),), "BraidWord(runs=((1, 3), (2, -1)))"),
    CosetElement: (
        ("runs", "lead", "trail"), (((1, 1),), True, False),
        "CosetElement(runs=((1, 1),), lead=True, trail=False)",
    ),
    NormalForm: (
        ("kind", "j", "k", "b1", "ell"), ("general", 1, 2, WORD, 1),
        "NormalForm(kind='general', j=1, k=2, b1=FreeWord(terms=((2, 1), (1, -3))), ell=1)",
    ),
    LogInteger: (("argument",), (6,), "LogInteger(argument=6)"),
    Scale: (("rational", "pi_power"), (Fraction(1, 2), -1), "Scale(rational=Fraction(1, 2), pi_power=-1)"),
    BoundInterval: (
        ("lower_log_arg", "upper_log_arg", "lower_scale", "upper_scale"),
        (LogInteger(3), LogInteger(4), HALF, Scale(Fraction(300))),
        "BoundInterval(lower_log_arg=LogInteger(argument=3), upper_log_arg=LogInteger(argument=4), "
        "lower_scale=Scale(rational=Fraction(1, 2), pi_power=-1), "
        "upper_scale=Scale(rational=Fraction(300, 1), pi_power=0))",
    ),
    FamilyWord: (("signs",), ((1, -1),), "FamilyWord(signs=(1, -1))"),
    LowerBoundReport: (
        ("variant", "y_text", "index", "family_size", "class_count", "paper_bound", "satisfied"),
        ("lambda", "600*log(8)", 3, 64, None, "12.5", True),
        "LowerBoundReport(variant='lambda', y_text='600*log(8)', index=3, family_size=64, "
        "class_count=None, paper_bound='12.5', satisfied=True)",
    ),
    ForbiddenConjugation: (
        ("source", "target", "conjugator"), (WORD, FreeWord(), BraidWord(((1, 1),))),
        "ForbiddenConjugation(source=FreeWord(terms=((2, 1), (1, -3))), "
        "target=FreeWord(terms=()), conjugator=BraidWord(runs=((1, 1),)))",
    ),
    WordBoundChain: (
        ("cube_half", "chain_index", "chain_value"), (Fraction(27, 2), 1, 8),
        "WordBoundChain(cube_half=Fraction(27, 2), chain_index=1, chain_value=8)",
    ),
    CheckResult: (
        ("suite", "check", "passed", "detail"), ("words", "round trip", False, "at 3"),
        "CheckResult(suite='words', check='round trip', passed=False, detail='at 3')",
    ),
}
RECORDS = list(CASES)
# class -> its constructor's parameter names and the arguments that build the
# case above, where they are not its fields: a coset is built from its letters
ARGUMENTS = {CosetElement: (("letters",), ((0, 1),))}


def build(cls):
    _, values = ARGUMENTS.get(cls, CASES[cls][:2])
    return cls(*values)


@pytest.mark.parametrize("cls", RECORDS)
def test_positional_and_keyword_construction_agree(cls):
    names, values, _ = CASES[cls]
    parameters, arguments = ARGUMENTS.get(cls, (names, values))
    positional = cls(*arguments)
    keyword = cls(**dict(zip(parameters, arguments)))
    assert positional == keyword
    assert tuple(getattr(keyword, name) for name in names) == values


def test_defaults():
    assert FreeWord().terms == ()
    assert BraidWord().runs == BraidWord().letters == ()
    assert CosetElement().runs == CosetElement().letters == ()
    assert not CosetElement().lead and not CosetElement().trail
    assert LogInteger().argument == 1
    assert Scale(Fraction(3)).pi_power == 0
    assert CheckResult("words", "x", True).detail == ""
    form = NormalForm(POWER_OF_DELTA)
    assert (form.j, form.k, form.b1, form.ell) == (0, 0, FreeWord(), 0)
    assert NormalForm(POWER_OF_DELTA, ell=1).ell == 1


@pytest.mark.parametrize("cls", RECORDS)
def test_equality_is_by_class_and_fields(cls):
    _, values, _ = CASES[cls]
    record = build(cls)
    assert record == build(cls)
    assert not record != build(cls)
    assert record != values
    assert values != record
    for other in RECORDS:
        if other is not cls:
            assert record != build(other)


def test_records_with_equal_fields_of_other_classes_differ():
    assert FreeWord() != ()
    assert FreeWord() != BraidWord()
    assert BraidWord() != CosetElement()
    assert FreeWord(((1, 1),)) != BraidWord(((1, 1),))


# class -> an instance that differs from the case above in one field
CHANGED = {
    FreeWord: FreeWord(((2, 1),)),
    Syllable: Syllable("first", 3, 1, 1),
    SyllableDecomposition: SyllableDecomposition(()),
    BraidWord: BraidWord(((1, 1),)),
    CosetElement: CosetElement((0,)),
    NormalForm: NormalForm("general", 1, 2, WORD, 0),
    LogInteger: LogInteger(7),
    Scale: Scale(Fraction(1, 2), 1),
    BoundInterval: BoundInterval(LogInteger(3), LogInteger(5), HALF, Scale(Fraction(300))),
    FamilyWord: FamilyWord((-1, 1)),
    LowerBoundReport: LowerBoundReport("lambda", "600*log(8)", 3, 64, None, "12.5", False),
    ForbiddenConjugation: ForbiddenConjugation(WORD, FreeWord(), BraidWord()),
    WordBoundChain: WordBoundChain(Fraction(27, 2), 1, 9),
    CheckResult: CheckResult("words", "round trip", False, ""),
}


@pytest.mark.parametrize("cls", RECORDS)
def test_one_changed_field_breaks_equality(cls):
    assert build(cls) != CHANGED[cls]
    assert hash(build(cls)) != hash(CHANGED[cls])


@pytest.mark.parametrize("cls", RECORDS)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    _, values, _ = CASES[cls]
    assert hash(build(cls)) == hash(values)
    assert hash(build(cls)) == hash(build(cls))


@pytest.mark.parametrize("cls", RECORDS)
def test_repr(cls):
    _, _, text = CASES[cls]
    assert repr(build(cls)) == text


@pytest.mark.parametrize("cls", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    names, values, _ = CASES[cls]
    record = build(cls)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls", RECORDS)
def test_pickle_and_copy_keep_the_value(cls):
    record = build(cls)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls
        assert clone == record


@pytest.mark.parametrize("cls", RECORDS)
def test_positional_patterns_follow_the_field_order(cls):
    names, _, _ = CASES[cls]
    assert cls.__match_args__ == names


def test_family_word_rejects_bad_sign_vectors():
    for signs in ((), (1,), (1, -1, 1)):
        with pytest.raises(ValueError, match="even and at least 2"):
            FamilyWord(signs)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        FamilyWord((1, 2))


def test_syllable_rejects_malformed_fields():
    with pytest.raises(ValueError, match="unknown syllable kind"):
        Syllable("third", 2, 1, 1)
    with pytest.raises(ValueError, match="degree >= 2"):
        Syllable("first", 1, 1, 1)
    for fields in (("second", 0, 1, 1), ("second", 2, 0, 1), ("second", 2, 1, 3)):
        with pytest.raises(ValueError, match="malformed syllable"):
            Syllable(*fields)


def test_log_integer_rejects_arguments_below_one():
    for argument in (0, -4):
        with pytest.raises(ValueError, match="positive integer"):
            LogInteger(argument)


def test_log_integer_ordering():
    small, large = LogInteger(2), LogInteger(9)
    assert small < large and small <= large and large > small and large >= small
    assert small <= LogInteger(2) and small >= LogInteger(2)
    assert not small > large and not large < small
    assert sorted([LogInteger(5), large, small]) == [small, LogInteger(5), large]
    assert max(small, large) is large


def test_methods_can_be_replaced_on_the_class(monkeypatch):
    # a tracer wraps BoundInterval.to_json by assigning the class attribute
    original = BoundInterval.to_json
    monkeypatch.setattr(BoundInterval, "to_json", lambda self: {"wrapped": original(self)})
    interval = BoundInterval(LogInteger(1), LogInteger(1), HALF, HALF)
    assert interval.to_json()["wrapped"]["exact_zero"] is True
