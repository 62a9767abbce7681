"""End-to-end acceptance gate.

One test per criterion of the built-in verification suite, in suite
order, each reporting its own pass/fail line, plus the command-line
entry point run as a real subprocess and the package's exports.
"""

import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import nilmat
from nilmat import distortion, jennings, matgroup, nickel, presentation
from nilmat.verify import run_all


@pytest.fixture(scope="session")
def suite():
    rc, records = run_all()
    return rc, {r["index"]: r for r in records}


def _criterion(suite, index):
    _, records = suite
    r = records[index]
    assert r["passed"], (
        f"criterion {index} ({r['label']}) failed after "
        f"{r['seconds']:.2f}s of {r['limit']:g}s: {r['detail']}"
    )
    print(
        f"criterion {index}: PASS {r['label']} "
        f"({r['seconds']:.2f}s < {r['limit']:g}s): {r['detail']}"
    )


def test_criterion_01_golden_matrices(suite):
    _criterion(suite, 1)


def test_criterion_02_weight_lex_image(suite):
    _criterion(suite, 2)


def test_criterion_03_perturbed_order(suite):
    _criterion(suite, 3)


def test_criterion_04_freenil_image(suite):
    _criterion(suite, 4)


def test_criterion_05_declared_orderings(suite):
    _criterion(suite, 5)


def test_criterion_06_heisenberg_survey(suite):
    _criterion(suite, 6)


def test_criterion_07_target_ratio_construction(suite):
    _criterion(suite, 7)


def test_criterion_08_depth_power_oracle(suite):
    _criterion(suite, 8)


def test_criterion_09_relators_and_injectivity(suite):
    _criterion(suite, 9)


def test_criterion_10_empirical_table(suite):
    _criterion(suite, 10)


def test_criterion_11_cli_verify_paper_exits_0(suite):
    rc, _ = suite
    assert rc == 0
    proc = subprocess.run(
        [sys.executable, "-m", "nilmat.cli", "verify-paper"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PASS")]
    assert len(lines) == 10
    print("criterion 11: PASS verify-paper exits 0")


def test_every_exported_name_resolves():
    modules = [nilmat] + [
        importlib.import_module(f"nilmat.{m.name}")
        for m in pkgutil.iter_modules(nilmat.__path__)
    ]
    for module in modules:
        missing = [
            name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert not missing, (module.__name__, missing)
    library = [distortion, jennings, matgroup, nickel, presentation]
    names = [name for module in library for name in module.__all__]
    assert len(names) == len(set(names))
    assert nilmat.__all__ == sorted(names) + ["__version__"]


def test_import_loads_no_dataclasses_or_inspect():
    # each costs milliseconds of every CLI call's start-up
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nilmat; print("
         "sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _sub():
    return distortion.distorted_subgroup(3, 2)


RECORDS = {
    "SubgroupGens": _sub,
    "StandardizedSequence": lambda: distortion.standardize(_sub()),
    "Stratum": lambda: distortion.distortion_degree(_sub()).strata[0],
    "DistortionReport": lambda: distortion.distortion_degree(_sub()),
    "EmbeddingResult": lambda: jennings.jennings_embedding(
        presentation.builtin("ut:3")
    ),
    "NilpotentPresentation": lambda: presentation.builtin("ut:3"),
    "CoordinatePolynomial": lambda: nickel.CoordinatePolynomial.coordinate(
        3, 1
    ),
    "FunctionModule": lambda: nickel.function_module(
        presentation.builtin("ut:3")
    ),
    "UnitriangularMatrix": lambda: matgroup.elementary(3, 1, 2),
    "RationalNilpotentMatrix": lambda: matgroup.log_unipotent(
        matgroup.elementary(3, 1, 2)
    ),
    "RationalSquareMatrix": lambda: matgroup.RationalSquareMatrix.identity(3),
}


def _fields(x):
    """The slot names of x along its class's MRO, subclass first."""
    return [
        f for c in type(x).__mro__ for f in c.__dict__.get("__slots__", ())
    ]


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    # the first field, which a matrix class inherits from its storage
    field = _fields(record)[0]
    before = getattr(record, field)
    for change in (
        lambda: setattr(record, field, None),
        lambda: delattr(record, field),
        lambda: setattr(record, "extra", 1),
    ):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            change()
    assert getattr(record, field) is before


def _unfold(x):
    """x with every record and object opened into its type and fields,
    so that copies compare equal also where x compares by identity."""
    if isinstance(x, (tuple, list)):
        return [_unfold(e) for e in x]
    if isinstance(x, dict):
        return {k: _unfold(v) for k, v in x.items()}
    if _fields(x):
        return type(x), [_unfold(getattr(x, f)) for f in _fields(x)]
    if hasattr(x, "__dict__"):
        return type(x), _unfold(vars(x))
    return x


@pytest.mark.parametrize("name", list(RECORDS))
def test_records_survive_copy_and_pickle(name):
    record = RECORDS[name]()
    field = _fields(record)[0]
    for restored in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(restored) is type(record)
        assert _unfold(restored) == _unfold(record)
        if type(record).__eq__ is not object.__eq__:
            assert restored == record
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(restored, field, None)
        if name.endswith("Matrix"):
            assert restored * restored == record * record
