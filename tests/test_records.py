"""Every ``zdx.Record`` subclass against a ``@dataclass(frozen=True)`` twin.

The twin is built here from the record's own annotations, defaults and
``__post_init__``, so it is what the record was before ``Record`` replaced
the dataclass decorator.  Samples come from the library's own calls.
"""

import copy
import dataclasses
import functools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import zdx
from zdx import Record, density, exact, hecke, pairs, probes

F = Fraction
Interval = exact.Interval


def _samples() -> dict[type, list]:
    """Two or more instances of every record class, most of them from library calls."""
    family = pairs.generate_pairs(4)
    pair = pairs.ExponentPair(F(1, 14), F(11, 14), "BA")
    regions = density.regions_for(pair)
    audits = [density.audit_balance(regions, 1), density.audit_balance(regions, 2)]
    bound = density.optimize(family, Interval(F(17, 18), F(1)))
    wide = density.optimize(family, Interval(F(1, 2), F(1)))
    bases = density.baseline_curves()
    quad = exact.Quadratic(1, 0, -2)
    report = hecke.verify_table(40)
    trials = probes.hm_random_trials(3, 5, 4, 3)
    return {
        exact.Interval: [Interval(F(1, 2), F(3, 4)), Interval.empty(), Interval.point(F(2, 3))],
        exact.LinFrac: [exact.LinFrac(0, 4, 4, -1), exact.LinFrac.parse("(4s+2)/(3s-1)")],
        exact.Quadratic: [quad, exact.Quadratic.linear(F(1, 3), 2)],
        exact.RootBracket: list(exact.quadratic_roots_in_interval(quad, Interval(-2, 2))),
        exact.SignCertificate: [exact.quadratic_sign_on_interval(quad, Interval(0, 2)),
                                exact.SignCertificate("nonneg")],
        exact.OrderCertificate: [
            exact.linfrac_compare_on_interval(exact.LinFrac(0, 4, 4, -1),
                                              exact.LinFrac.constant(2), Interval(F(1, 2), 1)),
            exact.OrderCertificate("eq"),
        ],
        density.RegionSpec: [regions, density.regions_for(pairs.SEED)],
        density.Provenance: [seg.curve.provenance for seg in wide] + [density.Provenance("x")],
        density.BoundCurve: [seg.curve for seg in wide],
        density.ContinuityReport: [density.continuity_check(regions),
                                   density.continuity_check(density.regions_for(pairs.SEED))],
        density.TermCertificate: [t for rep in audits for t in rep.terms],
        density.BalanceViolation: [density.BalanceViolation("class2_moment", F(43, 45)),
                                   density.BalanceViolation("t", F(1), "message")],
        density.AuditReport: audits + [audits[0]._replace(
            violation=density.BalanceViolation("class2_moment", F(43, 45)))],
        density.Crossover: [density.crossover(a, b) for a, b in zip(bases, bases[1:])]
        + [density.Crossover("identical")],
        density.Segment: list(wide),
        density.PiecewiseBound: [bound, wide],
        hecke.TauTable: [report.table, hecke.compute_tau(3)],
        hecke.MollifierTable: [report.mollifier, hecke.mollifier_from(hecke.compute_tau(3))],
        hecke.ConvolutionWitness: [hecke.ConvolutionWitness(14, 24, 0),
                                   hecke.ConvolutionWitness(1, 0, 1)],
        hecke.DeligneReport: [report.deligne, hecke.deligne_check(hecke.compute_tau(3))],
        hecke.HeckeReport: [report, hecke.verify_table(3)],
        pairs.PairFamily: [family, pairs.generate_pairs(1)],
        probes.HMResult: [probes.HMResult(lhs, rhs) for _, _, lhs, rhs, _ in trials.rows],
        probes.ProbeReport: [trials, probes.hm_random_trials(2, 9, 3, 2)],
        probes.MellinResult: [probes.mellin_probe(x, steps=50) for x in (0.5, 2.0)],
    }


SAMPLES = _samples()
RECORDS = [cls for module in (exact, density, hecke, pairs, probes)
           for cls in vars(module).values()
           if isinstance(cls, type) and issubclass(cls, Record)
           and cls.__module__ == module.__name__]


@functools.cache
def _twin(cls: type) -> type:
    """The frozen dataclass the record class was, from its annotations and class body."""
    own = cls.__dict__["__annotations__"]
    body = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
    if "__post_init__" in cls.__dict__:
        body["__post_init__"] = cls.__dict__["__post_init__"]
    twin = type(cls.__name__, (), {"__annotations__": dict(own), **body,
                                   "__qualname__": cls.__qualname__})
    return dataclasses.dataclass(frozen=True)(twin)


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(_twin(type(obj))))


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)


def test_every_record_has_samples():
    assert len(RECORDS) == 25
    assert set(RECORDS) == set(SAMPLES)
    assert all(len(SAMPLES[cls]) >= 2 for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_matches_dataclass_twin(cls):
    twin = _twin(cls)
    names = tuple(f.name for f in dataclasses.fields(twin))
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(twin))
    assert cls.__match_args__ == twin.__match_args__ == names
    built = []
    for sample in SAMPLES[cls]:
        args = _values(sample)
        got, want = cls(*args), twin(*args)
        assert _values(got) == _values(want) == args
        assert repr(got) == repr(want)
        assert _outcome(hash, got) == _outcome(hash, want)
        assert cls(**dict(zip(names, args))) == got
        # defaults, positionally and by name
        for n in range(required, len(names)):
            assert _values(cls(*args[:n])) == _values(twin(*args[:n]))
            kwargs = dict(zip(names[:n], args[:n]))
            assert _values(cls(**kwargs)) == _values(twin(**kwargs))
        bad = [(args, {"bogus": 1}), ((*args, args[0]), {}), (args, {names[0]: args[0]})]
        if required:
            bad.append((args[:required - 1], {}))
        for bad_args, bad_kwargs in bad:
            with pytest.raises(TypeError):
                twin(*bad_args, **bad_kwargs)
            with pytest.raises(TypeError):
                cls(*bad_args, **bad_kwargs)
        for name in (*names, "other"):
            for record in (got, want):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, 0)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)
        for clone in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert type(clone) is cls and clone == got and _values(clone) == args
        assert got._replace() == got
        built.append((got, want))
    for got, want in built:
        for got2, want2 in built:
            assert (got == got2, got != got2) == (want == want2, want != want2)
            change = {names[-1]: _values(got2)[-1]}
            assert _outcome(lambda: _values(got._replace(**change))) == \
                _outcome(lambda: _values(dataclasses.replace(want, **change)))
        assert got != want and got.__eq__(want) is NotImplemented
        with pytest.raises(TypeError):
            got._replace(bogus=1)


def test_cached_property_on_a_record():
    table = hecke.compute_tau(30)
    assert "_spf" not in vars(table)
    assert table._spf == hecke._smallest_prime_factors(30)
    assert "_spf" in vars(table) and table == hecke.compute_tau(30)


def test_record_fields_and_defaults_follow_the_dataclass_rules():
    class Base(Record):
        a: int
        b: str = "b"

    class Child(Base):
        c: str = "c"

    assert Child.__match_args__ == ("a", "b", "c")
    assert repr(Child(1)) == "test_record_fields_and_defaults_follow_the_dataclass_rules." \
        "<locals>.Child(a=1, b='b', c='c')"
    assert Child(1) != Base(1) and Base(1).__eq__(Child(1)) is NotImplemented
    with pytest.raises(TypeError, match="non-default argument 'c' follows default argument"):
        class Bad(Record):
            a: int = 0
            c: int


def test_record_modules_load_no_dataclasses():
    # run in a fresh interpreter: this one has loaded dataclasses for the twins
    src = str(Path(zdx.__file__).resolve().parents[1])
    code = (
        "import re, sys\n"
        "import zdx.cli, zdx.density, zdx.svg, zdx.hecke, zdx.probes\n"
        "from zdx import exact\n"
        "patterns = {exact._QUOTIENT, exact._FORM, exact._TERM}\n"
        "print('dataclasses' in sys.modules, [k for k in re._cache if k[1] in patterns])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False []\n"
