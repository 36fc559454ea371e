"""The benchmark tracer's patch sites stay bound.

``bench/tracing.py`` reads every site it wraps with a bare ``getattr``, so a
name the package stops binding would crash every traced benchmark run.
"""

import importlib.util
import pathlib

import edgestab
from edgestab import cli, det, edges, family, hull, oracle, poly, stab

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

OWNERS = [edgestab, cli, det, edges, family, hull, oracle, poly, stab, det.ParametricDeterminant, poly.Polynomial]

SITES = [
    (stab, "iter_configs"),
    (stab, "det_parametric"),
    (stab, "coefficient_box"),
    (stab, "box_stable"),
    (stab, "least_squares"),
    (stab, "validate"),
    (cli, "det_parametric"),
    (det.ParametricDeterminant, "assemble"),
    (poly.Polynomial, "roots"),
]


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_site_and_restores_every_attribute():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = load_tracing().Tracer().install()
    try:
        for owner, name in SITES:
            assert vars(owner)[name] is not before[OWNERS.index(owner)][name], (owner, name)
    finally:
        tracer.uninstall()
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert sorted(now) == sorted(saved), owner
        assert all(now[name] is value for name, value in saved.items()), owner
