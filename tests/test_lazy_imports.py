"""Import budget: each process loads only what its command uses.

Every check runs in a fresh interpreter, since the test process itself
has long since imported numpy and scipy.  ``import repro`` must load no
numerics, a timing cell must never load scipy, and the CLI parser (and
so ``repro --help``) must never load numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The small-but-realistic dimensions of the ``small_params`` fixture.
SMALL_PARAMS = (
    "STAPParams(n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, "
    "n_hard_bins=8, n_training=64, pulse_len=16, cfar_window=12, "
    "cfar_guard=3, pfa=1e-6)"
)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with this checkout's ``src/``
    first on the path; returns its stdout."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_loads_no_numerics():
    out = run_fresh("""
        import sys
        import repro
        print("scipy" in sys.modules, "numpy" in sys.modules)
    """)
    assert out.split() == ["False", "False"]


def test_timing_cell_loads_no_scipy():
    out = run_fresh(f"""
        import sys
        import repro
        from repro import ExecutionConfig, ExperimentSpec, NodeAssignment, STAPParams

        params = {SMALL_PARAMS}
        spec = ExperimentSpec(
            assignment=NodeAssignment.balanced(params, 14), params=params,
            cfg=ExecutionConfig(n_cpis=2, warmup=0),
        )
        result = repro.run_spec(spec)
        print(result.throughput > 0, "scipy" in sys.modules)
    """)
    assert out.split() == ["True", "False"]


def test_cli_parser_loads_no_numpy():
    out = run_fresh("""
        import contextlib, io, sys
        from repro.cli import build_parser, main

        build_parser()
        print("numpy" in sys.modules)
        with contextlib.redirect_stdout(io.StringIO()) as help_text:
            try:
                main(["--help"])
            except SystemExit:
                pass
        print(help_text.getvalue().startswith("usage:"), "numpy" in sys.modules)
    """)
    assert out.split() == ["False", "True", "False"]


def test_functional_chain_loads_scipy_with_pinned_detections():
    """Adaptive weights import scipy on first use; the detections are
    the ones the eagerly-importing package produced."""
    out = run_fresh(f"""
        import sys
        from repro.stap import STAPParams, Scenario, make_cube, stap_chain

        params = {SMALL_PARAMS}
        scenario = Scenario.standard(params, seed=7)
        first = stap_chain(make_cube(params, scenario, 0), params)
        print("scipy" in sys.modules)
        second = stap_chain(make_cube(params, scenario, 1), params,
                            prev_doppler=first.doppler)
        print("scipy" in sys.modules)
        for d in sorted(second.detections,
                        key=lambda d: (d.doppler_bin, d.beam, d.range_gate)):
            print(d.doppler_bin, d.beam, d.range_gate, f"{{d.snr_db:.6f}}")
    """)
    lines = out.splitlines()
    # The first CPI has no training data: quiescent weights, no solve.
    assert lines[:2] == ["False", "True"]
    assert lines[2:] == [
        "1 1 170 16.938764",
        "2 1 170 20.818194",
        "3 1 170 17.420778",
        "10 5 239 13.035979",
        "15 3 85 12.917343",
        "16 3 85 18.729247",
        "16 4 85 18.769709",
        "17 3 85 15.443404",
        "17 4 85 13.236601",
    ]


#: Exports that are submodules by design; every other name is an object.
MODULE_EXPORTS = {"repro.analysis"}


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.stap", "repro.core", "repro.bench", "repro.strategies",
     "repro.obs", "repro.service"],
)
def test_lazy_exports_resolve_and_list(package):
    out = run_fresh(f"""
        import importlib, types
        pkg = importlib.import_module("{package}")
        listed = set(dir(pkg))
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert value is not None, name
            assert name in listed, name
            if isinstance(value, types.ModuleType):
                assert value.__name__ in {MODULE_EXPORTS!r}, name
            # A resolved name is cached: the second read is the same object.
            assert getattr(pkg, name) is value, name
        print(len(pkg.__all__))
    """)
    assert int(out) > 0


def test_lazy_export_is_the_defining_object():
    from repro.bench.engine import ExperimentSpec
    from repro.stap.weights import solve_mvdr

    assert repro.ExperimentSpec is ExperimentSpec
    assert repro.stap.solve_mvdr is solve_mvdr
    assert repro.analysis.__name__ == "repro.analysis"


def test_beamform_export_is_the_function():
    """``beamform`` names both a function and its submodule; importing
    the submodule (as ``stap.chain`` does) must not rebind the package
    attribute to the module."""
    out = run_fresh("""
        import sys
        import repro.stap

        before = repro.stap.beamform
        print(before is sys.modules["repro.stap.beamform"].beamform)
        import repro.stap.chain
        from repro.stap import beamform, stap_chain
        print(beamform is before, repro.stap.beamform is before, callable(beamform))
    """)
    assert out.split() == ["True", "True", "True", "True"]


@pytest.mark.parametrize("package", ["repro", "repro.stap"])
def test_unknown_attribute_raises(package):
    import importlib

    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name  # noqa: B018
    assert not hasattr(pkg, "no_such_name")
