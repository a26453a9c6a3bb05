"""The benchmark's traced run rebinds library names by attribute; every name
it binds must exist, or `perfbench/run.py --trace 1` crashes."""

import sys
from pathlib import Path

import vclde
import vclde.cli  # noqa: F401  (instrument reads every submodule)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracing_instruments_and_restores(tmp_path, capsys):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = (vclde.lde.evaluate_green, vclde.coefficients.build_phi_matrix,
                 vclde.lde.CasoratiMatrix.__dict__["casoratian"])
    coeffs = tmp_path / "c.json"
    coeffs.write_text('{"p": 2, "kind": "constant", "phi": ["1", "1"]}')
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, vclde)
        code = vclde.cli.main(["verify", "--coeffs", str(coeffs), "--t", "6", "--s", "0"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"lde.evaluate_green", "coefficients.build_phi_matrix",
            "hessenberg.from_function", "leibnizian.det_leibnizian",
            "nested_sum.det_nested_sum", "lde.casorati"} <= names
    assert tracer.counts["coefficients.row_reads"] > 0
    assert (vclde.lde.evaluate_green, vclde.coefficients.build_phi_matrix,
            vclde.lde.CasoratiMatrix.__dict__["casoratian"]) == originals
