"""Parameter/FLOP accounting: closed-form cases, the full table, enumeration oracle."""

import numpy as np
import pytest

from dscjscc.complexity import (architecture_complexity, format_table, layer_flops,
                                layer_params, model_complexity, reduction_report, to_csv)
from dscjscc.model import (VARIANT_ORDER, Activation, CodecModel, LayerKind, LayerSpec,
                           VariantId, build_variant_architecture, init_layer_params)
from oracles import oracle_param_count

# reference totals at 256x256x3 with c=8 (what the accountant must reproduce)
TABLE = {
    VariantId.BASELINE: ("143.7", "832.4"),
    VariantId.R20: ("136.7", "790.4"),
    VariantId.R40: ("101.0", "644.3"),
    VariantId.R60_E1D1: ("53.6", "449.5"),
    VariantId.R60_E2D1: ("30.9", "369.8"),
    VariantId.R60_E2D2: ("25.4", "205.9"),
    VariantId.R60_E2D3: ("48.4", "254.1"),
    VariantId.R60_E1D2: ("48.0", "285.6"),
    VariantId.R60_E3D2: ("31.9", "232.7"),
    VariantId.R80: ("18.4", "163.9"),
    VariantId.R100: ("12.3", "92.8"),
}


class TestLayerParams:
    def test_standard_conv_with_prelu(self):
        spec = LayerSpec(LayerKind.CONV, 3, 16, 5, 2, 2, activation=Activation.PRELU)
        assert layer_params(spec) == 25 * 3 * 16 + 16 + 16 == 1232

    def test_separable_with_prelu(self):
        spec = LayerSpec(LayerKind.DSCONV, 16, 32, 5, 2, 2, activation=Activation.PRELU)
        assert layer_params(spec) == (400 + 16) + (512 + 32) + 32 == 992

    def test_minimal_conv(self):
        spec = LayerSpec(LayerKind.CONV, 1, 1, 1, 1, 0, activation=Activation.NONE)
        assert layer_params(spec) == 2

    def test_matches_instantiated_arrays(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            kind = rng.choice(list(LayerKind))
            cin, cout = int(rng.integers(1, 64)), int(rng.integers(1, 64))
            k = int(rng.integers(1, 8))
            act = rng.choice([Activation.PRELU, Activation.SIGMOID, Activation.NONE])
            opad = 0 if kind.is_transposed else None
            spec = LayerSpec(kind, cin, cout, k, 1, 0, output_padding=opad, activation=act)
            arrays = init_layer_params(spec, rng)
            assert layer_params(spec) == sum(a.size for a in arrays.values())


class TestLayerFlops:
    def test_standard_conv(self):
        spec = LayerSpec(LayerKind.CONV, 3, 16, 5, 2, 2)
        assert layer_flops(spec, 128, 128) == 19_660_800

    def test_separable(self):
        spec = LayerSpec(LayerKind.DSCONV, 3, 16, 5, 2, 2)
        assert layer_flops(spec, 128, 128) == 25 * 3 * 16384 + 3 * 16 * 16384 == 2_015_232

    def test_single_multiply(self):
        spec = LayerSpec(LayerKind.CONV, 1, 1, 1, 1, 0)
        assert layer_flops(spec, 1, 1) == 1

    def test_separable_never_costs_more(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cin, cout = int(rng.integers(1, 128)), int(rng.integers(1, 128))
            k = int(rng.integers(2, 8))
            conv = LayerSpec(LayerKind.CONV, cin, cout, k, 1, 0)
            ds = LayerSpec(LayerKind.DSCONV, cin, cout, k, 1, 0)
            assert layer_flops(ds, 16, 16) <= layer_flops(conv, 16, 16)


class TestTableReproduction:
    def test_all_cells(self):
        for variant, (params_k, flops_m) in TABLE.items():
            report = model_complexity(variant)
            assert report.params_display == params_k, variant
            assert report.flops_display == flops_m, variant

    def test_baseline_raw_totals(self):
        report = model_complexity(VariantId.BASELINE)
        assert report.total_params == 143_667
        assert report.total_flops == 832_307_200

    def test_row_totals_consistent(self):
        for variant in VARIANT_ORDER:
            report = model_complexity(variant)
            assert report.total_params == sum(r.params for r in report.rows)
            assert report.total_flops == sum(r.flops for r in report.rows)
            assert len(report.rows) == 10

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            VariantId.from_name("nope")


class TestReductions:
    def test_baseline_to_e1d1(self):
        dp, df = reduction_report(VariantId.BASELINE, VariantId.R60_E1D1)
        assert dp == pytest.approx(62.7, abs=0.1)
        assert df == pytest.approx(46.0, abs=0.1)

    def test_e1d1_to_e2d2(self):
        dp, df = reduction_report(VariantId.R60_E1D1, VariantId.R60_E2D2)
        assert dp == pytest.approx(52.6, abs=0.1)
        assert df == pytest.approx(54.2, abs=0.1)

    def test_self_comparison_is_zero(self):
        dp, df = reduction_report(VariantId.R40, VariantId.R40)
        assert dp == 0.0 and df == 0.0


class TestEnumerationOracle:
    def test_all_variants_agree(self):
        for variant in VARIANT_ORDER:
            arch = build_variant_architecture(variant, (32, 32, 3), 8)
            model = CodecModel(arch, variant=variant, seed=0)
            analytical = architecture_complexity(variant, arch).total_params
            assert oracle_param_count(model) == analytical == sum(p.data.size for p in model.params.values())

    def test_param_count_independent_of_input_size(self):
        small = model_complexity(VariantId.R60_E2D2, (32, 32, 3), 8).total_params
        large = model_complexity(VariantId.R60_E2D2, (256, 256, 3), 8).total_params
        assert small == large


class TestEmission:
    def test_csv_columns(self):
        csv = to_csv([model_complexity(VariantId.BASELINE)])
        lines = csv.strip().split("\n")
        assert lines[0] == "variant,params,flops,params_display,flops_display"
        assert lines[1] == "baseline,143667,832307200,143.7,832.4"

    def test_text_table_alignment(self):
        text = format_table([model_complexity(v) for v in VARIANT_ORDER])
        lines = text.strip().split("\n")
        assert len(lines) == 12
        assert "143.7" in lines[1] and "832.4" in lines[1]
