"""The codec against the frozen NCHW package the benchmark times it against.

``perfbench/reference/dscjscc`` is the library as it stood when the benchmark
was defined, with NCHW activations throughout.  With the same parameters and
the same channel noise, both packages must give the same symbols (so latent
order and checkpoints keep their meaning), the same decoded images, and the
same training loss and gradients, up to the rounding of reordered sums.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from dscjscc.model import VARIANT_ORDER, CodecModel, build_variant_architecture
from dscjscc.training import Adam, train_step

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "dscjscc"
NAME = "dscjscc_reference"
SHAPE, C, BATCH = (16, 16, 3), 4, 3
RTOL = 1e-9


@pytest.fixture(scope="module")
def reference():
    # imported under its own name, and without writing bytecode next to its sources
    saved = {k: v for k, v in sys.modules.items() if k == NAME or k.startswith(NAME + ".")}
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(NAME, REFERENCE / "__init__.py",
                                                      submodule_search_locations=[str(REFERENCE)])
        package = importlib.util.module_from_spec(spec)
        sys.modules[NAME] = package
        spec.loader.exec_module(package)
        yield {m: importlib.import_module(f"{NAME}.{m}") for m in ("model", "training")}
    finally:
        sys.dont_write_bytecode = bytecode
        for k in [k for k in sys.modules if k == NAME or k.startswith(NAME + ".")]:
            del sys.modules[k]
        sys.modules.update(saved)


class FixedNoise:
    """A channel whose noise block is given, so both packages see the same draw."""

    def __init__(self, noise):
        self.noise = noise

    def noise_block(self, shape):
        assert shape == self.noise.shape
        return self.noise


def _pair(reference, variant):
    arch = build_variant_architecture(variant, SHAPE, C)
    model = CodecModel(arch, variant=variant, seed=5)
    ref_model = reference["model"]
    ref_arch = ref_model.build_variant_architecture(ref_model.VariantId(variant.value), SHAPE, C)
    ref = ref_model.CodecModel(ref_arch, params={k: t.data.copy() for k, t in model.params.items()})
    return model, ref


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.value)
def test_encode_decode_and_train_step_match_reference(reference, variant):
    model, ref = _pair(reference, variant)
    rng = np.random.default_rng(17)
    images = rng.uniform(0, 255, size=(BATCH, SHAPE[2], SHAPE[1], SHAPE[0]))

    z = model.encode(images)
    np.testing.assert_allclose(z, ref.encode(images), rtol=RTOL)
    np.testing.assert_allclose(model.decode(z), ref.decode(z), rtol=RTOL)

    noise = rng.standard_normal((BATCH, 2 * model.k)) * 0.3
    step = train_step(model, images, FixedNoise(noise), Adam(model.params))
    ref_step = reference["training"].train_step(ref, images, FixedNoise(noise),
                                                reference["training"].Adam(ref.params))
    assert step.loss == pytest.approx(ref_step.loss, rel=RTOL)
    assert model.params.keys() == ref.params.keys()
    for key, p in model.params.items():
        # a weight gradient entry that cancels to 1e-6 of its tensor's largest
        # keeps only that tensor's rounding, so the bound scales with the tensor
        expected = ref.params[key].grad
        np.testing.assert_allclose(p.grad, expected, rtol=RTOL, atol=RTOL * np.abs(expected).max(),
                                   err_msg=key)

