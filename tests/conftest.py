import numpy as np
import pytest

from residiff import sampler as sp
from residiff import trainer as tr


@pytest.fixture
def diverge_at(monkeypatch):
    """Patch the samplers' denoiser to return inf at one reverse step only."""

    def patch(step: int):
        predict = sp._SamplerSetup.predict

        def diverging(self, z_full, t, chunk=128):
            out = predict(self, z_full, t, chunk)
            return np.full_like(out, np.inf) if t == step else out

        monkeypatch.setattr(sp._SamplerSetup, "predict", diverging)

    return patch


@pytest.fixture
def poke_array(monkeypatch):
    """Make ``save_checkpoint`` write ``value`` into the first entry of one array."""

    def patch(name: str, value: float):
        arrays = tr._checkpoint_arrays

        def poked(ck):
            out = arrays(ck)
            out[name] = out[name].copy()
            out[name].flat[0] = value
            return out

        monkeypatch.setattr(tr, "_checkpoint_arrays", poked)

    return patch
