import numpy as np
import pytest

from residiff import sampler as sp


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
