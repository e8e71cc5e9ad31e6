import dataclasses

import numpy as np
import pytest

from residiff import audit as au
from residiff import autodiff as ad
from residiff import forward as fw
from residiff import sampler as sp


def _beta_tilde_off(build):
    def builder(*args):
        s = build(*args)
        return dataclasses.replace(s, beta_tilde=s.beta_tilde * (1.0 + 1e-9))
    return builder


def _condition_coefficient_off(mean_eps):
    # z0c enters only through its coefficient, so scaling it scales that
    def mutated(z_t, z0c, eps_hat, t, sched, target_mask=None):
        return mean_eps(z_t, np.asarray(z0c) * (1.0 + 1e-6), eps_hat, t, sched, target_mask)
    return mutated


def _c_eps_off(coeffs):
    def mutated(t, t_prev, d, sched):
        c_z, c_eps = coeffs(t, t_prev, d, sched)
        return c_z, c_eps * (1.0 + 1e-6)
    return mutated


def _tanh_gradient_off(_):
    def mutated(a):
        out = np.tanh(ad.value_of(a))
        return ad._node(out, (a,), (lambda g: g * (1.0 - out),))
    return mutated


# audit name -> (module, attribute, mutation of the attribute)
MUTATIONS = {
    "schedule_identities": (au, "build_linear_schedule", _beta_tilde_off),
    "substitution_identity": (fw, "posterior_mean_eps", _condition_coefficient_off),
    "jump_coefficient_identity": (sp, "jump_coeffs", _c_eps_off),
    "gradient_finite_difference": (ad, "tanh", _tanh_gradient_off),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_audits_catch_a_broken_formula(monkeypatch, name):
    module, attr, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    audits = {a["name"]: a for a in au.run_audits(0)["audits"]}
    assert audits[name]["pass"] is False
