import dataclasses
import dis
import sys

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
    def mutated(z_t, z0c, eps_hat, t, sched):
        return mean_eps(z_t, np.asarray(z0c) * (1.0 + 1e-6), eps_hat, t, sched)
    return mutated


def _c_eps_off(coeffs):
    def mutated(t, t_prev, d, sched):
        c_z, c_eps = coeffs(t, t_prev, d, sched)
        return c_z, c_eps * (1.0 + 1e-6)
    return mutated


def _step_noise_off(step):
    # each step's added noise 10 % too small
    def mutated(*args, noise=None):
        return step(*args, noise=None if noise is None else 0.9 * np.asarray(noise))
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
    "ancestral_pushforward": (sp, "ancestral_step", _step_noise_off),
    "accelerated_pushforward": (sp, "accelerated_step", _step_noise_off),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_audits_catch_a_broken_formula(monkeypatch, name):
    module, attr, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    audits = {a["name"]: a for a in au.run_audits(0)["audits"]}
    assert audits[name]["pass"] is False


def _statement_lines(code):
    """Lines that start a statement in ``code``, bar its def line and raises."""
    starts = {line for _, line in dis.findlinestarts(code) if line is not None}
    raise_at = [ins.offset for ins in dis.get_instructions(code)
                if ins.opname == "RAISE_VARARGS"]
    raises = {line for start, end, line in code.co_lines()
              for offset in raise_at if start <= offset < end}
    return starts - raises - {code.co_firstlineno}


def test_verify_runs_every_statement_of_both_reverse_steps():
    """What a sampler runs in a reverse step, ``verify`` checks: every branch
    of the two step functions but the missing-noise errors."""
    ran = {sp.ancestral_step.__code__: set(), sp.accelerated_step.__code__: set()}

    def lines(frame, event, _):
        if event == "line":
            ran[frame.f_code].add(frame.f_lineno)
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, *_: lines if frame.f_code in ran else None)
    try:
        au.run_audits(0)
    finally:
        sys.settrace(previous)
    for code, seen in ran.items():
        assert _statement_lines(code) - seen == set(), code.co_name
