"""Tests for model parameter validation."""

import math

import pytest

from fenep.params import ModelParams, ParameterError


def test_defaults_and_reg_view():
    p = ModelParams(re=1.0, wi=2.0, eps=0.5, b=5.0, delta=0.1)
    assert p.reg.delta == 0.1
    assert p.reg.b == 5.0
    assert not p.oldroyd_b
    assert p.alpha is None


def test_oldroyd_b_flag():
    p = ModelParams(re=1.0, wi=1.0, eps=0.25, b=math.inf, delta=0.25)
    assert p.oldroyd_b
    assert p.reg.oldroyd_b


def test_alpha_accepted_when_positive():
    p = ModelParams(re=1.0, wi=1.0, eps=0.5, b=5.0, delta=0.1, alpha=0.3)
    assert p.alpha == 0.3


@pytest.mark.parametrize("kwargs", [
    dict(re=0.0, wi=1.0, eps=0.5),
    dict(re=-1.0, wi=1.0, eps=0.5),
    dict(re=math.inf, wi=1.0, eps=0.5),
    dict(re=1.0, wi=0.0, eps=0.5),
    dict(re=1.0, wi=1.0, eps=0.0),
    dict(re=1.0, wi=1.0, eps=1.0),
    dict(re=1.0, wi=1.0, eps=1.5),
    dict(re=1.0, wi=1.0, eps=0.5, b=-2.0),
    dict(re=1.0, wi=1.0, eps=0.5, delta=0.7),
    dict(re=1.0, wi=1.0, eps=0.5, delta=0.0),
    dict(re=1.0, wi=1.0, eps=0.5, b=0.05, delta=0.1),
    dict(re=1.0, wi=1.0, eps=0.5, alpha=0.0),
    dict(re=1.0, wi=1.0, eps=0.5, alpha=math.nan),
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_params_frozen():
    p = ModelParams(re=1.0, wi=1.0, eps=0.5)
    with pytest.raises(Exception):
        p.re = 2.0

