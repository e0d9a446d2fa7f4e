"""Bit-level table of the public rate and complexity calculators.

Every entry is a calculator call with its result written as float.hex, so
a reordered sum or a changed rounding shows here even where the golden
files (rtol 1e-10) and the hand-value tests (approx) cannot see it. The
cases sit on both sides of each knife edge: rho == q for pgr, sqrt(beta)
== varrho for dist-pgr, and a == eta_br for pbr.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from nashprox import (
    DistRateConstants,
    PbrConfig,
    contraction_factor_q,
    dist_complexity,
    dist_envelope_params,
    envelope_params,
    pbr_complexity,
    rate_constants,
)
from nashprox.pgr import geometric_complexity

# (eta, lip, alpha): q = 0.75, q = 8/9 and q = 0
STEPS = {"q075": (1.0, 2.0, 0.25), "q089": (1.0, 3.0, 1.0 / 9.0),
         "q0": (1.0, 1.0, 1.0)}


def _pgr_cases():
    q075 = contraction_factor_q(*STEPS["q075"])
    q089 = contraction_factor_q(*STEPS["q089"])
    rows = [  # (step, rho, nu, c_start, rho_tilde)
        ("q075", 0.5, 1.0, 1.0, None),             # rho < q
        ("q075", 0.9, 1.0, 1.0, None),             # q < rho
        ("q075", q075, 1.0, 1.0, None),            # on the edge
        ("q075", q075, 0.5, 2.0, 0.8),             # on it, given rho_tilde
        ("q075", q075 + 5e-13, 1.0, 1.0, None),    # inside the band
        ("q075", q075 + 3e-12, 1.0, 1.0, None),    # just outside it
        ("q075", q075 - 3e-12, 1.0, 1.0, None),
        ("q089", 1.0 - 1.0 / 18.0, 0.3, 7.0, None),
        ("q089", q089, 0.3, 7.0, None),
        ("q089", 0.25, 2.5, 0.0, None),
        ("q0", 0.5, 1.0, 1.0, None),               # gap 1 at q = 0
    ]
    for step, rho, nu, c_start, rho_tilde in rows:
        rc = rate_constants(*STEPS[step], rho, nu, c_start,
                            rho_tilde=rho_tilde)
        out = [*dataclasses.astuple(rc), *envelope_params(rc, rho)]
        for eps in (1e-2, 1e-7, 1e3):
            out += geometric_complexity(*envelope_params(rc, rho), rho, eps)
        yield f"pgr-{step}-{rho!r}-{nu}-{c_start}-{rho_tilde}", out


def _dist_cases():
    rows = [  # (varrho, beta, c3, c_start)
        (0.8, 0.5, 0.2, 1.0),                      # sqrt(beta) < varrho
        (0.8, 0.81, 0.2, 1.0),                     # varrho < sqrt(beta)
        (0.8, 0.64, 0.2, 1.0),                     # on the edge
        (0.9, (0.9 + 1e-13) ** 2, 5.0, 2.0),       # inside the band
        (0.9, (0.9 + 1e-9) ** 2, 5.0, 2.0),        # outside it
        (0.9, (0.9 - 1e-9) ** 2, 5.0, 2.0),
        (0.985, 0.3, 2.0e8, 0.25),
        (0.5, 0.0, 0.3, 1.0),                      # perfect mixing
    ]
    for varrho, beta, c3, c_start in rows:
        rc = DistRateConstants(varrho=varrho, c1=0.0, c2=0.0, c3=c3,
                               m_compact=1.0, beta=beta, theta=1.0)
        out = list(dist_envelope_params(rc, c_start))
        for eps in ((1e-2, 1e-9, 1e12) if beta > 0.0 else ()):
            out += list(dist_complexity(rc, eps, c_start))
        # the trailing None is the varrho_tilde column the names were
        # captured with
        yield f"dist-{varrho}-{beta!r}-{c3}-{c_start}-None", out


def _pbr_cases():
    rows = [  # (a, eta_br, eta_tilde, m_max, c_r, n_players, c_start)
        (2.0 / 3.0, 0.7, None, 1.0, 1.9, 2, 1.0),  # a < eta_br
        (0.9, 0.7, None, 1.0, 1.9, 2, 1.0),        # eta_br < a
        (0.7, 0.7, None, 1.0, 1.9, 2, 1.0),        # a == eta_br
        (0.5, 0.6, 0.75, 2.0, 0.5, 10, 0.25),      # given eta_tilde
        (0.0, 0.3, None, 0.0, 1.0, 1, 0.0),        # no noise, zero start
    ]
    for a, eta_br, eta_tilde, m_max, c_r, n_players, c_start in rows:
        config = PbrConfig(mu=1.0, eta_br=eta_br, max_iter=1, m_max=m_max,
                           c_r=c_r, eta_tilde=eta_tilde)
        out = []
        for eps in (1e-1, 1e-3, 1e-9, 1e-320, 1e3):
            out += list(pbr_complexity(config, a, eps, n_players, c_start))
        yield f"pbr-{a!r}-{eta_br}-{eta_tilde}-{m_max}-{c_r}-{n_players}", out


def _bits(values) -> list[str]:
    return [v.hex() if isinstance(v, float) else repr(v) for v in values]


@functools.cache
def table() -> dict[str, list[str]]:
    return {name: _bits(out)
            for cases in (_pgr_cases, _dist_cases, _pbr_cases)
            for name, out in cases()}


# captured from the calculators before pgr, dist-pgr and pbr shared one
# envelope and one complexity formula
EXPECTED = {
    'dist-0.5-0.0-0.3-1.0-None': [
        '0x1.4cccccccccccdp+0', '0x1.0000000000000p-1',
    ],
    'dist-0.8-0.5-0.2-1.0-None': [
        '0x1.5c77db6e2861ep+1', '0x1.999999999999ap-1', '0x1.9203c405e4353p+4',
        '0x1.62584438e4debp+8', '0x1.823272cc7a863p+14',
        '0x1.856e776eb45fdp+6', '0x1.31650a1d3dbd6p+12',
        '0x1.a219aa3fae330p+50', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.48811259f8446p-58',
    ],
    'dist-0.8-0.64-0.2-1.0-None': [
        '0x1.9fea92b48c05ap+0', '0x1.ccccccccccccdp-1', '0x1.8284cc7480cf2p+5',
        '0x1.3628984eddf96p+10', '0x1.0734b6f019f75p+18',
        '0x1.92972c5e54850p+7', '0x1.414b55d3eb329p+14',
        '0x1.38aac92afe48fp+67', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.74d63fc2f93cfp-81',
    ],
    'dist-0.8-0.81-0.2-1.0-None': [
        '0x1.6666666666669p+1', '0x1.ccccccccccccdp-1', '0x1.abd929c319f77p+5',
        '0x1.79d542b97b506p+10', '0x1.77c9c6e3d5cb5p+11',
        '0x1.9cec43b1facf1p+7', '0x1.51df6ec3f69c3p+14',
        '0x1.b80150e14e275p+34', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.03bbb247b288ap-35',
    ],
    'dist-0.9-0.8099999982000001-5.0-2.0-None': [
        '0x1.0c388d4f4f042p+32', '0x1.ccccccccccccdp-1',
        '0x1.fd58beca282ecp+7', '0x1.0058867b1679dp+15',
        '0x1.143b21c73538cp+42', '0x1.97a75c05ae400p+8',
        '0x1.46f7450ba8cbdp+16', '0x1.494b054e0b32dp+65', '0x0.0p+0',
        '0x1.0000000000000p+0', '0x1.84c2aab0121e8p-5',
    ],
    'dist-0.9-0.8100000000001801-5.0-2.0-None': [
        '0x1.202a1bf2eb39dp+5', '0x1.e666666666666p-1', '0x1.3f4fa6bef3154p+7',
        '0x1.95cb7840b1f7bp+13', '0x1.9665156bb462ep+27',
        '0x1.d9e3b8fc56949p+8', '0x1.b9657ba881110p+16',
        '0x1.59323fa2ea44ap+75', '0x0.0p+0', '0x1.0000000000000p+0',
        '0x1.19a1b21330d28p-68',
    ],
    'dist-0.9-0.8100000018-5.0-2.0-None': [
        '0x1.0c388d4f4f042p+32', '0x1.ccccccd563d2cp-1',
        '0x1.fd58bf244677ep+7', '0x1.005886d54461cp+15',
        '0x1.143b1cff43157p+42', '0x1.97a75c4dce781p+8',
        '0x1.46f7457eef5c4p+16', '0x1.494afbefebe55p+65', '0x0.0p+0',
        '0x1.0000000000000p+0', '0x1.84c2ac9ed30b6p-5',
    ],
    'dist-0.985-0.3-200000000.0-0.25-None': [
        '0x1.ada4fccc10884p+28', '0x1.f851eb851eb85p-1',
        '0x1.95c6ef5e91654p+10', '0x1.422fc095f2890p+20', 'inf',
        '0x1.503232f88014bp+11', '0x1.ba01ea77609e6p+21', 'inf', '0x0.0p+0',
        '0x1.0000000000000p+0', '0x1.c96e78114bd82p-442',
    ],
    'pbr-0.0-0.3-None-0.0-1.0-1': [
        '4', '4', '0x1.7e56bb27aee3fp+12', '15', '15', '0x1.a477486d48facp+49',
        '47', '47', '0x1.179b6c6e33715p+161', '1709', 'inf', 'inf', '0', '0',
        '0x1.3c249528fc22bp-62',
    ],
    'pbr-0.5-0.6-0.75-2.0-0.5-10': [
        '15', '25444050', '0x1.f92de2652ba49p+20', '31', '319701742238040',
        '0x1.7d633dc29b72ep+44', '79', '634198143197832838724619987514557910',
        '0x1.48375bee41b3cp+115', '2568', 'inf', 'inf', '0', '0',
        '0x1.bb2c43a110d87p-27',
    ],
    'pbr-0.6666666666666666-0.7-None-1.0-1.9-2': [
        '23', '92609032', '0x1.6badc4249f010p+23', '52', '89323748485040192',
        '0x1.96ed489263c67p+52', '137',
        '19244212222397206316431082507153926248299616',
        '0x1.1d06301a36808p+140', '4543', 'inf', 'inf', '0', '0',
        '0x1.227bb5f7a2543p-35',
    ],
    'pbr-0.7-0.7-None-1.0-1.9-2': [
        '23', '92609032', '0x1.6badc4249f010p+23', '52', '89323748485040192',
        '0x1.96ed489263c67p+52', '137',
        '19244212222397206316431082507153926248299616',
        '0x1.1d06301a36808p+140', '4543', 'inf', 'inf', '0', '0',
        '0x1.227bb5f7a2543p-35',
    ],
    'pbr-0.9-0.7-None-1.0-1.9-2': [
        '92', '220355420872917135162163166304', '0x1.4c74d7ef873fdp+94', '182',
        '1680647122696580120613086520800112809127935334532228676704',
        '0x1.b60c89ee22733p+186', '451',
        '365368421269697965119742673012382442131070128197333982090727958670142098166134332712449668749133311449232682353056489217918396169628854352992',
        '0x1.f5058d4a3edabp+463', '14412', 'inf', 'inf', '0', '0',
        '0x1.7efdc0c57c39dp-91',
    ],
    'pgr-q0-0.5-1.0-1.0-None': [
        '0x0.0p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+1', 'None',
        'None', '0x1.0000000000000p+1', '0x1.0000000000000p-1',
        '0x1.e934f0979a371p+2', '0x1.245c6651cf19dp+9', '0x1.840e5284a6f03p+4',
        '0x1.b84698f1cc8f9p+25', '0x0.0p+0', '0x1.7a31a0132b331p-8',
    ],
    'pgr-q075-0.5-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0', '0x1.3000000000000p+0',
        'None', 'None', '0x1.3000000000000p+0', '0x1.8000000000000p-1',
        '0x1.09aeedd35a86ap+4', '0x1.18ed956c78a01p+18',
        '0x1.c4ffa23e89b29p+5', '0x1.1cc1cb69cac25p+58', '0x0.0p+0',
        '0x1.151e5cc286a14p-22',
    ],
    'pgr-q075-0.749999999997-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0',
        '0x1.d1a89e32407dfp+33', 'None', 'None', '0x1.d1a89e32407dfp+33',
        '0x1.8000000000000p-1', '0x1.8664bc3b1b875p+6',
        '0x1.a5867b3f2c34ap+42', '0x1.133c68f2c4df8p+7',
        '0x1.419929e86cea0p+59', '0x1.cca14d215a9f5p+5',
        '0x1.144044f2b9f49p+26',
    ],
    'pgr-q075-0.75-0.5-2.0-0.8': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+1', 'None',
        '0x1.0b667a724d129p+1', '0x1.999999999999ap-1', '0x1.0b667a724d129p+1',
        '0x1.999999999999ap-1', '0x1.7f071f1e5c5fap+4',
        '0x1.1d2fb1e1e6c85p+12', '0x1.2e224c5ec1776p+6',
        '0x1.79dd29663ec4fp+33', '0x0.0p+0', '0x1.a9f94f7c3b7a3p-10',
    ],
    'pgr-q075-0.75-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0', 'None',
        '0x1.262f12c24b0a5p+0', '0x1.c000000000000p-1', '0x1.262f12c24b0a5p+0',
        '0x1.c000000000000p-1', '0x1.1c3acadc19cb9p+5',
        '0x1.f1879451e07fbp+16', '0x1.e6fd8443faa59p+6',
        '0x1.ac3f3aa1857bdp+52', '0x0.0p+0', '0x1.20d96785b8c61p-19',
    ],
    'pgr-q075-0.7500000000005-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0', 'None',
        '0x1.262f12c24b721p+0', '0x1.c0000000008ccp-1', '0x1.262f12c24b721p+0',
        '0x1.c0000000008ccp-1', '0x1.1c3acadc1c7d2p+5',
        '0x1.f1879451e19aap+16', '0x1.e6fd8443ff296p+6',
        '0x1.ac3f3aa17e4a8p+52', '0x0.0p+0', '0x1.20d96785bee88p-19',
    ],
    'pgr-q075-0.750000000003-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0',
        '0x1.d1a89e32407dfp+33', 'None', 'None', '0x1.d1a89e32407dfp+33',
        '0x1.800000000698ep-1', '0x1.8664bc3b32d79p+6',
        '0x1.a5867b3c8d438p+42', '0x1.133c68f2d54f4p+7',
        '0x1.419929e58fe91p+59', '0x1.cca14d2176215p+5',
        '0x1.144044f1c02f1p+26',
    ],
    'pgr-q075-0.9-1.0-1.0-None': [
        '0x1.8000000000000p-1', '0x1.0000000000000p+0', '0x1.5ffffffffffffp+0',
        'None', 'None', '0x1.5ffffffffffffp+0', '0x1.ccccccccccccdp-1',
        '0x1.75d9824f80d2ap+5', '0x1.7631da450af5bp+10',
        '0x1.38018054bc6ebp+7', '0x1.149330450ab23p+27', '0x0.0p+0',
        '0x1.db26d2234d540p-7',
    ],
    'pgr-q089-0.25-2.5-0.0-None': [
        '0x1.c71c71c71c71cp-1', '0x0.0p+0', '0x1.b7b88b9c835ddp-4', 'None',
        'None', '0x1.b7b88b9c835ddp-4', '0x1.c71c71c71c71cp-1',
        '0x1.426de97b97c2bp+4', '0x1.c7db22fb1ead4p+41',
        '0x1.d7984b2e28a9dp+6', '0x1.40f3c7f255356p+237', '0x0.0p+0',
        '0x1.43bb4118b6600p-154',
    ],
    'pgr-q089-0.8888888888888888-0.3-7.0-None': [
        '0x1.c71c71c71c71cp-1', '0x1.c000000000000p+2', 'None',
        '0x1.c06e77a3be739p+2', '0x1.e38e38e38e38ep-1', '0x1.c06e77a3be739p+2',
        '0x1.e38e38e38e38ep-1', '0x1.ca84a7e5d9fd7p+6',
        '0x1.a9d7497d0c18fp+22', '0x1.3c0d083d45ad0p+8',
        '0x1.f23b3d7d359c3p+56', '0x0.0p+0', '0x1.6bf4de789e086p-12',
    ],
    'pgr-q089-0.9444444444444444-0.3-7.0-None': [
        '0x1.c71c71c71c71cp-1', '0x1.c000000000000p+2', '0x1.c13579be02469p+2',
        'None', 'None', '0x1.c13579be02469p+2', '0x1.e38e38e38e38ep-1',
        '0x1.caa3af84c3398p+6', '0x1.99e5aac236f53p+13',
        '0x1.3c14ca24fffc1p+8', '0x1.35fe39c3edc22p+30', '0x0.0p+0',
        '0x1.0a482e210c536p-3',
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_calculator_bits(name):
    assert table()[name] == EXPECTED[name]


def test_the_table_covers_every_case():
    assert sorted(table()) == sorted(EXPECTED)
