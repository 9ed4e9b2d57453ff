"""Mutants that `verify` must catch.

The gauge mutants read F with the wrong index order, or conjugate the window
blocks.  The standard F is real and symmetric, so only the gauged reruns of
the `distill` check can expose them.  The last mutant reports the addition
gadget's residual amplitude as its probability.  Each must make
`verify --suite distill` exit 1, and the unpatched tree must exit 0."""
from __future__ import annotations

import pytest

from fibweave import cli, distill
from fibweave.chain import Chain, WindowMap


def transposed(gauge):
    return gauge._replace(f=tuple(zip(*gauge.f)))


def merge_reads_f_xg(mp):
    # every merge reads F transposed, and every state keeps its given gauge
    merge = Chain.merge

    def mutant(self, i):
        copy = self._of(self._groups)
        copy.gauge = transposed(self.gauge)
        out = merge(copy, i)
        out.gauge = self.gauge
        return out

    mp.setattr(Chain, "merge", mutant)


def init_reads_f_0x(mp):
    init = distill.init_protocol_state

    def mutant(assign, gauge):
        st = init(assign, transposed(gauge))
        st.gauge = gauge
        return st

    mp.setattr(distill, "init_protocol_state", mutant)


def window_blocks_conjugated(mp):
    build = WindowMap._build

    def mutant(self, gauge, roots, l0, l3):
        return {
            ab: tuple((x, y, c.conjugate()) for x, y, c in rows)
            for ab, rows in build(self, gauge, roots, l0, l3).items()
        }

    mp.setattr(WindowMap, "_build", mutant)


def epsilon_prob_is_amplitude(mp):
    epsilon_prob = distill.epsilon_prob

    def mutant(j):
        res = epsilon_prob(j)
        return {**res, "probability": res["amplitude_residual"]}

    mp.setattr(distill, "epsilon_prob", mutant)


@pytest.mark.parametrize(
    "mutate",
    [
        None,
        merge_reads_f_xg,
        init_reads_f_0x,
        window_blocks_conjugated,
        epsilon_prob_is_amplitude,
    ],
    ids=lambda m: getattr(m, "__name__", "unpatched"),
)
def test_verify_distill_catches_gauge_mutants(mutate, capsys):
    # a mutant _build poisons the window blocks cached with the gadgets, in
    # every gauge, so no block may outlive the patch
    distill._gadgets.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            if mutate is not None:
                mutate(mp)
            code = cli.main(["verify", "--suite", "distill"])
    finally:
        distill._gadgets.cache_clear()
    capsys.readouterr()
    assert code == (0 if mutate is None else 1)
