"""The builders write integer rows directly (``LinearProgram.add_row``)
and ``compose_joint_lp`` concatenates stage rows; both must emit the rows
the ``LinExpr`` front end produced, in the same order.

Each case dumps a registered collective's ``conformance_problem`` LP in
order -- variables with bounds, then per row its name, sense, right-hand
side and entries (column and coefficient, in stored order), then the
objective -- and compares the digest with one pinned from the
expression-built LPs.  Row order and entry order feed the float matrices
handed to HiGHS and every engine's pivot choices, so a reordering shows
up here before it moves a vertex.
"""

import hashlib
import random
import zlib
from fractions import Fraction

import pytest

from repro.collectives import available_collectives
from repro.platform import generators as gen

#: (platform, collective, mode) -> digest of the expression-built LP
PINNED = {
    ("complete4-het", "scatter", None): "d647034b173bb9c5",
    ("complete4-het", "reduce", None): "f5c852a03049c2cf",
    ("complete4-het", "gossip", None): "735652e88c0a2045",
    ("complete4-het", "prefix", None): "b3b076b9b2acf0e8",
    ("complete4-het", "reduce-scatter", None): "70532e53b810083f",
    ("complete4-het", "broadcast", None): "126480cd0c22d326",
    ("complete4-het", "all-gather", "joint"): "6e6f92721ac9e498",
    ("complete4-het", "all-gather", "pipelined"): "6e6f92721ac9e498",
    ("complete4-het", "all-reduce", "joint"): "674f27fe9891060a",
    ("complete4-het", "all-reduce", "pipelined"): "5cdfa439286f7af3",
    ("ring5-het", "scatter", None): "fa17efc12f665c7c",
    ("ring5-het", "reduce", None): "d782cbb709c1f5a0",
    ("ring5-het", "gossip", None): "14419de03c3575a6",
    ("ring5-het", "prefix", None): "6eb9625a341ac7d5",
    ("ring5-het", "reduce-scatter", None): "04832065cfe5cd99",
    ("ring5-het", "broadcast", None): "134ee5a324db5d78",
    ("ring5-het", "all-gather", "joint"): "3f345f3df283900c",
    ("ring5-het", "all-gather", "pipelined"): "3f345f3df283900c",
    ("ring5-het", "all-reduce", "joint"): "1137fcaff563e08a",
    ("ring5-het", "all-reduce", "pipelined"): "c929ad7da1072401",
    ("grid2x3-het", "scatter", None): "6bdbe8f8eda1bc2c",
    ("grid2x3-het", "reduce", None): "ec63670a32228156",
    ("grid2x3-het", "gossip", None): "9ad65faa64b4af1d",
    ("grid2x3-het", "prefix", None): "70b99fd13e0d3d53",
    ("grid2x3-het", "reduce-scatter", None): "cabb1d5e6519b393",
    ("grid2x3-het", "broadcast", None): "37bbb262dfd59bfa",
    ("grid2x3-het", "all-gather", "joint"): "c94791b266868428",
    ("grid2x3-het", "all-gather", "pipelined"): "c94791b266868428",
    ("grid2x3-het", "all-reduce", "joint"): "d5653d99713769c5",
    ("grid2x3-het", "all-reduce", "pipelined"): "de13d6855f62bfde",
}


def row_dump_digest(lp) -> str:
    """Order-preserving digest of ``lp``'s variables, rows and objective."""
    out = [repr(lp.sense_max)]
    for v in lp.variables:
        ub = None if v.ub is None else Fraction(v.ub)
        out.append(f"v|{v.name};{Fraction(v.lb)};{ub}")
    for i, sense in enumerate(lp.senses):
        ents = ",".join(f"{j}:{Fraction(c)}" for j, c in lp.row_items(i))
        out.append(f"r|{lp.names[i]};{sense};{Fraction(lp.row_rhs(i))};"
                   + ents)
    ob = ",".join(f"{j}:{Fraction(c)}"
                  for j, c in lp.objective.coefs.items() if c)
    out.append(f"o|{Fraction(lp.objective.constant)};{ob}")
    return hashlib.blake2b("\n".join(out).encode(),
                           digest_size=8).hexdigest()


def _cases():
    plats = [gen.heterogenize(gen.complete(4), seed=3),
             gen.heterogenize(gen.ring(5), seed=4),
             gen.heterogenize(gen.grid2d(2, 3), seed=5)]
    for plat in plats:
        for spec in available_collectives():
            composite = hasattr(spec, "_check_mode")
            for mode in ("joint", "pipelined") if composite else (None,):
                if (plat.name, spec.name, mode) in PINNED:
                    yield plat, spec, mode


CASES = list(_cases())


def test_every_pin_is_exercised():
    assert {(p.name, s.name, m) for p, s, m in CASES} == set(PINNED)


@pytest.mark.parametrize("plat,spec,mode", CASES,
                         ids=[f"{p.name}-{s.name}-{m}" for p, s, m in CASES])
def test_builders_emit_the_pinned_rows(plat, spec, mode):
    rng = random.Random(zlib.crc32(f"{plat.name}-{spec.name}".encode()))
    problem = spec.conformance_problem(plat, plat.compute_nodes(), rng)
    lp = (spec.build_lp(problem) if mode is None
          else spec.build_lp(problem, mode=mode))
    assert row_dump_digest(lp) == PINNED[(plat.name, spec.name, mode)]
    # the view the tests read agrees with the stored rows
    for i, con in enumerate(lp.constraints):
        assert list(con.expr.coefs.items()) == lp.row_items(i)
        assert -con.expr.constant == lp.row_rhs(i)
        assert (con.sense, con.name) == (lp.senses[i], lp.names[i])
