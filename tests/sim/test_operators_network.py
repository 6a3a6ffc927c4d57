"""Unit tests for the non-commutative reduction operators."""

from repro.sim.operators import MatMul2x2Mod, SeqConcat, noncommutative_reduce


class TestSeqConcat:
    def test_associative(self):
        a, b, c = ((1,),), ((2,),), ((3,),)
        assert SeqConcat.combine(SeqConcat.combine(a, b), c) == \
               SeqConcat.combine(a, SeqConcat.combine(b, c))

    def test_not_commutative(self):
        a, b = SeqConcat.leaf(0, 0), SeqConcat.leaf(1, 0)
        assert SeqConcat.combine(a, b) != SeqConcat.combine(b, a)

    def test_expected_matches_reference(self):
        leaves = [SeqConcat.leaf(j, 7) for j in range(5)]
        assert noncommutative_reduce(leaves) == SeqConcat.expected(5, 7)

    def test_identity(self):
        assert noncommutative_reduce([]) == SeqConcat.identity


class TestMatMul:
    def test_associative(self):
        a, b, c = (MatMul2x2Mod.leaf(j, 3) for j in range(3))
        assert MatMul2x2Mod.combine(MatMul2x2Mod.combine(a, b), c) == \
               MatMul2x2Mod.combine(a, MatMul2x2Mod.combine(b, c))

    def test_not_commutative(self):
        a, b = MatMul2x2Mod.leaf(0, 0), MatMul2x2Mod.leaf(1, 0)
        assert MatMul2x2Mod.combine(a, b) != MatMul2x2Mod.combine(b, a)

    def test_expected_matches_reference(self):
        leaves = [MatMul2x2Mod.leaf(j, 2) for j in range(4)]
        assert noncommutative_reduce(leaves, op=MatMul2x2Mod) == \
               MatMul2x2Mod.expected(4, 2)

    def test_identity_element(self):
        x = MatMul2x2Mod.leaf(3, 1)
        assert MatMul2x2Mod.combine(MatMul2x2Mod.identity, x) == x
