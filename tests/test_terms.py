import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given

from strategies import atoms, terms, xor_terms
from taggedunify.terms import (
    SIGNATURE,
    STD,
    XOR,
    ZERO,
    Const,
    Penc,
    Pk,
    Senc,
    Seq,
    Sh,
    TagConst,
    Term,
    Theory,
    Var,
    Xor,
    acun_normal_form,
    children,
    decompose,
    equal_mod,
    interms,
    is_atom,
    is_pure,
    is_subterm,
    iter_subterms,
    map_args,
    rebuild,
    side_of,
    sort_key,
    subterms_of_set,
)
from taggedunify.textfmt import parse_term


def t(src: str) -> Term:
    return parse_term(src)


class TestSubterm:
    def test_deep_occurrence_is_subterm_not_interm(self):
        big = t("[1, a] + [2, b] + [3, senc(n_b, k)]")
        assert is_subterm(t("n_b"), big)
        assert t("n_b") not in interms(big)

    def test_reflexive(self):
        u = t("penc([1, a], pk(B))")
        assert is_subterm(u, u)

    def test_distinct_atoms(self):
        assert not is_subterm(Const("a"), Const("b"))


class TestInterms:
    def test_xor_summands(self):
        assert interms(t("[1, a] + [2, b]")) == {t("[1, a]"), t("[2, b]")}

    def test_non_xor_is_its_own_interm(self):
        assert interms(Const("a")) == {Const("a")}

    def test_no_implicit_normalization(self):
        assert interms(t("xor(X, 0)")) == {Var("X"), ZERO}


class TestSubtermsOfSet:
    def test_sequence_unfolds(self):
        got = subterms_of_set([t("[1, a]")])
        assert got == {t("[1, a]"), TagConst((1,)), Const("a")}

    def test_empty(self):
        assert subterms_of_set([]) == set()

    def test_penc_unfolds(self):
        got = subterms_of_set([t("penc(X, pk(b))")])
        assert got == {t("penc(X, pk(b))"), Var("X"), t("pk(b)"), Const("b")}


class TestPurity:
    def test_xor_of_variables_is_xor_pure(self):
        assert is_pure(t("xor(W, X)"), Theory.ACUN)

    def test_std_term_is_std_pure(self):
        assert is_pure(t("penc([1, n_a], pk(B))"), Theory.STD)

    def test_alien_summand_breaks_purity(self):
        assert not is_pure(t("xor([1, a], X)"), Theory.ACUN)

    @given(terms())
    def test_pure_wrt_both_theories_means_atom(self, u):
        if is_pure(u, Theory.STD) and is_pure(u, Theory.ACUN):
            assert is_atom(u)


def _multiset_reductions(term: Term) -> set[Term]:
    """Exhaustive closure of reduction moves licensed by the four xor
    equations (associativity and commutativity via multiset view, unit
    removal, pairwise cancellation, nested flattening)."""

    def moves(u: Term):
        if not isinstance(u, Xor):
            return
        items = list(u.items)
        for i in range(len(items)):
            if items[i] == ZERO:
                yield _rebuild_xor(items[:i] + items[i + 1 :])
            if isinstance(items[i], Xor):
                yield _rebuild_xor(items[:i] + list(items[i].items) + items[i + 1 :])
            for j in range(i + 1, len(items)):
                if items[i] == items[j]:
                    rest = [x for k, x in enumerate(items) if k not in (i, j)]
                    yield _rebuild_xor(rest)

    def _rebuild_xor(items):
        if not items:
            return ZERO
        if len(items) == 1:
            return items[0]
        return Xor(tuple(items))

    seen = {term}
    frontier = [term]
    while frontier:
        u = frontier.pop()
        for v in moves(u):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


class TestNormalForm:
    def test_self_cancellation(self):
        assert acun_normal_form(t("xor(a, a)")) == ZERO

    def test_unit_removal(self):
        assert acun_normal_form(t("xor(a, 0, b)")) == t("xor(a, b)")

    def test_repeated_cancellation_matches_rewrite_closure(self):
        # expected value derived by exhaustive rewriting with the four
        # equations: xor(x, xor(y, y), x, b) reduces to the constant b
        u = Xor((Const("x"), Xor((Const("y"), Const("y"))), Const("x"), Const("b")))
        closure = _multiset_reductions(u)
        assert Const("b") in closure
        assert acun_normal_form(u) == Const("b")

    @given(terms())
    def test_idempotent(self, u):
        n = acun_normal_form(u)
        assert acun_normal_form(n) == n

    @given(xor_terms(), st.randoms(use_true_random=False))
    def test_invariant_under_licensed_edits(self, u, rng):
        n = acun_normal_form(u)
        items = list(u.items)
        rng.shuffle(items)
        assert acun_normal_form(Xor(tuple(items))) == n
        dup = rng.choice(items)
        assert acun_normal_form(Xor(tuple(items + [dup, dup]))) == n
        assert acun_normal_form(Xor(tuple(items + [ZERO]))) == n

    @given(terms())
    def test_interms_are_subterms(self, u):
        assert interms(u) <= subterms_of_set([u])


class TestEqualMod:
    def test_ground_cancellation(self):
        assert equal_mod(t("xor(w, x, y, y)"), t("xor(w, x)"), Theory.ACUN)
        assert equal_mod(t("xor(x, y, y)"), Const("x"), Theory.ACUN)

    def test_free_xor_is_order_sensitive(self):
        assert not equal_mod(t("xor(a, b)"), t("xor(b, a)"), Theory.FREE_XOR)
        assert not equal_mod(t("xor(a, b)"), t("xor(b, a)"), Theory.STD)

    def test_std_reflexive(self):
        u = t("senc(X, sh(a, b))")
        assert equal_mod(u, u, Theory.STD)

    @given(st.lists(terms(max_leaves=6), min_size=2, max_size=4))
    def test_acun_equivalence_relation(self, sample):
        for u in sample:
            assert equal_mod(u, u, Theory.ACUN)
        for u, v in itertools.combinations(sample, 2):
            assert equal_mod(u, v, Theory.ACUN) == equal_mod(v, u, Theory.ACUN)
        for u, v, w in itertools.combinations(sample, 3):
            if equal_mod(u, v, Theory.ACUN) and equal_mod(v, w, Theory.ACUN):
                assert equal_mod(u, w, Theory.ACUN)


class TestConstructors:
    def test_xor_needs_two_summands(self):
        with pytest.raises(ValueError):
            Xor((Const("a"),))

    def test_seq_nonempty(self):
        with pytest.raises(ValueError):
            Seq(())

    def test_tag_path_positive(self):
        with pytest.raises(ValueError):
            TagConst((0, 1))
        with pytest.raises(ValueError):
            TagConst(())

    @given(atoms)
    def test_atoms_have_no_children(self, a):
        assert is_atom(a)


class TestSignature:
    A = Const("a")
    ONE_EACH = [
        ZERO, TagConst((1,)), A, Var("X"), Seq((A,)), Penc(A, A), Senc(A, A), Pk(A),
        Sh(A, A), Xor((A, A)),
    ]

    def test_sort_key_constructor_order(self):
        # normal-form summand order, rendered unifiers and the golden files
        # all rest on this order
        assert [type(u) for u in self.ONE_EACH] == list(SIGNATURE)
        assert sorted(reversed(self.ONE_EACH), key=sort_key) == self.ONE_EACH
        ranks = [sort_key(u)[0] for u in self.ONE_EACH]
        assert ranks == list(range(len(self.ONE_EACH)))

    def test_atom_sides(self):
        assert [side_of(u) for u in self.ONE_EACH[:4]] == [XOR, STD, STD, None]

    def test_decompose(self):
        assert list(decompose(Penc(self.A, Var("X")), Penc(Var("Y"), self.A))) == [
            (self.A, Var("Y")), (Var("X"), self.A)
        ]
        assert decompose(Penc(self.A, self.A), Senc(self.A, self.A)) is None
        assert decompose(Seq((self.A,)), Seq((self.A, self.A))) is None
        assert decompose(self.A, self.A) is None

    @given(terms())
    def test_rebuild_from_children(self, u):
        if is_atom(u):
            assert children(u) == ()
            with pytest.raises(TypeError):
                rebuild(u, ())
        else:
            assert rebuild(u, children(u)) == u

    @given(terms())
    def test_map_identity_returns_same_object(self, u):
        for v in iter_subterms(u):
            assert map_args(lambda c: c, v) is v

    @given(terms())
    def test_sides_agree_with_purity(self, u):
        for v in iter_subterms(u):
            if is_atom(v):
                assert is_pure(v, Theory.STD) and is_pure(v, Theory.ACUN)
                continue
            # the node alone, its arguments replaced by a constant
            head = rebuild(v, tuple(self.A for _ in children(v)))
            assert is_pure(head, Theory.STD) == (side_of(v) == STD)
            assert is_pure(head, Theory.ACUN) == (side_of(v) == XOR)
            assert is_pure(head, Theory.COMBINED)
