"""Tagging-discipline checker and auto-tagger, including the four-step
protocol table used as the worked tagging example."""

import hypothesis.strategies as st
from hypothesis import given, settings

from strategies import terms, xor_terms
from taggedunify import dnut
from taggedunify.dnut import dnut_check, dnut_tag
from taggedunify.oracle import GenConfig, gen_raw_protocol
from taggedunify.terms import (
    ZERO,
    Penc,
    Problem,
    Seq,
    TagConst,
    Term,
    Xor,
    decompose,
    iter_subterms,
    map_args,
)
from taggedunify.textfmt import parse_term
from taggedunify.unify import unify_free_xor


def t(src: str) -> Term:
    return parse_term(src)


def tags_bijection(a: list[Term], b: list[Term]) -> dict | None:
    """If the two term lists are equal up to a consistent renaming of tag
    constants, return the tag bijection; otherwise None."""
    forward: dict[tuple[int, ...], tuple[int, ...]] = {}
    backward: dict[tuple[int, ...], tuple[int, ...]] = {}

    def match(s: Term, t: Term) -> bool:
        if isinstance(s, TagConst) and isinstance(t, TagConst):
            if forward.get(s.path, t.path) != t.path:
                return False
            if backward.get(t.path, s.path) != s.path:
                return False
            forward[s.path] = t.path
            backward[t.path] = s.path
            return True
        pairs = decompose(s, t)
        if pairs is None:
            return s == t
        return all(match(x, y) for x, y in pairs)

    if len(a) != len(b) or not all(match(x, y) for x, y in zip(a, b)):
        return None
    return forward


def strip_tags(t: Term) -> Term:
    """Undo :func:`dnut_tag` on a tagged term: unwrap every xor summand of
    the form ``[tag, ...rest]``, to compare structure with the input."""
    if isinstance(t, Xor):
        items = []
        for item in t.items:
            if isinstance(item, Seq) and isinstance(item.items[0], TagConst):
                rest = tuple(strip_tags(u) for u in item.items[1:])
                items.append(rest[0] if len(rest) == 1 else Seq(rest))
            else:
                items.append(strip_tags(item))
        return Xor(tuple(items))
    return map_args(strip_tags, t)


ORIGINAL_PROTOCOL = [
    "[A, B]",
    "[N_B, B] + penc([N_B, A], pk(A))",
    "A + N_B + penc(A + N_B, pk(B)) + senc(N_A, N_B)",
    "penc([N_A + N_B, A, B], pk(A)) + senc([N_A + A, N_B + B], N_A + N_B)",
]

TAGGED_COLUMN = [
    "[A, B]",
    "[2.1, N_B, B] + [2.2, penc([N_B, A], pk(A))]",
    "[3.1, A] + [3.2, N_B] + [3.3, penc([3.3.1, A] + [3.3.2, N_B], pk(B))] + [3.4, senc(N_A, N_B)]",
    "[4.1, penc([[4.1.1, N_A] + [4.1.2, N_B], A, B], pk(A))] + "
    "[4.2, senc([[4.2.1, N_A] + [4.2.2, A], [4.3.1, N_B] + [4.3.2, B]], [4.4.1, N_A] + [4.4.2, N_B])]",
]


class TestCheck:
    def test_tagged_term_satisfies(self):
        report = dnut_check([t("xor([1, A], [2, N_B], [3, penc(N_A, pk(B))], [4, senc(N_B, K)])")])
        assert report.satisfied and report.violations == []

    def test_cross_term_violation(self):
        report = dnut_check([t("xor([1, A], [2, b])"), t("xor([1, B], [3, c])")])
        assert not report.satisfied
        witnesses = {(v.condition, v.witness) for v in report.violations}
        assert (2, (t("[1, A]"), t("[1, B]"))) in witnesses

    def test_unity_summand_violates(self):
        report = dnut_check([t("xor(a, 0)")])
        assert [v.condition for v in report.violations] == [3]
        assert report.violations[0].witness == (ZERO,)

    def test_repeated_summand_violates_within(self):
        report = dnut_check([t("xor(a, a)")])
        assert any(v.condition == 1 for v in report.violations)

    def test_bare_variable_summands_flagged(self):
        report = dnut_check([t("xor(X, [1, a])")])
        assert any(v.condition == 1 for v in report.violations)

    def test_identical_xor_terms_are_one_term(self):
        # the same message mentioned twice is not a cross-term violation
        report = dnut_check([t("xor([1, a], [2, b])"), t("xor([1, a], [2, b])")])
        assert report.satisfied

    def test_empty_set_satisfied(self):
        assert dnut_check([]).satisfied

    def test_witnesses_really_unify(self):
        from taggedunify.terms import iter_subterms
        from taggedunify.unify import unify_std

        report = dnut_check([t(s) for s in ORIGINAL_PROTOCOL])
        assert not report.satisfied
        for v in report.violations:
            if v.condition in (1, 2):
                pair = Problem(v.witness[0], v.witness[1])
                if any(isinstance(u, Xor) for w in v.witness for u in iter_subterms(w)):
                    assert unify_free_xor([pair]) is not None
                else:
                    assert unify_std([pair]) is not None

    def test_satisfied_report_misses_no_pair(self):
        # independent exhaustive rescan of a satisfied set
        from itertools import combinations

        from taggedunify.terms import interm_occurrences, iter_subterms

        terms_ = [t(s) for s in TAGGED_COLUMN]
        assert dnut_check(terms_).satisfied
        xors = {u for m in terms_ for u in iter_subterms(m) if isinstance(u, Xor)}
        for xa, xb in combinations(sorted(xors, key=str), 2):
            for a in interm_occurrences(xa):
                for b in interm_occurrences(xb):
                    assert unify_free_xor([Problem(a, b)]) is None
        for x in xors:
            items = interm_occurrences(x)
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    assert unify_free_xor([Problem(items[i], items[j])]) is None


class TestTagTable:
    def test_original_column_fails(self):
        report = dnut_check([t(s) for s in ORIGINAL_PROTOCOL])
        assert not report.satisfied
        assert {v.condition for v in report.violations} <= {1, 2}

    def test_printed_tagged_column_passes(self):
        assert dnut_check([t(s) for s in TAGGED_COLUMN]).satisfied

    def test_tagger_output_passes(self):
        tagged = dnut_tag([t(s) for s in ORIGINAL_PROTOCOL])
        assert dnut_check(tagged).satisfied

    def test_tagger_matches_printed_column_modulo_renumbering(self):
        tagged = dnut_tag([t(s) for s in ORIGINAL_PROTOCOL])
        printed = [t(s) for s in TAGGED_COLUMN]
        bijection = tags_bijection(tagged, printed)
        assert bijection is not None
        # the single-nested paths agree literally, per the hierarchical scheme
        assert bijection[(3, 3, 1)] == (3, 3, 1)
        assert bijection[(2, 1)] == (2, 1)

    def test_first_and_second_message_tagged_exactly(self):
        tagged = dnut_tag([t(s) for s in ORIGINAL_PROTOCOL])
        assert tagged[0] == t("[A, B]")
        assert tagged[1] == t("[2.1, N_B, B] + [2.2, penc([N_B, A], pk(A))]")

    def test_message_without_xor_unchanged(self):
        msgs = [t("[A, B]"), t("penc(N_A, pk(B))")]
        assert dnut_tag(msgs) == msgs


# summands that hold an xor of their own, inside sibling xors
_nesting_xor = st.lists(
    st.one_of(terms(max_leaves=4), st.builds(Penc, xor_terms(), terms(max_leaves=3))),
    min_size=2, max_size=3,
).map(lambda xs: Xor(tuple(xs)))
_sibling_xors = st.lists(_nesting_xor, min_size=2, max_size=3).map(lambda xs: Seq(tuple(xs)))


class TestTagProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_tagging_always_satisfies(self, index):
        protocol = gen_raw_protocol(GenConfig(seed=8), index)
        assert dnut_check(dnut_tag(protocol)).satisfied

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_tagging_preserves_untagged_structure(self, index):
        protocol = gen_raw_protocol(GenConfig(seed=9), index)
        tagged = dnut_tag(protocol)
        assert [strip_tags(m) for m in tagged] == protocol

    def test_nested_xor_extends_enclosing_path(self):
        (tagged,) = dnut_tag([t("[N_B, B] + penc(A + N_B, pk(B))")])
        nested = [u for u in iter_subterms(tagged) if isinstance(u, Xor)][1:]
        assert nested
        rendered = {str(u) for u in nested}
        # the lone nested xor lives under summand 2, so its tags extend (1, 2)
        from taggedunify.textfmt import render_term

        assert render_term(nested[0]) == "xor([1.2.1, A], [1.2.2, N_B])"

    def test_pre_tagged_input_keeps_the_hierarchical_attempt(self):
        # input that reuses the tags the scheme assigns: every summand head
        # is a fresh tag, so the existing ones never collide and the first,
        # hierarchical attempt is the result
        msgs = [t("xor([1.1, A], [1.2, B])"), t("xor([1.1, A], c)")]
        tagged = dnut_tag(msgs)
        assert tagged == [dnut._tag_xor(m, (i,), dnut._hierarchical) for i, m in enumerate(msgs, 1)]
        assert dnut_check(tagged).satisfied

    def test_sibling_xors_with_nested_xors(self):
        # the hierarchical numbering gives the second sibling xor base 1.2,
        # which the xor nested in the first xor's second summand also gets,
        # so tagging retries with tree addresses
        msg = t("penc(xor(A, penc(xor(B, C), k)), xor(D, E))")
        (tagged,) = dnut_tag([msg])
        assert dnut_check([tagged]).satisfied
        assert strip_tags(tagged) == msg

    @given(st.lists(st.one_of(_sibling_xors, terms()), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_tagging_sibling_xors_satisfies(self, protocol):
        tagged = dnut_tag(protocol)
        assert dnut_check(tagged).satisfied
        assert [strip_tags(m) for m in tagged] == protocol


class TestReportsPinned:
    def test_generated_protocol_reports_with_and_without_head_keys(self, monkeypatch):
        # the raw, tagged and stripped protocols of seeds 1/4/61 x 300
        # checked with the head-key prune and with every pair unified; both
        # give the same reports, pinned by hash, violations in the same order
        import hashlib

        def digest():
            h, checked, violations = hashlib.sha256(), 0, 0
            for seed in (1, 4, 61):
                for i in range(300):
                    raw = gen_raw_protocol(GenConfig(seed=seed), i)
                    tagged = dnut_tag(raw)
                    for protocol in (raw, tagged, [strip_tags(m) for m in tagged]):
                        report = dnut_check(protocol)
                        h.update(repr(report).encode())
                        checked += 1
                        violations += len(report.violations)
            return checked, violations, h.hexdigest()

        pinned = (2_700, 10_880, "c63baf138d2b9ba62f1e5dcd874d4d35c278a0f0cffe92a917fba35419098caf")
        assert digest() == pinned
        monkeypatch.setattr(dnut, "keys_clash", lambda a, b: False)
        assert digest() == pinned
