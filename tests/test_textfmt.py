import pytest
from hypothesis import given

from strategies import terms
from taggedunify.terms import ZERO, Const, Penc, Pk, Seq, TagConst, Theory, Var, Xor
from taggedunify.textfmt import (
    Entry,
    ParseError,
    ProblemFile,
    parse_problem_file,
    parse_substitution,
    parse_term,
    render_problem_file,
    render_substitution,
    render_term,
)
from taggedunify.unify import Substitution


class TestParseTerm:
    def test_penc_with_tag_and_key(self):
        got = parse_term("penc([1,na], pk(B))")
        assert got == Penc(Seq((TagConst((1,)), Const("na"))), Pk(Var("B")))

    def test_xor_arity_error(self):
        with pytest.raises(ParseError):
            parse_term("xor(a)")

    def test_tagged_sum(self):
        got = parse_term("[2.1, Nb, B] + [2.2, penc([Nb, A], pk(A))]")
        assert got == Xor(
            (
                Seq((TagConst((2, 1)), Var("Nb"), Var("B"))),
                Seq((TagConst((2, 2)), Penc(Seq((Var("Nb"), Var("A"))), Pk(Var("A"))))),
            )
        )

    def test_infix_left_flattens(self):
        assert parse_term("a + b + c") == Xor((Const("a"), Const("b"), Const("c")))
        assert parse_term("(a + b) + c") == Xor((Xor((Const("a"), Const("b"))), Const("c")))

    def test_zero_and_tags(self):
        assert parse_term("0") == ZERO
        assert parse_term("7") == TagConst((7,))
        assert parse_term("3.3.1") == TagConst((3, 3, 1))

    def test_bad_tag_component(self):
        with pytest.raises(ParseError):
            parse_term("2.0")

    def test_arity_errors(self):
        for bad in ("penc(a)", "pk(a, b)", "sh(a)", "senc(a, b, c)"):
            with pytest.raises(ParseError):
                parse_term(bad)
        messages = {
            "senc(a)": "senc takes 2 argument(s), got 1",
            "senc(a, b, c)": "senc takes 2 argument(s), got 3",
            "sh(a)": "sh takes 2 argument(s), got 1",
            "sh(a, b, c)": "sh takes 2 argument(s), got 3",
            "pk(a, b)": "pk takes 1 argument(s), got 2",
            "penc(a)": "penc takes 2 argument(s), got 1",
            "xor(a)": "xor needs at least 2 arguments",
        }
        for bad, message in messages.items():
            with pytest.raises(ParseError) as err:
                parse_term(bad)
            assert str(err.value) == message

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("a b")

    def test_underscore_names_are_variables(self):
        assert parse_term("_f1") == Var("_f1")


class TestRenderTerm:
    def test_zero(self):
        assert render_term(ZERO) == "0"

    def test_xor_prefix_form(self):
        assert render_term(Xor((Const("a"), Const("b")))) == "xor(a, b)"

    def test_tagged_sequence(self):
        assert render_term(Seq((TagConst((3, 3, 1)), Var("A")))) == "[3.3.1, A]"

    @given(terms())
    def test_round_trip(self, t):
        assert parse_term(render_term(t)) == t

    def test_round_trip_bulk(self):
        from taggedunify.oracle import GenConfig, _rng_for, gen_message

        cfg = GenConfig(seed=123)
        for i in range(10_000):
            t = gen_message(_rng_for(cfg, i), cfg)
            assert parse_term(render_term(t)) == t

    @given(terms())
    def test_lexical_classes_never_collide(self, t):
        # a rendered tag never reparses as a constant and vice versa
        again = parse_term(render_term(t))
        assert type(again) is type(t)


class TestSubstitutionText:
    def test_parse_single(self):
        got = parse_substitution("{ a/B }")
        assert got == Substitution({"B": Const("a")})

    def test_paper_style(self):
        got = parse_substitution("{ w/W, x/X, y/Y }")
        assert got.bindings == {"W": Const("w"), "X": Const("x"), "Y": Const("y")}

    def test_round_trip(self):
        s = Substitution({"A": Const("b"), "N_B": parse_term("xor(a, b)")})
        assert parse_substitution(render_substitution(s)) == s

    def test_empty(self):
        assert parse_substitution("{}").bindings == {}
        assert render_substitution(Substitution()) == "{}"

    def test_target_must_be_variable(self):
        with pytest.raises(ParseError):
            parse_substitution("{ a/b }")


class TestProblemFile:
    def test_entries_and_theory_suffix(self):
        pf = parse_problem_file("[1, a] ~? [1, B] @std\n")
        assert len(pf.entries) == 1
        assert pf.entries[0].theory is Theory.STD

    def test_header_sets_default(self):
        pf = parse_problem_file("theory: combined\na ~? b\n")
        assert pf.default_theory is Theory.COMBINED
        assert pf.entries[0].theory is Theory.COMBINED

    def test_empty_file(self):
        pf = parse_problem_file("")
        assert pf == ProblemFile()

    def test_sets_and_comments(self):
        src = "# protocol steps\nset msgs {\n  [1, a] + [2, b]  # step one\n  [A, B]\n}\n"
        pf = parse_problem_file(src)
        assert list(pf.sets) == ["msgs"]
        assert len(pf.sets["msgs"]) == 2

    def test_bare_terms(self):
        pf = parse_problem_file("a\n[1, B]\n")
        assert len(pf.terms) == 2

    def test_unclosed_set(self):
        with pytest.raises(ParseError):
            parse_problem_file("set x {\n a\n")

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_problem_file("a ~? xor(b)\n")
        assert "line 1" in str(err.value)

    def test_round_trip(self):
        pf = ProblemFile(
            entries=[
                Entry(parse_term("xor(a, X)"), parse_term("b"), Theory.ACUN),
                Entry(parse_term("[1, A]"), parse_term("[1, b]"), Theory.STD),
            ],
            sets={"msgs": [parse_term("[2.1, N_B, B]")]},
            terms=[parse_term("penc(A, pk(b))")],
            default_theory=Theory.COMBINED,
        )
        assert parse_problem_file(render_problem_file(pf)) == pf
