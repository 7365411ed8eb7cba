import pickle

import pytest
from hypothesis import given

from strategies import terms
from taggedunify.terms import ZERO, Const, Penc, Pk, Seq, TagConst, Theory, Var, Xor
from taggedunify.textfmt import (
    Entry,
    ParseError,
    ProblemFile,
    parse_problem_file,
    parse_term,
    render_problem_file,
    render_substitution,
    jsonable,
    render_term,
    rendered_length,
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


class TestRenderedLength:
    @given(terms())
    def test_is_the_text_length(self, t):
        memo: dict[int, int] = {}
        assert rendered_length(t, memo) == len(render_term(t))
        assert rendered_length(t, memo) == len(render_term(t))  # read from memo

    def test_measures_each_shared_node_once(self):
        t = Var("X")
        for _ in range(60):
            t = Seq((t, t))
        memo: dict[int, int] = {}
        # L(0) = 1 and L(k) = 2 L(k-1) + 4, the brackets and ", "
        assert rendered_length(t, memo) == 5 * 2**60 - 4
        assert len(memo) == 61


class TestSubstitutionText:
    def test_paper_style(self):
        s = Substitution({"Y": Const("y"), "W": Const("w"), "X": Const("x")})
        assert render_substitution(s) == "{ w/W, x/X, y/Y }"

    def test_empty(self):
        assert render_substitution(Substitution()) == "{}"


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


class TestRecords:
    """Reports and configurations: fields, defaults, equality, hashability,
    repr and the JSON form."""

    def test_frozen_config(self):
        from taggedunify.bsca import BscaConfig

        cfg = BscaConfig()
        assert repr(cfg) == (
            "BscaConfig(max_partition_vars=9, max_branches=100000, prune=True, "
            "first_only=False, keep_traces=True)"
        )
        assert BscaConfig(9, first_only=True) == cfg.replace(first_only=True) != cfg
        assert hash(BscaConfig()) == hash(cfg)
        with pytest.raises(AttributeError):
            cfg.prune = False
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        with pytest.raises(TypeError, match=r"^BscaConfig\.__init__\(\) got an unexpected "
                           "keyword argument 'full_identification'$"):
            BscaConfig(full_identification=True)
        with pytest.raises(TypeError):
            BscaConfig(1, 2, True, True, True, True)
        with pytest.raises(TypeError):
            BscaConfig(1, max_partition_vars=2)

    def test_each_class_writes_its_own_methods(self):
        import taggedunify.oracle  # noqa: F401  (loads every module that defines records)
        from taggedunify.terms import Frozen, Record

        classes, todo = set(), [Record]
        while todo:
            for sub in todo.pop().__subclasses__():
                classes.add(sub)
                todo.append(sub)
        assert len(classes) >= 27
        for cls in classes:
            own = vars(cls)
            assert "__init__" in own and "__eq__" in own, cls
            assert ("__hash__" in own) == issubclass(cls, Frozen), cls
            assert own["__eq__"].__qualname__ == f"{cls.__qualname__}.__eq__"
        # the base writes none of them, and a mutable record is unhashable
        assert "__init__" not in vars(Record) and "__eq__" not in vars(Record)
        assert Record.__hash__ is None

    def test_mutable_report(self):
        from taggedunify.bsca import CombinedResult

        a, b = CombinedResult([]), CombinedResult([])
        a.traces.append(None)
        assert b.traces == [] and a != b
        a.unifiers = [Substitution()]
        assert repr(a) == "CombinedResult(unifiers=[Substitution({})], traces=[None])"
        with pytest.raises(TypeError):
            hash(b)
        with pytest.raises(TypeError, match=r"^CombinedResult\.__init__\(\) missing"):
            CombinedResult()

    def test_jsonable_dnut_report(self):
        from taggedunify.dnut import dnut_check

        report = dnut_check([parse_term("xor([1, A], [1, b], 0)")])
        assert jsonable(report) == {
            "satisfied": False,
            "violations": [
                {"condition": 1, "witness": ["[1, A]", "[1, b]"],
                 "enclosing": ["xor([1, A], [1, b], 0)"]},
                {"condition": 3, "witness": ["0"], "enclosing": ["xor([1, A], [1, b], 0)"]},
            ],
        }

    def test_jsonable_bsca_trace(self):
        from taggedunify.bsca import unify_combined

        problem = Entry(parse_term("[X, xor(Y, a)]"), parse_term("[b, c]"), Theory.COMBINED)
        trace = unify_combined([problem.problem]).traces[6]

        def problems(*pairs):
            return [{"lhs": lhs, "rhs": rhs} for lhs, rhs in pairs]

        assert jsonable(trace) == {
            "gamma0": problems(("[X, xor(Y, a)]", "[b, c]")),
            "gamma1": problems(("W", "a"), ("Z", "xor(Y, W)"), ("[X, Z]", "[b, c]")),
            "gamma2": problems(("W", "a"), ("Z", "xor(Y, W)"), ("[X, Z]", "[b, c]")),
            "var_id_partition": [["W"], ["X"], ["Y"], ["Z"]],
            "gamma3": problems(("W", "a"), ("Z", "xor(Y, W)"), ("[X, Z]", "[b, c]")),
            "gamma41": problems(("W", "a"), ("[X, Z]", "[b, c]")),
            "gamma42": problems(("Z", "xor(Y, W)")),
            "var_split": [["W", "X", "Z"], ["Y"]],
            "beta": {"W": "w", "Z": "z"},
            "gamma51": problems(("W", "a"), ("[X, Z]", "[b, c]")),
            "gamma52": problems(("z", "xor(Y, w)")),
            "linear_order": ["W", "X", "Z", "Y"],
            "sigma1": {"W": "a", "X": "b", "Z": "c"},
            "sigma2": {"Y": "xor(w, z)"},
            "combined": {"X": "b", "Y": "xor(a, c)"},
        }

    def test_jsonable_theorem_report(self):
        from taggedunify.oracle import check_theorem

        report = check_theorem(
            [parse_term("[1, A]"), parse_term("xor([2, b], [3, B])"), parse_term("[1, b]")]
        )

        def pair(lhs, rhs, unifiable):
            return {"lhs": lhs, "rhs": rhs, "combined": unifiable, "free": unifiable,
                    "free_unordered": unifiable, "non_sequence": False}

        assert jsonable(report) == {
            "dnut_satisfied": True,
            "pairs": [
                pair("[1, b]", "[1, A]", True),
                pair("[1, b]", "xor([2, b], [3, B])", False),
                pair("[1, A]", "xor([2, b], [3, B])", False),
            ],
            "counterexamples": [],
            "premise_fail_equational": [],
            "incomplete": [],
        }
