"""The command-line checker: scripts, exit codes, exports, and the repl."""

import gc
import io
import os
import re
import subprocess
import sys
import types

import pytest

import cqe
from cqe import kernel, logic, session
from cqe.cli import RULE_SIGS, Runner, _parser, _rule_sigs, main
from cqe.errors import ScriptError
from cqe.syntax import HolType, Term

import fuzz_scripts

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "src", "cqe", "scripts")


def script(name):
    return os.path.join(SCRIPTS, name)


def write(tmp_path, text):
    p = tmp_path / "script.cqe"
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["check", "--help"], 0), ([], 2), (["check"], 2),
     (["export", "x.cqe"], 2), (["export", "x.cqe", "--out", "o", "--format", "xml"], 2)],
    ids=["help", "check_help", "no_command", "no_file", "no_out", "bad_format"],
)
def test_the_parser_is_built_once_and_answers_alike(argv, code, capsys):
    assert _parser() is _parser()
    answers = []
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            main(argv)
        answers.append((e.value.code, capsys.readouterr()))
    fresh = _parser.__wrapped__()  # a parser built anew, as every call once did
    with pytest.raises(SystemExit) as e:
        fresh.parse_args(argv)
    answers.append((e.value.code, capsys.readouterr()))
    assert answers[0][0] == code and answers[0] == answers[1] == answers[2]


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


SHIPPED = ["lem.cqe", "lem_instance.cqe", "peano.cqe", "presburger.cqe"]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scripts_pass(name, capsys):
    assert main(["check", script(name)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def _live_nodes():
    gc.collect()
    live = gc.get_objects()
    return sum(isinstance(o, Term) for o in live), sum(isinstance(o, HolType) for o in live)


def test_checking_scripts_leaves_no_node_alive_after_reset(capsys):
    # a session's intern tables go with it; nothing else may keep its nodes
    def check_all():
        for name in SHIPPED:
            assert main(["check", script(name)]) == 0
        session.reset()

    check_all()
    warm = _live_nodes()
    for _ in range(10):
        check_all()
    assert _live_nodes() == warm


def test_check_counts_commands_and_checks(tmp_path, capsys):
    path = write(
        tmp_path,
        """
        # a comment line
        thm r := (REFL `T`)
        check r matches `T = T`
        echo all done
        """,
    )
    assert main(["check", path]) == 0
    out = capsys.readouterr().out
    assert "all done" in out
    # checks are tallied separately from the other commands
    assert "ok: 2 commands, 1 checks" in out


def test_trace_prints_each_theorem(tmp_path, capsys):
    path = write(tmp_path, "thm r := (REFL `T`)\n")
    assert main(["check", "--trace", path]) == 0
    assert "|- T = T" in capsys.readouterr().out


def test_constant_axiom_define_register(tmp_path, capsys):
    path = write(
        tmp_path,
        """
        constant won : bool
        axiom won_ax := `won`
        define loses := `~won`
        thm a := (ASSUME `loses`)
        thm b := (SYM loses)
        check b matches `(~won) = loses`
        """,
    )
    assert main(["check", path]) == 0


def test_inst_type_instantiates_a_bootstrap_type_variable(tmp_path, capsys):
    path = write(
        tmp_path,
        """
        thm a := (INST_TYPE `'A` `num` FORALL_DEF)
        check a matches `(!):((num->bool)->bool) = (\\P:(num->bool). P = (\\x:num. T))`
        """,
    )
    assert main(["check", path]) == 0


# ---------------------------------------------------------------------------
# failure modes and exit codes
# ---------------------------------------------------------------------------


def test_missing_file_is_exit_2(capsys):
    assert main(["check", "/nonexistent/nowhere.cqe"]) == 2
    assert "cqe:" in capsys.readouterr().err


def test_non_utf8_script_is_exit_2(tmp_path, capsys):
    p = tmp_path / "script.cqe"
    p.write_bytes(b"echo hi\n\xff\n")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cqe:") and "Traceback" not in err


def test_failed_check_is_exit_1(tmp_path, capsys):
    path = write(
        tmp_path,
        "thm r := (REFL `T`)\ncheck r matches `F = F`\n",
    )
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "error" in err and ":2:" in err


def test_check_refuses_a_theorem_with_hypotheses(tmp_path, capsys):
    path = write(tmp_path, "thm a := (ASSUME `p:bool`)\ncheck a matches `p:bool`\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err == f"{path}:2: error: check a: theorem still has hypotheses: p:bool |- p:bool\n"


def test_parse_error_reports_line(tmp_path, capsys):
    path = write(tmp_path, "thm r := (REFL `T /\\`)\n")
    assert main(["check", path]) == 1
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "term",
    [
        " /\\ ".join(["(v0:num = v0)"] * 1000),
        "(" * 1500 + "T" + ")" * 1500,
    ],
    ids=["1000-conjuncts", "1500-parentheses"],
)
def test_too_deep_input_is_a_typed_error(tmp_path, capsys, term):
    path = write(tmp_path, f"thm r := (REFL `{term}`)\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:1: error:" in err
    assert "Traceback" not in err


def test_an_error_in_a_long_text_quotes_its_start_only(tmp_path):
    term = " /\\ ".join(["(v0:num = v0)"] * 1000)
    path = write(tmp_path, f"thm r := (REFL `{term}`)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cqe.__file__)))
    run = subprocess.run(  # a fresh process, as users run it
        [sys.executable, "-m", "cqe.cli", "check", path],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr == f"{path}:1: error: in `{term[:57]}...`: input is nested too deeply\n"
    assert len(run.stderr.encode()) - len(path) < 200


def test_the_binder_probe_checks_at_400_binders(tmp_path, monkeypatch):
    # fresh processes, as users run them: substitution under 400 binders fits
    # the default recursion limit, and at 500 the reader refuses line 1
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
    import workloads

    src = os.path.dirname(os.path.dirname(os.path.abspath(cqe.__file__)))
    for n in (400, 500):
        path = write(tmp_path, workloads.probe_binders(n).text)
        run = subprocess.run(
            [sys.executable, "-m", "cqe.cli", "check", path],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        if n == 400:
            assert run.returncode == 0 and run.stderr == "", run.stderr[-300:]
            assert run.stdout.endswith("ok: 5 commands, 1 checks\n")
        else:
            assert run.returncode == 1 and run.stdout == ""
            assert run.stderr.startswith(f"{path}:1: error: in `!x1:num. !x2:num.")
            assert run.stderr.endswith("`: input is nested too deeply\n")


def test_a_theorem_nested_too_deeply_by_rules_is_a_typed_error(tmp_path, capsys):
    # each line puts the theorem under one more binder; no text is deep, but
    # substitution under some 500 binders exceeds the recursion limit
    lines = ["thm a0 := (ASSUME `p:bool`)"]
    lines += [f"thm a{i} := (INST `p:bool` `!x:num. p` a{i - 1})" for i in range(1, 540)]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert main(["check", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(rf"{re.escape(path)}:\d+: error: input is nested too deeply\n", err)


def test_nested_parentheses_within_the_depth_limit_check(tmp_path, capsys):
    term = "(" * 400 + "T" + ")" * 400
    path = write(tmp_path, f"thm r := (REFL `{term}`)\ncheck r matches `T = T`\n")
    assert main(["check", path]) == 0
    assert "ok: 2 commands, 1 checks" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["sexp", "json-like"])
def test_export_of_a_too_deep_theorem_is_a_typed_error(tmp_path, capsys, fmt):
    out = str(tmp_path / "out.txt")
    # export takes every theorem that check reads from one text
    for n in (500, 900):
        conj = " /\\ ".join(["(v0:num = v0)"] * n)
        path = write(tmp_path, f"thm r := (REFL `{conj}`)\n")
        assert main(["check", path]) == 0
        assert main(["export", path, "--out", out, "--format", fmt]) == 0
        capsys.readouterr()
    # INST builds a theorem deeper than any text check reads
    conj = " /\\ ".join(["(v0:num = v0)"] * 600)
    path = write(
        tmp_path,
        f"# deep\nthm r := (REFL `{conj} /\\ p:bool`)\nthm d := (INST `p:bool` `{conj}` r)\n",
    )
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["export", path, "--out", out, "--format", fmt]) == 1
    err = capsys.readouterr().err
    assert err == f"{path}:3: error: input is nested too deeply\n"



def test_a_constant_without_a_construction_value_is_refused(tmp_path, capsys):
    # kax is satisfiable, so a verdict on k would let SUBS prove F
    path = write(
        tmp_path,
        "constant k : epsilon\n"
        "axiom kax := `k = Q_ T _Q`\n"
        'thm no := (IS_EXPR_TYPE_CONV `k` `TyBase "bool"`)\n'
        'thm yes := (IS_EXPR_TYPE_CONV `Q_ T _Q` `TyBase "bool"`)\n'
        "thm f := (MP (NOT_ELIM (SUBS kax no)) yes)\n"
        "check f matches `F`\n",
    )
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:3: error: IS_EXPR_TYPE_CONV: NotAConstruction: ")


def test_a_constant_not_yet_declared_is_refused(tmp_path, capsys):
    # declaring k later would flip a verdict made now
    path = write(
        tmp_path,
        'thm no := (IS_EXPR_TYPE_CONV `QuoConst "k" (TyBase "bool")` `TyBase "bool"`)\n'
        "constant k : bool\n"
        'thm yes := (IS_EXPR_TYPE_CONV `QuoConst "k" (TyBase "bool")` `TyBase "bool"`)\n'
        "thm f := (MP (NOT_ELIM no) yes)\n"
        "check f matches `F`\n",
    )
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:1: error: IS_EXPR_TYPE_CONV: UnknownName: ")


def test_eq_mp_refuses_an_equation_whose_left_side_is_not_the_theorem(tmp_path, capsys):
    # F = F read against |- T: without the check this proves F
    path = write(tmp_path, "thm bad := (EQ_MP (REFL `F`) TRUTH)\ncheck bad matches `F`\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:1: error: EQ_MP: WrongShape: ")


def test_an_arithmetic_predicate_with_a_free_variable_is_refused(tmp_path, capsys):
    path = write(
        tmp_path,
        "thm a := (IS_PEANO_CONV `Q_ \\m:num. m = n:num _Q`)\n"
        "check a matches `isPeano Q_ \\m:num. m = n:num _Q`\n",
    )
    assert main(["check", path]) == 1
    assert "cqe:2: error: check a: conclusion is ~isPeano" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, word",
    [("constant x:y : bool\n", "constant"), ("define a.b := `T`\n", "define")],
    ids=["constant", "define"],
)
def test_a_declared_name_must_be_an_identifier(tmp_path, capsys, text, word):
    # neither name could be mentioned by a term or printed so that it parses
    path = write(tmp_path, text)
    assert main(["check", "--trace", path]) == 1
    assert capsys.readouterr().err == f"{path}:1: error: malformed {word} command\n"


@pytest.mark.parametrize(
    "term",
    [
        'eval (App (Abs (QuoVar "y" (TyVar "A")) (QuoConst "T" (TyBase "bool")))'
        ' (QuoVar "z" (TyVar "A"))) to bool',
        "eval (QuoVar \"x\" (TyVar \"A\")) to 'A",
    ],
    ids=["beta", "atom"],
)
def test_a_type_variable_name_without_a_quote_denotes_nothing(tmp_path, capsys, term):
    path = write(tmp_path, f"thm b := (EVAL_CONV `{term}`)\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:1: error: EVAL_CONV: Improper: ")


@pytest.mark.parametrize("name", ["a b", "eval"], ids=["space", "keyword"])
def test_a_variable_name_that_does_not_lex_as_one_denotes_nothing(tmp_path, capsys, name):
    quoted = f'QuoVar "{name}" (TyBase "bool")'
    path = write(tmp_path, f"thm b := (EVAL_CONV `eval ({quoted}) to bool`)\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:1: error: EVAL_CONV: Improper: ")
    path = write(tmp_path, f"thm e := (IS_EXPR_TYPE_CONV `{quoted}` `TyBase \"bool\"`)\n")
    assert main(["check", "--trace", path]) == 0
    assert f'|- ~isExprType ({quoted}) (TyBase "bool")' in capsys.readouterr().out


def test_unknown_rule_rejected(tmp_path, capsys):
    path = write(tmp_path, "thm r := (FROBNICATE `T`)\n")
    assert main(["check", path]) == 1
    assert "FROBNICATE" in capsys.readouterr().err


def test_wrong_arity_rejected(tmp_path, capsys):
    path = write(tmp_path, "thm r := (REFL `T` `F`)\n")
    assert main(["check", path]) == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("thm a := (REFL $)", "bad character '$' in proof expression"),
        ("thm a := (REFL 1x)", "bad character '1' in proof expression"),
        ("thm a := (REFL (SYM TRUTH)", "unclosed '(' in proof expression"),
        ("thm a := (REFL `T`) (SYM a)", "trailing input after proof expression"),
        ("thm a := (REFL `T`) )", "trailing input after proof expression"),
        ("thm a := (REFL `T`)x", "trailing input after proof expression"),
        ("thm a := (REFL `T`", "unclosed '(' in proof expression"),
        ("thm a := ()", "expected a rule name after '('"),
        ("thm a := (`T`)", "expected a rule name after '('"),
        ("thm a := (REFL ())", "expected a rule name after '('"),
        ("thm a := (REFL `T` `F`)", "REFL takes 1 arguments, got 2"),
        ("thm a := (DISQUO)", "DISQUO takes 1 to 2 arguments, got 0"),
        ("thm a := (MP (REFL `T`) (SYM (REFL)))", "REFL takes 1 arguments, got 0"),
        ("thm a := (SYM `T`)", "SYM: expected a theorem, got `T`"),
        ("thm a := (REFL TRUTH)", "REFL: expected a quoted term"),
        ("thm a := (ASSUME (REFL `T`))", "ASSUME: expected a quoted term"),
        ("thm a := (INST (REFL `T`) `T` TRUTH)", "INST: expected a quoted variable"),
        ("thm a := (FROBNICATE `T`)", "unknown rule 'FROBNICATE'"),
        ("thm a := (SYM missing)", "no theorem named 'missing'"),
        ("check missing matches `T`", "no theorem named 'missing'"),
        ("register_nei missing", "no theorem named 'missing'"),
        ("thm a := (GEN `T` TRUTH)", "GEN: expected a variable, got T"),
        ("thm a := (INST `p:bool` `T` `q:bool` TRUTH)",
         "INST takes variable/replacement pairs and then a theorem"),
        ("thm a := (INST_TYPE `bool` `num` TRUTH)", "INST_TYPE: expected a type variable, got bool"),
        ("thm a := (REFL `T /\\`)", "in `T /\\`: expected a term (at 'end of input', 1:4)"),
        ("thm a := (INST_TYPE `'A` `nosuch` TRUTH)",
         "in `nosuch`: unknown type constructor: 'nosuch' (at 'nosuch', 1:0)"),
        # two faults: the one found first wins
        ("thm a := (() $)", "bad character '$' in proof expression"),
        ("thm a := (REFL `(T)`) (SYM $)", "bad character '$' in proof expression"),
        ("thm a := ((REFL `T`) x)", "expected a rule name after '('"),
    ],
)
def test_a_proof_expression_error_names_its_fault(tmp_path, capsys, line, message):
    path = write(tmp_path, line + "\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"{path}:1: error: {message}\n"


def test_token_mutants_of_the_shipped_scripts_exit_cleanly(tmp_path):
    # no traceback and no exit code but 0, 1 or 2; export runs what check
    # runs, so the two agree, and some mutants still pass
    codes = [fuzz_scripts.run(seed, tmp_path) for seed in range(500)]
    assert set(codes) == {(0, 0), (1, 1)}


def test_duplicate_theorem_name_rejected(tmp_path, capsys):
    path = write(
        tmp_path, "thm r := (REFL `T`)\nthm r := (REFL `F`)\n"
    )
    assert main(["check", path]) == 1
    assert "already" in capsys.readouterr().err


_DECLARATIONS = {
    "axiom": "axiom {} := `F`",
    "define": "define {} := `T`",
    "thm": "thm {} := (REFL `T`)",
}


@pytest.mark.parametrize("again", list(_DECLARATIONS))
@pytest.mark.parametrize("first", [None, *_DECLARATIONS], ids=["bootstrap", *_DECLARATIONS])
def test_a_name_is_bound_once(tmp_path, capsys, first, again):
    # a bootstrap theorem's name, or one a script's own declaration bound,
    # refuses every declaration of it, which then declares nothing
    name = "EXCLUDED_MIDDLE" if first is None else "n"
    lines = [_DECLARATIONS[k].format(name) for k in (first, again) if k]
    path = write(tmp_path, "\n".join(lines) + "\n")
    assert main(["check", path]) == 1
    prefix = "DuplicateName: " if again == "axiom" else ""
    message = f"{prefix}theorem name already used: {name!r}"
    assert capsys.readouterr().err == f"{path}:{len(lines)}: error: {message}\n"
    session.reset()
    runner = Runner(quiet=True)
    runner.run_text("\n".join(lines[:-1]))
    s = session.current()
    before = dict(s.constants), dict(s.theorems)
    with pytest.raises(ScriptError):
        runner.command(lines[-1], len(lines))
    assert (s.constants, s.theorems) == before


def test_unknown_theorem_reference(tmp_path, capsys):
    path = write(tmp_path, "thm a := (SYM missing)\n")
    assert main(["check", path]) == 1


def test_blocked_substitution_suggests_registration(tmp_path, capsys):
    path = write(
        tmp_path,
        "thm ind := (SPEC `P:(num->bool)` num_INDUCTION)\n"
        "thm bad := (INST `P:(num->bool)` `eval f:epsilon to (num->bool)` ind)\n",
    )
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "register_nei" in err


def test_an_assumed_not_effective_fact_is_not_registered(tmp_path, capsys):
    # registered, the assumption would vanish from peano's hypotheses
    with open(script("peano.cqe"), encoding="utf-8") as f:
        text = f.read()
    axiom = re.search(r"^axiom nei_peano := (`.*`)$", text, re.M)
    text = text.replace(axiom[0], f"thm nei_peano := (ASSUME {axiom[1]})")
    path = write(tmp_path, text)
    assert main(["check", path]) == 1
    line = text[: text.index("register_nei")].count("\n") + 1
    err = capsys.readouterr().err
    assert err.startswith(f"{path}:{line}: error: ") and "WrongShape" in err


@pytest.mark.parametrize(
    "statement, reason",
    [("T", "expected a negation"), ("~T", "expected a '?' binder")],
    ids=["no_negation", "no_binder"],
)
def test_register_nei_refuses_a_statement_off_the_shape(tmp_path, capsys, statement, reason):
    path = write(tmp_path, f"axiom a := `{statement}`\nregister_nei a\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err.startswith(f"{path}:2: error: WrongShape: {reason}")


def test_register_nei_unblocks(tmp_path, capsys):
    path = write(
        tmp_path,
        """
        thm ind := (SPEC `P:(num->bool)` num_INDUCTION)
        axiom nei := `~(?y:num. ~((\\n:num. eval f:epsilon to (num->bool)) y = eval f:epsilon to (num->bool)))`
        register_nei nei
        thm ok := (INST `P:(num->bool)` `eval f:epsilon to (num->bool)` ind)
        """,
    )
    assert main(["check", path]) == 0


# ---------------------------------------------------------------------------
# argument coercion
# ---------------------------------------------------------------------------


def test_rule_table_covers_kernel_and_derived_rules():
    for name in ("REFL", "TRANS", "LAW_OF_QUO", "BETA_REVAL", "SPEC", "MP",
                 "EVAL_CONV", "IS_PEANO_CONV"):
        assert name in RULE_SIGS
    # the pair-list instantiators are dispatched separately
    assert "INST" not in RULE_SIGS and "INST_TYPE" not in RULE_SIGS


TERM, TYPE, VAR, THM = "term", "type", "variable", "theorem"

# The script-rule table as written by hand before the checker read it off the
# rules' annotations: name -> (callable, argument kinds, minimum arity).
REFERENCE_RULE_SIGS = {
    # kernel
    "REFL": (kernel.REFL, [TERM], 1),
    "TRANS": (kernel.TRANS, [THM, THM], 2),
    "MK_COMB": (kernel.MK_COMB, [THM, THM], 2),
    "ABS": (kernel.ABS, [VAR, THM], 2),
    "BETA": (kernel.BETA, [TERM], 1),
    "ASSUME": (kernel.ASSUME, [TERM], 1),
    "EQ_MP": (kernel.EQ_MP, [THM, THM], 2),
    "DEDUCT_ANTISYM": (kernel.DEDUCT_ANTISYM, [THM, THM], 2),
    "LAW_OF_QUO": (kernel.LAW_OF_QUO, [TERM], 1),
    "QUO_STEP": (kernel.QUO_STEP, [TERM], 1),
    "DISQUO": (kernel.DISQUO, [TERM, TYPE], 1),
    "APP_SPLIT": (kernel.APP_SPLIT, [TERM, TERM, TYPE, TYPE], 4),
    "ABS_SPLIT": (kernel.ABS_SPLIT, [VAR, TERM, TYPE], 3),
    "QUOTABLE": (kernel.QUOTABLE, [TERM], 1),
    "BETA_REVAL": (kernel.BETA_REVAL, [VAR, TERM, TERM, TYPE], 4),
    "NOT_FREE_OR_EFFECTIVE_IN": (kernel.NOT_FREE_OR_EFFECTIVE_IN, [VAR, TERM], 2),
    "NEITHER_EFFECTIVE": (kernel.NEITHER_EFFECTIVE, [VAR, VAR, TERM, TERM], 4),
    # derived
    "VAR_DISQUO": (logic.VAR_DISQUO, [TERM], 1),
    "CONST_DISQUO": (logic.CONST_DISQUO, [TERM], 1),
    "BETA_EVAL": (logic.BETA_EVAL, [VAR, TERM, TYPE], 3),
    "SYM": (logic.SYM, [THM], 1),
    "AP_TERM": (logic.AP_TERM, [TERM, THM], 2),
    "AP_THM": (logic.AP_THM, [THM, TERM], 2),
    "BETA_CONV": (logic.BETA_CONV, [TERM], 1),
    "PROVE_HYP": (logic.PROVE_HYP, [THM, THM], 2),
    "EQT_INTRO": (logic.EQT_INTRO, [THM], 1),
    "EQT_ELIM": (logic.EQT_ELIM, [THM], 1),
    "SUBS": (logic.SUBS, [THM, THM], 2),
    "MP": (logic.MP, [THM, THM], 2),
    "CONJ": (logic.CONJ, [THM, THM], 2),
    "CONJUNCT1": (logic.CONJUNCT1, [THM], 1),
    "CONJUNCT2": (logic.CONJUNCT2, [THM], 1),
    "DISCH": (logic.DISCH, [TERM, THM], 2),
    "UNDISCH": (logic.UNDISCH, [THM], 1),
    "SPEC": (logic.SPEC, [TERM, THM], 2),
    "GEN": (logic.GEN, [VAR, THM], 2),
    "DISJ1": (logic.DISJ1, [THM, TERM], 2),
    "DISJ2": (logic.DISJ2, [TERM, THM], 2),
    "DISJ_CASES": (logic.DISJ_CASES, [THM, THM, THM], 3),
    "NOT_INTRO": (logic.NOT_INTRO, [THM], 1),
    "NOT_ELIM": (logic.NOT_ELIM, [THM], 1),
    # trusted decision conversions
    "IS_EXPR_TYPE_CONV": (logic.IS_EXPR_TYPE_CONV, [TERM, TERM], 2),
    "IS_FREE_IN_CONV": (logic.IS_FREE_IN_CONV, [TERM, TERM], 2),
    "EVAL_CONV": (logic.EVAL_CONV, [TERM], 1),
    "IS_PEANO_CONV": (logic.IS_PEANO_CONV, [TERM], 1),
    "IS_PRESBURGER_CONV": (logic.IS_PRESBURGER_CONV, [TERM], 1),
}


def test_derived_rule_table_matches_the_reference():
    assert RULE_SIGS.keys() == REFERENCE_RULE_SIGS.keys()
    for name, (fn, kinds, least) in REFERENCE_RULE_SIGS.items():
        got_fn, got_kinds, got_least = RULE_SIGS[name]
        assert got_fn is fn, name
        assert (list(got_kinds), got_least) == (kinds, least), name


def test_a_rule_parameter_without_a_script_kind_is_refused():
    def BAD(th: "Theorem", n: "int") -> "Theorem":
        return th

    def BARE(th) -> "Theorem":
        return th

    for fn in (BAD, BARE):
        mod = types.ModuleType("rules")
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
        with pytest.raises(TypeError, match=fn.__name__):
            _rule_sigs(mod)


@pytest.mark.parametrize(
    "text, message",
    [
        ("axiom a := `!x:'A. x = x`\nthm b := (SPEC `T` a)\n",
         "operand type bool does not match operator domain 'A\n"),
        ("thm r := (REFL `Q_ x:'A _Q`)\nthm b := (INST_TYPE `'A` `bool` r)\n",
         "type instantiation of 'A would alter a quotation\n"),
    ],
    ids=["spec", "inst-type"],
)
def test_errors_print_a_parsed_type_variable_with_one_quote(
    tmp_path, capsys, text, message
):
    assert main(["check", write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(message) and "''A" not in err


def test_type_argument_coercion(tmp_path):
    path = write(
        tmp_path,
        "thm b := (BETA_REVAL `x:epsilon` `x:epsilon` `Q_ T _Q` `bool`)\n",
    )
    assert main(["check", path]) == 0


def test_var_argument_must_be_variable(tmp_path, capsys):
    path = write(tmp_path, "thm g := (GEN `T` TRUTH)\n")
    assert main(["check", path]) == 1
    assert "variable" in capsys.readouterr().err.lower()


def test_inst_takes_pair_lists(tmp_path, capsys):
    path = write(
        tmp_path,
        "thm i := (INST `p:bool` `T` `q:bool` EXCLUDED_MIDDLE)\n",
    )
    assert main(["check", path]) == 1
    assert "pairs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_sexp_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.sexp"
    out2 = tmp_path / "b.sexp"
    assert main(["export", script("lem.cqe"), "--out", str(out1)]) == 0
    assert main(["export", script("lem.cqe"), "--out", str(out2)]) == 0
    d1 = out1.read_bytes()
    assert d1 == out2.read_bytes()
    assert d1.endswith(b"\n")
    text = d1.decode()
    assert text.count('("theorem" ') == text.count("\n")
    # replaying the same source yields byte-identical output even after
    # unrelated session work
    session.reset()
    Runner(quiet=True).run_text("thm extra := (REFL `T`)")
    out3 = tmp_path / "c.sexp"
    assert main(["export", script("lem.cqe"), "--out", str(out3)]) == 0
    assert out3.read_bytes() == d1


def test_export_json_like(tmp_path, capsys):
    out = tmp_path / "a.json"
    rc = main(
        ["export", script("lem.cqe"), "--out", str(out), "--format", "json-like"]
    )
    assert rc == 0
    body = out.read_text()
    assert '"theorem"' in body and '"lem"' in body


def test_export_includes_provenance(tmp_path, capsys):
    out = tmp_path / "p.sexp"
    assert main(["export", script("peano.cqe"), "--out", str(out)]) == 0
    body = out.read_text()
    assert "nei_peano" in body  # axiom provenance is recorded
    assert '("trusted"' in body


# Exports of the shipped scripts as written before the kernel lost its derived
# rules; regenerate a file with
#   PYTHONPATH=src python -m cqe.cli export src/cqe/scripts/S.cqe --format F --out tests/golden/S.F
# only when a change to an export is intended.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt", ["sexp", "json-like"])
@pytest.mark.parametrize("name", ["lem", "lem_instance", "peano", "presburger"])
def test_shipped_exports_match_the_goldens(tmp_path, capsys, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    argv = ["export", script(f"{name}.cqe"), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, f"{name}.{fmt}"), "rb") as fh:
        assert out.read_bytes() == fh.read()


# ---------------------------------------------------------------------------
# repl
# ---------------------------------------------------------------------------


def test_repl_session(monkeypatch, capsys):
    lines = io.StringIO(
        "thm r := (REFL `T`)\naxiom z := `T`\n:state\n:thms\n:quit\n"
    )
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "|- T = T" in out
    # the ten bootstrap axioms and z; r rests on none
    assert " constants, 11 axioms, " in out
    assert "r" in out.splitlines()[-2:][0] or "r" in out


def test_repl_recovers_from_errors(monkeypatch, capsys):
    lines = io.StringIO("thm bad := (REFL)\nthm r := (REFL `T`)\n:quit\n")
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl"]) == 0
    out = capsys.readouterr().out
    assert "error" in out
    assert "|- T = T" in out


def test_repl_load(monkeypatch, capsys):
    lines = io.StringIO(":quit\n")
    monkeypatch.setattr("sys.stdin", lines)
    assert main(["repl", "--load", script("lem.cqe")]) == 0
    assert "lem" in capsys.readouterr().out


def test_repl_load_reports_an_error_and_keeps_what_came_before(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "thm r := (REFL `T`)\nthm s := (SYM q)\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(":thms\n:quit\n"))
    assert main(["repl", "--load", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == f"{path}:2: error: no theorem named 'q'"
    assert "r" in out[3:] and "s" not in out[3:]


# ---------------------------------------------------------------------------
# runner internals
# ---------------------------------------------------------------------------


def test_runner_comments_respect_backticks():
    runner = Runner(quiet=True)
    runner.run_text('thm r := (ASSUME `isPeano Q_ T _Q = F`)  # trailing note\n')
    assert "r" in session.current().theorems


def test_runner_raises_script_error_with_line():
    runner = Runner(quiet=True)
    with pytest.raises(ScriptError) as info:
        runner.run_text("\n\nthm r := (REFL `T` )\nnonsense command\n")
    assert info.value.line == 4


def test_importing_cqe_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast, dis and tokenize: startup cost that
    # every `cqe check` process would pay
    src = os.path.dirname(os.path.dirname(os.path.abspath(cqe.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cqe; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "False\n"
