from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import compderiv.cli as cli
from compderiv.cli import decimal_string, main
from compderiv.partitions import enumerate_multiplicity_vectors, multinomial_weight
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- derive -----------------------------------------------------------------------

def test_derive_expression_inputs(capsys):
    code, out, err = run(
        capsys, "derive", "--phi", "x^2", "--psi", "y+1", "--at", "0", "-n", "2"
    )
    assert code == 0
    assert out == "2\n"


def test_derive_sequence_inputs(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3",
    )
    assert code == 0
    assert out == "15\n"

    # A result longer than the 4300 digits an input literal may have.
    nines = '{"derivs":[%s]}' % ("9" * 4300)
    for extra, expected in [((), ""), (("--decimal", "1"), ".0")]:
        code, out, err = run(
            capsys,
            "derive", "--phi-derivs", nines, "--psi-derivs", '{"derivs":[10]}', "-n", "1",
            *extra,
        )
        assert (code, err) == (0, "")
        assert out == "9" * 4300 + "0" + expected + "\n"


def test_derive_methods_agree_in_json(capsys):
    common = [
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3",
        "--json",
    ]
    code, out, _ = run(capsys, *common)
    first = json.loads(out)
    code2, out2, _ = run(capsys, *common, "--method", "determinant")
    second = json.loads(out2)
    assert code == code2 == 0
    assert first == {"n": 3, "method": "partition", "value": "15"}
    assert second == {"n": 3, "method": "determinant", "value": "15"}
    assert {k: v for k, v in first.items() if k != "method"} == {
        k: v for k, v in second.items() if k != "method"
    }


def test_derive_method_all_expression_inputs(capsys):
    code, out, _ = run(
        capsys,
        "derive", "--phi", "x^3 + x", "--psi", "2*y^2 + y", "--at", "1",
        "-n", "4", "--method", "all", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert set(payload["values"]) == {
        "partition", "bell", "determinant", "series", "symbolic"
    }
    assert len(set(payload["values"].values())) == 1


def test_derive_output_bytes_on_expression_input(capsys):
    # --method symbolic reads only the parsed expressions; one route's --json
    # carries --show-expansion and --decimal; --method all's --json carries
    # one decimal per route.
    common = ["derive", "--phi", "x^3+x", "--psi", "2*y^2+y", "--at", "1/2", "-n", "4"]
    symbolic = run(capsys, *common, "--method", "symbolic")
    assert symbolic == (0, "1584\n", "")
    assert run(
        capsys, *common, "--method", "determinant", "--show-expansion", "--json", "--decimal", "2"
    ) == (
        0,
        '{"n": 4, "method": "determinant", "value": "1584", '
        '"expansion": "-81*Phi^4 - 216*Phi^3 - 48*Phi^2", "decimal": "1584.00"}\n',
        "",
    )
    code, out, err = run(capsys, *common, "--method", "all", "--json", "--decimal", "3")
    routes = ["partition", "bell", "determinant", "series", "symbolic"]
    assert (code, err) == (0, "")
    assert out == (
        '{"n": 4, "method": "all", "values": {'
        + ", ".join(f'"{m}": "1584"' for m in routes)
        + '}, "agree": true, "decimal": {'
        + ", ".join(f'"{m}": "1584.000"' for m in routes)
        + "}}\n"
    )
    assert json.loads(out)["values"]["symbolic"] + "\n" == symbolic[1]


def test_derive_method_all_sequence_inputs_excludes_expr_routes(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3", "--method", "all", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["values"]) == {"partition", "bell", "determinant", "series"}


def test_derive_series_requires_expressions(capsys):
    # Only the symbolic route needs expressions; series runs on sequences.
    sequences = [
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3",
    ]
    assert run(capsys, *sequences, "--method", "series") == (0, "15\n", "")
    code, _, err = run(capsys, *sequences, "--method", "symbolic")
    assert code == 2
    assert "expression" in err


def test_derive_determinant_needs_order_two(capsys):
    code, _, err = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1"]}',
        "--psi-derivs", '{"derivs":["1"]}',
        "-n", "1", "--method", "determinant",
    )
    assert code == 2
    assert "order >= 2" in err


def test_derive_rejects_mixed_input_styles(capsys):
    code, _, err = run(
        capsys,
        "derive", "--phi", "x", "--psi", "y", "--at", "0",
        "--phi-derivs", '{"derivs":["1"]}',
        "-n", "1",
    )
    assert code == 2
    assert "not both" in err

    # Each input style needs all of its flags.
    for argv, missing in [
        (["--phi", "x", "--psi", "y"], "expression input needs all of --phi, --psi and --at"),
        (
            ["--phi-derivs", '{"derivs":[1,2]}'],
            "derivative input needs both --phi-derivs and --psi-derivs",
        ),
    ]:
        assert run(capsys, "derive", *argv, "-n", "2") == (2, "", f"error: {missing}\n")


def test_derive_rejects_malformed_json(capsys):
    code, _, err = run(
        capsys,
        "derive", "--phi-derivs", "{nope", "--psi-derivs", '{"derivs":["1"]}', "-n", "1",
    )
    assert code == 2
    assert "invalid JSON" in err

    code, _, err = run(
        capsys, "derive", "--phi-derivs", "[" * 100000, "--psi-derivs", '{"derivs":["1"]}',
        "-n", "1",
    )
    assert code == 2
    assert err.startswith("error: --phi-derivs: invalid JSON: ") and "Traceback" not in err

    code, _, err = run(
        capsys,
        "derive", "--phi-derivs", '{"derivs":"123"}', "--psi-derivs", '{"derivs":[1,1,1]}',
        "-n", "2", "--method", "all",
    )
    assert code == 2
    assert "'derivs' must be a list" in err and "Traceback" not in err

    code, _, err = run(
        capsys,
        "derive", "--phi-derivs", '{"derivs":["1"],"Base":"2"}', "--psi-derivs", '{"derivs":["1"]}',
        "-n", "1",
    )
    assert code == 2
    assert err.startswith("error: --phi-derivs: ") and "'Base'" in err

    # Shapes the sequence format does not have, and values that are not exact rationals.
    for phi, message in [
        ('{"base":"1"}', "derivative sequence JSON needs 'derivs': {'base': '1'}"),
        ('["1"]', "derivative sequence JSON needs 'derivs': ['1']"),
        ('{"derivs":{"1":"1"}}', "'derivs' must be a list: {'1': '1'}"),
        ('{"derivs":3}', "'derivs' must be a list: 3"),
        ('{"derivs":["1.5"]}', "not a rational literal (expected 'p' or 'p/q'): '1.5'"),
        ('{"derivs":[1.5]}', "cannot interpret 1.5 as an exact rational"),
        ('{"derivs":[true]}', "cannot interpret True as an exact rational"),
        ('{"derivs":["1"],"base":false}', "cannot interpret False as an exact rational"),
        ('{"derivs":["1"],"base":null}', "cannot interpret None as an exact rational"),
    ]:
        code, out, err = run(
            capsys, "derive", "--phi-derivs", phi, "--psi-derivs", '{"derivs":[1]}', "-n", "1"
        )
        assert (code, out, err) == (2, "", f"error: --phi-derivs: {message}\n")

    # A repeated key is rejected, not read as its last value.
    for argv, flag in [
        (
            ["derive", "-n", "1", "--phi-derivs", '{"derivs":[1],"derivs":[5]}',
             "--psi-derivs", '{"derivs":[2],"base":1,"base":3}', "--method", "all", "--json"],
            "--phi-derivs",
        ),
        (["bell", "-n", "2", "--psi-derivs", '{"derivs":[1,1],"derivs":[2,2]}'], "--psi-derivs"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}: duplicate key 'derivs'") and "Traceback" not in err

    # More than 4300 digits, as a JSON integer or in a rational string.
    for derivs in ["1" * 4301, '"1/%s"' % ("1" * 4301)]:
        code, _, err = run(
            capsys,
            "derive", "--phi-derivs", '{"derivs":[%s]}' % derivs, "--psi-derivs", '{"derivs":[1]}',
            "-n", "1",
        )
        assert code == 2
        assert err.startswith("error: --phi-derivs: ") and "at most 4300 digits" in err
        assert "set_int_max_str_digits" not in err


def test_derive_rejects_bad_expression(capsys):
    code, _, err = run(
        capsys, "derive", "--phi", "x^-1", "--psi", "y", "--at", "0", "-n", "1"
    )
    assert code == 2
    assert "syntax error" in err
    assert run(capsys, "derive", "--phi=(x", "--psi=y", "--at=1", "-n", "2") == (
        2, "", "error: syntax error at offset 2: expected ')', found 'end of input'\n"
    )

    long = "1" * 4301
    for phi, at in [("x + " + long, "0"), ("x", long), ("x", "1/" + long)]:
        code, _, err = run(capsys, "derive", "--phi", phi, "--psi", "y", "--at", at, "-n", "1")
        assert code == 2
        assert "at most 4300 digits" in err and "set_int_max_str_digits" not in err

    # A composition past the value-size bound stops before it is expanded.
    code, out, err = run(
        capsys,
        "derive", "--phi", "x^2000", "--psi", "(y + 1)^2000", "--at", "1", "-n", "1",
        "--method", "symbolic",
    )
    assert (code, out, err) == (
        2, "", "error: value of up to 12000000 bits > MAX_VALUE_BITS = 131072\n"
    )


@pytest.mark.parametrize("method", [*cli.ROUTES, "all"])
def test_derive_checks_the_value_size_before_any_route(capsys, monkeypatch, method):
    def fail(*args):
        raise AssertionError("ran past the value-size check")

    for name, route in cli.ROUTES.items():
        monkeypatch.setitem(cli.ROUTES, name, route._replace(call=fail))
    monkeypatch.setattr(cli, "derivative_sequence_of", fail)
    code, out, err = run(
        capsys,
        "derive", "--phi", "x^200", "--psi", "y", "--at", "9" * 4300, "-n", "3",
        "--method", method,
    )
    assert (code, out, err) == (
        2, "", "error: value of up to 2857000 bits > MAX_VALUE_BITS = 131072\n"
    )


def _expressions(depth):
    """--phi text from the expression grammar, at most ``depth`` levels deep."""
    if depth == 0:
        return st.sampled_from(["x", "y", "0", "12", "3/2", "x^2", "-x", "x^9"])
    inner = _expressions(depth - 1)
    return st.one_of(
        inner,
        st.tuples(inner, st.sampled_from(["+", " - ", "*", " * "]), inner).map("".join),
        st.tuples(inner, st.integers(0, 9)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda text: f"-({text})"),
    )


@st.composite
def _corrupted(draw, texts):
    """A grammar text, or the same text with one character inserted, deleted or replaced."""
    text = draw(texts)
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit == "none":
        return text
    i = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from("()+-*^/ xy0\u0663\u00b2"))
    if edit == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + ("" if edit == "delete" else char) + text[i + 1:]


def _derive_phi(phi):
    return ["derive", f"--phi={phi}", "--psi=y^2 + y", "--at=1/2", "-n", "3", "--method", "all"]


_SEQUENCE_TEXTS = [
    '{"derivs":[1,2,3]}', '{"derivs":["1/2","-3"],"base":"2"}', '{"derivs":[]}',
    '{"derivs":[1],"x":1}', '{"derivs":[1],"derivs":[2]}', '["1"]',
]
# Exponents stay below 10: towers of larger ones make every route slow.
_PHI_TEXTS = _corrupted(_expressions(2)).filter(lambda t: not re.search(r"\^\s*[0-9]{2}", t))
# Values stay small where a valid one costs time: orders up to 5, one trial.
_FLAG_VALUES = {
    "-n": st.sampled_from(["1", "2", "3", "5", "0", "-1", "101", "x", ""]),
    "-k": st.sampled_from(["1", "2", "0", "-1", "9"]),
    "--method": st.sampled_from([*cli.ROUTES, "all", "nope"]),
    "--phi": _PHI_TEXTS,
    "--psi": _corrupted(st.sampled_from(["y", "y^2 + y", "3/2*y^3 - y", "(y + 1)^2", "x"])),
    "--at": st.sampled_from(["0", "1/2", "-3", "2/3", "1/0", "x", "1.5", ""]),
    "--phi-derivs": _corrupted(st.sampled_from(_SEQUENCE_TEXTS)),
    "--psi-derivs": _corrupted(st.sampled_from(_SEQUENCE_TEXTS)),
    "--max-n": st.sampled_from(["1", "3", "0", "101", "x"]),
    "--trials": st.sampled_from(["1", "2", "0"]),
    "--seed": st.sampled_from(["0", "7", "-1"]),
    "--decimal": st.sampled_from(["0", "3", "-1", "100001"]),
    "--json": st.none(),
    "--show-expansion": st.none(),
    "--help": st.none(),
    "--nope": st.none(),
}


@st.composite
def _argvs(draw):
    """A valid command line, then flags appended in any order and one token maybe dropped."""
    flags = {
        "derive": ["--phi", "--psi", "--at", "-n", "--method"],
        "derive-sequences": ["--phi-derivs", "--psi-derivs", "-n", "--method"],
        "expand": ["-n"],
        "check": ["--max-n", "--trials"],
        "bell": ["-n"],
    }
    template = draw(st.sampled_from(sorted(flags)))
    argv = [template.split("-")[0]]
    extra = draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=4))
    for flag in flags[template] + extra:
        value = draw(_FLAG_VALUES[flag])
        if value is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@given(_argvs())
@example(_derive_phi("+".join(["x"] * 3000)))
@example(_derive_phi("(" * 256 + "x" + ")" * 256))
@example(_derive_phi("(" * 257 + "x" + ")" * 257))
@example(_derive_phi("x^\u00b2"))
@example(_derive_phi("x^99999999999"))
@example(_derive_phi("2^99999999999"))
@example(_derive_phi("(x^2000)^2000"))
@example(["derive", "--phi=(x^2000)^2000", "--psi=y", "--at=1", "-n", "1", "--method", "symbolic"])
@example(["check", "--max-n=101", "--trials", "1"])
@example(["bell", "-n", "3", "--decimal", "100001"])
@example(["frobnicate"])
@example([])
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        # Ours start with "error: "; argparse's start with the usage line.
        first, _, rest = err.getvalue().partition("\n")
        assert first.startswith("error: ") or (first.startswith("usage: ") and ": error: " in rest)


def test_derive_reports_short_sequences(capsys):
    code, _, err = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1"]}',
        "--psi-derivs", '{"derivs":["1"]}',
        "-n", "3",
    )
    assert code == 2
    assert "too short" in err

    # Orders above the partition walk's bound are refused, not walked.
    for argv in (
        ["expand", "-n", "1200"],
        ["derive", "--phi", "x", "--psi", "y", "--at", "0", "-n", "80", "--method", "partition"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "MAX_PARTITION_ORDER" in err
        assert "Traceback" not in err

    # Orders above MAX_ORDER are refused by every command that takes one.
    for argv in (
        ["derive", "--phi", "x", "--psi", "y", "--at", "0", "-n", "1200", "--method", "partition"],
        ["derive", "--phi", "x", "--psi", "y", "--at", "0", "-n", "101", "--method", "all"],
        ["derive", "--phi-derivs", '{"derivs":[1]}', "--psi-derivs", '{"derivs":[1]}',
         "-n", "1200", "--method", "bell"],
        ["bell", "-n", "100000"],
        ["bell", "-n", "101", "-k", "1"],
        ["check", "--max-n", "101", "--trials", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        order = argv[argv.index("--max-n" if argv[0] == "check" else "-n") + 1]
        assert err == f"error: derivative order {order} > MAX_ORDER = 100\n"


def test_derive_all_skips_the_partition_route_above_its_bound(capsys):
    argv = ["derive", "--phi", "x^2", "--psi", "y^2+y", "--at", "1", "-n", "61"]
    code, out, err = run(capsys, *argv, "--method", "all")
    assert (code, err) == (0, "")
    assert out == (
        "partition: skipped (order 61 > MAX_PARTITION_ORDER = 60)\n"
        "bell: 0\ndeterminant: 0\nseries: 0\nsymbolic: 0\n"
    )
    code, out, err = run(capsys, *argv, "--method", "all", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "n": 61,
        "method": "all",
        "values": {"bell": "0", "determinant": "0", "series": "0", "symbolic": "0"},
        "skipped": {"partition": "order 61 > MAX_PARTITION_ORDER = 60"},
        "agree": True,
    }
    # Asked for by name, the route still refuses the order.
    code, out, err = run(capsys, *argv, "--method", "partition")
    assert (code, out) == (2, "")
    assert err == "error: partition order 61 > MAX_PARTITION_ORDER = 60\n"
    # With nothing skipped, the JSON has no "skipped" key.
    code, out, _ = run(capsys, *argv[:-1], "3", "--method", "all", "--json")
    assert code == 0
    assert "skipped" not in json.loads(out)


def test_derive_decimal_display(capsys):
    code, out, _ = run(
        capsys,
        "derive", "--phi", "x^2", "--psi", "y + 1/3", "--at", "0",
        "-n", "1", "--decimal", "4",
    )
    assert code == 0
    assert out == "0.6667\n"

    # At most 100000 digits: a million would take seconds to render.
    code, out, _ = run(capsys, "bell", "-n", "3", "--decimal", "100000")
    assert (code, out) == (0, "5." + "0" * 100000 + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["bell", "-n", "3", "--decimal", "1000000"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --decimal: must be at most 100000, got 1000000" in err


def test_derive_show_expansion_prints_formal_polynomial(capsys):
    code, out, _ = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3", "--method", "determinant", "--show-expansion",
    )
    assert code == 0
    assert out == "8*Phi^3 + 6*Phi^2 + 1*Phi\n15\n"


def test_show_expansion_bytes_are_pinned(capsys):
    # One SHA-256 over the expansion and value printed for n = 2..12, on a
    # sequence input and an expression input, both with zero derivatives.
    inputs = (
        [
            "--phi-derivs", '{"derivs":["1/2","0","-3","0","2/5","7","0","-1","1/3","0","4","-2/7"]}',
            "--psi-derivs", '{"derivs":["3/2","0","-1","0","2/3","0","5","-1/4","0","0","1","-3"]}',
        ],
        ["--phi", "x^3 - 2*x + 1/2", "--psi", "1/3*y^5 - y^2 + 2*y", "--at", "0"],
    )
    digest = hashlib.sha256()
    for argv in inputs:
        for n in range(2, 13):
            code, out, err = run(
                capsys,
                "derive", *argv,
                "-n", str(n), "--method", "determinant", "--show-expansion",
            )
            assert (code, err) == (0, "")
            digest.update(out.encode())
    assert digest.hexdigest() == "c529882ff3faadb6016991cfa68a18bae4009a5b2b7587febae097868ddec8db"


def test_derive_show_expansion_requires_determinant_method(capsys):
    for method in [(), ("--method", "all"), ("--method", "bell")]:
        code, out, err = run(
            capsys,
            "derive",
            "--phi-derivs", '{"derivs":["1","1"]}',
            "--psi-derivs", '{"derivs":["2","1"]}',
            "-n", "2", "--show-expansion", *method,
        )
        assert (code, out) == (2, "")
        assert "determinant" in err


# --- expand -----------------------------------------------------------------------

def test_expand_order_one(capsys):
    code, out, _ = run(capsys, "expand", "-n", "1")
    assert code == 0
    assert out == "m=(1) coeff=1 p=1 psi=psi(1)\n"


def test_expand_order_four_rows_and_coefficients(capsys):
    code, out, _ = run(capsys, "expand", "-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    coefficients = [line.split("coeff=")[1].split()[0] for line in lines]
    # Canonical order runs from the single-part partition to all-ones.
    assert coefficients == ["1", "4", "3", "6", "1"]
    assert lines[0].startswith("m=(0,0,0,1)")
    assert lines[-1].startswith("m=(4,0,0,0)")


def test_expand_order_ten_has_42_rows(capsys):
    code, out, _ = run(capsys, "expand", "-n", "10")
    assert code == 0
    assert len(out.splitlines()) == 42


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "-n", "4", "--json")
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 5
    assert terms[0] == {
        "m": [0, 0, 0, 1],
        "coefficient": "1",
        "phi_order": 1,
        "psi_powers": [[4, 1]],
    }
    assert terms[3] == {
        "m": [2, 1, 0, 0],
        "coefficient": "6",
        "phi_order": 3,
        "psi_powers": [[1, 2], [2, 1]],
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_expand_streams_the_terms_of_the_multiplicity_vectors(n, capsys):
    terms = [
        {
            "m": list(m),
            "coefficient": str(multinomial_weight(m)),
            "phi_order": sum(m),
            "psi_powers": [[j, mj] for j, mj in enumerate(m, start=1) if mj > 0],
        }
        for m in enumerate_multiplicity_vectors(n)
    ]
    code, out, _ = run(capsys, "expand", "-n", str(n), "--json")
    assert (code, out) == (0, json.dumps(terms) + "\n")
    code, out, _ = run(capsys, "expand", "-n", str(n))
    assert code == 0
    lines = []
    for t in terms:
        m = ",".join(map(str, t["m"]))
        psi = "*".join(f"psi({j})" if mj == 1 else f"psi({j})^{mj}" for j, mj in t["psi_powers"])
        lines.append(f"m=({m}) coeff={t['coefficient']} p={t['phi_order']} psi={psi}\n")
    assert out == "".join(lines)


def test_expand_memory_does_not_grow_with_the_term_count():
    # n = 30 has 5604 terms; holding them all before printing peaked at 7-9 MB.
    class Discard:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    for extra in ((), ("--json",)):
        tracemalloc.start()
        try:
            with redirect_stdout(Discard()):
                code = main(["expand", "-n", "30", *extra])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2_000_000


def test_expand_is_deterministic(capsys):
    _, first, _ = run(capsys, "expand", "-n", "6")
    _, second, _ = run(capsys, "expand", "-n", "6")
    assert first == second


# --- check ------------------------------------------------------------------------

def test_check_small_run_passes(capsys):
    code, out, _ = run(capsys, "check", "--max-n", "4", "--trials", "10", "--seed", "7")
    assert code == 0
    assert "all routes agree" in out


def test_check_order_one_trivially_passes(capsys):
    code, out, _ = run(capsys, "check", "--max-n", "1", "--trials", "5")
    assert code == 0


def test_check_same_seed_is_byte_identical(capsys):
    args = ("check", "--max-n", "3", "--trials", "8", "--seed", "123")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_check_draws_equal_a_fraction_of_two_randints():
    # The table read consumes the generator as Fraction(randint, randint) did.
    table, plain = random.Random(32), random.Random(32)
    for _ in range(2000):
        assert cli._random_rational(table) == Fraction(plain.randint(-6, 6), plain.randint(1, 4))
    assert table.getstate() == plain.getstate()


def test_check_json_is_schema_stable(capsys):
    code, out, _ = run(
        capsys, "check", "--max-n", "3", "--trials", "5", "--seed", "9", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["seed"] == 9
    assert [row["n"] for row in payload["orders"]] == [1, 2, 3]
    assert all(row["ok"] for row in payload["orders"])


def test_check_detects_a_corrupted_route(capsys, monkeypatch):
    # Mutation test: break one route and expect the alarm exit code plus a
    # witness on stderr.
    from compderiv import composition

    real = composition.derivative_bell

    def corrupted(phi, psi, n):
        return real(phi, psi, n) + 1

    monkeypatch.setattr(cli, "derivative_bell", corrupted)
    code, _, err = run(capsys, "check", "--max-n", "2", "--trials", "3", "--seed", "5")
    assert code == 3
    assert "disagreement" in err
    assert "bell" in err
    assert "phi" in err and "psi" in err

    # The witness replays: its phi and psi lines are sequence JSON for derive.
    lines = err.splitlines()
    order = int(re.match(r"route disagreement at order (\d+), trial \d+:", lines[0]).group(1))
    assert lines[2].startswith("  phi  = {\"base\": ") and lines[3].startswith("  psi  = {")
    phi, psi = lines[2][len("  phi  = "):], lines[3][len("  psi  = "):]
    code, out, replay = run(
        capsys, "derive", "--phi-derivs", phi, "--psi-derivs", psi, "-n", str(order),
        "--method", "all",
    )
    assert code == 3 and replay.startswith("route disagreement detected\n")
    # Sequence input leaves out only the symbolic route, which needs expressions.
    assert replay.splitlines()[1:] == [line for line in lines[4:] if "symbolic" not in line]


def test_derive_all_detects_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "derivative_bell", lambda phi, psi, n: Fraction(999))
    code, out, err = run(
        capsys,
        "derive",
        "--phi-derivs", '{"derivs":["1","1","1"]}',
        "--psi-derivs", '{"derivs":["2","1","1"]}',
        "-n", "3", "--method", "all",
    )
    assert code == 3
    assert out == "partition: 15\nbell: 999\ndeterminant: 15\nseries: 15\n"
    assert err == (
        "route disagreement detected\n"
        "  partition = 15\n"
        "  bell = 999\n"
        "  determinant = 15\n"
        "  series = 15\n"
    )


def test_check_disagreement_report_bytes(capsys, monkeypatch):
    # The first draw's witness, then every route's value, on stderr only.
    monkeypatch.setattr(cli, "derivative_bell", lambda phi, psi, n: Fraction(999))
    code, out, err = run(capsys, "check", "--max-n", "3", "--trials", "2", "--seed", "5")
    assert code == 3
    assert out == ""
    assert err == (
        "route disagreement at order 1, trial 0:\n"
        "  at   = 1\n"
        '  phi  = {"base": "4", "derivs": ["1/2"]}\n'
        '  psi  = {"base": "6", "derivs": ["5/3"]}\n'
        "  partition = 5/6\n"
        "  bell = 999\n"
        "  series = 5/6\n"
        "  symbolic = 5/6\n"
    )


# --- bell -------------------------------------------------------------------------

def test_bell_number_default_ones(capsys):
    code, out, _ = run(capsys, "bell", "-n", "5")
    assert code == 0
    assert out == "52\n"


def test_bell_partial_value(capsys):
    code, out, _ = run(capsys, "bell", "-n", "4", "-k", "2")
    assert code == 0
    assert out == "7\n"

    code, out, _ = run(capsys, "bell", "-n", "4", "-k", "2", "--json", "--decimal", "2")
    assert code == 0
    assert json.loads(out) == {"n": 4, "k": 2, "value": "7", "decimal": "7.00"}


def test_bell_order_one(capsys):
    code, out, _ = run(capsys, "bell", "-n", "1")
    assert code == 0
    assert out == "1\n"


def test_bell_with_custom_derivatives(capsys):
    code, out, _ = run(
        capsys, "bell", "-n", "4", "-k", "2", "--psi-derivs", '{"derivs":["2","3","5"]}'
    )
    assert code == 0
    assert out == "67\n"  # 4*2*5 + 3*3^2

    code, out, _ = run(capsys, "bell", "-n", "3", "--psi-derivs", '{"derivs":["2","3","5"]}')
    assert code == 0
    assert out == "31\n"  # B_3 = x1^3 + 3*x1*x2 + x3


def test_bell_k_above_n_is_usage_error(capsys):
    code, _, err = run(capsys, "bell", "-n", "3", "-k", "4")
    assert code == 2
    assert err == "error: k must satisfy 1 <= k <= n, got k=4, n=3\n"


def test_bell_json(capsys):
    code, out, _ = run(capsys, "bell", "-n", "5", "--json")
    assert json.loads(out) == {"n": 5, "k": None, "value": "52"}


# --- shared flag plumbing ------------------------------------------------------------

def test_usage_error_exit_code_is_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["derive"])  # missing required -n
    assert excinfo.value.code == 2
    # Negative counts are refused by the argument type.
    for argv, flag in (
        (["check", "--seed", "-1"], "--seed"),
        (["derive", "--phi", "x", "--psi", "y", "--at", "0", "-n", "1", "--decimal", "-1"],
         "--decimal"),
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(f"error: argument {flag}: must be a non-negative integer, got -1")
    # --seed belongs to check and --decimal to derive and bell only.
    for argv in (
        ["expand", "-n", "2", "--seed", "5"],
        ["expand", "-n", "2", "--decimal", "3"],
        ["check", "--max-n", "1", "--trials", "1", "--decimal", "3"],
        ["bell", "-n", "3", "--seed", "5"],
        ["derive", "--phi", "x", "--psi", "y", "--at", "0", "-n", "1", "--seed", "5"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_negative_values_need_the_equals_form(capsys):
    # argparse reads "-1/2" and "-y" after a space as an option, not a value;
    # "--at=-1/2" and "--psi=-y" pass them.  phi(psi(y)) = y^2 here.
    code, out, _ = run(capsys, "derive", "--phi", "x^2", "--psi=-y", "--at=-1/2", "-n", "2")
    assert (code, out) == (0, "2\n")
    for flag, value in (("--at", "-1/2"), ("--psi", "-y")):
        argv = ["derive", "--phi", "x^2", "--psi", "y", "--at", "1", "-n", "2", flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: compderiv derive")
        assert f"error: argument {flag}: expected one argument" in err


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse: usage errors and --help
        return exc.code


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    assert main(["bell", "-n", "1"]) == 0  # builds the parser if no earlier test has
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    argvs = [
        ["derive", "--phi", "x^2", "--psi", "y+1", "--at", "0", "-n", "2"],
        ["expand", "-n", "3"],
        ["check", "--max-n", "2", "--trials", "1"],
        ["bell", "-n", "4", "-k", "2"],
        ["derive", "-n", "0"],
        ["derive", "--help"],
    ]
    assert [_exit_code(argv) for argv in argvs] == [0, 0, 0, 0, 2, 0]
    assert built == []
    assert "--phi-derivs" in capsys.readouterr().out


# One of each subcommand and a usage error: (exit code, stdout, stderr) must not
# depend on what the same process ran before.
_REUSE_ARGVS = [
    ["derive", "--phi", "x^3 + x", "--psi", "2*y^2 + y", "--at", "1", "-n", "4",
     "--method", "all", "--json"],
    ["derive", "--phi-derivs", '{"derivs":["1","1","1"]}',
     "--psi-derivs", '{"derivs":["2","1","1"]}', "-n", "3"],
    ["expand", "-n", "4", "--json"],
    ["check", "--max-n", "3", "--trials", "2", "--json"],
    ["bell", "-n", "4", "-k", "2", "--decimal", "2"],
    ["bell", "-n", "5"],
    ["derive", "--method", "nope", "-n", "1"],
]


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    in_process = []
    for _ in range(2):
        for argv in _REUSE_ARGVS:
            code = _exit_code(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
    first, second = in_process[: len(_REUSE_ARGVS)], in_process[len(_REUSE_ARGVS):]
    assert first == second
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 0, 2]
    assert first[-2][1] == "52\n"  # bell -n 5, the Bell number B_5

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "compderiv", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for argv in _REUSE_ARGVS
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in fresh] == first


def test_decimal_string_rounding():
    assert decimal_string(Fraction(2, 3), 4) == "0.6667"
    assert decimal_string(Fraction(-1, 8), 2) == "-0.13"
    assert decimal_string(Fraction(5), 0) == "5"
    assert decimal_string(Fraction(7, 2), 0) == "4"
    assert decimal_string(Fraction(1, 4), 1) == "0.3"
    assert decimal_string(Fraction(123, 1), 3) == "123.000"
    # A negative value that rounds to zero prints without a sign.
    assert decimal_string(Fraction(-1, 1000), 2) == "0.00"
    assert decimal_string(Fraction(-2, 5), 0) == "0"
    assert decimal_string(Fraction(-1, 200), 2) == "-0.01"
    assert decimal_string(Fraction(-1, 2), 0) == "-1"
