"""The qgue command-line tool."""

import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from qgue import (
    Scalar,
    cli,
    evaluate_at,
    exactq,
    hermite_squared_moment,
    moments,
    qxpoly,
    symschur,
    verify,
)
from qgue.cli import AT_Q_MAX_DIGITS, INT_MAX_DIGITS, main

ROOT = Path(__file__).resolve().parents[1]

# stdout and exit code of cold `qgue` processes, recorded for the benchmark
REFERENCE = json.loads((ROOT / "perfbench" / "reference" / "queries.json").read_text())


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="Python 3.10 has no int digit limit"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moment_power_sum(capsys):
    code, out, _ = run(capsys, "moment", "--power-sum", "2", "--n-vars", "2", "--method", "fast")
    assert code == 0 and out == "2+q+q^2\n"


def test_moment_schur_oracle(capsys):
    code, out, _ = run(capsys, "moment", "--schur", "1,1", "--n-vars", "2", "--method", "oracle")
    assert code == 0 and out == "-1\n"


def test_moment_at_q(capsys):
    code, out, _ = run(capsys, "moment", "--power-sum", "4", "--n-vars", "2", "--at-q", "1")
    assert code == 0 and out == "18\n"


def test_readme_moment_examples(capsys):
    # each `qgue moment ... # value` line of README.md prints that value
    examples = re.findall(r"^qgue (moment .*?)\s+# (.+)$", (ROOT / "README.md").read_text(), re.M)
    assert len(examples) == 4
    for argv, value in examples:
        assert run(capsys, *argv.split()) == (0, value + "\n", ""), argv


def test_moment_methods_agree(capsys):
    outs = []
    for method in ("fast", "oracle"):
        code, out, _ = run(
            capsys, "moment", "--schur", "2,2", "--n-vars", "3", "--method", method
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_moment_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "moment", "--power-sum", "2", "--n-vars", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "2+q+q^2"
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == out


def test_moment_latex(capsys):
    code, out, _ = run(capsys, "moment", "--hermite-sq", "0,3", "--format", "latex")
    assert code == 0 and out == "q^{3}[3]_q[2]_q\n"


def test_moment_builds_latex_only_for_latex_format(capsys):
    # LaTeX folds q-integers by trial division; text and JSON must not pay for it
    with mock.patch.object(Scalar, "latex", side_effect=AssertionError("latex built")):
        code, out, _ = run(capsys, "moment", "--hermite-sq", "0,3")
        assert code == 0 and out == "q^3+2q^4+2q^5+q^6\n"
        code, out, _ = run(capsys, "moment", "--hermite-sq", "0,3", "--format", "json")
        assert code == 0 and json.loads(out)["value"] == "q^3+2q^4+2q^5+q^6"


def test_moment_closed_banner(capsys):
    code, out, err = run(
        capsys, "moment", "--power-sum", "2", "--n-vars", "2", "--method", "closed"
    )
    assert code == 0 and out == "q+q^2\n"
    assert "unverified" in err


def test_moment_hermite_sq(capsys):
    code, out, _ = run(capsys, "moment", "--hermite-sq", "1,1")
    assert code == 0 and out == "1+q+q^2\n"
    # the largest request the benchmark makes stays inside the x-degree bound
    code, out, _ = run(capsys, "moment", "--hermite-sq", "4,20")
    assert code == 0 and out.startswith("q^260+24q^261+")


def test_moment_hermite_sq_oracle_is_the_functional_not_the_walk(capsys):
    # the oracle applies L to x^2m H_s H_s; the fast path counts weighted paths
    pairs = [(m, s) for m in range(13) for s in range(13 - m)]
    fast = {p: run(capsys, "moment", "--hermite-sq", "%d,%d" % p)[1] for p in pairs}
    with mock.patch.object(moments, "_walk", side_effect=AssertionError("walk on oracle path")):
        for p in pairs:
            got = run(capsys, "moment", "--hermite-sq", "%d,%d" % p, "--method", "oracle")
            assert got == (0, fast[p], ""), p


# stdout of `moment --hermite-sq M,S --method closed` at four (M, S) whose
# printed Theorem 5 sum has a term with a vanishing denominator
# 1 - q^(S+2+2t-M); each such term has a zero binomial prefactor and is skipped
HERMITE_SQ_CLOSED = {
    "2,0": "0\n",
    "3,1": "(-1-4q-8q^2-12q^3-15q^4-16q^5-14q^6-10q^7-6q^8-3q^9-q^10)/(1+q^2)\n",
    "6,0": "0\n",
    "6,2": (
        "(-1-8q-35q^2-110q^3-279q^4-609q^5-1191q^6-2141q^7-3598q^8-5718q^9-8666q^10"
        "-12605q^11-17682q^12-24011q^13-31657q^14-40621q^15-50827q^16-62112q^17"
        "-74224q^18-86828q^19-99519q^20-111841q^21-123313q^22-133459q^23-141838q^24"
        "-148072q^25-151872q^26-153060q^27-151582q^28-147511q^29-141041q^30"
        "-132474q^31-122198q^32-110659q^33-98331q^34-85688q^35-73176q^36-61188q^37"
        "-50045q^38-39986q^39-31164q^40-23648q^41-17431q^42-12444q^43-8572q^44"
        "-5670q^45-3578q^46-2135q^47-1190q^48-609q^49-279q^50-110q^51-35q^52-8q^53"
        "-q^54)/(q^2+q^6)\n"
    ),
}


@pytest.mark.parametrize("pair", sorted(HERMITE_SQ_CLOSED))
def test_moment_hermite_sq_closed_skips_vanishing_denominators(capsys, pair):
    m, s = map(int, pair.split(","))
    assert any(s + 2 + 2 * t == m for t in range(m + 1))
    code, out, err = run(capsys, "moment", "--hermite-sq", pair, "--method", "closed")
    assert (code, out) == (0, HERMITE_SQ_CLOSED[pair])
    assert err == cli.CLOSED_FORM_BANNER + "\n"


def test_moment_names_a_too_long_partition_as_written(capsys):
    code, out, err = run(capsys, "moment", "--schur", "2,2,2", "--n-vars", "2")
    assert (code, out) == (2, "")
    assert err == "error: partition '2,2,2' needs more than 2 variables\n"


def test_moment_errors(capsys):
    code, _, err = run(capsys, "moment", "--power-sum", "3", "--n-vars", "2")
    assert code == 2 and "even" in err
    code, _, err = run(capsys, "moment", "--schur", "1,1", "--n-vars", "6", "--method", "oracle")
    assert code == 2 and "oracle" in err
    # the guardrail fires before the Schur polynomial is expanded
    code, _, err = run(capsys, "moment", "--schur", "20,10", "--n-vars", "5", "--method", "oracle")
    assert code == 2 and "total degree 40, got 50" in err
    code, _, err = run(capsys, "moment", "--hermite-sq", "0,1200")
    assert code == 2 and "2(m+s) <= 60, got 2400" in err
    # fast and closed Schur and power-sum requests are bounded before any work
    for argv, got in [
        (["--power-sum", "400", "--n-vars", "2"], "got 401 and 400"),
        (["--power-sum", "2", "--n-vars", "400"], "got 401 and 2"),
        (["--schur", "1,1", "--n-vars", "400"], "got 400 and 2"),
        (["--power-sum", "4", "--n-vars", "30"], "got 33 and 4"),
        (["--power-sum", "4", "--n-vars", "21"], "got 24 and 4"),
        (["--schur", "5,4,1,1,1", "--n-vars", "20"], "got 24 and 12"),
        (["--schur", "3,3,3,3,1", "--n-vars", "12"], "got 14 and 13"),
        (["--power-sum", "400", "--n-vars", "2", "--method", "closed"], "got 401 and 400"),
        (["--schur", "2", "--n-vars", "400", "--method", "closed"], "got 401 and 2"),
    ]:
        start = time.perf_counter()
        code, _, err = run(capsys, "moment", *argv)
        assert code == 2 and got in err and time.perf_counter() - start < 1
    code, _, _ = run(capsys, "moment", "--schur", "12", "--n-vars", "12", "--method", "closed")
    assert code == 0  # degree 23 and weight 12: on the bound
    code, _, err = run(capsys, "moment", "--schur", "1,1,1", "--n-vars", "2")
    assert code == 2
    # a partition longer than --n-vars is refused by every method, closed too
    for method in ("fast", "oracle", "closed"):
        argv = ["--schur", "3,1,1,1", "--n-vars", "3", "--method", method]
        code, out, err = run(capsys, "moment", *argv)
        assert code == 2 and out == ""
        assert err.endswith("error: partition '3,1,1,1' needs more than 3 variables\n")
    code, _, err = run(capsys, "moment", "--schur", "2,2", "--method", "closed", "--n-vars", "2")
    assert code == 2 and "hook" in err
    for text in ("1,,1", "a"):
        code, _, err = run(capsys, "moment", "--schur", text)
        assert code == 2
        assert err == (
            f"error: partition must be comma-separated integers of at most {INT_MAX_DIGITS} "
            f"digits, got '{text}'\n"
        )
    with pytest.raises(SystemExit) as exc:
        main(["moment"])
    assert exc.value.code == 2


def test_verify_clean_suite(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "theorem3",
        "--max-weight",
        "4",
        "--max-vars",
        "3",
        "--report",
        str(report),
    )
    assert code == 0
    assert "theorem3" in out
    obj = json.loads(report.read_text())
    assert obj["summary"]["discrepant"] == 0


def test_verify_discrepant_suite(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "theorem4",
        "--max-weight",
        "4",
        "--max-vars",
        "2",
        "--report",
        str(report),
    )
    assert code == 1
    obj = json.loads(report.read_text())
    assert obj["summary"]["discrepant"] > 0
    points = obj["suites"][0]["points"]
    assert any(
        p["params"] == {"N": 1, "ell": 1, "m": 1} and p.get("ratio") == "-1"
        for p in points
    )


GOLDEN = ROOT / "tests" / "golden"


def test_default_verify_report_matches_golden_under_optimize():
    # the headline report with every default bound, in both formats, from cold
    # processes under -O, which strips assert statements
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {
        golden: subprocess.Popen(
            [sys.executable, "-O", "-m", "qgue.cli", "verify", "--suite", "all", *flags],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for golden, flags in [
            ("verify_all_default.json", ["--format", "json"]),
            ("verify_all_default.txt", []),
        ]
    }
    for golden, proc in runs.items():
        out, err = proc.communicate(timeout=300)
        assert (proc.returncode, out, err) == (1, (GOLDEN / golden).read_text(), "")


def test_verify_json_stdout(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "qhz", "--max-weight", "2", "--max-n", "1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["summary"]["discrepant"] == 0


def test_table(capsys):
    code, out, _ = run(capsys, "table", "--harer-zagier", "--max-m", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert "match" in lines[1] and "5,10" in lines[3]


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--harer-zagier", "--max-m", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj[1]["coefficients"] == {"0": 2, "1": 1}
    assert obj[1]["match"] is True


def test_table_guardrail(capsys):
    code, _, err = run(capsys, "table", "--harer-zagier", "--max-m", "7")
    assert code == 2 and "max_m" in err
    code, _, err = run(capsys, "table", "--max-m", "2")
    assert code == 2


@pytest.mark.parametrize("n_vars", ["0", "-3", "two", "x" * 5000, "9" * 5000])
def test_moment_rejects_non_positive_n_vars(capsys, n_vars):
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--power-sum", "2", "--n-vars", n_vars])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "a positive integer" in err and all(len(line) < 200 for line in err.splitlines())


def test_moment_at_q_prints_values_past_the_digit_limit(capsys):
    # 100 digits over 100 digits is inside AT_Q_MAX_DIGITS, and its exact value
    # has about 9000 digits on each side, past Python's 4300-digit default
    point = "9" * 100 + "/" + "9" * 99 + "8"
    code, out, _ = run(capsys, "moment", "--hermite-sq", "0,10", "--at-q", point)
    value = evaluate_at(hermite_squared_moment(0, 10), Fraction(point))
    # main() restores the limit, so reading the value back needs it lifted here
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        parsed = Fraction(out)
    finally:
        set_limit(old)
    assert code == 0 and len(out) > 2 * 4300 and parsed == value


@needs_digit_limit
def test_main_restores_the_int_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "moment", "--power-sum", "2", "--n-vars", "2")
    assert code == 0 and out
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(ValueError):
        int("9" * 5000)


# not rational, or a numerator, denominator or decimal exponent past AT_Q_MAX_DIGITS,
# also where the literal is past Python's 4300-digit parsing limit
@pytest.mark.parametrize(
    "at_q",
    ["1/0", "half", "1e100", "1e-101", "1/" + "1" * 101, "1e" + "9" * 5000, "9" * 5000],
)
def test_moment_rejects_bad_at_q(capsys, at_q):
    with pytest.raises(SystemExit) as exc:
        main(["moment", "--power-sum", "2", "--n-vars", "2", "--at-q", at_q])
    assert exc.value.code == 2
    reason = "a rational number" if at_q in ("1/0", "half") else f"at most {AT_Q_MAX_DIGITS} digits"
    err = capsys.readouterr().err
    assert reason in err and all(len(line) < 200 for line in err.splitlines())


# every integer literal the CLI parses, in each place it can take one
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-weight", "{}"],
        ["verify", "--max-vars", "{}"],
        ["verify", "--max-n", "{}"],
        ["table", "--harer-zagier", "--max-m", "{}"],
        ["moment", "--power-sum", "{}"],
        ["moment", "--hermite-sq", "1,{}"],
        ["moment", "--schur", "1", "--n-vars", "{}"],
        ["moment", "--schur", "{}"],
        ["moment", "--schur", "{}", "--method", "oracle"],
        ["moment", "--schur", "1,x{}"],
    ],
)
@pytest.mark.parametrize("literal", ["9" * 5000, "x" * 5000])
def test_long_integer_literals_are_refused_in_short_lines(capsys, argv, literal):
    # the CLI counts digits before int() runs, so the refusal names the digit
    # bound; a literal that is not a number is refused as not an integer
    try:
        code = main([a.format(literal) for a in argv])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    reason = f"of at most {INT_MAX_DIGITS} digits" if literal[-1] == "9" else "integer"
    assert code == 2 and reason in err and all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "duality", "--max-n", "-5"],
        ["--suite", "theorem4", "--max-weight", "-2"],
        ["--suite", "theorem3", "--max-weight", "-3", "--max-vars", "2"],
    ],
)
def test_verify_empty_grid_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and f"empty grid in suite(s) {argv[1]}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--suite", "duality", "--max-n", "41"], "max_n <= 40"),
        (["--suite", "orthogonality", "--max-n", "18"], "max_n <= 17"),
        (["--max-n", "18"], "orthogonality limited"),
        (["--suite", "qhz", "--report", "{tmp}/missing/r.json"], "cannot write report"),
        (["--suite", "qhz", "--report", "{tmp}"], "cannot write report"),
        (["--suite", "theorem5", "--max-n", "27"], "theorem5 limited to max_s <= 26"),
        (["--suite", "qhz", "--max-n", "27"], "qhz limited to max_s <= 26"),
        (["--suite", "truncation", "--max-n", "24"], "truncation limited to max_total <= 23"),
        (["--suite", "theorem5", "--max-weight", "60"], "theorem5 limited to 2(m+s) <= 52, got 66"),
        (["--suite", "theorem5", "--max-n", "24"], "theorem5 limited to 2(m+s) <= 52, got 54"),
        (["--suite", "qhz", "--max-weight", "200"], "qhz limited to 2(m+s) <= 58, got 206"),
        (["--suite", "qhz", "--max-weight", "20", "--max-n", "26"], "2(m+s) <= 58, got 72"),
        (["--suite", "theorem3", "--max-vars", "6"], "theorem3: oracle limited to 5 variables"),
        (["--suite", "theorem4", "--max-vars", "6"], "theorem4: oracle limited to 5 variables"),
        (["--suite", "sigma", "--max-vars", "6"], "sigma: oracle limited to 5 variables"),
        (["--suite", "sigma", "--max-weight", "36"], "sigma: oracle limited to total degree 40, got 42"),
        (["--suite", "theorem1", "--max-vars", "40"], "theorem1 limited to max_vars <= 17"),
        (["--suite", "theorem1", "--max-vars", "20"], "theorem1 limited to max_vars <= 17"),
        (["--suite", "theorem1", "--max-weight", "14"], "theorem1 limited to max_weight <= 12"),
        (["--suite", "theorem2", "--max-vars", "30"], "theorem2 limited to max_vars <= 8"),
        (["--suite", "theorem2", "--max-n", "30"], "theorem2 limited to max_ell <= 17"),
        (["--max-vars", "6"], "oracle limited to 5 variables"),
        (["--max-weight", "14"], "theorem1 limited to max_weight <= 12"),
        (["--suite", "theorem3", "--max-weight", "15"], "theorem3 limited to max_weight <= 14"),
        (
            ["--suite", "theorem3", "--max-weight", "20", "--max-vars", "2"],
            "theorem3 limited to max_weight <= 14, got 20",
        ),
        (
            ["--suite", "theorem4", "--max-weight", "22", "--max-vars", "5"],
            "theorem4: oracle limited to total degree 40, got 42",
        ),
        (
            ["--suite", "sigma", "--max-weight", "30", "--max-vars", "4"],
            "sigma: oracle limited to total degree 40, got 42",
        ),
    ],
)
def test_verify_refusals_exit_2_before_any_work(capsys, tmp_path, argv, message):
    # every suite's point generator records the suite when it is first advanced
    evaluated = []

    def spy(name, points):
        def spied(**grid):
            evaluated.append(name)
            yield from points(**grid)

        return spied

    suites = {
        name: entry._replace(
            points=spy(name, entry.points),
            preset=entry.preset and (entry.preset[0], spy(name, entry.preset[1])),
        )
        for name, entry in verify._SUITES.items()
    }
    argv = [a.format(tmp=tmp_path) for a in argv]
    start = time.perf_counter()
    with mock.patch.dict(verify._SUITES, suites):
        code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == "" and err.startswith("error: ") and message in err
    assert evaluated == [] and time.perf_counter() - start < 1


def test_verify_report_is_replaced_only_by_a_run(capsys, tmp_path):
    report = tmp_path / "r.json"
    report.write_text("earlier report\n" * 1000)
    code, _, _ = run(capsys, "verify", "--suite", "duality", "--max-n", "41", "--report", str(report))
    assert code == 2 and report.read_text() == "earlier report\n" * 1000
    # a refused request creates no report where none was
    new = tmp_path / "new.json"
    code, _, _ = run(capsys, "verify", "--suite", "duality", "--max-n", "41", "--report", str(new))
    assert code == 2 and not new.exists()
    code, _, _ = run(capsys, "verify", "--suite", "qhz", "--max-n", "1", "--report", str(report))
    assert code == 0 and json.loads(report.read_text())["summary"]["discrepant"] == 0
    # a path that is not a regular file is written as before
    code, out, _ = run(capsys, "verify", "--suite", "qhz", "--max-n", "1", "--report", os.devnull)
    assert code == 0 and f"report written to {os.devnull}" in out


def test_verify_refuses_a_read_only_report_before_any_suite(capsys, tmp_path):
    # os.access grants everything to root, so the answer for the report is faked
    report = tmp_path / "r.json"
    report.write_text("earlier report\n")
    access = os.access

    def fake_access(path, mode):
        return path != str(report) and access(path, mode)

    with mock.patch.object(cli.os, "access", fake_access), mock.patch.object(
        cli, "verify_suite", wraps=cli.verify_suite
    ) as spy:
        code, out, err = run(capsys, "verify", "--suite", "qhz", "--report", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write report: no writable file at {report}\n"
    assert spy.call_count == 0 and report.read_text() == "earlier report\n"


@pytest.mark.parametrize("query", sorted(REFERENCE))
def test_output_matches_benchmark_reference(capsys, query):
    code, out, _ = run(capsys, *query.split())
    assert (code, out) == (REFERENCE[query]["exit_code"], REFERENCE[query]["stdout"])


def test_reference_queries_make_only_forward_scalar_operations(capsys):
    # every Scalar operation keeps the Scalar on the left: a reflected call,
    # such as int * Scalar, is one a tracer of the forward operators misses
    for mod in (exactq, qxpoly, symschur, moments):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    reflected = ("__radd__", "__rmul__", "__rsub__", "__rtruediv__")
    queries = [q for q in sorted(REFERENCE) if "oracle" in q or not q.startswith("moment")]
    failing = {name: mock.Mock(side_effect=AssertionError(name)) for name in reflected}
    with mock.patch.multiple(Scalar, **failing):
        for query in queries:
            code, out, _ = run(capsys, *query.split())
            assert (code, out) == (REFERENCE[query]["exit_code"], REFERENCE[query]["stdout"]), query


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_unwritable_stdout_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(["moment", "--schur", "2"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: cannot write output") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["moment", "--schur", "2"], "/dev/full"),
        (["verify", "--suite", "qhz", "--max-n", "1", "--format", "json"], "/dev/full"),
        (["verify", "--suite", "qhz", "--max-n", "1", "--report", "/dev/full"], os.devnull),
    ],
)
def test_unwritable_output_is_exit_2_in_a_process(argv, stdout):
    # the exit-time flush of stdout must not print a second error
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(stdout, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "qgue.cli", *argv],
            stdout=out, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
