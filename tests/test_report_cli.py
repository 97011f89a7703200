import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import numradlab
from numradlab import catalog, cli, suite
from numradlab.ensembles import EnsembleSpec
from numradlab.errors import MatrixFormatError, NoConvergence
from numradlab.matio import (
    dumps_matrix,
    load_matrix,
    loads_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
)
from numradlab.radius import complex_gaussian, numerical_radius, stream_rng
from numradlab.report import CSV_COLUMNS, IneqRecord, SuiteReport


def random_record(rng, name):
    trials = int(rng.integers(0, 50))
    holds = int(rng.integers(0, trials + 1))
    return IneqRecord(
        ineq=name,
        trials=trials,
        holds=holds,
        violated=int(rng.integers(0, 3)),
        inconclusive=int(rng.integers(0, 3)),
        not_applicable=0,
        min_slack=None if trials == 0 else float(rng.standard_normal() * 10.0 ** float(rng.integers(-12, 3))),
        median_slack=None if trials == 0 else float(abs(rng.standard_normal())),
        min_slack_index=None if trials == 0 else int(rng.integers(0, 1000)),
        min_slack_params={"r": float(rng.uniform(1, 3)), "variant": int(rng.integers(0, 3))},
        notes=["note-a", "note-b"][: int(rng.integers(0, 3))],
    )


def test_report_round_trip_hundred_random():
    rng = stream_rng(60, "reports")
    for k in range(100):
        records = [random_record(rng, f"member-{j}") for j in range(int(rng.integers(1, 6)))]
        rep = SuiteReport.build(
            config={"ids": [r.ineq for r in records], "dim": 4, "seed": k, "trials": 10, "tol_rel": 1e-8},
            records=records,
            wall_time=float(rng.uniform(0, 5)),
        )
        text = rep.to_json()
        back = SuiteReport.from_json(text)
        assert back == rep  # wall_time excluded from comparison
        assert back.to_json() == text


def test_record_from_dict_needs_every_field_and_ignores_extra_keys():
    rec = random_record(stream_rng(62, "from-dict"), "a")
    doc = rec.to_dict()
    assert IneqRecord.from_dict({**doc, "extra": 1}) == rec
    del doc["notes"]
    with pytest.raises(KeyError):
        IneqRecord.from_dict(doc)


def test_report_csv_columns():
    rng = stream_rng(61, "csv")
    rep = SuiteReport.build(
        config={"ids": ["a"], "seed": 3}, records=[random_record(rng, "a")], wall_time=0.1
    )
    lines = rep.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "a"
    assert lines[1].split(",")[-1] == "3"


def test_matrix_io_round_trip(tmp_path):
    rng = stream_rng(62, "matio")
    A = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    path = tmp_path / "m.json"
    save_matrix(A, path)
    back = load_matrix(path)
    np.testing.assert_array_equal(back, A)
    assert loads_matrix(dumps_matrix(A)).shape == (3, 3)


def test_matrix_io_errors():
    with pytest.raises(MatrixFormatError) as exc:
        loads_matrix("{not json")
    assert exc.value.line is not None
    with pytest.raises(MatrixFormatError):
        loads_matrix(json.dumps({"dim": 2, "rows": [[[0, 0]]]}))
    with pytest.raises(MatrixFormatError):
        loads_matrix(json.dumps({"dim": 1, "rows": [[[0]]]}))
    with pytest.raises(MatrixFormatError):
        loads_matrix(json.dumps({"rows": []}))
    with pytest.raises(MatrixFormatError):
        loads_matrix(json.dumps({"dim": 1, "rows": [[["x", 0]]]}))


def test_matrix_io_rejects_booleans_and_huge_integers(tmp_path, capsys):
    for doc in (
        {"dim": True, "rows": [[[True, False]]]},
        {"dim": 1, "rows": [[[True, 0]]]},
        {"dim": 1, "rows": [[[0.0, False]]]},
        {"dim": 1, "rows": [[[10**400, 0]]]},
    ):
        with pytest.raises(MatrixFormatError):
            loads_matrix(json.dumps(doc))
    path = tmp_path / "bool.json"
    path.write_text('{"dim": true, "rows": [[[true, false]]]}')
    assert cli.main(["radius", "--matrix", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def reference_decode(doc):
    """Per-entry decoding of the rows of a well-shaped document: the reference
    that the bulk decode must match bit for bit, refusals included."""
    dim = doc["dim"]
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(doc["rows"]):
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise MatrixFormatError(f"entry ({i},{j}) must be a [re, im] pair")
            for x in entry:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise MatrixFormatError(f"entry ({i},{j}) must hold finite numbers")
                try:
                    finite = np.isfinite(float(x))
                except OverflowError:
                    finite = False
                if not finite:
                    raise MatrixFormatError(f"entry ({i},{j}) must hold finite numbers")
            out[i, j] = complex(*entry)
    return out


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.complex128
    bits = [np.ascontiguousarray(M).view(np.uint64) for M in (a, b)]
    np.testing.assert_array_equal(*bits)


def decode_outcome(decode, doc):
    try:
        return decode(doc)
    except MatrixFormatError as exc:
        return str(exc)


def _exchange_number(rng):
    kind = int(rng.integers(9))
    if kind == 0:
        return int(rng.integers(-10**6, 10**6))
    if kind == 1:
        return int(rng.choice([2**64 + 1, -(2**63) - 1, 2**1023 + 1, 3**600]))
    if kind == 2:
        return float(rng.choice([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]))
    if kind == 3:
        return float(rng.standard_normal() * 2.0 ** -1060)  # subnormal
    if kind == 4:
        return np.float64(rng.standard_normal())  # only from dicts built in code
    return float(rng.standard_normal() * 10.0 ** float(rng.integers(-300, 300)))


def test_bulk_decode_matches_per_entry_reference():
    rng = stream_rng(64, "bulk-decode")
    for k in range(300):
        n = 1 + k % 7
        doc = {"dim": n, "rows": [[[_exchange_number(rng), _exchange_number(rng)] for _ in range(n)] for _ in range(n)]}
        assert_bitwise_equal(matrix_from_dict(doc), reference_decode(doc))
        assert_bitwise_equal(loads_matrix(json.dumps(doc)), reference_decode(doc))


_FAULTY_NUMBERS = (True, False, None, "1.5", np.float32(1.5), 10**400, -(10**400),
                   float("nan"), float("inf"), -float("inf"))
_FAULTY_ENTRIES = ([0.0], [0.0, 0.0, 0.0], [True], ["1.5", 0.0, 0.0], [], (0.0, 0.0), 0.0, None, "x", {"re": 0.0})


def test_bulk_decode_refusals_name_the_first_faulty_entry():
    rng = stream_rng(65, "bulk-refuse")
    for k in range(400):
        n = 1 + k % 4
        rows = [[[float(x), float(y)] for x, y in rng.standard_normal((n, 2))] for _ in range(n)]
        # one or two faults, of one kind or of two kinds, in random places
        for _ in range(1 + k % 2):
            i, j = (int(x) for x in rng.integers(0, n, size=2))
            if rng.integers(2):
                rows[i][j] = _FAULTY_ENTRIES[int(rng.integers(len(_FAULTY_ENTRIES)))]
            else:
                entry = [0.5, -0.5]
                entry[int(rng.integers(2))] = _FAULTY_NUMBERS[int(rng.integers(len(_FAULTY_NUMBERS)))]
                rows[i][j] = entry
        doc = {"dim": n, "rows": rows}
        expected = decode_outcome(reference_decode, doc)
        assert isinstance(expected, str)
        assert decode_outcome(matrix_from_dict, doc) == expected
    # the first fault in row-major order is named, whatever its kind
    pair_first = {"dim": 2, "rows": [[[0, 0], [1]], [[True, 0], [0, 0]]]}
    number_first = {"dim": 2, "rows": [[[0, 0], ["1.5", 0]], [[0, 0, 0], [0, 0]]]}
    assert decode_outcome(matrix_from_dict, pair_first) == "entry (0,1) must be a [re, im] pair"
    assert decode_outcome(matrix_from_dict, number_first) == "entry (0,1) must hold finite numbers"
    for text in ('[true, 0]', '[0, null]', '["1.5", 0]', '[1e999, 0]', '[NaN, 0]', '[0, -Infinity]',
                 '[' + '9' * 400 + ', 0]', '[0]', '[0, 0, 0]', '0', '{"re": 0}'):
        doc = '{"dim": 2, "rows": [[[0, 0], [0, 0]], [[0, 0], ' + text + ']]}'
        expected = decode_outcome(reference_decode, json.loads(doc))
        assert decode_outcome(loads_matrix, doc) == expected
        assert expected.startswith("entry (1,1) must")


def test_bulk_encode_matches_per_entry_reference():
    rng = stream_rng(66, "bulk-encode")
    specials = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308])
    for k in range(100):
        n = 1 + k % 6
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mask = rng.random((n, n, 2)) < 0.4
        parts = A.view(np.float64).reshape(n, n, 2)
        parts[mask] = rng.choice(specials, size=int(mask.sum()))
        for M in (A, A.T, A.real, A[::-1]):
            C = np.asarray(M, dtype=complex)
            reference = {"dim": n, "rows": [[[float(z.real), float(z.imag)] for z in row] for row in C]}
            assert dumps_matrix(M) == json.dumps(reference, indent=1) + "\n"
            assert_bitwise_equal(loads_matrix(dumps_matrix(M)), C)


# Replacement values for one node of a document's JSON tree.
_FUZZ_VALUES = (
    None, True, False, 0, -1, 2, 2**70, 10**400, 0.5, -0.0, 5e-324, 1e308, -1e308,
    float("nan"), float("inf"), "x", "", [], {}, [0], [0, 0, 0], [[0, 0]], {"dim": 1},
)
# Fragments spliced into a document's text.
_FUZZ_TOKENS = ("[", "]", "{", "}", ",", ":", '"', "-", "e", "1", "0", ".", " ", "NaN",
                "Infinity", "true", "null", "\\u0000", "\\ud800", "1e999", "[" * 3000)


def _fuzzed_documents(rng, count):
    """Exchange documents with one random edit: a node of the JSON tree
    replaced, or a slice of the text cut, duplicated or spliced."""
    for k in range(count):
        n = 1 + k % 3
        doc = matrix_to_dict(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        text = json.dumps(doc)
        if k % 2 == 0:
            paths = [("dim",), ("rows",)] + [("rows", i) for i in range(n)]
            paths += [("rows", i, j) for i in range(n) for j in range(n)]
            paths += [("rows", i, j, c) for i in range(n) for j in range(n) for c in range(2)]
            *parent, last = paths[int(rng.integers(len(paths)))]
            node = doc
            for key in parent:
                node = node[key]
            node[last] = _FUZZ_VALUES[int(rng.integers(len(_FUZZ_VALUES)))]
            yield json.dumps(doc)
        else:
            i, j = sorted(int(x) for x in rng.integers(0, len(text) + 1, size=2))
            splice = _FUZZ_TOKENS[int(rng.integers(len(_FUZZ_TOKENS)))]
            yield (text[:i] + text[j:], text[:j] + text[i:], text[:i] + splice + text[j:])[k % 3]


def test_fuzzed_exchange_documents_parse_or_fail_cleanly(tmp_path, capsys):
    rng = stream_rng(63, "fuzz")
    parsed = refused = 0
    for k, text in enumerate(_fuzzed_documents(rng, 600)):
        try:
            A = loads_matrix(text)
        except MatrixFormatError:
            refused += 1
            expected = {1}
        else:
            parsed += 1
            assert A.ndim == 2 and A.shape[0] == A.shape[1] and np.all(np.isfinite(A))
            expected = {0, 1, 2}  # 1: the radius or the norm leaves the float range
        if k % 5 == 0:
            path = tmp_path / "fuzz.json"
            path.write_text(text, encoding="utf-8")
            assert cli.main(["radius", "--matrix", str(path)]) in expected
            if expected == {1}:
                assert "error:" in capsys.readouterr().err
    assert parsed > 50 and refused > 50


def test_exchange_documents_refused_before_work(tmp_path, capsys):
    # each raised something other than MatrixFormatError (a traceback in the
    # command line): deep nesting, invalid UTF-8, a short document with a huge
    # dim, and a matrix whose radius exceeds the float range
    with pytest.raises(MatrixFormatError):
        loads_matrix("[" * 100000)
    with pytest.raises(MatrixFormatError):
        loads_matrix(json.dumps({"dim": 100000, "rows": [[]] * 100000}))
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"dim": 1}')
    with pytest.raises(MatrixFormatError):
        load_matrix(bad)
    assert cli.main(["radius", "--matrix", str(bad)]) == 1
    huge = tmp_path / "huge.json"
    save_matrix(1e308 * np.array([[1, 1j], [-1, 1]]), huge)
    assert cli.main(["radius", "--matrix", str(huge)]) == 1
    assert "float range" in capsys.readouterr().err
    one = tmp_path / "one.json"
    save_matrix(np.array([[1e308 + 1e308j]]), one)
    assert cli.main(["radius", "--matrix", str(one)]) == 0
    assert "w(A)        = 1.41421356237e+308" in capsys.readouterr().out


def test_certify_exit_codes_and_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code = cli.main(
        ["certify", "--ineq", "norm-sandwich", "--dim", "4", "--trials", "100", "--seed", "7",
         "--report", str(report)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "holds=  100" in out or "holds=100" in out.replace(" ", "")
    doc = json.loads(report.read_text())
    assert doc["records"][0]["holds"] == 100
    assert doc["records"][0]["violated"] == 0
    assert "wall" not in json.dumps(doc)  # volatile data excluded from the file


def test_certify_trials_zero_and_unknown_id(capsys):
    assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "0"]) == 0
    # a device is written, not truncated
    assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "1", "--report", os.devnull]) == 0
    code = cli.main(["certify", "--ineq", "definitely-not-a-member"])
    assert code == 1
    err = capsys.readouterr().err
    assert "norm-sandwich" in err and "hosseini-geo" in err
    assert cli.main(["certify", "--ineq", ","]) == 1
    assert "no inequality id given" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--dim", "0"],
        ["search", "--ineq", "norm-sandwich", "--dim", "0"],
        ["certify", "--trials", "-1"],
        ["certify", "--tol", "nan"],
        ["certify", "--tol", "-1"],
        ["radius", "--tol", "0"],
        ["radius", "--tol", "-1"],
        ["radius", "--tol", "nan"],
        ["radius", "--tol", "inf"],
        ["search", "--ineq", "norm-sandwich", "--restarts", "-3"],
        ["certify", "--ineq", "norm-sandwich,nope"],
        ["certify", "--ineq", ","],
        ["search", "--ineq", "nope"],
        ["search", "--ineq", "norm-sandwich,kittaneh-chain"],
    ],
    ids="_".join,
)
def test_out_of_range_flags_are_usage_errors(argv, tmp_path, capsys):
    out = tmp_path / "inst.json"
    if argv[0] == "radius":
        save_matrix(np.array([[0, 1], [0, 0]], dtype=complex), out)
        argv = argv + ["--matrix", str(out)]
    elif argv[0] == "search":
        argv = argv + ["--out", str(out)]
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert argv[0] == "radius" or not out.exists()


def stale_targets(tmp_path):
    """A longer existing file, and a symlink to another: an output written
    over either must leave exactly the bytes of a fresh write."""
    stale, linked, link = tmp_path / "stale.json", tmp_path / "linked.json", tmp_path / "link.json"
    for path in (stale, linked):
        path.write_bytes(b"stale bytes\n" * 10_000)
    link.symlink_to(linked)
    return [(stale, stale), (link, linked)]


def test_certify_byte_identical_reports(tmp_path):
    args = ["certify", "--ineq", "norm-sandwich,kittaneh-chain", "--dim", "3", "--trials", "25", "--seed", "11"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--report", str(p1)]) == 0
    assert cli.main(args + ["--report", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    for target, written in stale_targets(tmp_path):
        assert cli.main(args + ["--report", str(target)]) == 0
        assert written.read_bytes() == p1.read_bytes()
    assert (tmp_path / "link.json").is_symlink()


def test_certify_csv_format(tmp_path):
    report = tmp_path / "rep.csv"
    code = cli.main(
        ["certify", "--ineq", "scalar-refined-amgm", "--trials", "10", "--report", str(report),
         "--format", "csv"]
    )
    assert code == 0
    lines = report.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)


def test_examples_command(capsys):
    assert cli.main(["examples"]) == 0
    out = capsys.readouterr().out
    for token in ("14.52", "29.58", "25.28", "17.94", "25.4", "29.44"):
        assert token in out
    assert "new bound > Kittaneh bound" in out
    assert "Kittaneh bound > new bound" in out
    assert "MISMATCH" not in out


def test_radius_command(tmp_path, capsys):
    nil = tmp_path / "nil.json"
    save_matrix(np.array([[0, 1], [0, 0]], dtype=complex), nil)
    assert cli.main(["radius", "--matrix", str(nil)]) == 0
    out = capsys.readouterr().out
    assert "w(A)        = 0.5" in out
    assert "OK" in out
    diag = tmp_path / "diag.json"
    save_matrix(np.diag([1.0, -3.0]).astype(complex), diag)
    assert cli.main(["radius", "--matrix", str(diag)]) == 0
    assert "w(A)        = 3" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["radius", "--matrix", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_radius_command_reports_upper_and_fails_broken_sandwich(monkeypatch, tmp_path, capsys):
    path = tmp_path / "nil.json"
    save_matrix(np.array([[0, 1], [0, 0]], dtype=complex), path)
    assert cli.main(["radius", "--matrix", str(path)]) == 0
    out = capsys.readouterr().out
    assert "upper       = 0.5" in out and "gap" in out

    def doctored(A, tol):
        res = numerical_radius(A, tol=tol)
        return dataclasses.replace(res, value=3 * res.value, upper=3 * res.upper)

    monkeypatch.setattr(cli, "numerical_radius", doctored)
    assert cli.main(["radius", "--matrix", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_radius_sandwich_and_catalog_links_share_one_rule(monkeypatch, tmp_path, capsys):
    # w = ||A|| + 2.5e-8 on a unit-norm A fails 1e-8 (1 + ||A||) but passes
    # 1e-8 (1 + |lhs| + |rhs|), the rule of every catalog link; 4e-8 fails both
    path = tmp_path / "unit.json"
    A = np.diag([1.0, 0.5]).astype(complex)
    save_matrix(A, path)
    nrm = cli.operator_norm(A)
    hyp = catalog.HypothesisReport(satisfied=True)
    for excess, status, code in ((2.5e-8, catalog.Status.HOLDS, 0), (4e-8, catalog.Status.VIOLATED, 2)):
        w = nrm + excess
        monkeypatch.setattr(cli, "numerical_radius", lambda A, tol: dataclasses.replace(numerical_radius(A, tol=tol), value=w))
        assert cli.main(["radius", "--matrix", str(path)]) == code
        assert ("OK" if code == 0 else "FAIL") in capsys.readouterr().out
        links = [("half-norm <= w", nrm / 2, w), ("w <= norm", w, nrm)]
        outcome = (links, {}, [])
        assert catalog._verdict(catalog.InequalityId.NORM_SANDWICH, hyp, outcome, 1e-8).status is status


def test_radius_module_entry_on_huge_entries(tmp_path):
    # entries near 1e160 overflow a Gram product formed without scaling
    path = tmp_path / "huge.json"
    save_matrix(1e160 * np.array([[1, 2j, 0], [0, 1, 3], [1e-3, 0, -2]], dtype=complex), path)
    env = dict(os.environ, PYTHONPATH=str(Path(numradlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "numradlab", "radius", "--matrix", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout and "inf" not in proc.stdout


def test_a_closed_stdout_exits_one_without_traceback():
    # the reader closed its end before the command wrote: the write fails with
    # EPIPE, which prints one error line, and the flush at exit stays silent.
    # Buffered, as by default, stdout first writes when the command flushes it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(numradlab.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "numradlab", "examples"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_search_zero_restarts_writes_seed_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    argv = ["search", "--ineq", "sum-new-bound", "--dim", "2", "--restarts", "0", "--seed", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["ineq"] == "sum-new-bound"
    assert doc["slack"] > 0
    assert set(doc["matrices"]) == {"A", "B"}
    assert doc["matrices"]["A"]["dim"] == 2
    for target, written in stale_targets(tmp_path):
        assert cli.main(argv[:-1] + [str(target)]) == 0
        assert written.read_bytes() == out.read_bytes()


def test_search_descends_norm_sandwich(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code = cli.main(
        ["search", "--ineq", "norm-sandwich", "--dim", "2", "--restarts", "4", "--seed", "2",
         "--out", str(out)]
    )
    assert code == 0
    final = json.loads(out.read_text())["slack"]
    # slack strictly shrinks relative to the plain seed instance
    seed_out = tmp_path / "seed.json"
    cli.main(["search", "--ineq", "norm-sandwich", "--dim", "2", "--restarts", "0", "--seed", "2",
              "--out", str(seed_out)])
    assert final <= json.loads(seed_out.read_text())["slack"] + 1e-12
    assert final >= -1e-8


@pytest.mark.parametrize("ineq", ["superquad-defect", "dragomir-vector"])
def test_search_does_not_reevaluate_an_instance_it_cannot_move(ineq, monkeypatch, tmp_path):
    # the starts are evaluated in chunks, the descent's candidates one by one:
    # count the instances through both
    evaluate, evaluate_many = catalog.evaluate, suite.evaluate_many
    calls = []

    def counted(member, inst):
        calls.append(inst)
        return evaluate(member, inst)

    def counted_many(member, insts, tol_rel=1e-8):
        calls.extend(insts)
        return evaluate_many(member, insts, tol_rel=tol_rel)

    monkeypatch.setattr(catalog, "evaluate", counted)
    monkeypatch.setattr(suite, "evaluate_many", counted_many)
    out = tmp_path / "inst.json"
    code = cli.main(["search", "--ineq", ineq, "--restarts", "2", "--dim", "3", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert len(calls) <= 2


def test_search_keeps_a_positivity_hypothesis_on_hermitian_operands(tmp_path, capsys):
    # the descent moves euclidean-sandwich's positive A and B by congruences,
    # so the document keeps Hermitian operands instead of certifying a
    # Hermitian part
    out = tmp_path / "inst.json"
    argv = ["search", "--ineq", "euclidean-sandwich", "--restarts", "2", "--dim", "3", "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "holds"
    for name in ("A", "B"):
        M = matrix_from_dict(doc["matrices"][name])
        assert np.linalg.norm(M - M.conj().T) <= 1e-12 * np.linalg.norm(M), name


@pytest.mark.parametrize("ineq", ["euclidean-sandwich", "mond-pecaric"])
def test_search_moves_a_positive_operand(ineq, monkeypatch, tmp_path):
    # a positive operand moves by a congruence that keeps it positive, so most
    # candidates meet the positivity hypotheses; noise added to every entry
    # left all 60 of them not-applicable
    evaluate = catalog.evaluate
    statuses = []

    def counted(member, inst):
        result = evaluate(member, inst)
        statuses.append(result.status)
        return result

    monkeypatch.setattr(catalog, "evaluate", counted)
    out = tmp_path / "inst.json"
    assert cli.main(["search", "--ineq", ineq, "--restarts", "2", "--dim", "3", "--seed", "1", "--out", str(out)]) == 0
    assert statuses and statuses.count(catalog.Status.NOT_APPLICABLE) < len(statuses) / 2


def test_perturbed_keeps_a_positive_operand_positive_and_moves_the_others_as_before():
    member = catalog.InequalityId.FCONN_RADIUS  # A positive invertible, B positive, X generic
    inst = suite.draw_instance(member, EnsembleSpec(dim=4, seed=1), 0)
    cand = cli._perturbed(inst, stream_rng(3, "perturb"), 0.1, catalog.MEMBERS[member].build.kinds)
    for name in ("A", "B"):
        M = getattr(cand, name)
        assert not np.array_equal(M, getattr(inst, name)), name
        np.testing.assert_array_equal(M, M.conj().T)
    assert np.linalg.eigvalsh(cand.A)[0] > 0
    # a generic operand moves by sigma Z, from the stream after A's and B's steps
    rng = stream_rng(3, "perturb")
    steps = [complex_gaussian(rng, inst.X.shape) for _ in "ABX"]
    np.testing.assert_array_equal(cand.X, inst.X + 0.1 * steps[2])


def test_certify_exit_two_on_violation(monkeypatch, tmp_path):
    from numradlab.report import IneqRecord, SuiteReport

    def doctored_run_suite(ids, ensemble, trials, tol_rel=1e-8):
        rec = IneqRecord("norm-sandwich", trials, trials - 1, 1, 0, 0, -1.0, 0.5, 0, {}, [])
        return SuiteReport.build(config={"ids": ["norm-sandwich"], "seed": ensemble.seed}, records=[rec], wall_time=0.0)

    monkeypatch.setattr(suite, "run_suite", doctored_run_suite)
    assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "5"]) == 2


def _no_convergence(*args, **kwargs):
    raise NoConvergence("eigensolver did not converge")


def test_certify_reports_kernel_errors(monkeypatch, capsys):
    monkeypatch.setattr(suite, "run_suite", _no_convergence)
    assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "2"]) == 1
    assert "did not converge" in capsys.readouterr().err


def test_search_reports_kernel_errors(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(suite, "evaluate_many", _no_convergence)
    out = tmp_path / "inst.json"
    assert cli.main(["search", "--ineq", "norm-sandwich", "--restarts", "0", "--out", str(out)]) == 1
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_examples_reports_kernel_errors(monkeypatch, capsys):
    monkeypatch.setattr(catalog, "evaluate", _no_convergence)
    assert cli.main(["examples"]) == 1
    err = capsys.readouterr().err
    assert "error: eigensolver did not converge" in err and "Traceback" not in err


def test_search_spends_the_certify_draw_budget(monkeypatch, tmp_path, capsys):
    # search draws its starts through the suite's loop, in index order and
    # within 100 draws per start; the budget's error names the member
    drawn = []
    draw_chunk = suite.draw_chunk

    def never_applicable(ineq, insts, tol_rel=1e-8):
        return [catalog._not_applicable(ineq, catalog.HypothesisReport(satisfied=False)) for _ in insts]

    monkeypatch.setattr(suite, "draw_chunk", lambda ineq, ens, idx: drawn.append(list(idx)) or draw_chunk(ineq, ens, idx))
    monkeypatch.setattr(suite, "evaluate_many", never_applicable)
    out = tmp_path / "inst.json"
    assert cli.main(["search", "--ineq", "norm-sandwich", "--dim", "2", "--restarts", "2", "--out", str(out)]) == 1
    assert "error: norm-sandwich: no hypothesis-satisfying instance within 200 draws" in capsys.readouterr().err
    assert [i for chunk in drawn for i in chunk] == list(range(200))
    assert len(drawn) <= 8  # each chunk after an all-refused one at least doubles
    assert not out.exists()


@pytest.mark.parametrize(
    "command, prefix",
    [
        (["search", "--ineq", "norm-sandwich", "--dim", "2", "--restarts", "0", "--out", "{missing}/inst.json"],
         "error: cannot write instance:"),
        (["certify", "--dim", "2", "--trials", "1", "--report", "{missing}/r.json"], "error: cannot write report:"),
        (["radius", "--matrix", "{missing}/m.json"], "error: cannot read matrix:"),
    ],
    ids=["search", "certify", "radius"],
)
def test_io_failures_exit_one_without_traceback(command, prefix, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert cli.main([arg.format(missing=missing) for arg in command]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err
    assert not missing.exists()


def test_search_flags_violated_theorem_member(monkeypatch, tmp_path, capsys):
    evaluate_many = suite.evaluate_many

    def violated(ineq, insts, tol_rel=1e-8):
        results = evaluate_many(ineq, insts, tol_rel=tol_rel)
        return [dataclasses.replace(r, slack=-1.0, status=catalog.Status.VIOLATED) for r in results]

    monkeypatch.setattr(suite, "evaluate_many", violated)
    out = tmp_path / "inst.json"
    code = cli.main(["search", "--ineq", "norm-sandwich", "--dim", "2", "--restarts", "0", "--out", str(out)])
    assert code == 2
    assert "implementation bug" in capsys.readouterr().err
    assert json.loads(out.read_text())["status"] == "violated"


def test_seed_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("NUMRAD_SEED", "4242")
    parser = cli.build_parser()
    args = parser.parse_args(["certify"])
    assert args.seed == 4242
    args = parser.parse_args(["search", "--ineq", "norm-sandwich"])
    assert args.seed == 4242
    # main reuses its parser, but follows the variable between calls
    report = tmp_path / "rep.json"
    for seed in ("5", "6", "5"):
        monkeypatch.setenv("NUMRAD_SEED", seed)
        assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "0", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["seed"] == int(seed)


def test_malformed_seed_env_fails_only_the_seeded_commands(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("NUMRAD_SEED", "abc")
    assert cli.main(["examples"]) == 0
    path = tmp_path / "m.json"
    save_matrix(np.eye(2), path)
    assert cli.main(["radius", "--matrix", str(path)]) == 0
    capsys.readouterr()
    for argv in (["certify", "--dim", "2", "--trials", "1"], ["search", "--ineq", "norm-sandwich", "--restarts", "0"]):
        assert cli.main(argv) == 1
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
    # an explicit --seed does not read the variable
    assert cli.main(["certify", "--ineq", "norm-sandwich", "--trials", "0", "--seed", "3"]) == 0


def test_matrix_to_dict_shape():
    doc = matrix_to_dict(np.eye(2))
    assert doc["dim"] == 2
    assert doc["rows"][0][0] == [1.0, 0.0]
