"""Command-line behavior: formats, exit codes, composition."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from nilmat import cli, distortion, presentation
from nilmat.cli import main
from nilmat.distortion import SubgroupGens, distorted_subgroup, subgroup_to_json
from nilmat.jennings import jennings_embedding
from nilmat.matgroup import elementary
from nilmat.presentation import (
    NilpotentPresentation,
    builtin,
    presentation_from_json,
    presentation_to_json,
)


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_embed_jennings_json(capsys):
    rc, out, err = run(capsys, "embed", "jennings", "ut:3")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert list(payload) == ["d", "ordering", "generators", "unitriangular"]
    assert payload["d"] == 7
    assert payload["unitriangular"] is True
    assert payload["generators"][0]["rows"][0][1] == "-1"


def test_embed_table_format(capsys):
    rc, out, err = run(capsys, "embed", "jennings", "ut:3",
                       "--format", "table")
    assert rc == 0
    assert out.startswith("d = 7\n")
    assert "generator 1:" in out
    assert "relators_ok = true" in out


def test_embed_nickel_declared(capsys):
    rc, out, _ = run(capsys, "embed", "nickel", "ut:3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["d"] == 4
    assert payload["ordering"] == ["t12", "t13", "t23", "1"]

    rc, out, _ = run(capsys, "embed", "nickel", "ut:3",
                     "--order", "1,t12,t13,t23")
    assert rc == 0
    assert json.loads(out)["unitriangular"] is False


def test_embed_errors_print_nothing(capsys):
    rc, out, err = run(capsys, "embed", "nickel", "ut:4")
    assert rc == 1
    assert out == ""
    assert "declared ordering" in err

    rc, out, err = run(capsys, "embed", "jennings", "nosuchgroup")
    assert rc == 1 and out == ""

    rc, out, err = run(capsys, "embed", "jennings", "ut:3",
                       "--order", "weight-lex,extra")
    assert rc == 1 and out == ""


def write_inconsistent(tmp_path):
    """A relation set that cannot hold in any group, as a file spec."""
    bad = NilpotentPresentation(
        5, (1, 1, 1, 2, 3),
        {(2, 1): (0, 0, 0, 1, 0), (4, 3): (0, 0, 0, 0, 1)},
        label="bad",
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(presentation_to_json(bad)))
    return f"file:{path}"


def test_failed_relators_exit_2(capsys, tmp_path):
    # the images are still reported, with the failure signaled through
    # the exit code
    spec = write_inconsistent(tmp_path)
    rc, out, _ = run(capsys, "embed", "jennings", spec)
    assert rc == 2
    assert json.loads(out)["d"] == 25
    # a reversed order's images are not unitriangular; the relations
    # fail in every basis order all the same
    reversed_order = ",".join(map(str, range(24, -1, -1)))
    rc, out, _ = run(capsys, "embed", "jennings", spec,
                     "--order", reversed_order)
    assert rc == 2
    assert json.loads(out)["unitriangular"] is False
    with open(spec[5:], encoding="utf-8") as fh:
        bad = presentation_from_json(json.load(fh))
    for order in ("weight-lex", tuple(range(24, -1, -1))):
        assert jennings_embedding(bad, order=order).relators_ok is False


def test_nickel_rejects_inconsistent_file_group(capsys, tmp_path):
    spec = write_inconsistent(tmp_path)
    for command in ("embed", "orderings"):
        rc, out, err = run(capsys, command, "nickel", spec)
        assert rc == 1 and out == ""
        assert "associativity" in err

    good = tmp_path / "good.json"
    good.write_text(json.dumps(presentation_to_json(builtin("ut:3"))))
    rc, out, _ = run(capsys, "orderings", "nickel", f"file:{good}")
    assert rc == 0
    assert json.loads(out)["records"][0]["unitriangular"] is True


def dump_builtin(tmp_path, name):
    path = tmp_path / f"{name.replace(':', '_')}.json"
    path.write_text(json.dumps(presentation_to_json(builtin(name))))
    return f"file:{path}"


@pytest.mark.parametrize("argv", [
    ("embed", "jennings", "ut:4:scheme", "--order", "scheme-perturbed"),
    ("embed", "nickel", "ut:3:scheme"),
])
def test_dumped_builtin_keeps_its_realization(capsys, tmp_path, argv):
    # positions and ambient_n survive the file, so the perturbed order,
    # the declared ordering and the t_ij labels all still apply
    rc, want, _ = run(capsys, *argv)
    assert rc == 0
    loaded = list(argv)
    loaded[2] = dump_builtin(tmp_path, argv[2])
    rc, out, err = run(capsys, *loaded)
    assert rc == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("positions", [
    [[1, 2], [2, 3]],
    [[1, 2], [2, 3], [1, 4]],
    [[1, 2], [2, 3], [3, 1]],
    [[1, 2], [2, 3], [1, 2.5]],
])
def test_embed_rejects_malformed_positions(capsys, tmp_path, positions):
    obj = presentation_to_json(builtin("ut:3:scheme"))
    obj["positions"] = positions
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    for kind in ("jennings", "nickel"):
        rc, out, err = run(capsys, "embed", kind, f"file:{path}")
        assert rc == 1 and out == ""
        assert err.startswith("nilmat: error:")


@pytest.mark.parametrize("second", [
    {"j": 2, "i": 1, "word": [0, 0, -5]},
    {"j": "2", "i": 1, "word": [0, 0, -5]},
])
def test_embed_rejects_duplicate_relation_keys(capsys, tmp_path, second):
    # a repeated (j, i), once the keys are read as integers, is refused
    # instead of the last word silently winning
    obj = presentation_to_json(builtin("heisenberg:1"))
    obj["relations"].append(second)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "embed", "jennings", f"file:{path}")
    assert rc == 1 and out == ""
    assert err == "nilmat: error: duplicate relation key (2, 1)\n"


def test_ambient_n_cap_exit_3(capsys, tmp_path, monkeypatch):
    obj = presentation_to_json(builtin("heisenberg:1"))
    path = tmp_path / "group.json"
    # N = 724 is the largest ambient size with N(N-1)/2 <= 2^18
    obj["ambient_n"] = 724
    path.write_text(json.dumps(obj))
    rc, out, err = run(capsys, "embed", "nickel", f"file:{path}")
    assert rc == 0 and err == ""

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(presentation, "elementary", no_matrix)
    for n in (725, 10**9):
        obj["ambient_n"] = n
        path.write_text(json.dumps(obj))
        for command in ("embed", "orderings"):
            rc, out, err = run(capsys, command, "nickel", f"file:{path}")
            assert rc == 3 and out == ""
            assert f"ambient_n = {n} has N(N-1)/2 = {n * (n - 1) // 2} " \
                "positions; the cap is 262144" in err


# sha256 of stdout per command line; the three permuted embeddings take
# the RationalSquareMatrix path
PINNED_STDOUT = {
    "orderings-nickel-heisenberg2-exhaustive": (
        ("orderings", "nickel", "heisenberg:2", "--exhaustive"),
        "261012b8d1030f96da835d5018501c27876b9ab47a12409038513718ea7ef41f",
    ),
    "orderings-nickel-heisenberg3-exhaustive": (
        ("orderings", "nickel", "heisenberg:3", "--exhaustive"),
        "c4627ede691ece7a1e68326ed12d330513123d50375af1a9d621d688f04e6fca",
    ),
    "orderings-jennings-ut3": (
        ("orderings", "jennings", "ut:3"),
        "4d17f46115f0d75782541de2fba6e49acbde5598f0409cad92cb3d6b6349cb3e",
    ),
    "orderings-jennings-ut4scheme": (
        ("orderings", "jennings", "ut:4:scheme"),
        "a38317a06e8cf4af678203d7b86341155e2bb5d4a5d69242a288bae86cbdaeda",
    ),
    "orderings-jennings-freenil23": (
        ("orderings", "jennings", "freenil23"),
        "256b517559fb1b6a7813f09bd228d74cc808641b22dd4df2ddb4364e52ea4f13",
    ),
    "embed-jennings-ut3-permuted": (
        ("embed", "jennings", "ut:3", "--order", "1,2,3,4,5,6,0"),
        "8317cdfaf08cec44a53e62c2ee6ea7d019f95a7bb94d464ad7df6e96b3eca9f1",
    ),
    "embed-nickel-ut3-permuted": (
        ("embed", "nickel", "ut:3", "--order", "1,t12,t13,t23"),
        "4ae074ad6fcdd6f0efca9b86ce4ba3e168c4db234f1204730e62f4b3462d9d8d",
    ),
    "embed-jennings-ut4-reversed": (
        ("embed", "jennings", "ut:4", "--order",
         ",".join(map(str, range(28, -1, -1)))),
        "ee046d9aab321a22d995cda187d8abbe0411375423a3459673d16fa56d04aa8c",
    ),
    # scheme-perturbed is not unitriangular on ut:4 and ut:5, and is on
    # heisenberg:2
    "orderings-jennings-ut4": (
        ("orderings", "jennings", "ut:4"),
        "a0edfbb363f0487644282306f6c03b9fbce91aba95cab267879ca7bb5ffbd570",
    ),
    "orderings-jennings-ut5": (
        ("orderings", "jennings", "ut:5"),
        "8809625a8f31a554654e0980f1761b755673463d2769041df7ee29c11ef97acc",
    ),
    "orderings-jennings-heisenberg2": (
        ("orderings", "jennings", "heisenberg:2"),
        "49a51cd1799ae1d614b0c3aaa4be55a5246b1fec14998a1e6794656ccc296fca",
    ),
    "embed-jennings-ut4scheme-perturbed": (
        ("embed", "jennings", "ut:4:scheme", "--order", "scheme-perturbed"),
        "9c92868c7add3ec9b8be65d33cfedd26c3967c753fb23caf777bacb185ff5a17",
    ),
    "embed-jennings-ut5-perturbed": (
        ("embed", "jennings", "ut:5", "--order", "scheme-perturbed"),
        "6a155b24ef228a0d14101ce21168ee4654c71f5eaf350e5eae4953fa2be36ea8",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_STDOUT))
def test_stdout_is_pinned(capsys, case):
    argv, digest = PINNED_STDOUT[case]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_orderings_nickel_report_first_has_no_size_cap(capsys):
    rc, out, err = run(capsys, "orderings", "nickel", "ut:5:scheme")
    assert rc == 0 and err == ""
    (record,) = json.loads(out)["records"]
    assert record["unitriangular"] is True
    assert record["weights"] == [1, 1, 2, 1, 2, 3, 1, 2, 3, 4]
    assert record["degree"] == "1"
    rc, out, err = run(capsys, "orderings", "nickel", "ut:5:scheme",
                       "--exhaustive")
    assert rc == 3 and out == ""
    assert "dimension 8" in err
    assert "this module has dimension 11" in err


@pytest.mark.parametrize("entry", ["2.7", "true", "Infinity"])
def test_distortion_rejects_non_integer_entries(capsys, tmp_path, entry):
    rc, out, _ = run(capsys, "construct", "--p", "3", "--q", "2")
    payload = json.loads(out)
    payload["generators"][0]["rows"][0][1] = "@"
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(payload).replace('"@"', entry))
    rc, out, err = run(capsys, "distortion", f"file:{path}")
    assert rc == 1 and out == ""
    assert err.startswith("nilmat: error:")


ROWS3 = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("N,n,rows", [
    (True, True, [["1"]]),
    (1, True, [["1"]]),
    (3.0, 3, ROWS3),
    (3, 3.0, ROWS3),
    # a string where a list belongs is not read character by character
    (2, 2, ["11", "01"]),
    (1, 1, "1"),
])
def test_distortion_rejects_non_integer_sizes(capsys, tmp_path, N, n, rows):
    payload = {"N": N, "generators": [{"n": n, "rows": rows}]}
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "distortion", f"file:{path}")
    assert rc == 1 and out == ""
    if isinstance(rows, str):
        want = "matrix rows must be a JSON list, not str"
    elif isinstance(rows[0], str):
        want = "matrix row must be a JSON list, not str"
    else:
        want = "is not an integer"
    assert err.startswith("nilmat: error:") and want in err


def test_distortion_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    rc, out, err = run(capsys, "distortion", f"file:{path}")
    assert rc == 1 and out == ""
    assert err.startswith("nilmat: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("field,value", [
    ("M", 3.0), ("weight", 2.7), ("weight", True), ("key", 2.0),
    ("word", True), ("word", -1.0),
    # the digits of the right list, as a string in its place
    ("weights", "112"), ("relation word", "001"),
    # a label is printed as the group's name, so it must be a string
    ("label", {"x": 1}), ("label", 7),
])
def test_embed_rejects_non_integer_presentation_fields(
    capsys, tmp_path, field, value
):
    obj = presentation_to_json(builtin("heisenberg:1"))
    (rel,) = obj["relations"]
    if field == "M":
        obj["M"] = value
    elif field == "weight":
        obj["weights"][2] = value
    elif field == "weights":
        obj["weights"] = value
    elif field == "key":
        rel["j"] = value
    elif field == "word":
        rel["word"][2] = value
    elif field == "label":
        obj["label"] = value
    else:
        rel["word"] = value
    path = tmp_path / "group.json"
    path.write_text(json.dumps(obj))
    for kind in ("jennings", "nickel"):
        rc, out, err = run(capsys, "embed", kind, f"file:{path}")
        assert rc == 1 and out == ""
        assert err.startswith("nilmat: error:")
        if isinstance(value, str):
            assert f"{field} must be a JSON list, not str" in err
        if field == "label":
            assert f"label must be a string or null, not {value!r}" in err


@pytest.mark.parametrize("argv,payload", [
    (("distortion",), {"N": 3, "generators": 5}),
    (("embed", "jennings"), {"M": 1, "weights": [1], "relations": 5}),
])
def test_non_list_reader_fields_exit_1(capsys, tmp_path, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, *argv, f"file:{path}")
    assert rc == 1 and out == ""
    field = "generators" if "N" in payload else "relations"
    assert err == f"nilmat: error: {field} must be a JSON list, not int\n"


def test_construct_json(capsys):
    rc, out, _ = run(capsys, "construct", "--p", "3", "--q", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["N"] == 4
    assert len(payload["generators"]) == 3


def test_construct_rejects_bad_ratio(capsys):
    rc, out, err = run(capsys, "construct", "--p", "2", "--q", "3")
    assert rc == 1 and out == ""


def test_construct_size_cap_exit_3(capsys):
    rc, out, err = run(capsys, "construct", "--p", "724", "--q", "2")
    assert rc == 3 and out == ""
    assert "N(N-1)/2 = 262450 positions; the cap is 262144" in err


def test_construct_pipes_into_distortion():
    base = [sys.executable, "-m", "nilmat.cli"]
    construct = subprocess.run(
        base + ["construct", "--p", "3", "--q", "2"],
        capture_output=True, text=True,
    )
    assert construct.returncode == 0
    report = subprocess.run(
        base + ["distortion"],
        input=construct.stdout, capture_output=True, text=True,
    )
    assert report.returncode == 0
    payload = json.loads(report.stdout)
    assert payload["d_H"] == "3/2"
    assert [(s["m"], s["t"]) for s in payload["strata"]] == [(3, 2), (1, 1)]


def test_distortion_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    sub = SubgroupGens(3, [elementary(3, 1, 3)])
    blob = json.dumps(subgroup_to_json(sub))
    path = tmp_path / "sub.json"
    path.write_text(blob)
    rc, out, _ = run(capsys, "distortion", f"file:{path}")
    assert rc == 0
    assert json.loads(out)["d_H"] == "2"

    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, _ = run(capsys, "distortion")
    assert rc == 0
    assert json.loads(out)["d_H"] == "2"

    rc, out, err = run(capsys, "distortion", "notaspec")
    assert rc == 1 and out == ""


def test_empirical_table(capsys, monkeypatch):
    sub = SubgroupGens(3, [elementary(3, 1, 3)])
    blob = json.dumps(subgroup_to_json(sub))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, _ = run(capsys, "empirical", "--radius", "8")
    assert rc == 0
    payload = json.loads(out)
    assert payload["delta"]["8"] == 4
    assert not any(payload["capped"].values())

    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, _ = run(capsys, "empirical", "--radius", "8",
                     "--cap", "1", "--format", "table")
    assert rc == 0
    assert "(cap hit)" in out


@pytest.mark.parametrize("argv", [
    ("embed", "nickel", "ut:3:scheme", "--truncation", "9"),
    ("orderings", "jennings", "ut:3", "--exhaustive"),
    ("empirical", "--radius", "-2"),
    ("empirical", "--radius", "3", "--cap", "-2"),
])
def test_flag_outside_its_domain_exits_1(capsys, monkeypatch, argv):
    # each was once ignored or printed an empty table, with exit 0
    sub = SubgroupGens(3, [elementary(3, 1, 3)])
    blob = json.dumps(subgroup_to_json(sub))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    flag = [a for a in argv if a.startswith("--")][-1]
    assert err.startswith(f"nilmat: error: {flag} ")


@pytest.mark.parametrize("argv", [
    ("embed", "jennings", "ut:0_3"),
    ("embed", "jennings", "ut: 3"),
    ("embed", "jennings", "ut:\uff13"),
    ("embed", "jennings", "heisenberg:1_0"),
    ("embed", "jennings", "ut:3", "--order", "1,2,3,4,5,6,0_0"),
    ("embed", "jennings", "ut:3", "--order", "1,2,3,4,5,6, 0"),
    ("embed", "jennings", "ut:3", "--order", "1,2,3,4,5,6,\uff10"),
])
def test_loose_integers_in_names_and_orders_exit_1(capsys, argv):
    # int() reads "0_3" and " 3" as 3 and a fullwidth digit as its
    # value, so each of these once ran with exit 0
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("nilmat: error:")
    if "--order" not in argv:
        assert "is not an integer" in err


@pytest.mark.parametrize("argv", [
    ("embed", "jennings", "ut:+3"),
    ("embed", "jennings", "ut:03"),
    ("orderings", "jennings", "ut:03"),
    ("embed", "nickel", "heisenberg:02"),
])
def test_builtin_sizes_round_trip_to_the_label(capsys, argv):
    # each once built the group labelled ut:3 or heisenberg:2, exit 0
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    size = argv[2].split(":")[1]
    assert err.startswith("nilmat: error:")
    assert f"size {size!r} is not written as {int(size)}" in err


def test_guard_exit_3(capsys, monkeypatch):
    sub = SubgroupGens(3, [elementary(3, 1, 3)])
    blob = json.dumps(subgroup_to_json(sub))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, "empirical", "--radius", "11")
    assert rc == 3
    assert out == ""
    assert "capped at 10" in err
    assert "radius 11 asked" in err
    # refused by the relation-entry estimate, before any matrix is built
    for argv in (("embed", "jennings", "ut:100"),
                 ("orderings", "nickel", "heisenberg:2000")):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == ""
        assert "in all; the cap is 65536" in err


def test_jennings_basis_cap_exit_3(capsys):
    rc, out, err = run(
        capsys, "embed", "jennings", "ut:3", "--truncation", "1000000000"
    )
    assert rc == 3
    assert out == ""
    assert "the cap is 724" in err


def test_orderings_jennings_survey(capsys):
    rc, out, _ = run(capsys, "orderings", "jennings", "ut:3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "named"
    by_name = {r["ordering"]: r for r in payload["records"]}
    assert by_name["weight-lex"]["weights"] == [1, 2, 6]
    assert by_name["weight-lex"]["degree"] == "3"
    assert by_name["scheme-perturbed"]["weights"] == [1, 1, 2]
    assert by_name["scheme-perturbed"]["degree"] == "1"


def test_orderings_nickel_modes(capsys):
    rc, out, _ = run(capsys, "orderings", "nickel", "ut:3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "report-first"
    assert len(payload["records"]) == 1
    assert payload["records"][0]["unitriangular"] is True

    rc, out, _ = run(capsys, "orderings", "nickel", "ut:3",
                     "--exhaustive")
    payload = json.loads(out)
    assert payload["mode"] == "exhaustive"
    assert len(payload["records"]) == 24
    declared = [
        r for r in payload["records"]
        if r["ordering"] == ["t12", "t13", "t23", "1"]
    ]
    assert declared[0]["unitriangular"] is True
    assert declared[0]["degree"] == "1"


def test_out_file_keeps_stdout_clean(capsys, tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w", encoding="utf-8"):
        pass
    path = tmp_path / "emb.json"
    rc, out, _ = run(capsys, "embed", "jennings", "ut:3",
                     "--out", str(path))
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text())["d"] == 7
    # the mode open() gives, and no temporary file left beside it
    assert path.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "emb.json", "plain.json"
    ]


def test_failed_out_write_leaves_the_target(capsys, tmp_path, monkeypatch):
    path = tmp_path / "emb.json"
    path.write_text("earlier result\n")
    before = sorted(tmp_path.iterdir())

    class FullDisk(io.StringIO):
        def write(self, text):
            super().write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    def fdopen(fd, *args, **kwargs):
        os.close(fd)
        return FullDisk()

    monkeypatch.setattr(os, "fdopen", fdopen)
    rc, out, err = run(capsys, "embed", "jennings", "ut:3", "--out", str(path))
    assert rc == 1 and out == ""
    assert "No space left on device" in err
    assert path.read_text() == "earlier result\n"
    assert sorted(tmp_path.iterdir()) == before


def test_runtime_error_exits_2_without_traceback(capsys, monkeypatch):
    def unstable(sub):
        raise RuntimeError("conjugation closure did not stabilize")

    monkeypatch.setattr(distortion, "standardize", unstable)
    blob = json.dumps(subgroup_to_json(distorted_subgroup(3, 2)))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, "distortion", "-")
    assert rc == 2 and out == ""
    assert err == "nilmat: error: conjugation closure did not stabilize\n"


def test_overflow_error_exits_1_without_traceback(capsys, monkeypatch):
    def overflow(args):
        raise OverflowError("integer too large to convert to float")

    monkeypatch.setattr(cli, "cmd_construct", overflow)
    rc, out, err = run(capsys, "construct", "--p", "2", "--q", "3")
    assert rc == 1 and out == ""
    assert err == "nilmat: error: integer too large to convert to float\n"


def test_strata_without_a_witness_exit_2(capsys, monkeypatch):
    # a stratum that no slot witnesses means the Lie and group sides
    # disagree: an internal inconsistency, not a StopIteration
    monkeypatch.setattr(
        distortion.LieAlgebraSpan, "strata", lambda span: ((1, 99),)
    )
    blob = json.dumps(subgroup_to_json(distorted_subgroup(3, 2)))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, "distortion", "-")
    assert rc == 2 and out == ""
    assert err == "nilmat: error: no slot at level >= 1 has depth 99\n"


def test_output_is_reproducible(capsys):
    first = run(capsys, "embed", "jennings", "freenil23")
    second = run(capsys, "embed", "jennings", "freenil23")
    assert first == second


def test_usage_errors(capsys):
    rc, out, err = run(capsys, "embed", "jennings")
    assert rc == 1 and out == ""
    rc, out, err = run(capsys)
    assert rc == 1 and out == ""
    rc, out, err = run(capsys, "--help")
    assert rc == 0
    assert "usage" in out


# sha256 of --help at 80 columns; embed and orderings declare kind and
# group through one helper, distortion and empirical subgroup through
# another
PINNED_HELP = {
    "embed":
        "d06bab0ff93f3811ee5811e7db9b764c267cc20bfe8ba3aff0f72a914361b1db",
    "orderings":
        "4d611ecb8853f70d6e62f85f8b9caa4e7db32effc7c2b6b51c032f69014d01fc",
    "distortion":
        "e9e07c23824df86022d4e408ddb8487fcab553624bd4d876f3da32e54dd807d1",
    "empirical":
        "6e1890b263ba7c2d0ce311e92f0fe6291e0562be208e360a28e71b37bbc32759",
}


@pytest.mark.parametrize("command", list(PINNED_HELP))
def test_help_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = run(capsys, command, "--help")
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[command]


def test_subgroup_size_cap_exit_3(capsys, monkeypatch):
    n = 725  # N(N-1)/2 = 262450, just above the cap of 2^18
    sub = SubgroupGens(n, [elementary(n, 1, 2)])
    blob = json.dumps(subgroup_to_json(sub))
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, "distortion", "-")
    assert rc == 3 and out == ""
    assert "N(N-1)/2 = 262450 positions; the cap is 262144" in err

    blob = '{"N": 600, "generators": []}'
    monkeypatch.setattr("sys.stdin", io.StringIO(blob))
    rc, out, err = run(capsys, "distortion", "-")
    assert rc == 1 and out == ""
    assert "subgroup is trivial" in err
