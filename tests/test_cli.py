import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from scheme_forge import jsonio
from scheme_forge.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "scheme_forge.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_exit0_and_payload(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--p", "13", "--f", "1", "--n", "2",
                 "--parts", "0|1", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "scheme-forge/1"
    assert doc["report"]["is_scheme"] is True
    assert doc["report"]["valencies"] == [6, 6]


def test_verify_nonscheme_still_exit0(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--p", "3", "--f", "2", "--n", "8",
                 "--parts", "0,1,2|3,4|5,6,7", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["report"]["is_scheme"] is False


def test_missing_required_flag_exit2():
    code, _, err = run_cli("verify", "--f", "1", "--n", "2", "--parts", "0|1")
    assert code == 2
    assert "--p" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "13", "--f", "1", "--n", "2", "--parts", "0,1|1"],
    # an index repeated inside one part is not deduplicated away
    ["verify", "--p", "13", "--f", "1", "--n", "2", "--parts", "0,0|1"],
    ["construct", "--kind", "conference", "--p", "37", "--p1", "7",
     "--i0", "0,0,1,2,3,4,5,6"],
])
def test_overlapping_parts_exit2(argv, capsys):
    assert main(argv) == 2
    assert "PartitionInvalid: index" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "13", "--f", "1", "--n", "2", "--parts", "0|1",
     "--tolerance", "1e-3"],
    ["eigen", "--p", "13", "--f", "1", "--n", "2", "--parts", "0|1",
     "--tolerance", "1e-3"],
    ["fuse", "--p", "13", "--f", "1", "--n", "2", "--merge", "0|1",
     "--tolerance", "1e-3"],
    ["construct", "--kind", "three_class", "--p", "3", "--p1", "11",
     "--tolerance", "1e-3"],
    ["search-nonexistence", "--p", "3", "--tolerance", "1e-3"],
    ["search-nonexistence", "--p", "3", "--cap", "100"],
    ["search-nonexistence", "--p", "3", "--long-run"],
])
def test_options_no_command_reads_exit2(argv, capsys):
    assert main(argv) == 2
    option = [a for a in argv if a.startswith("--")][-1]
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def _one_line_exit2(argv, capsys, match):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and match in err, err


def test_unreadable_parts_file_exit2(tmp_path, capsys):
    _one_line_exit2(["verify", "--p", "3", "--f", "2", "--n", "8", "--parts",
                     "@" + str(tmp_path / "missing.txt")], capsys,
                    "No such file")


def test_partition_json_without_parts_exit2(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"N": 8}')
    _one_line_exit2(["verify", "--p", "3", "--f", "2", "--n", "8", "--parts",
                     "@" + str(f)], capsys, "ParseError")


def test_unwritable_output_exit2(tmp_path, capsys):
    _one_line_exit2(["verify", "--p", "13", "--f", "1", "--n", "2", "--parts",
                     "0|1", "--output", str(tmp_path / "missing" / "r.json")],
                    capsys, "No such file")


def test_field_cap_exit3():
    code = main(["verify", "--p", "13", "--f", "1", "--n", "2",
                 "--parts", "0|1", "--cap", "10"])
    assert code == 3


@pytest.mark.parametrize("argv,match", [
    (["verify", "--p", "2305843009213693951", "--f", "1", "--n", "2",
      "--parts", "0|1"], "q = 2305843009213693951^1 exceeds cap"),
    (["verify", "--p", "3", "--f", "10000", "--n", "2", "--parts", "0|1"],
     "q = 3^10000 exceeds cap"),
    (["verify", "--p", "3", "--f", "10000000", "--n", "2", "--parts", "0|1"],
     "q = 3^10000000 exceeds cap"),
    (["search-nonexistence", "--p", "20011"], "Z_40024 needs more than"),
    # 2^61 - 1 is a prime = 3 (mod 4) that trial division would not finish
    (["search-nonexistence", "--p", "2305843009213693951"], "needs more than"),
    # the index-2 field F_{3^((p1 - 1)/2)} is refused before p1 is
    # trial-divided; 2^61 - 1 = 7 (mod 8) also passes four_class's own check
    (["gauss-verify", "--p", "3", "--p1", "2305843009213693951"],
     "q = 3^1152921504606846975 exceeds cap"),
    (["construct", "--kind", "three_class", "--p", "3",
      "--p1", "2305843009213693951"], "q = 3^1152921504606846975 exceeds cap"),
    (["construct", "--kind", "four_class", "--p", "3",
      "--p1", "2305843009213693951"], "q = 3^1152921504606846975 exceeds cap"),
    # the emission-only m >= 2 family would list 2 * 11^m indices
    (["construct", "--kind", "five_class", "--p", "3", "--p1", "11",
      "--m", "100000"], "N = 2*11^100000 exceeds cap"),
    # inside the cap, but its sets would need ~6 GB
    (["construct", "--kind", "five_class", "--p", "3", "--p1", "11",
      "--m", "7"], "the five-class index sets of N = 2*11^7 need ~5947 MiB"),
    # inside the cap, but its (N, p) period counts would need ~128 GiB
    (["verify", "--p", "65521", "--f", "1", "--n", "65520", "--parts", "0|1"],
     "the order-65520 periods of F_{65521^1} need ~131010 MiB"),
    # its periods fit, but the (N, d, p - 1) signature table would be 8.5 GB
    (["verify", "--p", "1021", "--f", "2", "--n", "1022", "--parts",
      "|".join(str(i) for i in range(1022))],
     "the signature table of 1022 parts over Z_1022 on F_{1021^2} needs"),
])
def test_oversized_input_exit3_at_once(argv, match, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and match in err, err


@pytest.mark.parametrize("doc", [
    '{"N": 2, "parts": 5}',
    '{"N": 2, "parts": [[0, "a"]]}',
    '{"N": 2, "parts": [[0.5], [1]]}',
    '{"N": 2, "parts": [[true], [0]]}',
])
def test_partition_file_with_non_integer_indices_exit2(doc, tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(doc)
    _one_line_exit2(["verify", "--p", "3", "--f", "2", "--n", "2", "--parts",
                     "@" + str(f)], capsys, "PartitionInvalid")


def test_partition_file_loads_song_sets(tmp_path, sys28):
    part = jsonio.load_partition(str(FIXTURES / "f37_3_n28_partition.json"), 28)
    assert part.N == 28
    assert frozenset({0, 1, 4, 12, 16, 20, 24}) in part.part_sets()
    # the same partition inline
    inline = "|".join(",".join(str(i) for i in p) for p in part.parts)
    assert jsonio.parse_partition(inline, 28).part_sets() == part.part_sets()


def test_load_partition_at_syntax(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("0,1|2,3\n")
    part = jsonio.load_partition("@" + str(f), 4)
    assert part.d == 2


def test_parse_errors():
    from scheme_forge.errors import ParseError

    with pytest.raises(ParseError):
        jsonio.parse_partition("0,x|1", 4)
    with pytest.raises(ParseError):
        jsonio.parse_partition("0,1||2,3", 4)


def test_search_cli_json(tmp_path, capsys):
    out = tmp_path / "s.json"
    code = main(["search-nonexistence", "--p", "3", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["checked"] == 2667
    assert doc["found"] == []
    lines = capsys.readouterr().err.strip().splitlines()
    # each phase reports done/total, rate and ETA, and ends with done == total
    assert [line.split()[1] for line in lines] == \
        ["two-block", "meets", "meets", "recheck"]
    assert lines[0].startswith("progress: two-block 128/128, ")
    # 12 nonsymmetric closed schemes, all imprimitive
    assert lines[-1].startswith("progress: recheck 12/12, ")
    assert lines[-1].endswith("/s, ETA 0.0 s")


def test_search_cli_sanity_mode(tmp_path):
    out = tmp_path / "s.json"
    code = main(["search-nonexistence", "--p", "3", "--allow-symmetric",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["found"]) >= 1


def test_gauss_verify_cli(tmp_path):
    out = tmp_path / "g.json"
    code = main(["gauss-verify", "--p", "3", "--p1", "11", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["within_tolerance"] is True
    assert len(doc["per_exponent"]) == 22
    # an unreachable tolerance flips the outcome to a refutation exit
    assert main(["gauss-verify", "--p", "3", "--p1", "11",
                 "--tolerance", "1e-30", "--output", str(out)]) == 1


PINNED_STDOUT = [
    # direct sums print the FFT's rounding noise to 12 significant digits,
    # so any change to how psi or its FFT is computed shows up here
    ("gauss-verify --p 3 --p1 11",
     "61c0382f2b9b2232aeaaba64901d57807692347464657a95e6512341892bee5b"),
    # the gauss-q11e6 benchmark workload
    ("gauss-verify --p 11 --p1 7 --s 2",
     "6e43a314dcb6119b5717b2acd01d9f4ce51d709d3eb1f9970cc6751160189d11"),
    # the full order-28 cyclotomic scheme on F_{37^3}: about 1 MB of
    # eigenmatrices and intersection matrices through jsonio.dumps
    ("verify --p 37 --f 3 --n 28 --parts "
     + "|".join(str(i) for i in range(28)),
     "ddb085ad5c453d947ee8ddf3700e7b3a5dd45afd7ec694927a50ecd8561ceac6"),
    # F_{3^16}: the longest norm period a command walks, L = 21,523,360
    ("verify --p 3 --f 16 --n 8 --parts 0|1|2|3|4|5|6|7",
     "58eb25e97c78ac95a72150798f6bb0ba51d58a41899b8ca6d8b0f11549c7a022"),
    ("construct --kind three_class --p 3 --p1 11",
     "2552ed175ad04b39c061c97fcadfb8bf587d5ac58170516c35c4b4c1f485a625"),
    ("construct --kind four_class --p 11 --p1 7",
     "c674acaf246b26cb8d91f44bf14aa8a90bfce184f71aaf7377913ec15684c37b"),
    ("construct --kind five_class --p 3 --p1 11",
     "ad2a9ce1c62aae4dd94c2d3130ad0fd14e4cc914bb5b9a08e1d5a5e6c718a389"),
    # the five-class-q5e9 benchmark workload
    ("construct --kind five_class --p 5 --p1 19",
     "b999dffe9dc719f42a6d38b308e74be1a8c13e1de2bb23f28afb6fdad55435dc"),
    ("construct --kind five_class --p 3 --p1 11 --m 2",
     "2b8385f994da383e2597447c63c71ca18a4291092a1c0fbdf35ab1ff179f3219"),
    ("construct --kind conference --p 37 --p1 7",
     "c56e9d3d09f56c625d02f31076a0112e7ee210657ae9095ff38c439d0841060e"),
    ("song-reproduce",
     "6cb1b1f3f56bc629793a1bdb4d39140e23f976479d9ce845aea0d595f0a91e7c"),
    ("search-nonexistence --p 3 --allow-symmetric",
     "0caf197abd49846227c14c075e8a4da5028340a3256b103f92f45a0abd5c4cc0"),
    # the scan-p7-d3 benchmark workload: 16 closure survivors through
    # is_primitive, none of them primitive
    ("search-nonexistence --p 7 --max-classes 3",
     "656f0304977fbe0b5f17f19acb811c4c5271a46282867caf5fecf783c46f9ef9"),
    ("search-nonexistence --p 7 --max-classes 3 --allow-symmetric",
     "fc1c5182116702b73c0af785806ae43099fa8030d91ab553b9f6acfb1fd70842"),
    # the full p = 7 scan, and its 2,691 symmetric or imprimitive schemes
    ("search-nonexistence --p 7",
     "491370a6f896d1d0fa7a2cbfbe8495780b6b7c5da92c8c81f1cfd83be364d402"),
    ("search-nonexistence --p 7 --allow-symmetric",
     "f793e1a251f9b4b4a8c97fc25522492b25a17f6c25ef45029a31d25bacf06ae4"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[a.split(" --parts")[0].replace(" ", "_")
                              for a, _ in PINNED_STDOUT])
def test_stdout_bytes_are_pinned(argv, digest, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_construct_cli(tmp_path):
    out = tmp_path / "c.json"
    code = main(["construct", "--kind", "four_class", "--p", "11", "--p1", "7",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["is_scheme"] is True
    assert doc["report"]["nonsymmetric_pair_count"] == 1


def test_construct_five_class_emission(tmp_path):
    out = tmp_path / "c.json"
    code = main(["construct", "--kind", "five_class", "--p", "3", "--p1", "11",
                 "--m", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["partition"]["N"] == 242
    assert "report" not in doc


def test_construct_precondition_exit2(tmp_path):
    code = main(["construct", "--kind", "conference", "--p", "29", "--p1", "7"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    # m < 1 used to print the m = 1 document and exit 0
    ["construct", "--kind", "five_class", "--p", "5", "--p1", "19", "--m", "0"],
    ["construct", "--kind", "five_class", "--p", "5", "--p1", "19", "--m", "-2"],
    # s < 1 used to be reported as the extension degree f s
    ["gauss-verify", "--p", "11", "--p1", "7", "--s", "-1"],
    ["construct", "--kind", "three_class", "--p", "3", "--p1", "11", "--s", "0"],
    ["construct", "--kind", "four_class", "--p", "11", "--p1", "7", "--s", "-1"],
])
def test_count_below_one_exit2(argv, capsys):
    _one_line_exit2(argv, capsys,
                    f"PreconditionViolated: {argv[-2][2:]} = {argv[-1]} must be >= 1")


@pytest.mark.parametrize("argv", [
    # each used to exit 1, a refutation, as no error is within it
    ["gauss-verify", "--p", "3", "--p1", "11", "--tolerance", "-1"],
    ["gauss-verify", "--p", "3", "--p1", "11", "--tolerance", "nan"],
    ["song-reproduce", "--tolerance", "-1"],
    ["song-reproduce", "--tolerance", "nan"],
])
def test_negative_or_nan_tolerance_exit2(argv, capsys):
    _one_line_exit2(argv, capsys,
                    f"argument --tolerance: '{argv[-1]}' is not a non-negative number")


@pytest.mark.parametrize("argv", [
    ["gauss-verify", "--p", "3", "--p1", "11", "--tolerance", "abc"],
    ["song-reproduce", "--tolerance", "abc"],
])
def test_unparsable_tolerance_names_float_exit2(argv, capsys):
    # argparse alone would name the type function: "invalid _tolerance value"
    _one_line_exit2(argv, capsys, "argument --tolerance: invalid float value: 'abc'")


@pytest.mark.parametrize("argv", [
    # each used to exit 0 with the document of the option's default
    ["construct", "--kind", "five_class", "--p", "3", "--p1", "11", "--s", "5"],
    ["construct", "--kind", "conference", "--p", "37", "--p1", "7", "--s", "1"],
    ["construct", "--kind", "three_class", "--p", "3", "--p1", "11", "--m", "7"],
    ["construct", "--kind", "four_class", "--p", "11", "--p1", "7", "--m", "1"],
    ["construct", "--kind", "conference", "--p", "37", "--p1", "7", "--m", "2"],
    ["construct", "--kind", "three_class", "--p", "3", "--p1", "11",
     "--i0", "0,1"],
    ["construct", "--kind", "four_class", "--p", "11", "--p1", "7",
     "--i0", "0,1"],
    ["construct", "--kind", "five_class", "--p", "5", "--p1", "19",
     "--i0", "0,1"],
])
def test_construct_option_the_kind_ignores_exit2(argv, capsys):
    _one_line_exit2(argv, capsys,
                    f"construct --kind {argv[2]} does not read {argv[-2]}")


@pytest.mark.parametrize("merge", ["0||1,2,3,4", "0|1,2,3,4|"])
def test_fuse_empty_cell_exit2(merge, capsys):
    # used to exit 0 with "fusable": false, refuting a fusable merge
    _one_line_exit2(["fuse", "--p", "3", "--f", "2", "--n", "4",
                     "--merge", merge], capsys, "MalformedPartition")


@pytest.mark.parametrize("cap", ["0", "-5", "1"])
@pytest.mark.parametrize("argv", [
    ["verify", "--p", "13", "--f", "1", "--n", "2", "--parts", "0|1"],
    ["gauss-verify", "--p", "3", "--p1", "11"],
])
def test_cap_below_two_exit2(argv, cap, capsys):
    # such a cap admits no field: a configuration error, not exit 3
    _one_line_exit2(argv + ["--cap", cap], capsys,
                    f"argument --cap: '{cap}' admits no field (q >= 2)")


@pytest.mark.parametrize("cap", ["abc", "1.5"])
def test_unparsable_cap_names_int_exit2(cap, capsys):
    _one_line_exit2(["verify", "--p", "13", "--f", "1", "--n", "2", "--parts",
                     "0|1", "--cap", cap], capsys,
                    f"argument --cap: invalid int value: '{cap}'")


def test_allocation_failure_exit3(monkeypatch, capsys):
    # the backstop for an estimate that misses: one line and the resource
    # code, not a traceback and 1, the refutation code
    from scheme_forge import scheme_core

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.93 GiB")

    monkeypatch.setattr(scheme_core, "verify_scheme", out_of_memory)
    assert main(["verify", "--p", "13", "--f", "1", "--n", "2",
                 "--parts", "0|1"]) == 3
    err = capsys.readouterr().err
    assert err == "scheme-forge: MemoryError: Unable to allocate 7.93 GiB\n"


def test_fuse_cli(tmp_path):
    out = tmp_path / "f.json"
    code = main(["fuse", "--p", "13", "--f", "1", "--n", "4",
                 "--merge", "0|1,3|2,4", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["fusable"] is True
    assert doc["row_partition"][0] == [0]


def test_song_reproduce_cli(tmp_path):
    out = tmp_path / "song.json"
    code = main(["song-reproduce", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["intersection_matrices_match"] is True
    assert doc["rho_exact_identity"] is True
    assert doc["template_max_err"] < 1e-6


def test_byte_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    evens = ",".join(str(i) for i in range(0, 22, 2))
    odds = ",".join(str(i) for i in range(1, 22, 2))
    for path in (a, b):
        assert main(["eigen", "--p", "3", "--f", "5", "--n", "22",
                     "--parts", f"{evens}|{odds}",
                     "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gauss_verify_imports_only_what_it_runs(tmp_path):
    # the package resolves its public names on first use, so gauss-verify
    # leaves the scan, the constructions and the scheme verifier unloaded
    import scheme_forge

    readme = pathlib.Path(__file__).parents[1] / "README.md"
    imports = re.findall(r"^from scheme_forge import \([^)]*\)",
                         readme.read_text(), flags=re.M)
    assert imports
    code = f"""
import sys
from scheme_forge.cli import main
assert main(["gauss-verify", "--p", "3", "--p1", "11",
             "--output", {str(tmp_path / "g.json")!r}]) == 0
loaded = sorted(m for m in sys.modules
                if m in ("concurrent.futures", "scheme_forge.constructions",
                         "scheme_forge.cyclotomy", "scheme_forge.scheme_core",
                         "scheme_forge.search"))
assert not loaded, loaded
{chr(10).join(imports)}
import scheme_forge
for name in scheme_forge.__all__:
    getattr(scheme_forge, name)
"""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(
        scheme_forge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    with pytest.raises(AttributeError):
        scheme_forge.no_such_name


def test_search_imports_only_what_it_runs(tmp_path):
    # the closure search runs without the scan kernels (the tests' oracle),
    # the constructions or the Gauss sums
    import scheme_forge

    code = f"""
import sys
from scheme_forge.cli import main
assert main(["search-nonexistence", "--p", "3",
             "--output", {str(tmp_path / "s.json")!r}]) == 0
loaded = sorted(m for m in sys.modules
                if m in ("scheme_forge._kernels", "scheme_forge.constructions",
                         "scheme_forge.gauss_sums"))
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(
        scheme_forge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_cli_starts_one_blas_thread():
    # OpenBLAS sizes its thread pool as numpy loads: the CLI asks for one
    # thread unless OPENBLAS_NUM_THREADS is set, the library asks for nothing
    import scheme_forge

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(pathlib.Path(scheme_forge.__file__).parents[1])

    def run(code, **extra):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    cli = """
import os
import scheme_forge.cli
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    assert run(cli) == ["1", "1"]
    assert run(cli, OPENBLAS_NUM_THREADS="2")[1] == "2"
    assert run("""
import os
import scheme_forge
scheme_forge.build_field(3, 2)
print(os.environ.get("OPENBLAS_NUM_THREADS"))
""") == ["None"]
