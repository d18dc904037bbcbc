import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from scheme_forge import jsonio
from scheme_forge.cli import main
from scheme_forge.scheme_core import IndexPartition

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


def test_overlapping_parts_exit2():
    code = main(["verify", "--p", "13", "--f", "1", "--n", "2",
                 "--parts", "0,1|1"])
    assert code == 2


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
])
def test_options_no_command_reads_exit2(argv, capsys):
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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
    last = capsys.readouterr().err.strip().splitlines()[-1]
    # 15 prefixes in 10 blocks of a shared key, one kernel call each
    assert last.startswith("progress: 10/10 chunks, checked=2667, "
                           "leaves=2795/2795, ")
    # 12 nonsymmetric kernel survivors, all imprimitive
    assert last.endswith("leaves/s, ETA 0.0 s, survivors=12")


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
    # the full order-28 cyclotomic scheme on F_{37^3}: about 1 MB of
    # eigenmatrices and intersection matrices through jsonio.dumps
    ("verify --p 37 --f 3 --n 28 --parts "
     + "|".join(str(i) for i in range(28)),
     "ddb085ad5c453d947ee8ddf3700e7b3a5dd45afd7ec694927a50ecd8561ceac6"),
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


def test_report_roundtrip_revalidates(f243):
    from scheme_forge.cyclotomy import build_cyclotomy
    from scheme_forge.scheme_core import verify_scheme

    sys11 = build_cyclotomy(f243, 11)
    part = IndexPartition.from_sets(11, [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10]])
    rep = verify_scheme(sys11, part)
    doc = json.loads(json.dumps(jsonio.report_to_json(rep)))
    back = jsonio.report_from_json(doc)
    assert jsonio.revalidate_report(back)
    assert back.is_scheme == rep.is_scheme
    if rep.is_scheme:
        assert back.valencies == rep.valencies
        assert [tuple(p) for p in back.dual_parts] == \
            [tuple(p) for p in rep.dual_parts]


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
