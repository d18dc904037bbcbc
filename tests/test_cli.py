import hashlib
import json
import pathlib
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
    assert last.startswith("progress: 15/15 chunks, checked=2667, "
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


def test_gauss_verify_stdout_bytes_are_pinned(capsys):
    # direct sums print the FFT's rounding noise to 12 significant digits,
    # so any change to how psi or its FFT is computed shows up here
    assert main(["gauss-verify", "--p", "3", "--p1", "11"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "61c0382f2b9b2232aeaaba64901d57807692347464657a95e6512341892bee5b")


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
