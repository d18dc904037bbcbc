import hashlib
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from scheme_forge import jsonio
from scheme_forge.cli import main

from oracles import check_scheme_document

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
    # the template is matched exactly: song-reproduce has no tolerance
    ["song-reproduce", "--tolerance", "1e-6"],
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


def test_oversized_gauss_sums_exit3_before_allocating(monkeypatch, capsys):
    # q = 401^3 = 6.45e7, inside the field cap: ~8.7 GiB for psi and its FFT
    from scheme_forge import gauss_sums

    def no_allocation(field):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(gauss_sums, "_psi_values", no_allocation)
    assert main(["gauss-verify", "--p", "401", "--p1", "7"]) == 3
    assert "the Gauss sums of F_{401^3} need" in capsys.readouterr().err


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
    # inside the cap, but its sets would need ~15 GB
    (["construct", "--kind", "five_class", "--p", "5", "--p1", "19",
      "--m", "6", "--cap", "100000000"],
     "the five-class index sets of N = 2*19^6 need ~14357 MiB"),
    # inside the cap, but its (N, p) period counts would need ~128 GiB
    (["verify", "--p", "65521", "--f", "1", "--n", "65520", "--parts", "0|1"],
     "the order-65520 periods of F_{65521^1} need ~131010 MiB"),
    # its periods fit, but the (N, d, p - 1) signature table would be 8.5 GB
    (["verify", "--p", "1021", "--f", "2", "--n", "1022", "--parts",
      "|".join(str(i) for i in range(1022))],
     "the signature table of 1022 parts over Z_1022 on F_{1021^2} needs"),
    # 1,023 singletons on F_{2^10}: the int64 (K, K, K) sums would be ~32 GiB
    (["verify", "--p", "2", "--f", "10", "--n", "1023", "--parts",
      "|".join(str(i) for i in range(1023))],
     "the trace sums of 1023 relations on F_{2^10} need ~32800 MiB"),
    # no field bounds p for m >= 2: the cap does, before trial division,
    # and it bounds the (b, c) search over 4 p^h (index 2 mod 118, h = 3)
    (["construct", "--kind", "five_class", "--p", "2305843009213693951",
      "--p1", "11", "--m", "2"], "q = 2305843009213693951^1 exceeds cap"),
    (["construct", "--kind", "five_class", "--p", "1000003", "--p1", "59",
      "--m", "2"], "q = 1000003^3 exceeds cap"),
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
    part = jsonio.load_partition("@" + str(FIXTURES / "f37_3_n28_partition.json"),
                                 28)
    assert part.N == 28
    assert frozenset({0, 1, 4, 12, 16, 20, 24}) in part.part_sets()
    # the same partition inline
    inline = "|".join(",".join(str(i) for i in p) for p in part.parts)
    assert jsonio.load_partition(inline, 28).part_sets() == part.part_sets()


def test_load_partition_at_syntax(tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("0,1|2,3\n")
    part = jsonio.load_partition("@" + str(f), 4)
    assert part.d == 2


def test_parts_naming_a_file_parse_inline(tmp_path, monkeypatch):
    # only @ reads a file: text that names one is still a partition
    monkeypatch.chdir(tmp_path)
    (tmp_path / "0").write_text("1\n")
    (tmp_path / "0|1").write_text("1|0\n")
    assert main(["verify", "--p", "2", "--f", "1", "--n", "1", "--parts", "0",
                 "--output", str(tmp_path / "r.json")]) == 0
    assert jsonio.load_partition("0|1", 2).parts == ((0,), (1,))


def test_parse_errors():
    from scheme_forge.errors import ParseError

    with pytest.raises(ParseError):
        jsonio.load_partition("0,x|1", 4)
    with pytest.raises(ParseError):
        jsonio.load_partition("0,1||2,3", 4)


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
    # eigenmatrices and intersection matrices through jsonio.chunks
    ("verify --p 37 --f 3 --n 28 --parts "
     + "|".join(str(i) for i in range(28)),
     "ddb085ad5c453d947ee8ddf3700e7b3a5dd45afd7ec694927a50ecd8561ceac6"),
    # F_{3^16}: the longest norm period a command walks, L = 21,523,360
    ("verify --p 3 --f 16 --n 8 --parts 0|1|2|3|4|5|6|7",
     "58eb25e97c78ac95a72150798f6bb0ba51d58a41899b8ca6d8b0f11549c7a022"),
    # 32 singletons on F_{257^2}: 33 x 33 entries of 256 coefficients, whose
    # g = 2 coset representatives fall in distinct dual classes
    ("verify --p 257 --f 2 --n 32 --parts "
     + "|".join(str(i) for i in range(32)),
     "fe48c73728c7613eb8fd9323fdeea32d63a20d57495c6755e014d4070a6cdf62"),
    # a two-class scheme on F_{257^2} whose 258 coset representatives fall
    # in 2 dual classes: the trace sums take one term per class
    ("verify --p 257 --f 2 --n 258 --parts 0|"
     + ",".join(str(i) for i in range(1, 258)),
     "4a42e79efe9e318fe6b8aef8082f36afb52f7e5d1e847684c805de47c48f045e"),
    # 6 singletons on F_{1021^2}: the trace products fit int64, but the
    # numerators do not, so only the (K, K, K) contraction runs in Python ints
    ("verify --p 1021 --f 2 --n 6 --parts 0|1|2|3|4|5",
     "091862f712f2bb94fba8c8e1d45475312e950dc30b9de1ca0188cefa7d74e89c"),
    ("construct --kind three_class --p 3 --p1 11",
     "2552ed175ad04b39c061c97fcadfb8bf587d5ac58170516c35c4b4c1f485a625"),
    ("construct --kind four_class --p 11 --p1 7",
     "c674acaf246b26cb8d91f44bf14aa8a90bfce184f71aaf7377913ec15684c37b"),
    ("construct --kind five_class --p 3 --p1 11",
     "ad2a9ce1c62aae4dd94c2d3130ad0fd14e4cc914bb5b9a08e1d5a5e6c718a389"),
    # the five-class-q5e9 benchmark workload
    ("construct --kind five_class --p 5 --p1 19",
     "b999dffe9dc719f42a6d38b308e74be1a8c13e1de2bb23f28afb6fdad55435dc"),
    # emission only: ord_722(5) = 171 = phi(722)/2
    ("construct --kind five_class --p 5 --p1 19 --m 2",
     "b469febc2d5225633b5b4c7118e859216303df178c6abd4e2495e99a493131fb"),
    ("construct --kind conference --p 37 --p1 7",
     "c56e9d3d09f56c625d02f31076a0112e7ee210657ae9095ff38c439d0841060e"),
    ("song-reproduce",
     "2364647ace5afa6467848b37fa1ddf11e6876712de8edc398fead570e2007ca2"),
    ("search-nonexistence --p 3 --allow-symmetric",
     "0caf197abd49846227c14c075e8a4da5028340a3256b103f92f45a0abd5c4cc0"),
    # the scan-p7-d3 benchmark workload: 16 closure survivors through
    # signature_counts' primitivity flags, none of them primitive
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
    # and every scheme document among them checks itself
    doc = json.loads(out)
    assert "report" not in doc or check_scheme_document(doc)


@pytest.mark.parametrize("argv", ["construct --kind three_class --p 3 --p1 11",
                                  "construct --kind four_class --p 11 --p1 7"])
def test_scheme_document_check_rejects_every_unit_moved_in_a_row(argv, capsys):
    assert main(argv.split()) == 0
    doc = json.loads(capsys.readouterr().out)
    assert check_scheme_document(doc)
    B = doc["report"]["intersection_matrices"]
    K, moves = len(B), 0
    for a, k, j1, j2 in itertools.product(range(K), repeat=4):
        if j1 != j2 and B[a][k][j1] > 0:
            B[a][k][j1] -= 1
            B[a][k][j2] += 1  # every row sum kept
            assert not check_scheme_document(doc), (a, k, j1, j2)
            B[a][k][j1] += 1
            B[a][k][j2] -= 1
            moves += 1
    assert moves > K ** 2


def test_scheme_document_check_past_int64():
    # the one-class scheme on q points, P = [[1, q - 1], [1, -1]] over Z[xi_2]:
    # at 2^30 its products pass float64's 2^53, at 2^62 they overflow int64
    for q in (2 ** 30, 2 ** 62):
        doc = {"report": {"valencies": [q - 1], "intersection_matrices": [
            [[1, 0], [0, 1]], [[0, q - 1], [1, q - 2]]], "P_exact": [
            [{"n": 2, "coeffs": [1]}, {"n": 2, "coeffs": [q - 1]}],
            [{"n": 2, "coeffs": [1]}, {"n": 2, "coeffs": [-1]}]]}}
        assert check_scheme_document(doc)
        doc["report"]["P_exact"][1][1]["coeffs"] = [1]
        assert not check_scheme_document(doc)
        doc["report"]["P_exact"][1][1]["coeffs"] = [-1]
        doc["report"]["intersection_matrices"][1][1] = [2, q - 3]
        assert not check_scheme_document(doc)


@pytest.mark.parametrize("argv", ["construct --kind three_class --p 3 --p1 11",
                                  "construct --kind four_class --p 11 --p1 7"])
def test_scheme_document_check_rejects_every_unit_moved_in_an_eigenvalue(argv, capsys):
    assert main(argv.split()) == 0
    doc = json.loads(capsys.readouterr().out)
    P = doc["report"]["P_exact"]
    K, moves = len(P), 0
    for l, i in itertools.product(range(K), repeat=2):
        coeffs = P[l][i]["coeffs"]
        for a, b in itertools.permutations(range(len(coeffs)), 2):
            coeffs[a] -= 1
            coeffs[b] += 1
            assert not check_scheme_document(doc), (l, i, a, b)
            coeffs[a] += 1
            coeffs[b] -= 1
            moves += 1
    assert check_scheme_document(doc) and moves >= 2 * K * K


class _Unbuffered:
    """A stdout on which every write is a system call, as under
    PYTHONUNBUFFERED: the calls are counted."""

    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)

    def writelines(self, lines):
        for text in lines:
            self.write(text)


def test_stdout_is_written_in_blocks(monkeypatch):
    # the order-28 document is about 10,500 pieces; one write a piece cost
    # 10-25 ms of a 0.2 s run on an unbuffered stdout
    argv, digest = next(pin for pin in PINNED_STDOUT
                        if pin[0].startswith("verify --p 37 --f 3 --n 28"))
    stdout = _Unbuffered()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == 0
    out = "".join(stdout.calls).encode()
    assert hashlib.sha256(out).hexdigest() == digest
    assert len(stdout.calls) <= 64


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
    code = main(["construct", "--kind", "five_class", "--p", "5", "--p1", "19",
                 "--m", "2", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["partition"]["N"] == 722
    assert "report" not in doc


@pytest.mark.parametrize("m,n", [(2, 242), (3, 2662)])
def test_five_class_emission_needs_index2_exit2(m, n, capsys):
    # 11 is a base-3 Wieferich prime, 3^5 = 1 (mod 121): ord_242(3) = 5,
    # not phi(242)/2 = 55, so (3, 11) has index 2 mod 22 only
    _one_line_exit2(["construct", "--kind", "five_class", "--p", "3",
                     "--p1", "11", "--m", str(m)], capsys,
                    f"PreconditionViolated: [Z_{n}^*:<3>] != 2")


def test_construct_precondition_exit2(tmp_path):
    code = main(["construct", "--kind", "conference", "--p", "29", "--p1", "7"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    # p = 2 used to leak multiplicative_order's NotCoprime: gcd(2, 14) != 1
    ["gauss-verify", "--p", "2", "--p1", "7"],
    ["construct", "--kind", "three_class", "--p", "2", "--p1", "7"],
    ["construct", "--kind", "four_class", "--p", "2", "--p1", "7"],
    ["gauss-verify", "--p", "3", "--p1", "3"],
    # a prime p1 = 1 (mod 4) too large to trial-divide, refused by its residue:
    # three_class and gauss-verify have no congruence check of their own
    ["gauss-verify", "--p", "3", "--p1", "100000000000000013"],
    ["construct", "--kind", "three_class", "--p", "3", "--p1", "100000000000000013"],
])
def test_bad_index2_instance_exit2(argv, capsys):
    t0 = time.perf_counter()
    _one_line_exit2(argv, capsys, "PreconditionViolated: bad index-2 instance "
                    f"(p, p1) = ({argv[-3]}, {argv[-1]})")
    assert time.perf_counter() - t0 < 2


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
])
def test_negative_or_nan_tolerance_exit2(argv, capsys):
    _one_line_exit2(argv, capsys,
                    f"argument --tolerance: '{argv[-1]}' is not a non-negative number")


@pytest.mark.parametrize("argv", [
    ["gauss-verify", "--p", "3", "--p1", "11", "--tolerance", "abc"],
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


@pytest.mark.parametrize("argv,option", [
    # each printed int()'s bare "invalid literal for int() with base 10"
    (["fuse", "--p", "3", "--f", "2", "--n", "8",
      "--merge", "0|1,2|3,4|5,6|7,x"], "--merge"),
    (["construct", "--kind", "conference", "--p", "37", "--p1", "7",
      "--i0", "0,1,2,3,4,5,6,"], "--i0"),
])
def test_list_option_with_a_non_integer_token_exit2(argv, option, capsys):
    _one_line_exit2(argv, capsys,
                    f"ParseError: bad {option} syntax: '{argv[-1]}'")


@pytest.mark.parametrize("argv,option", [
    # each exited 0: the blank token was skipped
    (["verify", "--p", "13", "--f", "1", "--n", "4", "--parts", "0,1,|2,3"],
     "partition"),
    (["fuse", "--p", "13", "--f", "1", "--n", "4",
      "--merge", "0|1,,2|3,4"], "--merge"),
    (["construct", "--kind", "conference", "--p", "37", "--p1", "7",
      "--i0", "0,1,,2,3,4,5,6"], "--i0"),
    # one index set: a second cell is bad syntax
    (["construct", "--kind", "conference", "--p", "37", "--p1", "7",
      "--i0", "0,1,2|3,4,5,6"], "--i0"),
])
def test_list_option_with_a_blank_token_exit2(argv, option, capsys):
    _one_line_exit2(argv, capsys,
                    f"ParseError: bad {option} syntax: '{argv[-1]}'")


@pytest.mark.parametrize("argv,match", [
    # each exited 0, on the singletons and on the default I0
    (["fuse", "--p", "13", "--f", "1", "--n", "4", "--merge", "0|1,3|2,4",
      "--parts", ""], "ParseError: empty part"),
    (["construct", "--kind", "conference", "--p", "37", "--p1", "7",
      "--i0", ""], "PreconditionViolated: index set I0 must cover"),
])
def test_explicit_empty_list_option_exit2(argv, match, capsys):
    _one_line_exit2(argv, capsys, match)


def test_parse_cells_grammar():
    from scheme_forge.errors import ParseError

    assert jsonio.parse_cells("0| 1 ,2||3", "x") == [[0], [1, 2], [], [3]]
    assert jsonio.parse_cells("", "x") == [[]]
    for text in ("0,|1", ",0", "0,,1", "0|1,x"):
        with pytest.raises(ParseError, match="bad x syntax"):
            jsonio.parse_cells(text, "x")


def test_fuse_default_partition_is_the_singletons(tmp_path):
    # the fine partition --parts defaults to
    out, default = tmp_path / "parts.json", tmp_path / "default.json"
    argv = ["fuse", "--p", "13", "--f", "1", "--n", "4", "--merge", "0|1,3|2,4"]
    assert main(argv + ["--parts", "0|1|2|3", "--output", str(out)]) == 0
    assert main(argv + ["--output", str(default)]) == 0
    assert default.read_bytes() == out.read_bytes()


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


def test_fuse_inverts_no_matrix(tmp_path, monkeypatch):
    # the block test reads P_exact alone: the same bytes with no LAPACK inverse
    argv = ["fuse", "--p", "13", "--f", "1", "--n", "4", "--merge", "0|1,3|2,4"]
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert main(argv + ["--output", str(want)]) == 0

    def refuse(*args):
        raise AssertionError("inverted a matrix")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert main(argv + ["--output", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_song_reproduce_cli(tmp_path):
    out = tmp_path / "song.json"
    code = main(["song-reproduce", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["intersection_matrices_match"] is True
    assert doc["rho_exact_identity"] is True
    assert doc["template_match"] == {"rows": [0, 1, 3, 4, 2], "cols": [0, 1, 4, 3, 2]}


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


def test_tests_run_on_one_blas_thread():
    # conftest.py asks for one OpenBLAS thread before numpy loads, as the CLI
    # does, unless OPENBLAS_NUM_THREADS is set for the run
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert len(os.listdir("/proc/self/task")) == threads


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
