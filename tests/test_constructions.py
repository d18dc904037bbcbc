import cmath
import itertools

import numpy as np
import pytest

from scheme_forge.constructions import (conference_7mod8, five_class_3mod8,
                                        five_class_index_sets,
                                        four_class_7mod8, load_golden,
                                        match_template, song_example,
                                        three_class_base)
from scheme_forge.cyclotomy import build_cyclotomy, embed
from scheme_forge.errors import (PreconditionViolated,
                                 TemplatePreconditionViolated)
from scheme_forge.finite_field import multiplicative_order
from scheme_forge.scheme_core import (IndexPartition, check_fusion,
                                      dual_classes, eigenmatrices,
                                      verify_scheme)

from conftest import assert_embeds_like_scalar_sum, partition_to_relations
from oracles import brute_force_verify


def test_three_class_3_11():
    built = three_class_base(3, 11)
    rep = built.report
    assert rep.is_scheme and rep.d == 3
    assert set(built.partition.part_sets()) == \
        {frozenset({1, 3, 9, 5, 4}), frozenset({10, 8, 2, 6, 7}), frozenset({0})}
    assert all(rep.is_symmetric_rel) and rep.is_self_dual
    assert brute_force_verify(
        built.field, partition_to_relations(built.field, built.system,
                                            built.partition))


def test_three_class_11_7_cosets():
    built = three_class_base(11, 7)
    sizes = sorted(len(p) for p in built.partition.parts)
    assert sizes == [1, 3, 3]
    assert frozenset({1, 2, 4}) in built.partition.part_sets()


def test_three_class_primitivity_matches_order_condition():
    built = three_class_base(3, 11)
    q = built.field.q
    # connectivity of the C_0 relation <=> p has full order mod (q-1)/p1
    expect = multiplicative_order(3, (q - 1) // 11) == 5
    assert built.report.is_primitive == expect


@pytest.mark.parametrize("p,p1", [(11, 7), (23, 7)])
def test_four_class(p, p1):
    built = four_class_7mod8(p, p1)
    rep = built.report
    assert rep.is_scheme and rep.d == 4
    assert rep.is_self_dual and rep.self_dual_permutation is not None
    assert rep.nonsymmetric_pair_count == 1  # s odd, p = 3 mod 4
    assert rep.is_primitive
    h, c = built.params.h, built.params.c
    assert p1 > 2 * h + 1 and c != 0  # the sufficient condition indeed holds


def test_four_class_krein_equals_primal_up_to_relabeling():
    import itertools

    from scheme_forge.scheme_core import krein_parameters

    built = four_class_7mod8(11, 7)
    B = built.report.intersection_matrices
    K = krein_parameters(built.system, built.partition)
    d = 4
    found = False
    for perm in itertools.permutations(range(1, d + 1)):
        sigma = (0,) + perm
        if all(K[sigma[i]][sigma[k], sigma[j]] == B[i][k, j]
               for i in range(d + 1) for k in range(d + 1) for j in range(d + 1)):
            found = True
            break
    assert found


def test_four_class_symmetrization_is_three_class():
    built = four_class_7mod8(11, 7)
    from scheme_forge.scheme_core import symmetrize

    sym = symmetrize(built.system, built.partition)
    base = three_class_base(11, 7)
    lifted = {frozenset(i for i in range(14) if i % 7 in part)
              for part in base.partition.part_sets()}
    assert set(sym.part_sets()) == lifted


@pytest.mark.slow
def test_four_class_lifted_s2():
    built = four_class_7mod8(11, 7, s=2)
    rep = built.report
    assert rep.is_scheme and rep.d == 4 and rep.is_self_dual
    assert built.field.q == 1331 ** 2


def test_five_class_3_11():
    built = five_class_3mod8(3, 11)
    rep = built.report
    assert rep.is_scheme and rep.d == 5 and rep.is_self_dual
    assert rep.nonsymmetric_pair_count == 2
    assert rep.is_primitive
    S = built.partition.parts
    c = built.system.minus_one_class()
    assert {(i + c) % 22 for i in S[2]} == set(S[1])  # -S_3 = S_2
    assert {(i + c) % 22 for i in S[4]} == set(S[3])  # -S_5 = S_4
    # S_2 u S_3 and S_4 u S_5 coarsen to the three-class relations
    base = three_class_base(3, 11)
    lifted = {frozenset(i for i in range(22) if i % 11 in part)
              for part in base.partition.part_sets()}
    assert frozenset(set(S[1]) | set(S[2])) in lifted
    assert frozenset(set(S[3]) | set(S[4])) in lifted
    assert brute_force_verify(
        built.field, partition_to_relations(built.field, built.system,
                                            built.partition))


def test_five_class_spot_values():
    built = five_class_3mod8(3, 11)
    q, p1 = built.field.q, 11
    s4, pm = built.partition.parts[3], built.system.period_matrix
    # psi(gamma^a S_4): a sum of period rows
    values = {tuple(pm[[(i + a) % 22 for i in s4]].sum(axis=0))
              for a in range(22)}
    assert len(values) <= 5
    assert ((q - 1) // (2 * p1), 0) not in values


def test_five_class_emission_m2():
    part = five_class_3mod8(5, 19, m=2).partition
    assert part.N == 722
    assert [len(s) for s in part.parts] == [342, 171, 171, 19, 19]
    # also via the direct generator, both orientations
    for orient in (True, False):
        p2 = five_class_index_sets(5, 19, 2, split_negative=orient)
        assert sorted(i for s in p2.parts for i in s) == list(range(722))


def test_five_class_precondition():
    with pytest.raises(PreconditionViolated):
        five_class_3mod8(3, 7)  # 7 = 7 mod 8
    with pytest.raises(PreconditionViolated):
        five_class_3mod8(7, 11)  # 1 + 11 != 4 * 7^h
    # 27 = 3 mod 8 but is not prime: rejected before class_number sees it,
    # also on the emission-only path
    with pytest.raises(PreconditionViolated):
        five_class_3mod8(3, 27)
    with pytest.raises(PreconditionViolated):
        five_class_3mod8(3, 27, m=2)
    with pytest.raises(PreconditionViolated):
        five_class_3mod8(3, 3)  # 3 = 3 mod 8, prime, but not > 3
    with pytest.raises(PreconditionViolated):
        four_class_7mod8(3, 11)  # 11 = 3 mod 8
    with pytest.raises(PreconditionViolated):
        three_class_base(3, 9)  # 9 is not prime
    # m < 1 is refused, not read as m = 1 (the CLI test covers the rest)
    for m in (0, -2):
        with pytest.raises(PreconditionViolated, match=f"m = {m} "):
            five_class_index_sets(5, 19, m)


@pytest.mark.parametrize("p,p1", [(17, 67), (3, 107), (41, 163), (5, 499)])
def test_five_class_families_beyond_desk_scale_emit(p, p1):
    # fields of size p^((p1-1)/2) are far beyond the cap; the family is
    # covered by index-set well-formedness (plus the class-number criterion)
    from scheme_forge.errors import FieldTooLarge
    from scheme_forge.gauss_sums import class_number

    assert 1 + p1 == 4 * p ** class_number(p1)
    part = five_class_index_sets(p, p1, 1)
    assert part.N == 2 * p1
    assert sorted(len(s) for s in part.parts) == \
        sorted([p1 - 1, (p1 - 1) // 2, (p1 - 1) // 2, 1, 1])
    with pytest.raises(FieldTooLarge):
        five_class_3mod8(p, p1)


def test_five_class_emission_m2_other_pair():
    # 1 + 67 = 4 * 17: the emission of a second index-2 instance, N = 2 * 67^2
    part = five_class_3mod8(17, 67, m=2).partition
    assert part.N == 8978
    assert sorted(len(s) for s in part.parts) == [67, 67, 2211, 2211, 4422]
    assert sorted(i for s in part.parts for i in s) == list(range(8978))


@pytest.mark.slow
def test_five_class_5_19():
    built = five_class_3mod8(5, 19)
    rep = built.report
    assert built.field.q == 5 ** 9
    assert rep.is_scheme and rep.d == 5 and rep.is_self_dual
    assert rep.nonsymmetric_pair_count == 0  # all relations symmetric
    assert all(rep.is_symmetric_rel)
    assert rep.is_primitive


def test_conference_37_7():
    built = conference_7mod8(37, 7)
    rep = built.report
    q = built.field.q
    assert rep.is_scheme and rep.d == 2
    assert rep.valencies == [(q - 1) // 2] * 2
    assert rep.is_primitive
    # exact conference eigenvalues (-1 +- sqrt q)/2 with sqrt q = 37 sqrt 37,
    # sqrt 37 = sum_t (t|37) xi^t, on the basis 1..xi^35: (t|37) - (36|37)
    legendre = [0] + [1 if pow(t, 18, 37) == 1 else -1 for t in range(1, 37)]
    sqrt_q = 37 * (np.array(legendre[:36]) - legendre[36])
    expected = set()
    for s in (1, -1):
        v = s * sqrt_q
        v[0] -= 1
        assert (v % 2 == 0).all()
        expected.add(tuple(v // 2))
    got = {tuple(rep.P_exact[i][1]) for i in (1, 2)}
    assert got == expected
    # strongly regular parameters (v, (v-1)/2, (v-5)/4, (v-1)/4)
    B1 = rep.intersection_matrices[1]
    assert B1[1, 1] == (q - 5) // 4 and B1[2, 1] == (q - 1) // 4


def test_conference_preconditions():
    with pytest.raises(PreconditionViolated):
        conference_7mod8(29, 7)  # ord_14(29) = 1: not index 2
    with pytest.raises(PreconditionViolated):
        conference_7mod8(11, 7)  # p = 3 mod 4
    with pytest.raises(PreconditionViolated):
        conference_7mod8(37, 7, i0=[0, 1, 2, 3, 4, 5])  # misses 6 mod 7
    with pytest.raises(PreconditionViolated):
        conference_7mod8(37, 11)  # 11 = 3 mod 8


@pytest.fixture(scope="module")
def song():
    return song_example()


@pytest.fixture(scope="module")
def index4_P(f37_cubed):
    sys4 = build_cyclotomy(f37_cubed, 4)
    return verify_scheme(sys4, IndexPartition.from_sets(4, [[i] for i in range(4)])).P_exact


def test_ma_wang_template_basics(song):
    # q = 37^3 is g^2 + 4 h^2 for the fission's g = 37 and the index-4 g = -107
    assert 50653 == 107 ** 2 + 4 * 99 ** 2 == 37 ** 2 + 4 * 111 ** 2
    for q, g in [(50653, 39),   # g = 3 mod 4
                 (50651, 37),   # q = 3 mod 8
                 (50653, 41),   # q - g^2 is not 4 h^2
                 (50653, 229),  # q - g^2 < 0
                 (5 ** 7, 29)]:  # 5^7 = 29^2 + 4 * 139^2, not a power of 37
        with pytest.raises(TemplatePreconditionViolated):
            match_template(song.built.report.P_exact, q, g)


def test_match_template_is_the_template_up_to_conjugation(song, index4_P):
    # each match embeds to the template's rows and columns in floats: row 0
    # (1, f, f, f, f), column 0 ones, and the block [i][j] = v_{(i+j) mod 4}
    # with v = (rho, tau, conj rho, conj tau) or its conjugate
    q, sq = 50653, 50653 ** 0.5
    for P_exact, g in [(song.built.report.P_exact, 37), (index4_P, -107)]:
        rows, cols = match_template(P_exact, q, g)
        T = embed(P_exact, 37)[np.ix_(rows, cols)]
        rho = (-1 + sq + cmath.sqrt(-2 * q - 2 * g * sq)) / 4
        tau = (-1 - sq + cmath.sqrt(-2 * q + 2 * g * sq)) / 4
        v = np.array([rho, tau, rho.conjugate(), tau.conjugate()])
        assert np.allclose(T[0], [1] + [(q - 1) // 4] * 4) and np.allclose(T[:, 0], 1)
        block = v[np.add.outer(range(4), range(4)) % 4]
        assert min(abs(T[1:, 1:] - block).max(),
                   abs(T[1:, 1:] - block.conj()).max()) < 1e-9


def test_match_template_fails_under_the_other_g(song, index4_P):
    assert match_template(song.built.report.P_exact, 50653, -107) is None
    assert match_template(index4_P, 50653, 37) is None


def test_match_template_rejects_every_unit_moved_in_an_entry(song):
    P = song.built.report.P_exact.copy()
    assert match_template(P, 50653, 37) is not None
    for i, j in itertools.product(range(5), repeat=2):
        for a in range(36):
            b = (a + 1) % 36
            P[i, j, a] -= 1
            P[i, j, b] += 1
            assert match_template(P, 50653, 37) is None, (i, j, a)
            P[i, j, a] += 1
            P[i, j, b] -= 1


def test_song_reproduction():
    rep = song_example()
    assert rep.built.report.d == 4
    assert rep.built.report.nonsymmetric_pair_count == 2
    assert rep.matrices_match
    assert rep.class_relabeling is not None
    assert rep.dual_affine_map is not None
    assert rep.rho_exact
    assert_embeds_like_scalar_sum(rep.built.report.P_exact, 37)
    assert rep.template_match is not None
    golden = rep.golden
    assert rep.built.report.valencies == [golden["valency"]] * 4


def test_song_symmetrization_is_conference():
    rep = song_example()
    from scheme_forge.scheme_core import symmetrize

    sym = symmetrize(rep.built.system, rep.built.partition)
    assert sym.d == 2
    conf = verify_scheme(rep.built.system, sym)
    assert conf.is_scheme and conf.valencies == [25326, 25326]


def test_song_fusion_from_index28(sys28):
    # the fission is a fusion of the order-28 cyclotomic scheme: the
    # Bannai-Muzychuk block test on the fine eigenmatrix must accept it and
    # reproduce the coarse eigenmatrix
    rep = song_example()
    fine = IndexPartition.from_sets(28, [[i] for i in range(28)])
    P_exact, _, _ = eigenmatrices(sys28, fine, dual_classes(sys28, fine))
    lam = [[0]] + [[i + 1 for i in part] for part in rep.built.partition.parts]
    fused = check_fusion(P_exact, lam)
    assert fused is not None
    _, fused_P = fused
    coarse = rep.built.partition
    own_P, _, _ = eigenmatrices(sys28, coarse, dual_classes(sys28, coarse))
    assert np.array_equal(fused_P, own_P)
    # merging two parts of the verified fission: the block test and the
    # direct verdict on the merged partition must agree
    bad_lam = [[0], lam[1] + lam[2], lam[3], lam[4]]
    merged = IndexPartition.from_sets(
        28, [[i - 1 for i in cell] for cell in bad_lam[1:]])
    from scheme_forge.scheme_core import is_scheme as _is
    assert (check_fusion(P_exact, bad_lam) is not None) == _is(sys28, merged)


def test_cyclotomic_index4_matches_g_minus107(index4_P):
    assert match_template(index4_P, 50653, -107) is not None


def test_golden_row_sums():
    golden = load_golden()
    for b in golden["B"]:
        for row in b:
            assert sum(row) == golden["valency"]
