import math
import re

import numpy as np
import pytest

from kerrdeco import linalg, states
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, DensityMatrix2Q,
    PlusPlus, PureState2Q, Separable, WernerLike, WernerPhi, WernerPsi,
    bell_like, bell_phi, bell_psi, initial_densities, initial_density, initial_label,
    parse_initial, random_density_matrix, random_pure_state, separable,
    to_density,
)

RT2 = 1.0 / math.sqrt(2.0)


class TestPureState:
    def test_amplitudes_roundtrip(self):
        psi = PureState2Q(0.5, 0.5, 0.5, -0.5)
        assert np.array_equal(psi.amplitudes(), [0.5, 0.5, 0.5, -0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState2Q(1.0, 1.0, 0.0, 0.0)

    # |c|^2 past the float range sums to inf, a plain float, with no OverflowError or numpy warning
    @pytest.mark.parametrize("amps, total", [((1.0, 1.0, 0.0, 0.0), "2.0"), ((complex(1e308, 1e308), 0, 0, 1), "inf"),
                                             ((complex(1.7e308, 1.7e308), 0, 0, 1), "inf")])
    def test_the_norm_sum_is_reported_as_a_plain_float(self, amps, total):
        want = rf"^amplitudes \(c00, c01, c10, c11\) are not normalized: \|c\|\^2 sums to {total}$"
        with pytest.raises(ValueError, match=want):
            PureState2Q(*amps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_amplitude_by_name(self, bad):
        with pytest.raises(ValueError, match="c10 must be finite"):
            PureState2Q(RT2, 0.0, bad, RT2)

    def test_accepts_complex_phases(self):
        PureState2Q(RT2 * 1j, 0.0, 0.0, -RT2)

    def test_is_frozen(self):
        psi = bell_psi()
        with pytest.raises(AttributeError):
            psi.c00 = 1.0


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        DensityMatrix2Q(np.eye(4) / 4.0)

    def test_rejects_nonhermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="hermitian"):
            DensityMatrix2Q(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix2Q(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix2Q(m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix2Q(np.eye(2) / 2.0)

    # inf - inf in the hermiticity check warns before it fails
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("i, j, bad", [
        (0, 0, math.nan), (1, 2, math.nan), (3, 3, math.inf), (0, 3, complex(0.0, math.inf)),
    ])
    def test_rejects_non_finite_entries(self, i, j, bad):
        m = np.eye(4, dtype=complex) / 4.0
        m[i, j] = bad
        if i != j:
            m[j, i] = np.conj(bad)
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix2Q(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix2Q(np.eye(4) / 4.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_array_protocol(self):
        rho = DensityMatrix2Q(np.eye(4) / 4.0)
        assert np.allclose(np.asarray(rho), np.eye(4) / 4.0)


class TestDensityStack:
    def _stack(self, n=5):
        return np.array([random_density_matrix(np.random.default_rng(k)).matrix for k in range(n)])

    def test_valid_stack_is_a_read_only_copy(self):
        raw = self._stack()
        out = DensityMatrix2Q(raw).matrix
        assert out.shape == (5, 4, 4) and out.tobytes() == raw.tobytes()
        assert not out.flags.writeable and raw.flags.writeable
        assert DensityMatrix2Q(np.empty((0, 4, 4))).matrix.shape == (0, 4, 4)
        # a list of states, validated or not, is a stack too
        listed = DensityMatrix2Q([DensityMatrix2Q(raw[0]), raw[1]]).matrix
        assert listed.tobytes() == raw[:2].tobytes()
        assert np.asarray(DensityMatrix2Q(raw)).tobytes() == raw.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("k, edit, message", [
        (3, lambda m: m.__setitem__((0, 1), 0.1), "not hermitian"),
        (1, lambda m: m.__imul__(2.0), "trace is"),
        (4, lambda m: m.__setitem__(slice(None), np.diag([0.7, 0.5, -0.1, -0.1])), "negative eigenvalue"),
        (2, lambda m: m.__setitem__((2, 2), math.nan), "non-finite"),
        (0, lambda m: m.__setitem__((1, 3), complex(0.0, math.inf)), "non-finite"),
    ])
    def test_a_bad_state_is_named_by_its_index(self, k, edit, message):
        raw = self._stack()
        edit(raw[k])
        single = pytest.raises(ValueError, match=message)
        with single as one:
            DensityMatrix2Q(raw[k])
        with pytest.raises(ValueError) as many:
            DensityMatrix2Q(raw)
        assert str(many.value) == f"state {k}: {one.value}"

    def test_the_first_bad_state_is_named(self):
        raw = self._stack(6)
        raw[4] *= 2.0
        raw[2] = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError, match="^state 2: density matrix has negative eigenvalue"):
            DensityMatrix2Q(raw)

    def test_a_stack_of_stacks_names_a_bad_state_by_its_index_tuple(self):
        raw = self._stack(6).reshape(2, 3, 4, 4)
        out = DensityMatrix2Q(raw).matrix
        assert out.shape == (2, 3, 4, 4) and out.tobytes() == raw.tobytes()
        raw[1, 2] = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError, match=r"^state \(1, 2\): density matrix has negative eigenvalue"):
            DensityMatrix2Q(raw)

    def test_rejects_a_stack_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(\.\.\., 4, 4\) stack, got shape \(2, 2, 3, 3\)"):
            DensityMatrix2Q(np.ones((2, 2, 3, 3)) / 3.0)
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            DensityMatrix2Q(np.ones((2, 3, 3)) / 3.0)
        with pytest.raises(ValueError, match=r"\(N, 4, 4\) stack"):
            DensityMatrix2Q([np.eye(4) / 4.0, np.eye(3) / 3.0])

    def test_a_custom_mixed_state_is_one_matrix(self):
        with pytest.raises(ValueError, match=r"custom_mixed needs one 4x4 density matrix, got shape \(5, 4, 4\)"):
            CustomMixed(DensityMatrix2Q(self._stack()))


def _with_least_eigenvalues(rng, low):
    """One unit-trace hermitian matrix U diag(l, a, b, c) U^dagger per least eigenvalue l, U Haar-random."""
    rest = rng.dirichlet(np.ones(3), len(low)) * (1.0 - low)[:, np.newaxis]
    out = []
    for spectrum in np.column_stack([low, rest]):
        u = linalg.haar_unitary(4, rng)
        out.append((u * spectrum) @ u.conj().T)
    return np.array(out)


def _accepts(m) -> bool:
    try:
        DensityMatrix2Q(m)
    except ValueError as exc:
        assert "negative eigenvalue" in str(exc)
        return False
    return True


class TestPositivityCheck:
    """Positivity is checked by blocked Cholesky factorizations of m + 1e-10 I; eigvalsh decides when one fails."""

    def test_verdicts_are_the_eigvalsh_rule_outside_the_roundoff_band(self):
        rng = np.random.default_rng(2025)
        # spread over [-2e-10, 1e-10], half of them within 2e-13 of the bound
        low = np.concatenate([rng.uniform(-2e-10, 1e-10, 1000), -1e-10 + rng.uniform(-2e-13, 2e-13, 1000)])
        corpus = _with_least_eigenvalues(rng, low)
        least = np.linalg.eigvalsh(corpus).min(axis=-1)
        rule = least >= -1e-10
        got = np.array([_accepts(m) for m in corpus])
        clear = np.abs(least + 1e-10) >= 1e-14
        assert np.array_equal(got[clear], rule[clear])
        assert 600 < rule[clear].sum() < 1400 and clear.sum() > 1900
        # inside the band a factorization may accept a matrix just below the bound, never reject one above it
        assert np.all(got | ~rule)
        assert np.all(least[got & ~rule] >= -1e-10 - 1e-14)

    def test_an_eigenvalue_of_exactly_the_bound_is_accepted(self):
        DensityMatrix2Q(np.diag([-1e-10, 0.5 + 1e-10, 0.25, 0.25]))
        with pytest.raises(ValueError, match="^density matrix has negative eigenvalue -1.010e-10$"):
            DensityMatrix2Q(np.diag([-1.01e-10, 0.5 + 1.01e-10, 0.25, 0.25]))

    def test_a_bad_state_past_a_block_boundary_is_named_as_before(self):
        rng = np.random.default_rng(7)
        raw = states._random_density(rng, 1000)
        assert states._CHOLESKY_BLOCK < 700
        raw[700] = _with_least_eigenvalues(rng, np.array([-3e-10]))[0]
        raw[900, 0, 1] += 0.1
        least = float(np.linalg.eigvalsh(raw[700]).min())
        with pytest.raises(ValueError) as one:
            DensityMatrix2Q(raw[700])
        assert str(one.value) == f"density matrix has negative eigenvalue {least:.3e}"
        with pytest.raises(ValueError) as many:
            DensityMatrix2Q(raw)
        assert str(many.value) == f"state 700: {one.value}"
        with pytest.raises(ValueError, match=r"^state \(1, 200\): density matrix has negative eigenvalue"):
            DensityMatrix2Q(raw.reshape(2, 500, 4, 4))

    def test_a_large_stack_is_factored_in_blocks_without_eigvalsh(self, monkeypatch):
        import tracemalloc

        raw = states._random_density(np.random.default_rng(3), 20000)
        real = np.linalg.cholesky
        sizes, at_first = [], []

        def blocked(a):
            if not sizes:
                # from the first factorization on, the peak counts what the positivity check holds
                at_first.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
            sizes.append(len(a))
            return real(a)

        def unreachable(a):
            raise AssertionError("a valid stack reached eigvalsh")

        monkeypatch.setattr(np.linalg, "cholesky", blocked)
        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        tracemalloc.start()
        try:
            DensityMatrix2Q(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = states._CHOLESKY_BLOCK
        assert sizes == [block] * (20000 // block) + [20000 % block]
        # the stored copy (4.9 MiB) and a few blocks of 128 KiB; one factorization of the
        # whole stack would add two more copies
        assert at_first[0] > raw.nbytes
        assert peak - raw.nbytes < 8 * block * raw[0].nbytes

    @pytest.mark.parametrize("later", ["negative", "hermiticity"])
    def test_once_a_block_fails_to_factor_eigvalsh_decides_from_the_first_block_on(self, monkeypatch, later):
        rng = np.random.default_rng(7)
        raw = states._random_density(rng, 1000)
        raw[100], raw[601] = _with_least_eigenvalues(rng, np.array([-2e-10, -3e-10]))
        if later == "hermiticity":
            # the bad state ends the checked states, but the block factored holds state 601 too
            raw[600, 0, 1] += 0.1
        real, calls = np.linalg.cholesky, []

        def first_block_factors(a):
            # as a first block holding a state within roundoff below the bound may
            calls.append(len(a))
            return None if len(calls) == 1 else real(a)

        monkeypatch.setattr(np.linalg, "cholesky", first_block_factors)
        least = float(np.linalg.eigvalsh(raw[100]).min())
        with pytest.raises(ValueError, match=rf"^state 100: density matrix has negative eigenvalue {least:.3e}$"):
            DensityMatrix2Q(raw)
        assert calls == [512, 488]
        # when every block factors, that verdict stands
        calls.clear()
        DensityMatrix2Q(raw[:512])
        assert calls == [512]

    def test_validating_a_large_stack_holds_a_few_blocks_beside_the_stored_copy(self):
        import tracemalloc

        raw = states._random_density(np.random.default_rng(3), 20000)
        tracemalloc.start()
        try:
            DensityMatrix2Q(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # from the start of validation: the stored copy (4.9 MiB), then the hermiticity, trace and
        # positivity checks of one block of 512 states at a time, 128 KiB each; the hermiticity
        # gathers alone would hold 9 MiB over the whole stack at once
        assert peak - raw.nbytes < 8 * states._CHOLESKY_BLOCK * raw[0].nbytes


class TestConstructors:
    def test_bell_psi_amplitudes(self):
        assert np.allclose(bell_psi(+1).amplitudes(), [0, RT2, RT2, 0])
        assert np.allclose(bell_psi(-1).amplitudes(), [0, RT2, -RT2, 0])

    def test_bell_phi_amplitudes(self):
        assert np.allclose(bell_phi("+").amplitudes(), [RT2, 0, 0, RT2])
        assert np.allclose(bell_phi("-").amplitudes(), [RT2, 0, 0, -RT2])

    def test_bell_like_amplitudes(self):
        assert np.allclose(bell_like().amplitudes(), [0.5, 0.5, 0.5, -0.5])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            bell_psi(0)

    def test_separable_factors(self):
        psi = separable(0.6, 0.8, 1.0, 0.0)
        assert np.allclose(psi.amplitudes(), [0.6, 0.0, 0.8, 0.0])

    def test_separable_rejects_unnormalized_factor(self):
        with pytest.raises(ValueError, match="d1, d2"):
            separable(0.5, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="d3, d4"):
            separable(0.6, 0.8, 0.5, 0.5)

    def test_werner_limits(self):
        full = initial_density(WernerPsi(1.0, +1)).matrix
        assert np.allclose(full, to_density(bell_psi(+1)).matrix)
        mixed = initial_density(WernerPhi(0.0, +1)).matrix
        assert np.allclose(mixed, np.eye(4) / 4.0)

    def test_werner_mixture_structure(self):
        p = 0.8
        rho = initial_density(WernerLike(p)).matrix
        core = to_density(bell_like()).matrix
        assert np.allclose(rho, p * core + (1 - p) / 4.0 * np.eye(4), atol=1e-15)

    def test_werner_sign_defaults_to_plus(self):
        for tag in (WernerPsi, WernerPhi):
            want = initial_density(tag(0.5, "+")).matrix.tobytes()
            assert initial_density(tag(0.5)).matrix.tobytes() == want

    def test_to_density_projector(self):
        rho = to_density(bell_phi(+1)).matrix
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-14)
        assert rho[0, 3] == pytest.approx(0.5)


class TestTags:
    def test_sign_normalization_on_tags(self):
        assert BellPsi("+").sign == +1
        assert BellPsi("minus").sign == -1
        assert WernerPhi(0.5, -1).sign == -1

    @pytest.mark.parametrize("d, names", [
        ((float("nan"), 1.0, 1.0, 0.0), "d1, d2"),
        ((1.0, 1.0, 1.0, 0.0), "d1, d2"),
        ((0.6, 0.8, complex(float("nan"), 0.0), 0.0), "d3, d4"),
        ((0.6, 0.8, 1.0, 1.0), "d3, d4"),
        ((1e200, 0.0, 1.0, 0.0), "d1, d2"),
        ((0.6, 0.8, 10 ** 400, 0), "d3, d4"),
    ])
    def test_separable_tag_checks_each_factor(self, d, names):
        with pytest.raises(ValueError, match=f"factor \\({names}\\) is not normalized"):
            Separable(*d)

    @staticmethod
    def _werner_matrix(core, p):
        # the Werner matrix as states._werner_matrix built it before the tags took its place
        amps = core.amplitudes()
        return p * np.outer(amps, amps.conj()) + (1.0 - p) / 4.0 * np.eye(4)

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_werner_tags_keep_the_bytes_of_the_old_werner_matrix(self, sign):
        weights = np.concatenate([np.linspace(0.0, 1.0, 41), [1.0 / 3.0],
                                  np.random.default_rng(5).uniform(0.0, 1.0, 40)])
        for p in weights.tolist():
            for tag, core in ((WernerPsi(p, sign), bell_psi(sign)), (WernerPhi(p, sign), bell_phi(sign)),
                              (WernerLike(p), bell_like())):
                assert initial_density(tag).matrix.tobytes() == self._werner_matrix(core, p).tobytes()

    def test_bell_tags_are_their_werner_tags_at_full_weight(self):
        for bell, werner in ((BellPsi(+1), WernerPsi(1.0, +1)), (BellPsi(-1), WernerPsi(1.0, -1)),
                             (BellPhi(+1), WernerPhi(1.0, +1)), (BellPhi(-1), WernerPhi(1.0, -1)),
                             (BellLike(), WernerLike(1.0))):
            assert np.array_equal(initial_density(bell).matrix, initial_density(werner).matrix)

    def test_bell_tags_keep_the_bare_projector(self):
        # the Werner mixture at p = 1 would turn the projector's -0.0 entries into +0.0
        for tag, core in ((BellPsi(-1), bell_psi(-1)), (BellPhi(-1), bell_phi(-1)), (BellLike(), bell_like())):
            assert initial_density(tag).matrix.tobytes() == to_density(core).matrix.tobytes()

    def test_werner_tags_validate_weight(self):
        with pytest.raises(ValueError):
            WernerPsi(1.5)
        with pytest.raises(ValueError):
            WernerLike(-0.1)

    def test_initial_density_covers_every_family(self, rng):
        cases = [
            BellPsi(+1), BellPhi(-1), BellLike(), PlusPlus(),
            Separable(0.6, 0.8, 1.0, 0.0), WernerPsi(0.7), WernerPhi(0.7, -1),
            WernerLike(0.7), CustomPure(random_pure_state(rng)),
            CustomMixed(random_density_matrix(rng)),
        ]
        for tag in cases:
            rho = initial_density(tag)
            assert isinstance(rho, DensityMatrix2Q)

    def test_initial_densities_is_the_stack_of_initial_density_checked_once(self, rng, monkeypatch):
        cases = [
            BellPsi(-1), BellPhi(+1), BellLike(), PlusPlus(), Separable(0.6, 0.8, 1.0, 0.0),
            WernerPsi(0.7), WernerPhi(0.7, -1), WernerLike(0.7), CustomPure(random_pure_state(rng)),
            CustomMixed(random_density_matrix(rng)),
        ]
        want = np.array([initial_density(tag).matrix for tag in cases])
        checked = []
        check = states._check_density

        def counting(m, stack):
            checked.append(len(m))
            check(m, stack)
        monkeypatch.setattr(states, "_check_density", counting)
        got = initial_densities(cases)
        assert checked == [len(cases)]
        assert got.matrix.shape == (len(cases), 4, 4) and not got.matrix.flags.writeable
        assert got.matrix.tobytes() == want.tobytes()
        assert initial_densities([]).matrix.shape == (0, 4, 4)

    def test_plus_plus_is_uniform_superposition(self):
        rho = initial_density(PlusPlus()).matrix
        assert np.allclose(rho, np.full((4, 4), 0.25), atol=1e-15)

    def test_initial_label_names(self):
        assert initial_label(BellPsi(+1)) == "bell_psi_plus"
        assert initial_label(BellPhi(-1)) == "bell_phi_minus"
        assert initial_label(BellLike()) == "bell_like"
        assert initial_label(PlusPlus()) == "plus_plus"
        assert initial_label(WernerPsi(0.5, -1)) == "werner_psi_minus"
        assert initial_label(WernerLike(0.5)) == "werner_like"
        assert initial_label(Separable(1.0, 0.0, 1.0, 0.0)) == "separable"

    def test_initial_density_rejects_unknown(self):
        with pytest.raises(ValueError):
            initial_density("bell")


class TestParseInitial:
    def test_families_without_parameters(self):
        assert parse_initial({"family": "bell_like"}) == BellLike()
        assert parse_initial({"family": "plus_plus"}) == PlusPlus()

    def test_sign_forms(self):
        assert parse_initial({"family": "bell_psi", "sign": "-"}) == BellPsi(-1)
        assert parse_initial({"family": "bell_phi"}) == BellPhi(+1)

    def test_werner_forms(self):
        assert parse_initial({"family": "werner_psi", "p": 0.8}) == WernerPsi(0.8, +1)
        assert parse_initial({"family": "werner_like", "p": 0.5}) == WernerLike(0.5)

    def test_separable_complex_entries(self):
        tag = parse_initial({"family": "separable", "d": [[0.0, 0.6], 0.8, 1.0, 0.0]})
        assert tag == Separable(0.6j, 0.8, 1.0, 0.0)

    def test_custom_pure(self):
        tag = parse_initial({"family": "custom_pure",
                             "amplitudes": [[0.5, 0.0], 0.5, 0.5, [-0.5, 0.0]]})
        assert isinstance(tag, CustomPure)
        assert tag.state == bell_like()

    def test_custom_mixed(self):
        eye = [[0.25 if i == j else 0.0 for j in range(4)] for i in range(4)]
        tag = parse_initial({"family": "custom_mixed", "matrix": eye})
        assert isinstance(tag, CustomMixed)
        assert np.allclose(tag.rho.matrix, np.eye(4) / 4.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="family"):
            parse_initial({"family": "ghz"})
        with pytest.raises(ValueError, match="four amplitudes"):
            parse_initial({"family": "separable", "d": [1.0, 0.0]})
        with pytest.raises(ValueError, match="complex"):
            parse_initial({"family": "separable", "d": ["a", 0.0, 1.0, 0.0]})
        with pytest.raises(ValueError):
            parse_initial("bell_psi")
        with pytest.raises(ValueError, match="p must be"):
            parse_initial({"family": "werner_psi"})

    @pytest.mark.parametrize("doc, keys", [
        ({"family": "bell_like", "sign": "-"}, "['sign']"),
        ({"family": "bell_psi", "p": 0.5}, "['p']"),
        ({"family": "werner_like", "p": 0.5, "sign": "+"}, "['sign']"),
        ({"family": "plus_plus", "d": [1, 0, 1, 0], "amplitudes": []}, "['amplitudes', 'd']"),
        ({"family": "separable", "d": [1, 0, 1, 0], "d1": 1}, "['d1']"),
        ({"family": "custom_pure", "amplitudes": [1, 0, 0, 0], "matrix": []}, "['matrix']"),
        ({"family": "custom_mixed", "matrix": [], "state": []}, "['state']"),
    ])
    def test_keys_the_family_does_not_take_are_rejected(self, doc, keys):
        family = doc["family"]
        with pytest.raises(ValueError, match=re.escape(f"unknown initial keys for family {family}: {keys}")):
            parse_initial(doc)

    @pytest.mark.parametrize("doc", [{"family": "bell_psi"}, {"family": "werner_phi", "p": 0.5}])
    @pytest.mark.parametrize("sign", [True, False])
    def test_a_boolean_sign_is_rejected(self, doc, sign):
        # True == 1, which would otherwise read as '+'
        with pytest.raises(ValueError, match=f"^sign must be '\\+' or '-', got {sign}$"):
            parse_initial({**doc, "sign": sign})


class TestRandomStates:
    def test_pure_state_normalized(self, rng):
        for _ in range(20):
            psi = random_pure_state(rng)
            assert sum(abs(c) ** 2 for c in psi.amplitudes()) == pytest.approx(1.0, abs=1e-12)

    def test_density_matrix_valid_and_full_rank(self, rng):
        for _ in range(20):
            rho = random_density_matrix(rng)
            assert np.linalg.eigvalsh(rho.matrix).min() > 0.0

    def test_deterministic_per_seed(self):
        a = random_density_matrix(np.random.default_rng(3)).matrix
        b = random_density_matrix(np.random.default_rng(3)).matrix
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("count", [1, 7, 1000])
    def test_a_stack_of_draws_is_the_single_draws_bit_for_bit(self, count):
        # the single draws as they were written before draws came in stacks: the stream
        # order that fixes verify's corpora and the benchmark's custom states
        def frozen_density(rng):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            return m / np.trace(m).real

        def frozen_amplitudes(rng):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            z /= np.linalg.norm(z)
            return z

        for draw, frozen, shape in ((states._random_density, frozen_density, (4, 4)),
                                    (states._random_amplitudes, frozen_amplitudes, (4,))):
            for seed in range(4):
                one, many = np.random.default_rng(seed), np.random.default_rng(seed)
                want = np.array([frozen(one) for _ in range(count)])
                got = draw(many, count)
                assert got.shape == (count, *shape) and got.tobytes() == want.tobytes()
                # and the stream stands where the single draws leave it
                assert one.random() == many.random()
                rng = np.random.default_rng(seed)
                assert draw(rng).tobytes() == want[0].tobytes()
        rng = np.random.default_rng(0)
        assert random_pure_state(rng).amplitudes().tobytes() == frozen_amplitudes(np.random.default_rng(0)).tobytes()
