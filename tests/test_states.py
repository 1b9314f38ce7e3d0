import math

import numpy as np
import pytest

from kerrdeco import states
from kerrdeco.states import (
    BellLike, BellPhi, BellPsi, CustomMixed, CustomPure, DensityMatrix2Q,
    PlusPlus, PureState2Q, Separable, WernerLike, WernerPhi, WernerPsi,
    bell_like, bell_phi, bell_psi, initial_density, initial_label,
    parse_initial, random_density_matrix, random_pure_state, separable,
    to_density, werner,
)

RT2 = 1.0 / math.sqrt(2.0)


class TestPureState:
    def test_amplitudes_roundtrip(self):
        psi = PureState2Q(0.5, 0.5, 0.5, -0.5)
        assert np.array_equal(psi.amplitudes(), [0.5, 0.5, 0.5, -0.5])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState2Q(1.0, 1.0, 0.0, 0.0)

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
        out = states._density_stack(raw)
        assert out.shape == (5, 4, 4) and out.tobytes() == raw.tobytes()
        assert not out.flags.writeable and raw.flags.writeable
        assert states._density_stack(np.empty((0, 4, 4))).shape == (0, 4, 4)

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
            states._density_stack(raw)
        assert str(many.value) == f"state {k}: {one.value}"

    def test_the_first_bad_state_is_named(self):
        raw = self._stack(6)
        raw[4] *= 2.0
        raw[2] = np.diag([0.7, 0.5, -0.1, -0.1])
        with pytest.raises(ValueError, match="^state 2: density matrix has negative eigenvalue"):
            states._density_stack(raw)

    def test_rejects_a_stack_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            states._density_stack(np.eye(4) / 4.0)
        with pytest.raises(ValueError, match=r"\(N, 4, 4\)"):
            states._density_stack(np.ones((2, 3, 3)) / 3.0)


class TestConstructors:
    def test_bell_psi_amplitudes(self):
        assert np.allclose(bell_psi(+1).amplitudes(), [0, RT2, RT2, 0])
        assert np.allclose(bell_psi(-1).amplitudes(), [0, RT2, -RT2, 0])

    def test_bell_phi_amplitudes(self):
        assert np.allclose(bell_phi("+").amplitudes(), [RT2, 0, 0, RT2])
        assert np.allclose(bell_phi("-").amplitudes(), [RT2, 0, 0, -RT2])

    def test_bell_like_ignores_sign(self):
        assert bell_like() == bell_like(-1)
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
        full = werner("psi", +1, 1.0).matrix
        assert np.allclose(full, to_density(bell_psi(+1)).matrix)
        mixed = werner("phi", +1, 0.0).matrix
        assert np.allclose(mixed, np.eye(4) / 4.0)

    def test_werner_mixture_structure(self):
        p = 0.8
        rho = werner("like", p=p).matrix
        core = to_density(bell_like()).matrix
        assert np.allclose(rho, p * core + (1 - p) / 4.0 * np.eye(4), atol=1e-15)

    def test_werner_rejects_bad_kind_and_weight(self):
        with pytest.raises(ValueError, match="kind"):
            werner("ghz")
        with pytest.raises(ValueError, match="weight"):
            werner("psi", +1, 1.2)

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
    ])
    def test_separable_tag_checks_each_factor(self, d, names):
        with pytest.raises(ValueError, match=f"factor \\({names}\\) is not normalized"):
            Separable(*d)

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
