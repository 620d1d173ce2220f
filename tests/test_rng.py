import numpy as np
import pytest

from cps_sentinel.rng import _GOLDEN, _MASK64, _MIX1, _MIX2, Rng, derive_seed

from oracles import fisher_yates


def test_known_answer_vector():
    # Reference splitmix64 outputs for seed 0; pins the algorithm itself.
    r = Rng(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_determinism_same_seed():
    a = [Rng(42).next_u64() for _ in range(5)]
    b = [Rng(42).next_u64() for _ in range(5)]
    assert a == b


def test_scalar_and_array_paths_share_one_stream():
    scalar = Rng(7)
    array = Rng(7)
    expected = [scalar.uniform() for _ in range(100)]
    np.testing.assert_array_equal(array.uniform_array(100), expected)

    # Interleaving array and scalar draws continues the same stream.
    a, b = Rng(9), Rng(9)
    first = list(a.uniform_array(3)) + [a.uniform()]
    second = [b.uniform() for _ in range(4)]
    assert first == second


def test_uniform_range_bounds():
    r = Rng(3)
    draws = r.uniform_array(10000)
    assert np.all(draws >= 0.0) and np.all(draws < 1.0)
    assert abs(float(np.mean(draws)) - 0.5) < 0.02


def test_uniform_range_scales():
    r = Rng(3)
    x = r.uniform_range(2.0, 4.0)
    assert 2.0 <= x < 4.0


def test_randint_hits_every_value_and_stays_in_range():
    r = Rng(11)
    draws = [r.randint(7) for _ in range(2000)]
    assert set(draws) == set(range(7))


def test_randint_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        Rng(0).randint(0)


def test_gauss_moments():
    r = Rng(5)
    z = r.gauss_array(100000)
    assert abs(float(np.mean(z))) < 0.02
    assert abs(float(np.std(z)) - 1.0) < 0.02


def test_gauss_scalar_deterministic():
    a = [Rng(6).gauss() for _ in range(3)]
    b = [Rng(6).gauss() for _ in range(3)]
    assert a == b


@pytest.mark.parametrize("n", [0, 1, 2, 4001, 100_000])
def test_gauss_batch_is_the_scalar_gauss_stream(n):
    batch, scalar = Rng(17), Rng(17)
    got = batch.gauss_batch(n)
    expected = [scalar.gauss() for _ in range(n)]
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()
    # The batch leaves the generator where the scalar draws do.
    assert batch.gauss() == scalar.gauss()
    assert batch.uniform() == scalar.uniform()


def test_gauss_array_odd_length():
    assert len(Rng(1).gauss_array(5)) == 5


def test_shuffle_is_permutation():
    r = Rng(13)
    items = np.arange(20)
    r.shuffle(items)
    assert sorted(items.tolist()) == list(range(20))
    again = np.arange(20)
    Rng(13).shuffle(again)
    np.testing.assert_array_equal(items, again)


def test_shuffle_rejects_a_2d_array_before_drawing():
    r = Rng(13)
    rows = np.arange(12).reshape(6, 2)
    with pytest.raises(ValueError, match="1-D"):
        r.shuffle(rows)
    np.testing.assert_array_equal(rows, np.arange(12).reshape(6, 2))
    assert r.next_u64() == Rng(13).next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 64, 4489])
def test_shuffle_is_the_scalar_fisher_yates(n):
    batched, scalar = Rng(23), Rng(23)
    items, expected = np.arange(n), np.arange(n)
    batched.shuffle(items)
    fisher_yates(scalar, expected)
    np.testing.assert_array_equal(items, expected)
    assert batched.next_u64() == scalar.next_u64()


def _unshift(y: int, s: int) -> int:
    """Invert `y = x ^ (x >> s)` on 64 bits: each pass fixes s more bits."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def _unmix(z: int) -> int:
    """The inverse of splitmix64's output mix: undo each xor-shift, and each
    multiply by its odd multiplier's inverse modulo 2**64."""
    z = _unshift(z, 31)
    z = _unshift(z * pow(_MIX2, -1, 1 << 64) & _MASK64, 27)
    return _unshift(z * pow(_MIX1, -1, 1 << 64) & _MASK64, 30)


@pytest.mark.parametrize("n", [3, 64])
def test_shuffle_matches_the_scalar_loop_through_a_rejected_draw(n):
    """randint(3) rejects 2**64 - 1 (2**64 % 3 == 1); seed the generator so
    that the draw for bound 3, the (n-2)-th, is exactly that value."""
    state = (_unmix(_MASK64) - (n - 2) * _GOLDEN) & _MASK64
    probe = Rng(state)
    draws = [probe.next_u64() for _ in range(n - 2)]
    assert draws[-1] == _MASK64
    batched, scalar = Rng(state), Rng(state)
    items, expected = np.arange(n), np.arange(n)
    batched.shuffle(items)
    fisher_yates(scalar, expected)
    np.testing.assert_array_equal(items, expected)
    assert batched.next_u64() == scalar.next_u64()


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(5) != derive_seed(5, 0)

