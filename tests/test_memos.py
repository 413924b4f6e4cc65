"""The package's memos: ``clear_caches`` empties them all, and no answer depends on them."""

import importlib
import pkgutil
import random
import warnings

import foulkes
from foulkes import (
    PlethysmFlavor,
    character_value,
    clear_caches,
    enumerate_closed_families,
    families,
    minimal_constituents_phi,
    multiplicity,
    omega_check,
    oracle,
    parse_partition,
    partitions_of,
    plethysm_expansion,
)

P = parse_partition
ROW, COLUMN = PlethysmFlavor


def _answers(calls):
    # Degree-20 coefficients are past the guard; any other warning still fails.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "single-coefficient", RuntimeWarning)
        return [fn(*args) for fn, *args in calls]


def test_clear_caches_empties_every_memo():
    calls = [
        (minimal_constituents_phi, 3, P("2,2,1")),
        (lambda: list(enumerate_closed_families(2, 5, "multiset")),),
        (plethysm_expansion, P("2,1"), 3, ROW),
        (plethysm_expansion, P("2,1"), 3, COLUMN),
        (multiplicity, P("3,2"), 4, P("8,6,4,2")),
        (character_value, P("4,3,1"), P("3,3,2")),
    ]
    answers = _answers(calls)
    lru_memos = [
        value
        for info in pkgutil.iter_modules(foulkes.__path__)
        for value in vars(importlib.import_module(f"foulkes.{info.name}")).values()
        if hasattr(value, "cache_info")
    ]
    assert len(lru_memos) >= 4
    assert all(memo.cache_info().currsize for memo in lru_memos)
    clear_caches()
    assert [memo.cache_info().currsize for memo in lru_memos] == [0] * len(lru_memos)
    assert not oracle._CHAR_CACHE and not oracle._STRIPS and not oracle._RIBBON_CACHE
    assert not families._PREFIX_FOLDS
    assert oracle._EMPTY_SUFFIX[3] == {0: 1} and oracle._EMPTY_PRODUCT[2] == {0: 1}
    assert _answers(calls) == answers


def test_oracle_answers_do_not_depend_on_call_order_or_memo_state():
    rng = random.Random(21)
    calls = [
        (multiplicity, P("3,2"), 4, P("8,6,4,2"), ROW),
        (multiplicity, P("2,2"), 5, P("4,4,4,4,2,2"), COLUMN),
    ]
    for _ in range(8):
        classes = list(partitions_of(rng.randint(1, 12)))
        calls.append((character_value, rng.choice(classes), rng.choice(classes)))
    for _ in range(5):
        m, n = rng.choice([(2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 2)])
        nu = rng.choice(list(partitions_of(n)))
        lam = rng.choice(list(partitions_of(m * nu.weight)))
        calls += [
            (plethysm_expansion, nu, m, ROW),
            (plethysm_expansion, nu, m, COLUMN),
            (omega_check, nu, m),
            (multiplicity, nu, m, lam, rng.choice([ROW, COLUMN])),
        ]
    cold = []
    for call in calls:
        clear_caches()
        cold += _answers([call])
    for k in range(3):
        order = rng.sample(range(len(calls)), len(calls))
        half = len(order) // 2
        got = dict(zip(order[:half], _answers([calls[i] for i in order[:half]])))
        if k == 1:
            clear_caches()
        got.update(zip(order[half:], _answers([calls[i] for i in order[half:]])))
        assert [got[i] for i in range(len(calls))] == cold, order
