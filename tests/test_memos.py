"""The package's memos: ``clear_caches`` empties them all, and no answer depends on them."""

import importlib
import inspect
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

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
    # Exactly these, so a memo that clear_caches does not know of fails here.
    assert {memo.__name__ for memo in lru_memos} == {"_power_sum_coefficients"}
    assert all(memo.cache_info().currsize for memo in lru_memos)
    assert oracle._RIBBON_CACHE and families._PREFIX_FOLDS and families._LEVELS
    clear_caches()
    assert [memo.cache_info().currsize for memo in lru_memos] == [0] * len(lru_memos)
    assert not oracle._RIBBON_CACHE and not families._PREFIX_FOLDS and not families._LEVELS
    assert oracle._EMPTY_PRODUCT[2] == {0: 1}
    assert _answers(calls) == answers


def test_readme_memory_list_names_the_memos_clear_caches_empties():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    intro = readme.split("### Memory\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^- `(\w+\.\w+)`", intro, re.M)
    source = inspect.getsource(clear_caches)
    emptied = re.findall(r"^\s+(\w+\.\w+)\.(?:cache_)?clear\(\)$", source, re.M)
    assert sorted(listed) == sorted(emptied) and len(emptied) == 4
    assert "in four memos:" in intro


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


def test_degree_36_loop_stays_under_a_memory_cap():
    # 80 single coefficients with the guard raised to 36: ten labels of at
    # most 6 parts and first part at most 12, each in both flavors (the
    # column one at the conjugate label), of (4,4,4) at m = 3 and (3,3),
    # (2,2,2) and (3,2,1) at m = 6.  In a child process, where any warning
    # is an error, whose address space is capped at 64 MB, so that memos
    # growing past it fail here instead of filling the machine's memory.
    # Measured on one CPU of a 2-core x86 VM,
    # Python 3.11: 0.3-0.6 s, a peak RSS of 18 MB and a peak virtual size of
    # 22 MB (the loop passes under a 24 MB cap there).
    code = (
        "import random, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))\n"
        "from foulkes import Partition, multiplicity, partitions_of\n"
        "band = [lam for lam in partitions_of(36) if len(lam) <= 6 and lam[0] <= 12]\n"
        "labels = random.Random(36).sample(band, 10)\n"
        "values = 0\n"
        "for nu, m in [((4, 4, 4), 3), ((3, 3), 6), ((2, 2, 2), 6), ((3, 2, 1), 6)]:\n"
        "    for lam in labels:\n"
        "        row = multiplicity(Partition(nu), m, lam, guard=36)\n"
        "        col = multiplicity(Partition(nu), m, lam.conjugate(), 'column', guard=36)\n"
        "        assert m % 2 or row == col, (nu, m, lam)\n"
        "        values += 2\n"
        "print(values)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "80"
