"""Per-rule unit tests: one positive and one negative per shape."""

import pytest

from repro.analysis.contracts import extract_facts


def violations(source, path="snippet.py"):
    """The D-rule output of the fact pass, before pragmas."""
    return extract_facts(source, path, "snippet").violations


def codes(source, path="snippet.py"):
    return [v.code for v in violations(source, path)]


def lines(source, code):
    return [v.line for v in violations(source) if v.code == code]


# -- D001: module-level id/sequence factories ---------------------------------

def test_d001_itertools_count_module_level():
    src = "import itertools\n_ids = itertools.count(1)\n"
    assert codes(src) == ["D001"]


def test_d001_count_imported_directly():
    src = "from itertools import count\n_ids = count()\n"
    assert codes(src) == ["D001"]


def test_d001_instance_count_is_clean():
    src = ("import itertools\n"
           "class C:\n"
           "    def __init__(self):\n"
           "        self._ids = itertools.count(1)\n")
    assert codes(src) == []


def test_d001_bare_global_counter():
    src = ("_n = 0\n"
           "def bump():\n"
           "    global _n\n"
           "    _n += 1\n"
           "    return _n\n")
    assert codes(src) == ["D001"]


def test_d001_module_int_without_rebind_is_clean():
    assert codes("LIMIT = 5\ndef f():\n    return LIMIT\n") == []


def test_d001_module_cache_mutated_at_runtime():
    src = ("_CACHE = {}\n"
           "def put(k, v):\n"
           "    _CACHE[k] = v\n")
    assert codes(src) == ["D001"]


def test_d001_mutating_method_call_detected():
    src = ("_SEEN = set()\n"
           "def mark(x):\n"
           "    _SEEN.add(x)\n")
    assert codes(src) == ["D001"]


def test_d001_readonly_module_table_is_clean():
    src = ("TABLE = {'a': 1, 'b': 2}\n"
           "def get(k):\n"
           "    return TABLE[k]\n")
    assert codes(src) == []


def test_d001_counterish_constructor_heuristic():
    src = "from x import IdSequencer\n_fallback = IdSequencer()\n"
    assert codes(src) == ["D001"]


# -- D002: wall clock ---------------------------------------------------------

@pytest.mark.parametrize("call", [
    "time.time()", "time.monotonic()", "time.perf_counter()",
    "time.time_ns()",
])
def test_d002_time_module(call):
    src = f"import time\ndef f():\n    return {call}\n"
    assert codes(src) == ["D002"]


def test_d002_datetime_now_and_utcnow():
    src = ("from datetime import datetime\n"
           "def f():\n"
           "    return datetime.now(), datetime.utcnow()\n")
    assert codes(src) == ["D002", "D002"]


def test_d002_import_datetime_module_form():
    src = "import datetime\ndef f():\n    return datetime.datetime.now()\n"
    assert codes(src) == ["D002"]


def test_d002_sim_now_is_clean():
    assert codes("def f(sim):\n    return sim.now\n") == []


def test_d002_unrelated_time_attribute_is_clean():
    # A local object that happens to have a .time() method is not the
    # stdlib module.
    assert codes("def f(m):\n    return m.time()\n") == []


# -- D003: unseeded randomness ------------------------------------------------

def test_d003_stdlib_random():
    src = "import random\ndef f():\n    return random.random()\n"
    assert codes(src) == ["D003"]


def test_d003_random_seed_flagged():
    src = "import random\ndef f():\n    random.seed(0)\n"
    assert codes(src) == ["D003"]


def test_d003_from_random_import():
    src = "from random import choice\ndef f(xs):\n    return choice(xs)\n"
    assert codes(src) == ["D003"]


def test_d003_numpy_legacy_api():
    src = "import numpy as np\ndef f():\n    return np.random.rand(3)\n"
    assert codes(src) == ["D003"]


def test_d003_default_rng_allowed():
    src = ("import numpy as np\n"
           "def f():\n"
           "    return np.random.default_rng(7).random()\n")
    assert codes(src) == []


@pytest.mark.parametrize("call", [
    "np.random.default_rng()",
    "default_rng(None)",
    "np.random.default_rng(seed=None)",
    "np.random.SeedSequence()",
    "np.random.PCG64(None)",
    "np.random.Philox()",
])
def test_d003_unseeded_constructor_flagged(call):
    # With no seed (or a literal None) these draw fresh OS entropy.
    src = ("import numpy as np\n"
           "from numpy.random import default_rng\n"
           f"def f():\n    return {call}\n")
    assert codes(src) == ["D003"]


@pytest.mark.parametrize("call", [
    "np.random.default_rng(seed=7)",
    "np.random.SeedSequence(entropy=7)",
    "np.random.Philox(key=7)",
    "np.random.default_rng(**config)",
    "np.random.Generator(np.random.PCG64(7))",
])
def test_d003_seeded_constructor_allowed(call):
    src = f"import numpy as np\ndef f(config):\n    return {call}\n"
    assert codes(src) == []


def test_d003_registry_stream_allowed():
    src = "def f(rngs):\n    return rngs.stream('x').normal()\n"
    assert codes(src) == []


# -- D004: set iteration ------------------------------------------------------

def test_d004_for_over_set_call():
    src = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
    assert codes(src) == ["D004"]


def test_d004_for_over_set_literal():
    src = "def f():\n    for x in {1, 2}:\n        print(x)\n"
    assert codes(src) == ["D004"]


def test_d004_named_set_binding():
    src = ("def f(xs):\n"
           "    ready = set(xs)\n"
           "    for x in ready:\n"
           "        print(x)\n")
    assert codes(src) == ["D004"]


def test_d004_comprehension_over_set():
    src = "def f(xs):\n    return [x for x in set(xs)]\n"
    assert codes(src) == ["D004"]


def test_d004_set_union_tainted():
    src = ("def f(a, b):\n"
           "    for x in set(a) | set(b):\n"
           "        print(x)\n")
    assert codes(src) == ["D004"]


def test_d004_sorted_set_is_clean():
    src = "def f(xs):\n    for x in sorted(set(xs)):\n        print(x)\n"
    assert codes(src) == []


def test_d004_list_iteration_is_clean():
    assert codes("def f(xs):\n    for x in list(xs):\n        pass\n") == []


def test_d004_same_name_in_other_function_not_tainted():
    # `ready` is a set only inside g(); f()'s `ready` is a list.
    src = ("def g(xs):\n"
           "    ready = set(xs)\n"
           "    return sorted(ready)\n"
           "def f(xs):\n"
           "    ready = list(xs)\n"
           "    for x in ready:\n"
           "        print(x)\n")
    assert codes(src) == []


# -- D005: identity ordering --------------------------------------------------

def test_d005_sort_key_id():
    assert codes("def f(xs):\n    xs.sort(key=id)\n") == ["D005"]


def test_d005_sorted_key_hash():
    assert codes("def f(xs):\n    return sorted(xs, key=hash)\n") == ["D005"]


def test_d005_lambda_key_with_id():
    src = "def f(xs):\n    return sorted(xs, key=lambda o: (0, id(o)))\n"
    assert codes(src) == ["D005"]


def test_d005_min_max_keys():
    src = ("def f(xs):\n"
           "    return min(xs, key=id), max(xs, key=hash)\n")
    assert codes(src) == ["D005", "D005"]


def test_d005_attribute_key_is_clean():
    src = "def f(xs):\n    return sorted(xs, key=lambda o: o.seq)\n"
    assert codes(src) == []


def test_d005_plain_sort_is_clean():
    assert codes("def f(xs):\n    return sorted(xs)\n") == []


# -- D006: process fan-out outside the runner ---------------------------------

def test_d006_process_pool_executor_call():
    src = ("from concurrent.futures import ProcessPoolExecutor\n"
           "def f(xs):\n"
           "    with ProcessPoolExecutor() as pool:\n"
           "        return list(pool.map(str, xs))\n")
    assert codes(src) == ["D006"]


def test_d006_futures_module_form():
    src = ("from concurrent import futures\n"
           "def f(xs):\n"
           "    pool = futures.ProcessPoolExecutor(max_workers=2)\n"
           "    return pool\n")
    assert codes(src) == ["D006"]


def test_d006_multiprocessing_import_and_calls():
    src = ("import multiprocessing\n"
           "def f(xs):\n"
           "    ctx = multiprocessing.get_context('spawn')\n"
           "    return multiprocessing.Pool(2)\n")
    # The import fires once, each spawn primitive call fires once.
    assert codes(src) == ["D006", "D006", "D006"]


def test_d006_from_multiprocessing_import():
    src = "from multiprocessing import Pool\n"
    assert codes(src) == ["D006"]


def test_d006_os_fork():
    src = "import os\ndef f():\n    return os.fork()\n"
    assert codes(src) == ["D006"]


def test_d006_world_runner_is_clean():
    src = ("from repro.scale import WorldRunner\n"
           "def f(seeds):\n"
           "    return WorldRunner(4).map('pkg.mod:world', seeds)\n")
    assert codes(src) == []


def test_d006_thread_pool_is_clean():
    # Threads share the process; the rule targets process fan-out only.
    src = ("from concurrent.futures import ThreadPoolExecutor\n"
           "def f(xs):\n"
           "    with ThreadPoolExecutor() as pool:\n"
           "        return list(pool.map(str, xs))\n")
    assert codes(src) == []


# -- ordering / multiple rules ------------------------------------------------

def test_findings_sorted_by_position():
    src = ("import itertools\n"
           "import time\n"
           "_ids = itertools.count()\n"
           "def f():\n"
           "    return time.time()\n")
    found = violations(src)
    assert [f.code for f in found] == ["D001", "D002"]
    assert found[0].line < found[1].line
