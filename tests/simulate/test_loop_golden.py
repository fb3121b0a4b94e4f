"""Pinned bytes of the epoch loop: renders, explain exports, fleet books.

Each case runs one simulator with explain recording on and hashes what
a reader of the run sees: the ledger's ``render()``, the explain JSON
lines and, for fleets, every tenant's invoice or the per-tenant CSV.
The cases cover both regimes of the one loop: synchronous runs (the
instant-build case, including provider migrations and an elastic
fleet) and a slow build queue whose epochs split at landings.

The digests were recorded while each regime still had a loop of its
own, so they hold the one loop to the bytes those two loops produced.
Two cases were recorded through presets that are gone:
``fixed-fleet`` through a dedicated fixed sampled-fleet preset (now
the zero-churn elastic fleet) and ``async-shortest`` through an async
wrapper (now ``builds=``).  ``scripted-fleet``, recorded with them,
pins the hand-scripted fleet.

They are also the cross-backend check: every case must give the same
digests with the kernel as shipped, forced onto its pure-Python
backend (what a numpy-less install runs), and switched off (the exact
``Decimal`` oracle).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib

import pytest

from repro.explain import ExplainLog, activate, explain_lines
from repro.kernel import PurePythonBackend
from repro.kernel import world as kernel_world
from repro.simulate import (
    ArbitrageAware,
    BuildConfig,
    default_market,
    drifting_sales_simulator,
    make_policy,
    multi_tenant_sales_simulator,
    stochastic_sales_simulator,
)
from repro.simulate.presets import (
    elastic_multi_tenant_simulator,
    population_fleet_simulator,
)
from repro.simulate.stochastic import FleetChurn

ROWS = 2_000


def _recorded(run):
    """``run()``'s result and its explain export, as bytes."""
    with activate(ExplainLog()) as log:
        result = run()
    return result, "".join(line + "\n" for line in explain_lines(log)).encode()


def _single(simulator, policy):
    ledger, explain = _recorded(lambda: simulator.run(policy))
    return ledger, {"render": ledger.render().encode(), "explain": explain}


def _fleet(simulator, policy):
    fleet_ledger, explain = _recorded(lambda: simulator.run(policy))
    artifacts = {
        "render": fleet_ledger.fleet.render().encode(),
        "explain": explain,
    }
    for name, ledger in fleet_ledger.tenants.items():
        artifacts[f"tenant:{name}"] = ledger.render().encode()
    return fleet_ledger.fleet, artifacts


def _sharded(simulator, policy, shards):
    summary, explain = _recorded(
        lambda: simulator.run_sharded(policy, shards=shards)
    )
    return summary.fleet, {
        "render": summary.render(max_tenants=len(summary.tenants)).encode(),
        "csv": summary.to_csv().encode(),
        "explain": explain,
    }


def _drifting(name):
    return _single(
        drifting_sales_simulator(n_epochs=19, n_rows=ROWS), make_policy(name)
    )


CASES = {
    "drifting-never": lambda: _drifting("never"),
    "drifting-periodic": lambda: _drifting("periodic"),
    "drifting-regret": lambda: _drifting("regret"),
    "stochastic-arbitrage": lambda: _single(
        stochastic_sales_simulator(
            generator="spot",
            n_epochs=10,
            n_rows=ROWS,
            seed=7,
            market=default_market(),
        ),
        ArbitrageAware(make_policy("regret"), horizon=2, hysteresis=1),
    ),
    "elastic-fleet": lambda: _fleet(
        elastic_multi_tenant_simulator(
            n_tenants=3, n_epochs=12, n_rows=ROWS, seed=11
        ),
        make_policy("regret"),
    ),
    "population-sharded": lambda: _sharded(
        population_fleet_simulator(
            n_tenants=60, n_epochs=4, n_rows=ROWS, seed=7
        ),
        make_policy("regret"),
        shards=3,
    ),
    "slow-async": lambda: _single(
        drifting_sales_simulator(
            n_epochs=19,
            n_rows=ROWS,
            builds=BuildConfig(slots=1, hours_per_month=0.5),
        ),
        make_policy("periodic"),
    ),
    "fixed-fleet": lambda: _fleet(
        elastic_multi_tenant_simulator(
            n_tenants=3,
            churn=FleetChurn(arrival_rate=0.0),
            n_epochs=12,
            n_rows=ROWS,
            seed=11,
        ),
        make_policy("regret"),
    ),
    "scripted-fleet": lambda: _fleet(
        multi_tenant_sales_simulator(n_tenants=3, n_epochs=17, n_rows=ROWS),
        make_policy("periodic"),
    ),
    "async-shortest": lambda: _single(
        drifting_sales_simulator(
            n_epochs=19,
            n_rows=ROWS,
            builds=BuildConfig(slots=2, discipline="shortest", hours_per_month=2.0),
        ),
        make_policy("regret"),
    ),
}

GOLDEN = {
    "async-shortest": {
        "explain": "372a2e2fd2533f9fe148390318e0cac96aa5ba570210ae4df95ae038fa104d7d",
        "render": "e76338ec044153ecd5ccc9be5760959daff59976a5c589b26d817fee9ca27835",
    },
    "drifting-never": {
        "explain": "87c3f80e19acc29e87bae28e687dafd55a37cb5a53451710e9d8d358aaafda9c",
        "render": "decb42a5100d109e8eabfcc4eddf391a696ba60c5d452c306fb8f1b10e164c63",
    },
    "drifting-periodic": {
        "explain": "eee3d5fbdd19426f4249a67f668c6c3e66a35529f0981e509daf35225420332b",
        "render": "763c94d54912cae557a0ecbf52dab0365a6a14f00735cc77ab7bca1f312ff3bc",
    },
    "drifting-regret": {
        "explain": "b0ff3a0a7b596582f5e5f941de741f2a360d08a73ae00f224fe1adefa1898337",
        "render": "d42b743aa08888b80322ea466c60f64a448adec5cb78bfaa78abda5e1928f5e8",
    },
    "elastic-fleet": {
        "explain": "34d90f2231df5113fda13515028c9e3170f925e9ce76e4d922faf392a892ff3e",
        "render": "3ef2ce545af05999828161b604d9a6ee8a25a20734d98885fb3c945a72c3ca40",
        "tenant:c0": "ed42051872c480094c42fb3daa2add350801859173c9dc220494ed5789ef8427",
        "tenant:c1": "b56fc6d1419bd55fe5684af43274d3b9777dedc89c4adb2d777b6768b3168110",
        "tenant:c2": "a91a44b1cfcbcf31dc436ac6dec440492dbe71244e1166575894e18f5262a41d",
        "tenant:c3": "6639bc437a707858e2d0571fcdd6a67e7794f7e94356ebc384cc0fa8363cc8ed",
        "tenant:c4": "af0ef107b822cae8aba4591379905fad08817f29e46c1d5a7b01571c2e38f022",
        "tenant:t1": "3376c0e4e1122a02168a755762ffb53d79f0a2fdb6d33ebec592158855b59cbe",
        "tenant:t2": "b86ae3659d14c1dd9f08b1f101155dcf666e4b2f2c94fa8b38d1d7756c1b0685",
        "tenant:t3": "0709c537d8ec5e409c0bd8a92eee67f749db15ac28465b7dfbf212945a6e75e8",
    },
    "fixed-fleet": {
        "explain": "ae6615ba794da603321ce3bf4210c243bf248629d7dab2dfc0756e31b14e92d1",
        "render": "13c8285b2d67d4fb38e308af58c00718a2860ad233bed30a76603f45e971006a",
        "tenant:t1": "8c6426dfe143846166a38e661b14cb8a4a58da8dff61ddcbdb2e631b284dab34",
        "tenant:t2": "f04185425534ea701eb0092a08344b503a9e2310df67be375f120afdd4df709a",
        "tenant:t3": "d99b598380e9f34a5fe31c57928ed6b992fc4e81563158eec4cd5804285472e9",
    },
    "population-sharded": {
        "csv": "02a50a514d6f0e89bd8bded62d604a4daf0826de70aaf44e0afeb51553f7b227",
        "explain": "d3fcc61f72098e6dc9eaa2effd1880749d731f2bc066287aee5d329fef3b082a",
        "render": "965a582b023809c93d7d12e2fef88258a6b64f88f992137769b855cbefddab5a",
    },
    "scripted-fleet": {
        "explain": "ad9f32369926e8a58e1b06bb7aca7be4b45c96effa7dacabae582632a31b6293",
        "render": "ef3bf4a400b805f12c0a4988ae44284785b6441f1530a6e71118f48d819cf937",
        "tenant:t1": "6e56f998f8eeb75c0f57d1b3e107b2a53ea0a43ef614cee4a9ac5981f53dac6a",
        "tenant:t2": "44f560570142bc4d93ff8743aae5ef046abe5840bb60f801e15f185f17dfd3ff",
        "tenant:t3": "4ecd3219223a1da2c728b9122266f31f99c27f7468e87ba457abe878543a2ad2",
    },
    "slow-async": {
        "explain": "1cc5a331a239f2fef386c94b6dc70e2f716d17b169902106d15a316173044863",
        "render": "0d1bad2eeb76b8fe42d3bef91e4f7b902d0f028e3cce4739fbbbfe69da6f7cc8",
    },
    "stochastic-arbitrage": {
        "explain": "e3dc0f23d3734e1b24e3c9b4366045c5d9870828170059b2af000d328773ff12",
        "render": "2f4f87da05484a1735b4af0ceb530f9e461287238ad1e35a2bf1c008d6fc6a8f",
    },
}

KERNELS = ("auto", "python", "oracle")


@contextlib.contextmanager
def _kernel(mode):
    """Price with the kernel as shipped or on pure Python (the
    ``oracle`` mode is entered by the test, through the
    ``oracle_pricing`` fixture)."""
    if mode == "python":
        make_backend = kernel_world.make_backend
        kernel_world.make_backend = PurePythonBackend
        try:
            yield
        finally:
            kernel_world.make_backend = make_backend
    else:
        yield


@functools.lru_cache(maxsize=None)
def _outcome(case, kernel="auto"):
    with _kernel(kernel):
        return CASES[case]()


def digests(case, kernel="auto"):
    """sha256 of every artifact of ``case``, by artifact name."""
    _, artifacts = _outcome(case, kernel)
    return {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(artifacts.items())
    }


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_match_the_pinned_digests(case, kernel, oracle_pricing):
    oracle = kernel == "oracle"
    with oracle_pricing() if oracle else contextlib.nullcontext():
        assert digests(case, kernel) == GOLDEN[case]


def test_the_cases_reach_the_paths_they_pin():
    # A pinned digest proves nothing about a path the case never takes.
    arbitrage, _ = _outcome("stochastic-arbitrage")
    assert any(record.migrated_to for record in arbitrage)
    for case in ("slow-async", "async-shortest"):
        slow, _ = _outcome(case)
        assert any(record.segments for record in slow)
    # The async ledger marks are formatted in place; the digest pins them.
    marks = " ".join(e for record in _outcome("slow-async")[0] for e in record.events)
    assert "started@" in marks and "live@" in marks
    fleet, _ = _outcome("elastic-fleet")
    assert any(record.arrivals for record in fleet)
    assert any(record.departures for record in fleet)
