"""Store keys: stability, sensitivity, canonical-form strictness."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.config import AnalysisConfig
from repro.errors import StoreError
from repro.protocols.pbcast import ProbabilisticRelay
from repro.sim.config import SimulationConfig
from repro.store import canonical_json, seed_fingerprint, sweep_key, task_key
from repro.store.keys import _canonical


def cfg(rho=15):
    return SimulationConfig(analysis=AnalysisConfig(n_rings=3, rho=rho))


@dataclasses.dataclass(frozen=True)
class _Holder:
    inner: SimulationConfig
    pair: tuple = (1, 2.5)
    table: dict = dataclasses.field(
        default_factory=lambda: {"a": [AnalysisConfig(rho=3.0)], 2: (None, True)}
    )


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2], "b": {"c": 3}})

    def test_nan_tagged_distinct_from_null(self):
        assert canonical_json(float("nan")) == '"__nan__"'
        assert canonical_json(None) == "null"

    def test_numpy_scalars_and_arrays_reduce(self):
        assert canonical_json(np.int64(3)) == canonical_json(3)
        assert canonical_json(np.array([1, 2])) == canonical_json([1, 2])

    def test_dataclasses_reduce(self):
        a = canonical_json(AnalysisConfig(n_rings=3, rho=15))
        b = canonical_json(AnalysisConfig(n_rings=3, rho=15))
        assert a == b

    @pytest.mark.parametrize(
        "value",
        [
            SimulationConfig(),
            SimulationConfig(
                analysis=AnalysisConfig(
                    n_rings=3, rho=17.5, slots=4, radius=1.5, quad_nodes=48,
                    mu_method="poisson", carrier_factor=2.5,
                ),
                channel="cam",
                carrier_sense=True,
                half_duplex=True,
                population="poisson",
                max_phases=40,
            ),
            SimulationConfig(analysis=AnalysisConfig(rho=140.0), channel="cfm"),
            _Holder(inner=SimulationConfig(analysis=AnalysisConfig(slots=2))),
        ],
    )
    def test_dataclass_form_equals_asdict_form(self, value):
        assert _canonical(value) == _canonical(dataclasses.asdict(value))

    def test_unserializable_raises_not_repr(self):
        with pytest.raises(StoreError):
            canonical_json(object())


class TestSeedFingerprint:
    def test_spawned_children_differ_only_by_spawn_key(self):
        root = np.random.SeedSequence(7)
        a, b = root.spawn(2)
        fa, fb = seed_fingerprint(a), seed_fingerprint(b)
        assert fa["entropy"] == fb["entropy"]
        assert fa["spawn_key"] != fb["spawn_key"]

    def test_tuple_seed(self):
        fp = seed_fingerprint((42, 7, 0))
        assert fp["entropy"] == [42, 7, 0]

    def test_stable_across_calls(self):
        assert seed_fingerprint(123) == seed_fingerprint(123)


class TestTaskKey:
    def test_deterministic(self):
        k1 = task_key(ProbabilisticRelay(0.3), cfg(), 7, "vector", "phase")
        k2 = task_key(ProbabilisticRelay(0.3), cfg(), 7, "vector", "phase")
        assert k1 == k2
        assert len(k1) == 64 and set(k1) <= set("0123456789abcdef")

    @pytest.mark.parametrize(
        "variant",
        [
            dict(policy=ProbabilisticRelay(0.4)),
            dict(config=cfg(rho=20)),
            dict(seed=8),
            dict(engine="des"),
            dict(alignment="jitter"),
            dict(reuse_deployment=True),
        ],
    )
    def test_every_input_is_in_the_key(self, variant):
        base = dict(
            policy=ProbabilisticRelay(0.3),
            config=cfg(),
            seed=7,
            engine="vector",
            alignment="phase",
            reuse_deployment=False,
        )
        k_base = task_key(
            base["policy"],
            base["config"],
            base["seed"],
            base["engine"],
            base["alignment"],
            reuse_deployment=base["reuse_deployment"],
        )
        changed = {**base, **variant}
        k_changed = task_key(
            changed["policy"],
            changed["config"],
            changed["seed"],
            changed["engine"],
            changed["alignment"],
            reuse_deployment=changed["reuse_deployment"],
        )
        assert k_base != k_changed

    def test_spawned_children_get_distinct_keys(self):
        root = np.random.SeedSequence(7)
        a, b = root.spawn(2)
        ka = task_key(ProbabilisticRelay(0.3), cfg(), a, "vector", "phase")
        kb = task_key(ProbabilisticRelay(0.3), cfg(), b, "vector", "phase")
        assert ka != kb


def _policy_classes():
    """Every concrete :class:`RelayPolicy` defined in ``repro.protocols``."""
    import importlib
    import inspect
    import pkgutil

    import repro.protocols
    from repro.protocols.base import RelayPolicy

    for info in pkgutil.iter_modules(repro.protocols.__path__):
        importlib.import_module(f"repro.protocols.{info.name}")
    found, todo = [], [RelayPolicy]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro.protocols.") and not inspect.isabstract(sub):
                found.append(sub)
    return sorted(set(found), key=lambda c: c.__name__)


def _other_value(value):
    """A different valid value of a policy parameter's kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return 0.25 if value != 0.25 else 0.75


class TestPolicyParametersKeyed:
    """The store key reads ``repr(policy)``; a parameter missing from a
    policy's repr would let every value share one key."""

    def test_walk_finds_every_policy(self):
        names = {c.__name__ for c in _policy_classes()}
        assert {
            "ProbabilisticRelay",
            "SimpleFlooding",
            "CounterBasedRelay",
            "DistanceBasedRelay",
            "NeighborKnowledgeRelay",
        } <= names

    @pytest.mark.parametrize("policy_cls", _policy_classes(), ids=lambda c: c.__name__)
    def test_every_constructor_argument_changes_the_key(self, policy_cls):
        import inspect

        params = [
            p
            for p in inspect.signature(policy_cls).parameters.values()
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
        base = {
            p.name: (0.5 if p.default is inspect.Parameter.empty else p.default)
            for p in params
        }

        def key(**kwargs):
            return task_key(policy_cls(**kwargs), cfg(), 7, "vector", "phase")

        k_base = key(**base)
        assert key(**base) == k_base
        for p in params:
            changed = {**base, p.name: _other_value(base[p.name])}
            assert key(**changed) != k_base, f"{policy_cls.__name__}.{p.name}"


class TestSweepKey:
    def test_order_sensitive(self):
        a = task_key(ProbabilisticRelay(0.3), cfg(), 1, "vector", "phase")
        b = task_key(ProbabilisticRelay(0.3), cfg(), 2, "vector", "phase")
        assert sweep_key([a, b]) != sweep_key([b, a])

    def test_deterministic(self):
        a = task_key(ProbabilisticRelay(0.3), cfg(), 1, "vector", "phase")
        assert sweep_key([a]) == sweep_key([a])
