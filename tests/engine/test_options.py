"""EngineOptions: the unified typed front-door configuration (the only
way to configure a solve) and the SessionPool."""

import pytest

from repro.core.equations import OrdinaryIRSystem
from repro.core.operators import ADD
from repro.engine import (
    EngineOptions,
    Session,
    SessionPool,
    solve,
    solve_batch,
)
from repro.engine.options import OPTION_KEYS
from repro.resilience import SolvePolicy


def chain(n=16):
    return OrdinaryIRSystem.build(
        list(range(n + 1)), list(range(1, n + 1)), list(range(0, n)), ADD
    )


class TestEngineOptions:
    def test_defaults(self):
        opts = EngineOptions()
        assert opts.backend == "auto"
        assert opts.policy is None
        assert not opts.checked
        assert opts.check_sample == 64
        assert not opts.verify_plan
        assert opts.failover
        assert opts.backend_options == {}

    def test_policy_accepts_dict(self):
        opts = EngineOptions(policy={"max_rounds": 3})
        assert isinstance(opts.policy, SolvePolicy)
        assert opts.policy.max_rounds == 3

    def test_policy_unknown_key_named(self):
        with pytest.raises(ValueError, match="bogus"):
            EngineOptions(policy={"bogus": 1})

    def test_from_dict_unknown_keys_name_valid_set(self):
        with pytest.raises(ValueError) as exc:
            EngineOptions.from_dict({"backend": "numpy", "nope": 1})
        assert "nope" in str(exc.value)
        for key in OPTION_KEYS:
            assert key in str(exc.value)

    def test_merged_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="typo"):
            EngineOptions().merged(typo=True)

    def test_to_dict_from_dict_roundtrip(self):
        opts = EngineOptions(
            backend="numpy",
            policy=SolvePolicy(max_rounds=5, on_exhaustion="partial"),
            checked=True,
            check_sample=None,
            backend_options={"path": "auto"},
        )
        assert EngineOptions.from_dict(opts.to_dict()) == opts

    def test_legacy_mapping_is_backend_extras(self):
        opts = EngineOptions.from_value({"path": "auto"})
        assert opts == EngineOptions(backend_options={"path": "auto"})

    def test_key_distinguishes_configurations(self):
        base = EngineOptions(backend="numpy")
        assert base.key() == EngineOptions(backend="numpy").key()
        assert base.key() != EngineOptions(backend="python").key()
        assert base.key() != base.replace(checked=True).key()
        assert (
            base.key()
            != base.replace(backend_options={"path": "object"}).key()
        )

    def test_invalid_backend_type(self):
        with pytest.raises(ValueError, match="backend"):
            EngineOptions(backend=7)


class TestFrontDoorIntegration:
    def test_solve_accepts_options(self):
        result = solve(chain(), options=EngineOptions(backend="numpy"))
        assert result.backend == "numpy"
        assert result.values[-1] == sum(range(17))

    def test_solve_batch_accepts_options(self):
        system = chain(8)
        rows = solve_batch(
            system,
            [list(range(9)), [2 * v for v in range(9)]],
            options=EngineOptions(backend="numpy"),
        )
        assert rows[1][-1] == 2 * rows[0][-1]

    def test_session_accepts_options(self):
        session = Session(chain(), options=EngineOptions(backend="numpy"))
        assert session.options.backend == "numpy"
        assert session.solve().values[-1] == sum(range(17))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: solve(chain(), backend="python"),
            lambda: solve_batch(chain(), [list(range(17))], checked=True),
            lambda: Session(chain(), policy=SolvePolicy(max_rounds=1)),
            lambda: solve(chain(), max_rounds=1),
        ],
        ids=["solve", "solve_batch", "Session", "max_rounds"],
    )
    def test_loose_kwarg_rejected(self, call):
        with pytest.raises(ValueError) as exc:
            call()
        assert "unknown keyword" in str(exc.value)
        assert "options" in str(exc.value)

    @pytest.mark.parametrize(
        "extras, field",
        [
            ({"backend": "python"}, "backend"),
            ({"max_rounds": 1}, None),
            ({"checked": True}, "checked"),
            ({"bogus": 1}, None),
        ],
        ids=["backend", "max_rounds", "checked", "bogus"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda options: solve(chain(), options=options),
            lambda options: solve_batch(chain(), [list(range(17))], options=options),
            lambda options: Session(chain(), options=options),
            lambda options: Session(chain(), options=EngineOptions(backend_options=options)),
        ],
        ids=["solve", "solve_batch", "Session", "Session-typed"],
    )
    def test_a_backend_option_the_backend_does_not_read_is_refused(
        self, call, extras, field
    ):
        with pytest.raises(ValueError) as exc:
            call(extras)
        message = str(exc.value)
        assert f"unknown backend option key(s): {next(iter(extras))}" in message
        assert "valid keys: guard, path" in message
        assert (f"EngineOptions({field}=...)" in message) == (field is not None)

    def test_each_backend_declares_the_extras_it_reads(self):
        assert solve(chain(), options={"path": "auto"}).backend == "numpy"
        pram = EngineOptions(backend="pram", backend_options={"processors": 2})
        assert solve(chain(), options=pram).values[-1] == sum(range(17))
        with pytest.raises(ValueError, match="valid keys: access_policy, cost_model"):
            solve(chain(), options=pram.replace(backend_options={"path": "auto"}))

    def test_unknown_kwarg_still_names_valid_set(self):
        with pytest.raises(ValueError) as exc:
            solve(chain(), nonsense=True)
        assert "nonsense" in str(exc.value)
        assert "options" in str(exc.value)

    def test_result_envelope_defaults_outside_serve(self):
        result = solve(chain(), options=EngineOptions(backend="numpy"))
        assert result.request_id is None
        assert result.coalesced is False
        assert result.queue_wait_s is None


class TestSessionPool:
    def test_lease_reuses_session(self):
        pool = SessionPool(capacity=4)
        system = chain()
        with pool.lease(system) as first:
            pass
        with pool.lease(system) as second:
            assert second is first
        assert len(pool) == 1

    def test_distinct_options_distinct_sessions(self):
        pool = SessionPool(capacity=4)
        system = chain()
        a = pool.acquire(system, options=EngineOptions(backend="numpy"))
        b = pool.acquire(system, options=EngineOptions(backend="python"))
        assert a is not b
        pool.release(a)
        pool.release(b)
        assert len(pool) == 2

    def test_idle_lru_eviction(self):
        pool = SessionPool(capacity=1)
        a = pool.acquire(chain(4))
        pool.release(a)
        b = pool.acquire(chain(5))
        pool.release(b)
        assert len(pool) == 1
        # the survivor is the most recently used entry
        c = pool.acquire(chain(5))
        assert c is b
        pool.release(c)

    def test_leased_sessions_never_evicted(self):
        pool = SessionPool(capacity=1)
        a = pool.acquire(chain(4))
        b = pool.acquire(chain(5))  # over capacity, but `a` is leased
        assert len(pool) == 2
        pool.release(a)
        pool.release(b)
        assert len(pool) == 1

    def test_release_unknown_session_rejected(self):
        pool = SessionPool()
        stray = Session(chain())
        with pytest.raises(ValueError, match="never leased"):
            pool.release(stray)

    def test_clear_keeps_leased(self):
        pool = SessionPool(capacity=4)
        a = pool.acquire(chain(4))
        b = pool.acquire(chain(5))
        pool.release(b)
        assert pool.clear() == 1
        assert pool.stats()["sessions"] == 1
        pool.release(a)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SessionPool(capacity=0)
