"""Differential oracle + fuzzer: convergence, crash sweep, mutant hunt."""

import pytest

from repro.check import fuzz
from repro.check.fuzz import ddmin, fuzz_scheme, trace_violations
from repro.check.mutant import MUTANT_SCHEME
from repro.check.oracle import (
    ORACLE_SCHEMES,
    build_system,
    run_check_matrix,
    run_trace,
)
from repro.check.trace import (
    TraceStore,
    TraceTxn,
    expected_state,
    generate_trace,
)


# Three seeded workloads, per the acceptance criteria: all schemes must
# converge on each.
CONVERGENCE_SEEDS = (1, 2, 3)


@pytest.mark.parametrize("seed", CONVERGENCE_SEEDS)
def test_all_schemes_converge(seed):
    """Same trace, every scheme, identical final logical state."""
    trace = generate_trace(seed, transactions=15, slots=5, cores=4)
    readbacks = {}
    for scheme in ORACLE_SCHEMES:
        system = build_system(scheme)
        outcome = run_trace(system, trace)
        assert not outcome.power_lost
        expected = expected_state(trace, outcome.slot_addrs)
        readbacks[scheme] = {
            addr: system.load(addr, 8) for addr in expected
        }
        assert readbacks[scheme] == expected, scheme
    baseline = readbacks["native"]
    for scheme, readback in readbacks.items():
        assert readback == baseline, scheme


def test_matrix_clean_on_smoke_sample():
    result = run_check_matrix(
        ["native", "hoop", "hoop-mc", "opt-redo"],
        seed=9,
        transactions=15,
        slots=5,
        crash_sample=3,
    )
    assert result.ok, result.render()
    assert not result.divergences
    # Crash-recovery convergence ran for the real schemes only.
    by_name = {r.scheme: r for r in result.reports}
    assert by_name["native"].crash_cases == 0
    assert by_name["hoop"].crash_cases > 0
    assert by_name["hoop-mc"].crash_cases > 0


def test_matrix_flags_the_mutant():
    result = run_check_matrix(
        ["opt-redo", MUTANT_SCHEME],
        seed=9,
        transactions=15,
        slots=5,
        crash_sample=0,
    )
    assert not result.ok
    by_name = {r.scheme: r for r in result.reports}
    assert by_name["opt-redo"].ok
    assert by_name[MUTANT_SCHEME].violations
    # The mutant's bug is ordering-only: its *functional* state still
    # converges, so the logical comparison alone would miss it.
    assert not by_name[MUTANT_SCHEME].logical_mismatches


def test_mutant_caught_and_shrunk_quickly():
    """Acceptance: caught within 8 iterations, reproducer <= 20 events."""
    result = fuzz_scheme(MUTANT_SCHEME, seed=7, iterations=8)
    assert result.found
    assert result.iterations <= 8
    assert result.shrunk_events <= 20
    # The shrunk trace still reproduces deterministically.
    assert trace_violations(MUTANT_SCHEME, result.trace)
    # And is 1-minimal at txn granularity for this bug class: one txn.
    assert len(result.trace.txns) == 1


def test_fuzz_clean_scheme_stays_clean():
    result = fuzz_scheme("opt-redo", seed=7, iterations=4)
    assert not result.found
    assert result.iterations == 4


def test_ddmin_minimizes_known_predicate():
    # Failing iff the sublist contains both 3 and 7.
    failing = lambda items: 3 in items and 7 in items  # noqa: E731
    out = ddmin(list(range(10)), failing)
    assert sorted(out) == [3, 7]


def test_ddmin_single_element_predicate():
    failing = lambda items: 5 in items  # noqa: E731
    assert ddmin(list(range(40)), failing) == [5]


def test_shrink_cuts_a_surviving_transaction_down_to_one_store(monkeypatch):
    """The per-store stage: transaction-level ddmin keeps a whole
    transaction, so only the second stage can drop its other stores."""
    trace = generate_trace(3, transactions=6, slots=4)
    chosen = TraceStore(slot=2, offset=5, value=0xC0FFEE)
    stores = (
        TraceStore(0, 1, 11), TraceStore(1, 2, 12), chosen,
        TraceStore(3, 3, 13), TraceStore(0, 4, 14),
    )
    target = TraceTxn(core=1, stores=stores)
    trace = trace.with_txns(trace.txns[:2] + (target,) + trace.txns[2:])
    scored = []

    def violations(scheme, candidate, **kwargs):
        scored.append(candidate)
        held = any(chosen in txn.stores for txn in candidate.txns)
        return ["violation"] if held else []

    monkeypatch.setattr(fuzz, "trace_violations", violations)
    shrunk = fuzz.shrink_trace("opt-redo", trace)
    assert shrunk.txns == (TraceTxn(core=1, stores=(chosen,)),)
    # Stage one left the five-store transaction whole; stage two scored
    # candidates with fewer of its stores.
    assert any(
        candidate.txns[0].stores == stores for candidate in scored
        if len(candidate.txns) == 1
    )
    assert any(
        0 < len(candidate.txns[0].stores) < len(stores)
        for candidate in scored if len(candidate.txns) == 1
    )


def test_cli_clean_run(capsys):
    from repro.check.__main__ import main

    code = main(
        [
            "--schemes",
            "native,opt-redo",
            "--transactions",
            "10",
            "--slots",
            "4",
            "--crash-sample",
            "2",
            "-q",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "RESULT: clean" in out


def test_cli_mutant_selftest(capsys, tmp_path):
    from repro.check.__main__ import main

    report = tmp_path / "mutant.txt"
    code = main(["--mutant", "-q", "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "SELF-TEST: passed" in out
    assert "unfenced-write" in report.read_text()


def test_cli_rejects_unknown_scheme():
    from repro.check.__main__ import main

    with pytest.raises(SystemExit):
        main(["--schemes", "definitely-not-a-scheme", "-q"])
