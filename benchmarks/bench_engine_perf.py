"""E12 — infrastructure throughput: simulator steps and explorer states.

Not a paper artifact, but the knob that sizes every other experiment:
how many Def. 2.3 steps per second the engine executes and how fast the
bounded model checker enumerates states.
"""

from repro.core.instances import disagree, fig6_gadget
from repro.engine.convergence import simulate
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer
from repro.engine.schedulers import RandomScheduler
from repro.models.taxonomy import model


def test_engine_step_throughput(benchmark):
    instance = fig6_gadget()
    scheduler = RandomScheduler(instance, model("UMS"), seed=1, drop_prob=0.3)

    def run_block():
        execution = Execution(instance)
        for _ in range(1000):
            execution.step(scheduler.next_entry(execution.state))
        return execution

    execution = benchmark(run_block)
    assert len(execution.trace) == 1000


def test_explorer_state_throughput(benchmark):
    def explore():
        return Explorer(
            fig6_gadget(), model("REA"), queue_bound=2, max_states=100_000
        ).explore()

    result = benchmark(explore)
    assert result.states_explored > 1000
    assert not result.oscillates


def test_explorer_state_throughput_reference(benchmark):
    """The didactic engine on the same search — the speedup denominator."""

    def explore():
        return Explorer(
            fig6_gadget(),
            model("REA"),
            queue_bound=2,
            max_states=100_000,
            engine="reference",
        ).explore()

    result = benchmark(explore)
    assert result.states_explored > 1000
    assert not result.oscillates


def test_matrix_certification_speed(benchmark):
    """All 24 models certified on DISAGREE — the matrix cross-check."""
    from repro.analysis.experiments import (
        MATRIX_CERTIFIED_SAFE,
        matrix_certification,
    )

    from repro.config import RunConfig

    cert = benchmark(matrix_certification, config=RunConfig(workers=1))
    safe = frozenset(
        name
        for name, result in cert.items()
        if not result.oscillates and result.complete
    )
    assert safe == MATRIX_CERTIFIED_SAFE


def test_simulation_to_fixed_point(benchmark):
    def run():
        return simulate(fig6_gadget(), model("RMS"), seed=2, max_steps=4000)

    result = benchmark(run)
    assert result.converged


def test_disagree_full_sweep_speed(benchmark):
    """The E3 sweep is the most repeated operation in the suite."""

    def sweep():
        from repro.engine.explorer import can_oscillate
        from repro.models.taxonomy import ALL_MODELS

        return [
            can_oscillate(disagree(), m, queue_bound=3).oscillates
            for m in ALL_MODELS
        ]

    verdicts = benchmark(sweep)
    assert sum(verdicts) == 14  # 24 models, 10 cannot oscillate
