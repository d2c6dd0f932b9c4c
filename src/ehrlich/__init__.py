"""Ehrlich test functions, baseline solvers, and a preference-loss lab.

Submodules load on first use (PEP 562): ``import ehrlich`` imports none
of them, and reading a public name imports only the submodule that
defines it and what that submodule imports. ``ehrlich.generate`` and
``evaluate_batch`` need only ``function``, ``errors``, ``rng`` and
``kernels``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "errors": """ConstructionError EhrlichError GenerationError GeneratorCollapseError
        InvalidParamsError ParseError""",
    "function": """EhrlichFunction EhrlichParams ScoredSequence SpacedMotifs
        TransitionMatrix build_motifs build_transition_matrix check_ergodic
        construct_optimum evaluate evaluate_batch generate is_feasible margin_reward
        motif_product motif_score regret response sample_dmp""",
    "ga": "GAConfig GAState ga_step init_ga mutate recombine run_ga",
    "instance_io": "parse_instance read_instance serialize_instance write_instance",
    "llome": """CandidateSet LlomeResult LoopConfig PresolverData RefinementDataset
        RoundStats ScoredSet adjust_temperatures filter_candidates format_dataset
        iterative_refinement run_llome run_presolver""",
    "losses": """DiscretePolicy LossBatch boltzmann_target dpo_loss frekl_objective
        kl_divergence marge_loss reinforce_loss solve_frekl
        translation_invariance_check""",
    "proposers": """EchoProposer MutationProposer ProposalGenerator StdioProposer
        baseline_mutation_proposer""",
    "records": """EvalLedger RoundSummary RunRecord config_hash make_run_record
        read_run_record read_run_record_json round_summaries unique_flags
        write_run_record""",
}.items() for name in names.split()}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    """A public name, imported from its submodule on first read and kept
    in the package's globals; or a submodule, imported on first read."""
    if name in _EXPORTS:
        value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
        return value
    if name.isidentifier() and not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
