"""Hyperparameter optimisation over the PyCOMPSs-like runtime.

This is the paper's contribution: search spaces from Listing-1 JSON
files, search algorithms (grid and random from the paper; Bayesian, TPE
and Hyperband from its future-work list), the task-based runner
(:class:`~repro.hpo.runner.PyCOMPSsRunner`), study-level early stopping,
visualisation, and the sequential / process-pool baselines.
"""

from repro.util.lazy import lazy_surface

__getattr__, __dir__ = lazy_surface(__name__, {
    "space": (
        "SearchSpace", "Categorical", "Integer", "Real", "Constant",
        "Hyperparameter",
    ),
    "config_file": (
        "load_search_space", "parse_search_space", "write_config_file",
        "paper_search_space", "PAPER_LISTING1",
    ),
    "trial": ("Study", "Trial", "TrialResult", "TrialStatus"),
    "algorithms": (
        "SearchAlgorithm", "GridSearch", "RandomSearch",
        "BayesianOptimization", "TPESearch", "HyperbandSearch",
        "SuccessiveHalving", "EvolutionarySearch", "get_algorithm",
    ),
    "report": (
        "hyperparameter_effects", "render_effects", "render_report",
        "save_report",
    ),
    "persistence": (
        "compose_resume", "load_study", "merge_studies", "resume_algorithm",
    ),
    "early_stopping": (
        "StudyStopper", "TargetAccuracyStopper", "MaxTrialsStopper",
        "PlateauStopper",
    ),
    "objective": ("train_experiment", "fast_mock_objective"),
    "runner": (
        "ProgressPrinter", "PyCOMPSsRunner", "StudyCallback", "combine_plots",
        "summarise_result",
    ),
    "baselines": (
        "SequentialRunner", "ProcessPoolRunner", "simulate_pool_makespan",
    ),
    "visualization": (
        "accuracy_curves", "config_heatmap", "final_accuracy_bars",
        "export_history_csv", "time_vs_cores_chart",
    ),
})

__all__ = [
    "SearchSpace",
    "Categorical",
    "Integer",
    "Real",
    "Constant",
    "Hyperparameter",
    "load_search_space",
    "parse_search_space",
    "write_config_file",
    "paper_search_space",
    "PAPER_LISTING1",
    "Study",
    "Trial",
    "TrialResult",
    "TrialStatus",
    "SearchAlgorithm",
    "GridSearch",
    "RandomSearch",
    "BayesianOptimization",
    "TPESearch",
    "HyperbandSearch",
    "SuccessiveHalving",
    "EvolutionarySearch",
    "get_algorithm",
    "hyperparameter_effects",
    "render_effects",
    "render_report",
    "save_report",
    "compose_resume",
    "load_study",
    "merge_studies",
    "resume_algorithm",
    "StudyStopper",
    "TargetAccuracyStopper",
    "MaxTrialsStopper",
    "PlateauStopper",
    "train_experiment",
    "fast_mock_objective",
    "PyCOMPSsRunner",
    "StudyCallback",
    "ProgressPrinter",
    "summarise_result",
    "combine_plots",
    "SequentialRunner",
    "ProcessPoolRunner",
    "simulate_pool_makespan",
    "accuracy_curves",
    "config_heatmap",
    "final_accuracy_bars",
    "export_history_csv",
    "time_vs_cores_chart",
]
