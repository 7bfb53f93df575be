"""HPO search algorithms.

Grid search and random search are the algorithms the paper implements
(§1: "We implement grid search and random search using PyCOMPSs").
Bayesian optimisation, TPE and Hyperband are the "key algorithms in HPO"
the paper announces as future work (§7) — implemented here so the library
"enables the user to perform HPO over any search space by simply calling
a function and specifying the algorithm".
"""

from typing import Optional, Union

from repro.hpo.algorithms.base import SearchAlgorithm
from repro.hpo.algorithms.grid import GridSearch
from repro.hpo.algorithms.random_search import RandomSearch
from repro.hpo.algorithms.bayesian import BayesianOptimization
from repro.hpo.algorithms.tpe import TPESearch
from repro.hpo.algorithms.hyperband import HyperbandSearch
from repro.hpo.algorithms.successive_halving import SuccessiveHalving
from repro.hpo.algorithms.evolutionary import EvolutionarySearch
from repro.hpo.algorithms.asha import AsyncASHA
from repro.hpo.space import SearchSpace

ALGORITHMS = {
    "grid": GridSearch,
    "random": RandomSearch,
    "bayesian": BayesianOptimization,
    "tpe": TPESearch,
    "hyperband": HyperbandSearch,
    "successive_halving": SuccessiveHalving,
    "evolutionary": EvolutionarySearch,
    "asha": AsyncASHA,
}


def get_algorithm(
    name: Union[str, SearchAlgorithm], space: Optional[SearchSpace] = None, **kwargs
) -> SearchAlgorithm:
    """Instantiate an algorithm by name (the §7 "specify the algorithm" API).

    >>> from repro.hpo.config_file import paper_search_space
    >>> algo = get_algorithm("grid", paper_search_space())
    """
    if isinstance(name, SearchAlgorithm):
        if kwargs or space is not None:
            raise ValueError("cannot pass space/kwargs with an algorithm instance")
        return name
    try:
        cls = ALGORITHMS[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    if space is None:
        raise ValueError("a SearchSpace is required when passing an algorithm name")
    return cls(space, **kwargs)


__all__ = [
    "SearchAlgorithm",
    "GridSearch",
    "RandomSearch",
    "BayesianOptimization",
    "TPESearch",
    "HyperbandSearch",
    "SuccessiveHalving",
    "EvolutionarySearch",
    "AsyncASHA",
    "get_algorithm",
]
