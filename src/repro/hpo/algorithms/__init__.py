"""HPO search algorithms.

Grid search and random search are the algorithms the paper implements
(§1: "We implement grid search and random search using PyCOMPSs").
Bayesian optimisation, TPE and Hyperband are the "key algorithms in HPO"
the paper announces as future work (§7) — implemented here so the library
"enables the user to perform HPO over any search space by simply calling
a function and specifying the algorithm".
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Type, Union

from repro.util.lazy import lazy_surface

if TYPE_CHECKING:
    from repro.hpo.algorithms.base import SearchAlgorithm
    from repro.hpo.space import SearchSpace

__getattr__, __dir__ = lazy_surface(__name__, {
    "base": ("SearchAlgorithm",),
    "grid": ("GridSearch",),
    "random_search": ("RandomSearch",),
    "bayesian": ("BayesianOptimization",),
    "tpe": ("TPESearch",),
    "hyperband": ("HyperbandSearch",),
    "successive_halving": ("SuccessiveHalving",),
    "evolutionary": ("EvolutionarySearch",),
    "asha": ("AsyncASHA",),
})


class _Registry(Mapping):
    """Name -> algorithm class; a class's module is imported on lookup.

    Membership and iteration read only the names, so validating a name
    (``service.protocol``) imports no algorithm.
    """

    def __init__(self, classes: Mapping[str, str]) -> None:
        self._classes = dict(classes)

    def __getitem__(self, name: str) -> Type[SearchAlgorithm]:
        return __getattr__(self._classes[name])

    def __contains__(self, name: object) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


ALGORITHMS: Mapping[str, Type[SearchAlgorithm]] = _Registry({
    "grid": "GridSearch",
    "random": "RandomSearch",
    "bayesian": "BayesianOptimization",
    "tpe": "TPESearch",
    "hyperband": "HyperbandSearch",
    "successive_halving": "SuccessiveHalving",
    "evolutionary": "EvolutionarySearch",
    "asha": "AsyncASHA",
})


def get_algorithm(
    name: Union[str, SearchAlgorithm], space: Optional[SearchSpace] = None, **kwargs
) -> SearchAlgorithm:
    """Instantiate an algorithm by name (the §7 "specify the algorithm" API).

    >>> from repro.hpo.config_file import paper_search_space
    >>> algo = get_algorithm("grid", paper_search_space())
    """
    from repro.hpo.algorithms.base import SearchAlgorithm

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


def budget_kwargs(name: str, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """``kwargs`` without the ``n_trials`` / ``seed`` entries that
    algorithm ``name``'s constructor does not take (grid search takes
    neither); every other entry passes through.

    The side that builds the algorithm filters, by its signature: a
    ``repro-hpo submit`` client sends both keys for every algorithm, so
    it never imports one (and numpy) to read its signature.
    """
    params = inspect.signature(ALGORITHMS[name]).parameters
    return {
        k: v for k, v in kwargs.items()
        if k in params or k not in ("n_trials", "seed")
    }


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
    "budget_kwargs",
    "get_algorithm",
]
