"""Tests for DOT export and the Fig. 3 graph-shape integration."""

import pytest

from repro.pycompss_api import COMPSs, compss_wait_on, task
from repro.runtime.dot import render_dot
from repro.runtime.runtime import COMPSsRuntime
from repro.runtime.config import RuntimeConfig
from repro.simcluster.machines import local_machine


@task(returns=int)
def experiment(config):
    return config["i"]


@task(returns=int)
def visualisation(result):
    return result + 100


@task(returns=list)
def plot(results):
    return sorted(results)


class TestDotExport:
    def test_nodes_edges_and_sync(self):
        with COMPSs(cluster=local_machine(2)) as rt:
            futs = [experiment({"i": i}) for i in range(3)]
            viz = [visualisation(f) for f in futs]
            final = plot(viz)
            compss_wait_on(final)
            dot = rt.render_graph()
        assert dot.startswith("digraph")
        assert dot.count("shape=circle") == 7  # 3 + 3 + 1 tasks
        assert "->" in dot
        assert "sync" in dot
        assert "legend" in dot

    def test_edge_labels_carry_data_versions(self):
        with COMPSs(cluster=local_machine(2)) as rt:
            f = experiment({"i": 1})
            v = visualisation(f)
            compss_wait_on(v)
            dot = rt.render_graph()
        assert 'label="d' in dot  # dNvM labels like Fig. 3

    def test_export_to_file(self, tmp_path):
        with COMPSs(cluster=local_machine(2)) as rt:
            compss_wait_on(experiment({"i": 0}))
            rt.export_graph(tmp_path / "graph.dot")
        assert (tmp_path / "graph.dot").read_text().startswith("digraph")

    def test_colors_cycle_per_task_name(self):
        with COMPSs(cluster=local_machine(2)) as rt:
            f = experiment({"i": 1})
            v = visualisation(f)
            compss_wait_on(v)
            dot = rt.render_graph()
        assert "fillcolor=white" in dot and "fillcolor=lightblue" in dot


class TestFig3GraphShape:
    def test_fan_in_structure(self):
        """The paper's Fig. 3: experiments feed visualisations feed plot."""
        with COMPSs(cluster=local_machine(4)) as rt:
            futs = [experiment({"i": i}) for i in range(10)]
            viz = [visualisation(f) for f in futs]
            final = plot(viz)
            result = compss_wait_on(final)
            graph = rt.graph
            plot_task = [
                t for t in graph.tasks() if t.definition.name == "plot"
            ][0]
            assert len(graph.predecessors(plot_task)) == 10
            exp_tasks = [
                t for t in graph.tasks() if t.definition.name == "experiment"
            ]
            for t in exp_tasks:
                succ = graph.successors(t)
                assert len(succ) == 1
                assert succ[0].definition.name == "visualisation"
        assert result == [100 + i for i in range(10)]

    @pytest.mark.parametrize(
        "graph, recorded",
        [pytest.param(True, 2, id="graph"), pytest.param(False, 0, id="no-graph")],
    )
    def test_sync_points_recorded(self, graph, recorded):
        # DOT export is the only reader, so ``graph=False`` keeps none.
        with COMPSs(cluster=local_machine(2), graph=graph) as rt:
            a = experiment({"i": 0})
            compss_wait_on(a)
            b = experiment({"i": 1})
            compss_wait_on(b)
            assert len(rt.sync_points) == recorded


class TestWaitOnSemantics:
    def test_identity_without_runtime(self):
        assert compss_wait_on(41) == 41
        assert compss_wait_on([1, 2]) == [1, 2]

    def test_multiple_positional(self):
        with COMPSs(cluster=local_machine(2)):
            a, b = experiment({"i": 1}), experiment({"i": 2})
            assert compss_wait_on(a, b) == [1, 2]

    def test_already_resolved_future(self):
        with COMPSs(cluster=local_machine(2)):
            a = experiment({"i": 5})
            first = compss_wait_on(a)
            second = compss_wait_on(a)
            assert first == second == 5


class TestPaperListing2Verbatim:
    def test_paper_code_via_compat_shim(self):
        """The exact import lines + structure of the paper's Listing 2."""
        from pycompss.api.task import task as p_task
        from pycompss.api.api import compss_wait_on as p_wait
        from pycompss.api.constraint import constraint as p_constraint

        @p_constraint(processors=[{"ProcessorType": "CPU", "ComputingUnits": 1}])
        @p_task(returns=int)
        def paper_experiment(config):
            return config["num_epochs"]

        configurations = [
            {"num_epochs": e, "batch_size": b}
            for e in (20, 50) for b in (32, 64)
        ]
        results = []
        cfg = RuntimeConfig(cluster=local_machine(2))
        rt = COMPSsRuntime(cfg).start()
        try:
            for config in configurations:
                results.append(paper_experiment(config))
            results = p_wait(results)
        finally:
            rt.stop()
        assert results == [20, 20, 50, 50]

    def test_compat_parameter_and_implement_modules(self):
        from pycompss.api.parameter import INOUT as P_INOUT
        from pycompss.api.implement import implement as p_implement

        assert P_INOUT.direction.value == "INOUT"
        assert callable(p_implement)
