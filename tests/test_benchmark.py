import numpy as np
import pytest

from kgchains import benchmark
from kgchains.benchmark import BenchmarkSpec, make_benchmark, write_benchmark
from kgchains.cli import main
from kgchains.chains import RelationChain, enumerate_paths
from kgchains.errors import DataError
from kgchains.graph import KnowledgeGraph, load_triples

from benchmark_oracle import graph_built_lines, per_draw_generate


def chain_names(graph, head, tail, max_hops, exclude):
    found = enumerate_paths(
        graph, graph.entity_id(head), graph.entity_id(tail), max_hops, exclude=exclude
    )
    return {c.names(graph) for c in found}


def planted_names(spec):
    return {"->".join(chain) for chain in spec.chains()}


def assert_same_tables(g1, g2):
    for a, b in zip((*g1.out_table, *g1.in_table), (*g2.out_table, *g2.in_table)):
        assert np.array_equal(a, b)


def test_conjunction_labels_exactly_match_chains():
    spec = BenchmarkSpec(rule="conjunction", seed=5, train_groups=8, test_groups=4)
    graph, task = make_benchmark(spec)
    target = graph.relation_id(spec.target_name)
    planted = planted_names(spec)
    for pair in task.train + task.dev + task.test:
        found = chain_names(graph, pair.head, pair.tail, spec.max_hops, target)
        has_both = planted <= found
        assert has_both == (pair.label == 1), (pair, found)


def test_single_rule_labels():
    spec = BenchmarkSpec(rule="single", seed=2, train_groups=6, test_groups=3)
    graph, task = make_benchmark(spec)
    target = graph.relation_id(spec.target_name)
    planted = planted_names(spec)
    for pair in task.train + task.dev + task.test:
        found = chain_names(graph, pair.head, pair.tail, spec.max_hops, target)
        assert (planted <= found) == (pair.label == 1)


def test_noisy_weak_rates_differ_by_class():
    spec = BenchmarkSpec(rule="noisy_weak", seed=4, relations=9, train_groups=30, test_groups=10)
    graph, task = make_benchmark(spec)
    target = graph.relation_id(spec.target_name)
    planted = planted_names(spec)
    counts = {1: [], 0: []}
    for pair in task.train + task.dev + task.test:
        found = chain_names(graph, pair.head, pair.tail, spec.max_hops, target)
        counts[pair.label].append(len(planted & found))
    assert np.mean(counts[1]) > np.mean(counts[0]) + 1.0


def test_noise_flips_labels():
    base = BenchmarkSpec(rule="conjunction", seed=5, train_groups=8, test_groups=4)
    noisy = BenchmarkSpec(rule="conjunction", seed=5, train_groups=8, test_groups=4, noise=0.3)
    _, clean_task = make_benchmark(base)
    graph, noisy_task = make_benchmark(noisy)
    target = graph.relation_id(noisy.target_name)
    planted = planted_names(noisy)
    flips = 0
    for pair in noisy_task.train + noisy_task.dev + noisy_task.test:
        found = chain_names(graph, pair.head, pair.tail, noisy.max_hops, target)
        if (planted <= found) != (pair.label == 1):
            flips += 1
    assert flips > 0


def test_same_spec_same_seed_identical():
    spec = BenchmarkSpec(rule="conjunction", seed=9, train_groups=5, test_groups=2)
    g1, t1 = make_benchmark(spec)
    g2, t2 = make_benchmark(spec)
    assert_same_tables(g1, g2)
    assert [(p.head, p.tail, p.label) for p in t1.train] == [
        (p.head, p.tail, p.label) for p in t2.train
    ]


def test_infeasible_chain_length_rejected():
    spec = BenchmarkSpec(
        rule="single", planted_chains=[("a", "b", "c", "d")], max_hops=3
    )
    with pytest.raises(DataError, match="max_hops"):
        make_benchmark(spec)


def test_target_in_planted_chain_rejected():
    spec = BenchmarkSpec(rule="single", planted_chains=[("target",)])
    with pytest.raises(DataError):
        make_benchmark(spec)


def test_conjunction_needs_two_chains():
    spec = BenchmarkSpec(rule="conjunction", planted_chains=[("a",)])
    with pytest.raises(DataError):
        make_benchmark(spec)


def test_distractor_count_meets_budget():
    spec = BenchmarkSpec(rule="conjunction", relations=26)
    assert spec.n_distractors >= 20


def test_instance_counts():
    spec = BenchmarkSpec(rule="conjunction", seed=0)
    _, task = make_benchmark(spec)
    assert len(task.train) + len(task.dev) == 200
    assert len(task.test) == 100


def test_write_benchmark_layout(tmp_path):
    spec = BenchmarkSpec(rule="conjunction", seed=1, train_groups=4, test_groups=2)
    graph_path, tasks_dir = write_benchmark(spec, str(tmp_path))
    assert (tmp_path / "graph.tsv").exists()
    assert (tmp_path / "tasks" / "target" / "train.pairs").exists()
    assert (tmp_path / "tasks" / "target" / "test.pairs").exists()
    lines = (tmp_path / "tasks" / "target" / "train.pairs").read_text().splitlines()
    assert len(lines) == 16


def written(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "overrides",
    [
        dict(rule="single"),
        dict(rule="conjunction"),
        dict(rule="noisy_weak"),
        dict(rule="conjunction", noise=0.3),
        dict(rule="noisy_weak", noise=0.2, distractor_rate=0.5),
        dict(rule="single", distractor_rate=0.0),
        dict(rule="conjunction", distractor_rate=1.0),
        dict(rule="conjunction", relations=3),
    ],
)
def test_one_call_distractor_draw_writes_what_per_draw_wrote(tmp_path, monkeypatch, overrides):
    """Byte-identical inputs whether a tail's distractors are drawn in one call or one at a time."""
    spec = BenchmarkSpec(**{"entities": 80, "relations": 12, "seed": 4, "train_groups": 6, "test_groups": 4, **overrides})
    write_benchmark(spec, str(tmp_path / "one_call"))
    with monkeypatch.context() as patch:
        patch.setattr(benchmark, "_generate", per_draw_generate)
        write_benchmark(spec, str(tmp_path / "per_draw"))
    expected = written(tmp_path / "per_draw")
    assert written(tmp_path / "one_call") == expected
    assert len(expected) == 3
    if overrides.get("relations") == 3:
        assert spec.n_distractors == 0


@pytest.mark.parametrize("kind", ["single", "conjunction", "noisy-weak"])
def test_cli_defaults_write_what_the_spec_defaults_write(tmp_path, kind):
    assert main(["benchmark", "--kind", kind, "--out", str(tmp_path / "cli")]) == 0
    write_benchmark(BenchmarkSpec(rule=kind.replace("-", "_")), str(tmp_path / "spec"))
    expected = written(tmp_path / "spec")
    assert written(tmp_path / "cli") == expected
    assert len(expected) == 3


@pytest.mark.parametrize(
    "overrides",
    [dict(rule=rule, distractor_rate=rate) for rule in ("single", "conjunction", "noisy_weak") for rate in (0.0, 0.3, 1.0)]
    + [
        # a planted chain over a distractor relation repeats distractor edges
        dict(rule="single", planted_chains=[("s0",)], distractor_rate=1.0),
        dict(rule="conjunction", planted_chains=[("p0_0", "s1"), ("s0",)], distractor_rate=0.5),
    ],
)
def test_graph_file_is_what_the_graph_build_kept(tmp_path, overrides):
    spec = BenchmarkSpec(**{"entities": 80, "relations": 12, "seed": 3, "train_groups": 6, "test_groups": 4, **overrides})
    triples = benchmark._generate(spec).triples
    graph_path, _ = write_benchmark(spec, str(tmp_path))
    with open(graph_path, encoding="utf-8") as fh:
        assert fh.read() == graph_built_lines(triples)
    assert_same_tables(load_triples(graph_path), KnowledgeGraph.from_triples(triples))
    if "planted_chains" in overrides:
        assert len(set(triples)) < len(triples)


@pytest.mark.parametrize("overrides", [
    dict(rule="single", planted_chains=[("a_inv_inv",)]), dict(rule="single", target_name="t_inv_inv"),
    dict(rule="conjunction", planted_chains=[("p", "a_inv_inv"), ("q",)]), dict(rule="conjunction", target_name="t_inv_inv"),
    dict(rule="noisy_weak", planted_chains=[("p",), ("q",), ("a_inv_inv", "s")])])
def test_relation_ending_in_inv_inv_is_rejected_before_writing(tmp_path, overrides):
    out = tmp_path / "out"
    with pytest.raises(DataError, match="_inv_inv' ends in '_inv_inv'$"):
        write_benchmark(BenchmarkSpec(**overrides), str(out))
    assert not out.exists()


def test_single_rule_d1_game_reaches_high_map():
    from kgchains import chains as chains_mod
    from kgchains import evaluate, game

    spec = BenchmarkSpec(rule="single", seed=6, train_groups=30, test_groups=15)
    graph, task = make_benchmark(spec)
    positives = [
        (graph.entity_id(p.head), graph.entity_id(p.tail)) for p in task.train if p.label == 1
    ]
    vocab = chains_mod.build_vocabulary(graph, positives, task.target, spec.max_hops)
    data = chains_mod.encode_task(vocab, graph, task)
    res = evaluate.run_mode(data, game.TrainConfig(epochs=120, seed=1, lr=0.01), "game_mlp", 1)
    assert res.test_map >= 0.95
