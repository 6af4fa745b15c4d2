"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The training-based criteria pin their full configuration (benchmark
seed, training seed, hyperparameters) so every run is reproducible.
"""

import itertools
import time

import numpy as np
import pytest

from kgchains import benchmark, chains, checkpoint, evaluate, game, graph, metrics, neural
from kgchains.chains import Instance
from kgchains.cli import main as cli_main
from kgchains.util import STREAM_SAMPLE, stream_rng

from param_oracle import param_count
from selection_oracle import selection_grad
from step_oracle import instance_reward, mask_from_selected, sample_mask, sparsity_loss
from walk_oracle import oracle_paths


def report(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}".rstrip())


# -- criterion: sparsity-loss exactness -------------------------------------


def test_sparsity_loss_exactness():
    start = time.time()
    checked = 0
    for n_avail in range(0, 13):
        for n_sel in range(0, n_avail + 1):
            for d in range(1, 8):
                avail = np.zeros(16)
                avail[:n_avail] = 1.0
                sel = np.zeros(16)
                sel[:n_sel] = 1.0
                mask = mask_from_selected(avail, sel)
                expected = 0.0 if n_avail == 0 else max((n_sel - d) / n_avail, 0.0)
                assert sparsity_loss(mask, d) == expected
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("sparsity-loss-exactness", f"({checked} grid cases, {elapsed:.2f}s)")


# -- criterion: gradient fidelity --------------------------------------------


def _finite_difference_grads(params, x, label, h=1e-5):
    grads = []
    for w, b in params.layers:
        pair = []
        for arr in (w, b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                up, _ = neural.cross_entropy(neural.forward(params, x)[0], label)
                arr[idx] = old - h
                down, _ = neural.cross_entropy(neural.forward(params, x)[0], label)
                arr[idx] = old
                g[idx] = (up - down) / (2 * h)
            pair.append(g)
        grads.append(pair)
    return grads


def test_gradient_fidelity():
    start = time.time()
    rng = np.random.default_rng(20240601)
    worst = 0.0
    checked = 0
    while checked < 50:
        d_input = int(rng.integers(4, 17))
        dims = neural.mlp_dims(d_input) if checked % 2 == 0 else neural.linear_dims(d_input)
        params = neural.init_dense(dims, rng)
        x = rng.normal(size=d_input)
        label = int(rng.integers(2))
        logits, cache = neural.forward(params, x)
        # central differences are only valid where the loss is smooth: skip
        # draws with a pre-activation close enough to 0 for the perturbation
        # to cross the relu kink
        if any(np.abs(z).min() < 1e-3 for _, z in cache[:-1]):
            continue
        _, dlogits = neural.cross_entropy(logits, label)
        analytic = neural.backward(params, cache, dlogits)
        numeric = _finite_difference_grads(params, x, label)
        for (aw, ab), (nw, nb) in zip(analytic.layers, numeric):
            for a, n in ((aw, nw), (ab, nb)):
                mask = (np.abs(a) > 1e-7) | (np.abs(n) > 1e-7)
                if mask.any():
                    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
                    worst = max(worst, float((np.abs(a - n) / denom)[mask].max()))
        checked += 1
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report("gradient-fidelity", f"(50 configs, worst rel err {worst:.2e}, {elapsed:.1f}s)")


# -- criterion: REINFORCE unbiasedness ---------------------------------------


def test_reinforce_unbiasedness():
    start = time.time()
    d_vocab = 10
    model = game.build_model(d_vocab, d=2, lambda_s=1.0, predictor_arch="mlp", seed=27)
    avail = np.zeros(d_vocab)
    avail[[0, 1, 2, 4, 5, 7, 8, 9]] = 1.0  # |R| = 8
    inst = Instance(head=0, tail=1, label=1, availability=avail)
    avail_idx = np.flatnonzero(avail).tolist()

    probs = game.generator_probs(model, inst)

    def reward_of(bits):
        sel = np.zeros(d_vocab)
        for j, bit in zip(avail_idx, bits):
            sel[j] = float(bit)
        mask = mask_from_selected(avail, sel)
        logits_p, _ = neural.forward(model.predictor, mask.selected)
        logits_c, _ = neural.forward(model.complement, mask.complement)
        acc_p = int(int(np.argmax(logits_p)) == inst.label)
        acc_c = int(int(np.argmax(logits_c)) == inst.label)
        return instance_reward(model, mask, acc_p, acc_c), mask

    def mask_probability(bits, p):
        out = 1.0
        for j, bit in zip(avail_idx, bits):
            out *= p[j] if bit else 1.0 - p[j]
        return out

    all_masks = list(itertools.product((0, 1), repeat=8))
    rewards = {}
    masks = {}
    for bits in all_masks:
        rewards[bits], masks[bits] = reward_of(bits)
    pis = np.array([mask_probability(bits, probs) for bits in all_masks])
    assert pis.sum() == pytest.approx(1.0, abs=1e-12)

    # the advantage baseline the trained loop converges to; the estimator is
    # unbiased for any constant baseline, and this one keeps the Monte Carlo
    # variance at the level the production step actually runs at
    baseline = float(np.dot(pis, [rewards[bits] for bits in all_masks]))

    estimates = {}
    for bits in all_masks:
        grads, _ = selection_grad(model, inst, masks[bits])
        flat = np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in grads.layers])
        estimates[bits] = flat * (rewards[bits] - baseline)

    exhaustive = np.sum([pi * estimates[bits] for pi, bits in zip(pis, all_masks)], axis=0)

    # independent oracle: the estimator's expectation must equal the
    # central-difference gradient of the exact expected reward -E[R](theta)
    def expected_reward():
        p = game.generator_probs(model, inst)
        return float(
            sum(mask_probability(bits, p) * rewards[bits] for bits in all_masks)
        )

    fd = np.zeros_like(exhaustive)
    pos = 0
    h = 1e-5
    for w, b in model.generator.layers:
        for arr in (w, b):
            flat_view = arr.reshape(-1)
            for k in range(flat_view.size):
                old = flat_view[k]
                flat_view[k] = old + h
                up = expected_reward()
                flat_view[k] = old - h
                down = expected_reward()
                flat_view[k] = old
                fd[pos] = (up - down) / (2 * h)
                pos += 1
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(-fd - exhaustive).max() / scale < 1e-5

    rng = stream_rng(99, STREAM_SAMPLE)
    n_samples = 100_000
    total = np.zeros_like(exhaustive)
    for _ in range(n_samples):
        mask = sample_mask(probs, avail, rng)
        bits = tuple(int(mask.selected[j]) for j in avail_idx)
        total += estimates[bits]
    mc_mean = total / n_samples

    significant = np.abs(exhaustive) >= 0.01 * np.abs(exhaustive).max()
    rel = np.abs(mc_mean - exhaustive)[significant] / np.abs(exhaustive)[significant]
    elapsed = time.time() - start
    assert rel.max() < 0.02
    assert elapsed < 120.0
    report(
        "reinforce-unbiasedness",
        f"({int(significant.sum())} significant coords, worst rel err {rel.max():.3%}, {elapsed:.0f}s)",
    )


# -- criterion: path-enumeration oracle --------------------------------------


def test_path_enumeration_oracle():
    start = time.time()
    rng = np.random.default_rng(77)
    for trial in range(200):
        n_entities = int(rng.integers(3, 13))
        n_relations = int(rng.integers(1, 5))
        n_edges = int(rng.integers(2, 30))
        triples = [
            (
                f"e{rng.integers(n_entities)}",
                f"r{rng.integers(n_relations)}",
                f"e{rng.integers(n_entities)}",
            )
            for _ in range(n_edges)
        ]
        g = graph.KnowledgeGraph.from_triples(triples, add_inverses=True)
        head = int(rng.integers(g.n_entities))
        tail = int(rng.integers(g.n_entities))
        max_hops = int(rng.integers(1, 4))
        exclude = int(rng.integers(g.n_relations)) if trial % 3 == 0 else None
        mine = chains.enumerate_paths(g, head, tail, max_hops, exclude=exclude)
        ref = oracle_paths(g, head, tail, max_hops, exclude=exclude)
        assert mine == ref
    # Hub-shaped graphs at k=3: both endpoints drawn with weight rank**-1,
    # so heads and tails are often hubs with many walks between them.
    weights = 1.0 / np.arange(1, 31)
    weights /= weights.sum()
    for trial in range(40):
        ends = rng.choice(30, size=(80, 2), p=weights)
        triples = [(f"e{h}", f"r{rng.integers(4)}", f"e{t}") for h, t in ends.tolist()]
        g = graph.KnowledgeGraph.from_triples(triples, add_inverses=True)
        head, tail = (g.entity_id(f"e{e}") for e in rng.choice(ends.ravel(), size=2).tolist())
        exclude = int(rng.integers(g.n_relations)) if trial % 2 == 0 else None
        mine = chains.enumerate_paths(g, head, tail, 3, exclude=exclude)
        assert mine == oracle_paths(g, head, tail, 3, exclude=exclude)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("path-enumeration-oracle", f"(200 random graphs, 40 hub graphs at k=3, {elapsed:.1f}s)")


# -- criterion: MAP oracle ----------------------------------------------------


def _brute_force_map(groups):
    aps = []
    for group in groups:
        order = sorted(range(len(group)), key=lambda i: -group[i][0])
        n_pos = sum(1 for _, label in group if label == 1)
        if n_pos == 0:
            continue
        total = 0.0
        for rank, i in enumerate(order, start=1):
            if group[i][1] == 1:
                total += sum(1 for j in order[:rank] if group[j][1] == 1) / rank
        aps.append(total / n_pos)
    if not aps:
        raise ValueError("all groups skipped")
    return sum(aps) / len(aps)


def test_map_oracle():
    start = time.time()
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 200:
        groups = []
        for _ in range(int(rng.integers(1, 8))):
            n = int(rng.integers(1, 10))
            items = [(float(rng.normal()), int(rng.random() < 0.35)) for _ in range(n)]
            if rng.random() < 0.3 and n > 1:  # force score ties sometimes
                items[1] = (items[0][0], items[1][1])
            groups.append(items)
        if not any(label for g in groups for _, label in g):
            continue
        expected = _brute_force_map(groups)
        keys = [i for i, g in enumerate(groups) for _ in g]
        scores = [score for g in groups for score, _ in g]
        labels = [label for g in groups for _, label in g]
        actual, skipped = metrics.mean_average_precision(keys, scores, labels, "head")
        assert abs(actual - expected) < 1e-9
        assert skipped == sum(1 for g in groups if not any(label for _, label in g))
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("map-oracle", f"(200 group sets, {elapsed:.1f}s)")


# -- criterion: parameter-count anchors ---------------------------------------


def test_parameter_count_anchors():
    start = time.time()
    mlp = param_count(365, "mlp", 3)
    linear = param_count(365, "linear", 3)
    assert abs(mlp - 250_347) / 250_347 < 0.002
    assert abs(linear - 84_913) / 84_913 < 0.005
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("parameter-count-anchors", f"(mlp {mlp}, linear {linear})")


def _built_parameter_count(D, arch):
    """The README's count of the game model ``build_model`` builds."""
    h1, h2 = max(2, D // 2), max(2, D // 4)
    hidden = D * h1 + h1 + h1 * h2 + h2  # D -> D/2 -> D/4, weights and biases
    generator = hidden + h2 * 2 * D + 2 * D  # D/4 -> 2D: one logit pair per chain
    predictor = hidden + h2 * 2 + 2 if arch == "mlp" else D * 2 + 2
    return generator + 2 * predictor  # the predictor and the complement


def test_built_model_parameter_count():
    start = time.time()
    counts = {}
    for D in (4, 23, 200, 300, 365):
        for arch in ("mlp", "linear"):
            model = game.build_model(D, 2, 1.0, arch)
            built = sum(neural.count_params(net) for net in (model.generator, model.predictor, model.complement))
            assert built == _built_parameter_count(D, arch), (D, arch)
            counts[D, arch] = built
    assert (counts[365, "mlp"], counts[365, "linear"]) == (317_323, 151_889)
    # the anchor counts the generator's last layer as D/4 -> 2
    for arch in ("mlp", "linear"):
        assert counts[365, arch] - param_count(365, arch, 3) == (365 // 4 + 1) * (2 * 365 - 2)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("built-model-parameter-count", f"(mlp {counts[365, 'mlp']}, linear {counts[365, 'linear']})")


# -- criterion: pipeline determinism ------------------------------------------


def test_pipeline_determinism(tmp_path):
    start = time.time()
    bench = tmp_path / "bench"
    assert cli_main([
        "benchmark", "--kind", "conjunction", "--out", str(bench), "--seed", "7",
        "--train-groups", "20", "--test-groups", "10",
    ]) == 0

    def pipeline(art):
        assert cli_main([
            "extract", "--graph", str(bench / "graph.tsv"), "--tasks", str(bench / "tasks"),
            "--relation", "target", "--out", str(art), "--max-hops", "2", "--seed", "7",
        ]) == 0
        for mode in ("game_mlp", "d_all"):
            assert cli_main([
                "train", "--artifacts", str(art), "--relation", "target", "--mode", mode,
                "--d", "2", "--epochs", "20", "--lr", "0.01", "--seed", "7",
            ]) == 0
        assert cli_main([
            "eval", "--artifacts", str(art), "--relation", "target", "--mode", "game_mlp",
            "--mode", "d_all", "--d", "2", "--out", str(art / "report.tsv"),
        ]) == 0
        return {p.relative_to(art): p.read_bytes() for p in sorted(art.rglob("*")) if p.is_file()}

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    assert len(first) == 11  # stats, report, vocab, meta, 3 caches, 2 checkpoints, 2 logs
    assert first == second
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("pipeline-determinism", f"({len(first)} artifacts byte-identical, {elapsed:.1f}s)")


# -- criterion: multi-chain rules beat single-chain rules ----------------------


def aggregate_ranking(model, split, names):
    """Chain names in ``export-rules --aggregate`` order: mean selection
    probability over the rows where the chain is available."""
    weight = game.selection_probs(model, split.availability).sum(axis=0)
    count = split.availability.sum(axis=0)
    mean = np.divide(weight, count, out=np.zeros_like(weight), where=count > 0)
    return [names[j] for j in np.argsort(-mean, kind="stable")]


def test_multi_chain_beats_single_chain():
    """On the planted conjunction, where no single chain decides the label, the
    game with d=2 ranks test pairs at least as well as with d=1 on every seed,
    and its mean lead clears two standard errors of the per-seed leads. The
    d=2 models recover the rule: the top two chains of ``export-rules
    --aggregate`` are the two planted chains on at least 6 of the 8 seeds."""
    start = time.time()
    maps, recovered = {}, 0
    planted = {"->".join(chain) for chain in benchmark.PLANTED[benchmark.RULE_CONJUNCTION]}
    for seed in range(1, 9):
        kg, task = benchmark.make_benchmark(benchmark.BenchmarkSpec(rule="conjunction", seed=seed))
        vocab, data = chains.extract_task(kg, task, max_hops=2, max_size=10000)
        config = game.TrainConfig(epochs=100, lr=0.01, seed=seed)
        results = [evaluate.run_mode(data, config, "game_mlp", d) for d in (1, 2)]
        maps[seed] = [result.test_map for result in results]
        top = aggregate_ranking(results[1].model, data.test, [chain.names(kg) for chain in vocab.chains])[:2]
        recovered += set(top) == planted
        print(f"ACCEPTANCE multi-chain seed {seed}: test MAP d=1 {maps[seed][0]:.3f} d=2 {maps[seed][1]:.3f}, "
              f"d=2 top chains {', '.join(top)}")
    gaps = np.array([d2 - d1 for d1, d2 in maps.values()])
    margin = 2 * gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert all(d2 >= d1 for d1, d2 in maps.values())
    assert gaps.mean() > margin
    assert recovered >= 6
    elapsed = time.time() - start
    assert elapsed < 60.0
    report("multi-chain-beats-single-chain",
           f"(8 seeds, mean lead {gaps.mean():.3f} > margin {margin:.3f}, planted top 2 on {recovered}/8, {elapsed:.1f}s)")
