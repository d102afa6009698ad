import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import make_blobs
from fdspoof import forest
from fdspoof.exceptions import EmptyDataset, LayoutMismatch, ParseError
from fdspoof.forest import (
    CRITERIA,
    ForestConfig,
    GridCell,
    LabeledDataset,
    Tree,
    TrainedModel,
    _impurity,
    _resolve_features_per_split,
    accuracy,
    grid_search,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_forest,
)


def dataset_of(features, labels, layout_hash="h"):
    features = np.asarray(features, dtype=np.float64)
    ids = tuple(f"r{i}" for i in range(features.shape[0]))
    return LabeledDataset(features, np.asarray(labels), ids, layout_hash)


def walk_tree(tree, x):
    """Reference per-row walk of one tree: the leaf's majority class."""
    node = 0
    while tree.left[node] != -1:
        node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
    c0, c1 = tree.counts[node]
    return 1 if c1 > c0 else 0


def split_one_feature(x, y, criterion, min_leaf):
    """Reference split search over one feature: best (threshold, gain), or None."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = xs.shape[0]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]  # split after position i
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    if min_leaf > 1:
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        cut, n_left, n_right = cut[ok], n_left[ok], n_right[ok]
        if cut.size == 0:
            return None
    ones = np.cumsum(ys)
    ones_left = ones[cut]
    ones_right = ones[-1] - ones_left
    imp_left = _impurity(n_left - ones_left, ones_left, n_left, criterion)
    imp_right = _impurity(n_right - ones_right, ones_right, n_right, criterion)
    total_ones = ones[-1]
    imp_parent = _impurity(np.array([n - total_ones]), np.array([total_ones]),
                           np.array([n]), criterion)[0]
    gain = imp_parent - (n_left * imp_left + n_right * imp_right) / n
    best = int(np.argmax(gain))
    threshold = 0.5 * (xs[cut[best]] + xs[cut[best] + 1])
    return float(threshold), float(gain[best])


def grow_by_feature(data, config, seed, bootstrap):
    """Reference tree growth that searches a node's candidate features one at
    a time and keeps the first with the strictly highest gain; the same
    seeds, draws and node numbering as `train_forest`."""
    X, y, n = data.features, data.labels, data.n_records
    n_split = _resolve_features_per_split(config, X.shape[1])
    rows = np.arange(n)
    if bootstrap:
        rows = np.sort(np.random.default_rng(seed).integers(0, n, size=n))
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, counts, gain = [], [], [], [], [], []
    stack = [(rows, 0, -1, 0)]
    while stack:
        node_rows, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if side == 0 else right)[parent] = node
        ones = int(y[node_rows].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append([node_rows.size - ones, ones])
        gain.append(0.0)
        pure = ones == 0 or ones == node_rows.size
        at_depth = config.max_depth is not None and depth >= config.max_depth
        if pure or at_depth or node_rows.size < 2 * config.min_samples_leaf:
            continue
        best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
        for f in rng.choice(X.shape[1], size=n_split, replace=False):
            found = split_one_feature(X[node_rows, f], y[node_rows], config.criterion,
                                      config.min_samples_leaf)
            if found is not None and found[1] > best_gain:
                best_threshold, best_gain = found
                best_feature = int(f)
        if best_feature < 0:
            continue
        feature[node], threshold[node], gain[node] = best_feature, best_threshold, best_gain
        mask = X[node_rows, best_feature] <= best_threshold
        stack.append((node_rows[~mask], depth + 1, node, 1))
        stack.append((node_rows[mask], depth + 1, node, 0))
    return Tree(feature, threshold, left, right, counts, gain)


def assert_same_tree(tree, reference):
    """Every node array equal in dtype, shape and bits."""
    for f in fields(Tree):
        got, want = getattr(tree, f.name), getattr(reference, f.name)
        assert got.dtype == want.dtype and got.shape == want.shape, f.name
        assert got.tobytes() == want.tobytes(), f.name


def tied_data(seed, n=90, n_features=7):
    """Noisy labels on features rounded to a coarse grid, so most columns
    hold tied values and many nodes have candidates without any cut."""
    rng = np.random.default_rng(seed)
    features = np.round(rng.normal(0.0, 1.0, (n, n_features)) * 1.5) / 1.5
    features[:, 3] = np.round(features[:, 3])  # three or four distinct values
    noise = rng.normal(0.0, 1.0, n)
    labels = (features[:, 0] + features[:, 1] * features[:, 2] + noise > 0).astype(int)
    return dataset_of(features, labels)


def grid_by_cells(train, dev, grid):
    """Reference grid search: every cell trained on its own and scored with
    `accuracy`; ties prefer fewer trees, then gini, then grid order."""
    report, best = [], None
    for config in grid:
        model = train_forest(train, config)
        acc = accuracy(model, dev)
        report.append(GridCell(config.n_trees, config.criterion, acc))
        rank = (-acc, config.n_trees, CRITERIA.index(config.criterion))
        if best is None or rank < best[0]:
            best = (rank, model)
    return best[1], report


def one_tree(data, config, seed):
    """The tree that a one-tree forest without bootstrap grows from `seed`."""
    return train_forest(data, replace(config, n_trees=1, bootstrap=False, seed=seed)).trees[0]


def gini_of(counts):
    total = sum(counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


class TestTrainTree:
    def test_forced_split(self):
        data = dataset_of([[0.0], [1.0]], [0, 1])
        tree = one_tree(data, ForestConfig(features_per_split=1), seed=0)
        assert tree.threshold[0] == 0.5
        assert sorted([tree.counts[1].tolist(), tree.counts[2].tolist()]) == [[0, 1], [1, 0]]

    def test_single_class_single_leaf(self):
        data = dataset_of([[0.0], [1.0], [2.0]], [1, 1, 1])
        # train_forest rejects one-class data, so grow the tree directly
        tree = forest._grow(data, ForestConfig(features_per_split=1, bootstrap=False), 0)
        assert len(tree.feature) == 1
        assert tree.counts[0].tolist() == [0, 3]

    def test_xor_reaches_purity(self):
        data = dataset_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0])
        tree = one_tree(data, ForestConfig(features_per_split=2), seed=3)
        preds = [walk_tree(tree, row) for row in data.features]
        assert preds == [0, 1, 1, 0]

    def test_max_depth_respected(self):
        data = make_blobs(50)
        tree = one_tree(data, ForestConfig(max_depth=0), seed=0)
        assert len(tree.feature) == 1  # root forced to be a leaf

    def test_empty_rejected(self):
        data = dataset_of(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            one_tree(data, ForestConfig(), seed=0)

    def test_gain_recomputed_from_child_counts(self):
        data = make_blobs(60, seed=2)
        tree = one_tree(data, ForestConfig(criterion="gini", features_per_split=5), 7)
        for node in range(len(tree.feature)):
            if tree.left[node] == -1:
                continue
            parent = tree.counts[node]
            left = tree.counts[tree.left[node]]
            right = tree.counts[tree.right[node]]
            n, nl, nr = sum(parent), sum(left), sum(right)
            recomputed = gini_of(parent) - (nl * gini_of(left) + nr * gini_of(right)) / n
            assert recomputed == pytest.approx(tree.gain[node], abs=1e-12)
            assert tree.gain[node] >= 0.0


class TestSplitOracle:
    @pytest.mark.parametrize("criterion,min_leaf,max_depth,bootstrap,per_split",
                             list(itertools.product(CRITERIA, (1, 3), (None, 4),
                                                    (True, False), (1, None))))
    def test_forest_matches_per_feature_search(self, criterion, min_leaf, max_depth,
                                               bootstrap, per_split):
        data = tied_data(seed=min_leaf + (max_depth or 0))
        config = ForestConfig(n_trees=4, criterion=criterion, features_per_split=per_split,
                              seed=11, max_depth=max_depth, min_samples_leaf=min_leaf,
                              bootstrap=bootstrap)
        model = train_forest(data, config)
        for t, tree in enumerate(model.trees):
            assert_same_tree(tree, grow_by_feature(data, config, 11 + t, bootstrap))
        # the grid is only worth checking if it splits at all
        assert max(len(tree.feature) for tree in model.trees) > 1

    @pytest.mark.parametrize("features,labels,min_leaf,counts", [
        ([[1.0, 2.0]] * 4, [0, 1, 0, 1], 1, [2, 2]),  # constant columns: no cut at all
        ([[0.0]] * 4 + [[1.0]] * 2, [0, 1, 0, 1, 1, 0], 3, [3, 3]),  # only a 4 | 2 cut
    ])
    def test_node_without_a_cut_is_a_leaf(self, features, labels, min_leaf, counts):
        data = dataset_of(features, labels)
        config = ForestConfig(min_samples_leaf=min_leaf)
        tree = one_tree(data, config, seed=0)
        assert tree.feature.tolist() == [-1]
        assert tree.counts.tolist() == [counts]
        assert_same_tree(tree, grow_by_feature(data, config, 0, bootstrap=False))


class TestTrainForest:
    def test_deterministic(self, blobs):
        config = ForestConfig(n_trees=20, seed=4)
        a = train_forest(blobs, config)
        b = train_forest(blobs, config)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_separable_blobs_heldout_accuracy(self):
        train = make_blobs(100, seed=0)
        held = make_blobs(50, seed=123)
        model = train_forest(train, ForestConfig(n_trees=100, seed=1))
        assert accuracy(model, held) == 1.0

    def test_single_class_rejected(self):
        data = dataset_of([[0.0], [1.0]], [1, 1])
        with pytest.raises(EmptyDataset):
            train_forest(data, ForestConfig(n_trees=2))


class TestPredict:
    def leaf_tree(self, label):
        counts = [0, 1] if label == 1 else [1, 0]
        return Tree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                    counts=[counts], gain=[0.0])

    def test_unanimous(self):
        model = TrainedModel((self.leaf_tree(1), self.leaf_tree(1)), ForestConfig(n_trees=2), "h")
        assert predict(model, np.zeros(3)) == (1, 1.0)

    def test_tie_breaks_to_bonafide(self):
        model = TrainedModel((self.leaf_tree(0), self.leaf_tree(1)), ForestConfig(n_trees=2), "h")
        assert predict(model, np.zeros(3)) == (0, 0.5)

    def test_training_accuracy_on_blobs(self, blobs):
        model = train_forest(blobs, ForestConfig(n_trees=50, seed=2))
        assert accuracy(model, blobs) >= 0.99

    def test_interior_point_scores_decisively(self, blobs):
        model = train_forest(blobs, ForestConfig(n_trees=1000, seed=0))
        _, score_spoof = predict(model, np.full(5, 5.0))
        _, score_bona = predict(model, np.zeros(5))
        assert score_spoof >= 0.95
        assert score_bona <= 0.05

    def test_layout_mismatch(self, blobs):
        model = train_forest(blobs, ForestConfig(n_trees=2, seed=0))
        other = LabeledDataset(blobs.features, blobs.labels, blobs.record_ids, "different")
        with pytest.raises(LayoutMismatch):
            predict_batch(model, other)

    def test_batch_equals_per_row_prediction(self):
        # fuzzier data than the blobs so trees disagree and ties can happen
        rng = np.random.default_rng(13)
        features = rng.normal(0.0, 1.0, (80, 4))
        labels = (features.sum(axis=1) + rng.normal(0, 2.0, 80) > 0).astype(int)
        data = dataset_of(features, labels)
        model = train_forest(data, ForestConfig(n_trees=9, seed=2))
        probe = dataset_of(rng.normal(0.0, 1.5, (200, 4)), np.zeros(200, dtype=int))
        batch = predict_batch(model, probe)
        walked = [int(2 * sum(walk_tree(t, row) for t in model.trees) > len(model.trees))
                  for row in probe.features]
        assert batch.tolist() == walked
        assert [predict(model, row)[0] for row in probe.features] == walked

    def test_feature_index_beyond_width_is_layout_mismatch(self):
        tree = Tree(feature=[3, -1, -1], threshold=[0.0, 0.0, 0.0], left=[1, -1, -1],
                    right=[2, -1, -1], counts=[[1, 1], [1, 0], [0, 1]], gain=[0.5, 0.0, 0.0])
        model = TrainedModel((tree,), ForestConfig(n_trees=1), "h")
        with pytest.raises(LayoutMismatch, match="feature 3"):
            predict_batch(model, dataset_of(np.zeros((2, 3)), [0, 1]))


class TestGridSearch:
    def test_single_cell_grid(self, blobs):
        dev = make_blobs(30, seed=77)
        model, report = grid_search(blobs, dev, [ForestConfig(n_trees=10, seed=0)])
        assert len(report) == 1
        assert model.config.n_trees == 10

    def test_tie_prefers_fewer_trees(self, blobs):
        dev = make_blobs(30, seed=88)
        grid = [ForestConfig(n_trees=100, seed=0), ForestConfig(n_trees=10, seed=0)]
        model, report = grid_search(blobs, dev, grid)
        assert report[0].dev_accuracy == report[1].dev_accuracy == 1.0
        assert model.config.n_trees == 10

    def test_default_grid_shape(self, blobs):
        dev = make_blobs(20, seed=99)
        model, report = grid_search(blobs, dev)
        assert len(report) == 8
        assert {(c.n_trees, c.criterion) for c in report} == {
            (n, c) for n in (10, 100, 500, 1000) for c in ("gini", "entropy")
        }
        assert all(cell.dev_accuracy == 1.0 for cell in report)

    def test_layout_mismatch(self, blobs):
        dev = make_blobs(20)
        other = LabeledDataset(dev.features, dev.labels, dev.record_ids, "x")
        with pytest.raises(LayoutMismatch):
            grid_search(blobs, other)


class TestGridPrefixes:
    """grid_search scores prefixes of one forest per setting; it must return
    what training and scoring every cell on its own returns."""

    def assert_same_search(self, tmp_path, train, dev, grid):
        model, report = grid_search(train, dev, grid)
        want_model, want_report = grid_by_cells(train, dev, grid)
        assert report == want_report
        assert model.config == want_model.config
        save_model(model, tmp_path / "prefix.json")
        save_model(want_model, tmp_path / "cells.json")
        assert (tmp_path / "prefix.json").read_bytes() == (tmp_path / "cells.json").read_bytes()
        return model, report

    def test_unsorted_grid_mixed_criteria_two_seeds(self, tmp_path):
        train, dev = tied_data(seed=21, n=120), tied_data(seed=22, n=70)
        grid = [ForestConfig(n_trees=n, criterion=c, seed=s)
                for n, c, s in ((7, "entropy", 0), (3, "gini", 5), (12, "gini", 0),
                                (1, "entropy", 5), (3, "entropy", 0), (7, "gini", 5),
                                (2, "gini", 0), (12, "entropy", 5))]
        _, report = self.assert_same_search(tmp_path, train, dev, grid)
        assert len({cell.dev_accuracy for cell in report}) > 1  # the scores differ

    def test_duplicated_cell(self, tmp_path):
        train, dev = tied_data(seed=23, n=120), tied_data(seed=24, n=70)
        grid = [ForestConfig(n_trees=n, criterion=c, seed=1)
                for n, c in ((5, "gini"), (9, "entropy"), (5, "gini"), (2, "gini"))]
        _, report = self.assert_same_search(tmp_path, train, dev, grid)
        assert report[0] == report[2]

    def test_tie_picks_fewer_trees_then_gini_then_grid_order(self, tmp_path, blobs):
        dev = make_blobs(30, seed=88)
        grid = [ForestConfig(n_trees=n, criterion=c, seed=s)
                for n, c, s in ((9, "gini", 0), (4, "entropy", 0), (4, "gini", 2),
                                (9, "entropy", 2), (4, "gini", 0))]
        model, report = self.assert_same_search(tmp_path, blobs, dev, grid)
        assert all(cell.dev_accuracy == 1.0 for cell in report)
        assert model.config == ForestConfig(n_trees=4, criterion="gini", seed=2)

    def test_largest_forest_per_setting_trained_once(self, monkeypatch):
        train, dev = tied_data(seed=25, n=60), tied_data(seed=26, n=30)
        trained = []
        real = forest.train_forest

        def counting(data, config):
            trained.append(config.n_trees)
            return real(data, config)

        monkeypatch.setattr(forest, "train_forest", counting)
        grid = [ForestConfig(n_trees=n, criterion=c) for n in (2, 8, 4) for c in CRITERIA]
        grid_search(train, dev, grid)
        assert trained == [8, 8]


class TestPersistence:
    def test_roundtrip(self, tmp_path, blobs):
        model = train_forest(blobs, ForestConfig(n_trees=5, seed=6))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        assert back.layout_hash == model.layout_hash
        assert predict_batch(back, blobs).tolist() == predict_batch(model, blobs).tolist()
        save_model(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_identical_seeds_give_identical_bytes(self, tmp_path, blobs):
        a = train_forest(blobs, ForestConfig(n_trees=5, seed=6))
        b = train_forest(blobs, ForestConfig(n_trees=5, seed=6))
        save_model(a, tmp_path / "a.json")
        save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def three_node_doc():
    """A valid one-tree model document: a root split and two leaves."""
    return {
        "format": "fdspoof-forest-v1",
        "config": {"n_trees": 1, "criterion": "gini", "features_per_split": None, "seed": 0,
                   "max_depth": None, "min_samples_leaf": 1, "bootstrap": True},
        "layout_hash": "h",
        "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                   "left": [1, -1, -1], "right": [2, -1, -1],
                   "counts": [[1, 1], [1, 0], [0, 1]], "gain": [0.5, 0.0, 0.0]}],
    }


class TestModelValidation:
    def write(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_document_loads(self, tmp_path):
        model = load_model(self.write(tmp_path, three_node_doc()))
        assert predict(model, np.array([0.0]))[0] == 0
        assert predict(model, np.array([1.0]))[0] == 1

    @pytest.mark.parametrize("nodes", [
        {"feature": [0, 0, -1], "left": [1, 0, -1], "right": [2, 2, -1]},  # cycle
        {"left": [0, -1, -1]},  # self loop
        {"right": [3, -1, -1]},  # child past the end
        {"right": [-1, -1, -1]},  # one child only
        {"threshold": [0.5, 0.0]},  # arrays of unequal length
        {"feature": [0, -1]},
        {"counts": [[1, 1, 0], [1, 0, 0], [0, 1, 0]]},  # not n x 2
        {"counts": [[1, 1], [1, 0], [0, -1]]},  # negative count
        {"feature": [-1, -1, -1]},  # inner node without a feature
        {"feature": [0, 2, -1]},  # leaf with a feature
        {"feature": [-2, -1, -1]},
        {"feature": [0, -1, "x"]},
        {"feature": [], "threshold": [], "left": [], "right": [], "counts": [], "gain": []},
    ])
    def test_malformed_tree_rejected(self, tmp_path, nodes):
        doc = three_node_doc()
        doc["trees"][0].update(nodes)
        with pytest.raises(ParseError, match=r"tree 0: |malformed model"):
            load_model(self.write(tmp_path, doc))

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["trees"][0].pop("gain"),
        lambda doc: doc.pop("layout_hash"),
        lambda doc: doc.pop("trees"),
        lambda doc: doc["config"].update(n_trees=2),
        lambda doc: doc["config"].update(n_trees=0),
        lambda doc: doc["config"].update(criterion="x"),
        lambda doc: doc["config"].update(depth=3),
        lambda doc: doc.update(trees=[[0, 1]]),
    ])
    def test_malformed_document_rejected(self, tmp_path, mutate):
        doc = three_node_doc()
        mutate(doc)
        with pytest.raises(ParseError):
            load_model(self.write(tmp_path, doc))

    @pytest.mark.parametrize("data", [b"{not json", b"[1, 2]", b"\xff\xfe"])
    def test_not_a_json_object_rejected(self, tmp_path, data):
        path = tmp_path / "m.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            load_model(path)
