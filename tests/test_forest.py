import itertools
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import make_blobs
from fdspoof import forest
from fdspoof.exceptions import EmptyDataset, LayoutMismatch, ParseError, SettingError
from fdspoof.forest import (
    CRITERIA,
    ForestConfig,
    GridCell,
    LabeledDataset,
    Tree,
    TrainedModel,
    accuracy,
    grid_search,
    load_model,
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


def predict(model, features):
    """Reference per-row prediction: (label, score), where the score is the
    fraction of trees voting spoof and a 50/50 tie is bonafide (label 0)."""
    x = np.asarray(features, dtype=np.float64)
    score = sum(walk_tree(tree, x) for tree in model.trees) / len(model.trees)
    return (1 if score > 0.5 else 0), score


def impurity(counts0, counts1, total, criterion):
    """Reference impurity of each class-count pair: 1 - p0^2 - p1^2 (gini) or
    -(p0 log2 p0 + p1 log2 p1) with 0 log2 0 = 0 (entropy)."""
    p0 = counts0 / total
    p1 = counts1 / total
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    with np.errstate(divide="ignore", invalid="ignore"):
        e0 = np.where(p0 > 0.0, p0 * np.log2(p0), 0.0)
        e1 = np.where(p1 > 0.0, p1 * np.log2(p1), 0.0)
    return -(e0 + e1)


def split_one_feature(x, y, criterion):
    """Reference split search over one feature: best (threshold, gain), or None.
    The threshold is the midpoint of the cut's values a < b, or a where the
    midpoint falls outside [a, b)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = xs.shape[0]
    cut = np.nonzero(xs[:-1] < xs[1:])[0]  # split after position i
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    ones = np.cumsum(ys)
    ones_left = ones[cut]
    ones_right = ones[-1] - ones_left
    imp_left = impurity(n_left - ones_left, ones_left, n_left, criterion)
    imp_right = impurity(n_right - ones_right, ones_right, n_right, criterion)
    total_ones = ones[-1]
    imp_parent = impurity(np.array([n - total_ones]), np.array([total_ones]),
                          np.array([n]), criterion)[0]
    gain = imp_parent - (n_left * imp_left + n_right * imp_right) / n
    best = int(np.argmax(gain))
    a, b = float(xs[cut[best]]), float(xs[cut[best] + 1])
    threshold = 0.5 * (a + b)
    return (threshold if a <= threshold < b else a), float(gain[best])


def grow_by_feature(data, rows, n_split, criterion, seed):
    """Reference tree growth on `rows` that searches a node's `n_split`
    candidate features one at a time and keeps the first with the strictly
    highest gain; the same draws and node numbering as `forest._grow`."""
    X, y = data.features, data.labels
    rng = np.random.default_rng(seed)
    feature, threshold, left, right, counts = [], [], [], [], []
    stack = [(rows, -1, 0)]
    while stack:
        node_rows, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if side == 0 else right)[parent] = node
        ones = int(y[node_rows].sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append([node_rows.size - ones, ones])
        if ones == 0 or ones == node_rows.size:
            continue
        best_gain, best_feature, best_threshold = -np.inf, -1, 0.0
        for f in rng.choice(X.shape[1], size=n_split, replace=False):
            found = split_one_feature(X[node_rows, f], y[node_rows], criterion)
            if found is not None and found[1] > best_gain:
                best_threshold, best_gain = found
                best_feature = int(f)
        if best_feature < 0:
            continue
        feature[node], threshold[node] = best_feature, best_threshold
        mask = X[node_rows, best_feature] <= best_threshold
        stack.append((node_rows[~mask], node, 1))
        stack.append((node_rows[mask], node, 0))
    return Tree(feature, threshold, left, right, counts)


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


def wide_data(tied, n=200, n_features=40):
    """floor(sqrt(40)) = 6 candidate features per node: tied_data's coarse
    grid, or continuous columns with the same labelling rule."""
    if tied:
        return tied_data(seed=9, n=n, n_features=n_features)
    rng = np.random.default_rng(9)
    features = rng.normal(0.0, 1.0, (n, n_features))
    noise = rng.normal(0.0, 1.0, n)
    labels = (features[:, 0] + features[:, 1] * features[:, 2] + noise > 0).astype(int)
    return dataset_of(features, labels)


def split_oracle_cases():
    """(criterion, data, bootstrap, per_split): tied 7-column data from seeds
    1, 3, 5 and 7 in every combination, then a 40-column forest, continuous
    and tied, for each criterion."""
    for criterion, seed, offset, bootstrap, per_split in itertools.product(
            CRITERIA, (1, 3), (None, 4), (True, False), (1, None)):
        yield pytest.param(criterion, tied_data(seed=seed + (offset or 0)), bootstrap, per_split,
                           id=f"{criterion}-{seed}-{offset}-{bootstrap}-{per_split}")
    for criterion, tied in itertools.product(CRITERIA, (False, True)):
        yield pytest.param(criterion, wide_data(tied), True, None,
                           id=f"{criterion}-wide-{'tied' if tied else 'continuous'}")


def grid_by_cells(train, dev, n_trees, criteria, seed):
    """Reference grid search: every cell of n_trees x criteria, trees-major,
    trained on its own at `seed` and scored with `accuracy`; ties prefer fewer
    trees, then gini."""
    report, best = [], None
    for config in [ForestConfig(n, c, seed) for n in n_trees for c in criteria]:
        model = train_forest(train, config)
        acc = accuracy(model, dev)
        report.append(GridCell(config.n_trees, config.criterion, acc))
        rank = (-acc, config.n_trees, CRITERIA.index(config.criterion))
        if best is None or rank < best[0]:
            best = (rank, model)
    return best[1], report


def one_tree(data, rows, n_split, seed, criterion="gini"):
    """The tree that the grower grows on `rows` with `n_split` candidates."""
    features = np.ascontiguousarray(data.features.T)
    return forest._grow(features, data.labels, rows, n_split, criterion, seed)


def bootstrap_rows(n, seed):
    """The rows `train_forest` draws for the tree of `seed`."""
    return np.sort(np.random.default_rng(seed).integers(0, n, size=n))


class TestTrainTree:
    def test_forced_split(self):
        data = dataset_of([[0.0], [1.0]], [0, 1])
        tree = one_tree(data, np.arange(2), 1, seed=0)
        assert tree.threshold[0] == 0.5
        assert sorted([tree.counts[1].tolist(), tree.counts[2].tolist()]) == [[0, 1], [1, 0]]

    def test_single_class_single_leaf(self):
        data = dataset_of([[0.0], [1.0], [2.0]], [1, 1, 1])
        # train_forest rejects one-class data, so grow the tree directly
        tree = one_tree(data, np.arange(3), 1, seed=0)
        assert len(tree.feature) == 1
        assert tree.counts[0].tolist() == [0, 3]

    def test_xor_reaches_purity(self):
        data = dataset_of([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0])
        tree = one_tree(data, np.arange(4), 2, seed=3)
        preds = [walk_tree(tree, row) for row in data.features]
        assert preds == [0, 1, 1, 0]

    def test_empty_rejected(self):
        data = dataset_of(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            train_forest(data, ForestConfig(n_trees=1))

    @pytest.mark.parametrize("values,labels", [
        ([1 + 2**-52, 1 + 2**-51], [0, 1]),  # adjacent floats: the midpoint rounds up to b
        ([1e308, 1.5e308, 1.6e308, 1.7e308], [0, 0, 1, 1]),  # the sum overflows to inf
    ])
    def test_threshold_stays_below_the_upper_value(self, values, labels):
        # a threshold at or above b sends every row left, and the node then
        # splits the same rows forever; check the split before growing a tree
        block, y = np.array(values)[:, None], np.array(labels)
        a, b = values[labels.index(1) - 1], values[labels.index(1)]
        zeros, ones = labels.count(0), labels.count(1)
        node = impurity(np.array([zeros]), np.array([ones]), np.array([len(labels)]), "gini")[0]
        column, threshold, _ = forest._best_split(block.T, y, node, "gini")
        assert column == 0 and a <= threshold < b
        tree = one_tree(dataset_of(block, labels), np.arange(len(values)), 1, seed=0)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.threshold[0] == a
        assert tree.counts.tolist() == [[zeros, ones], [zeros, 0], [0, ones]]


class TestSplitOracle:
    @pytest.mark.parametrize("criterion,data,bootstrap,per_split", split_oracle_cases())
    def test_forest_matches_per_feature_search(self, criterion, data, bootstrap, per_split):
        # train_forest grows bootstrap rows with floor(sqrt(p)) candidates per
        # node; every other (rows, n_split) goes through the grower
        n = data.n_records
        n_split = per_split or math.isqrt(data.features.shape[1])
        rows = [bootstrap_rows(n, 11 + t) if bootstrap else np.arange(n) for t in range(4)]
        if bootstrap and per_split is None:
            trees = train_forest(data, ForestConfig(n_trees=4, criterion=criterion, seed=11)).trees
        else:
            trees = [one_tree(data, rows[t], n_split, 11 + t, criterion) for t in range(4)]
        for t, tree in enumerate(trees):
            assert_same_tree(tree, grow_by_feature(data, rows[t], n_split, criterion, 11 + t))
        # the grid is only worth checking if it splits at all
        assert max(len(tree.feature) for tree in trees) > 1

    @pytest.mark.parametrize("criterion,seed,step",
                             list(itertools.product(CRITERIA, (1, 3), (None, 0.1, 0.5))))
    def test_default_sort_grows_the_stable_sort_model(self, monkeypatch, criterion, seed,
                                                      step):
        # a cut falls only where the sorted value strictly increases, so the
        # order of tied rows cannot change a model byte
        rng = np.random.default_rng(seed)
        features = rng.normal(0.0, 1.0, (200, 12))
        if step is not None:
            features = np.round(features / step) * step
            # the default sort does reorder ties here, so the check is not vacuous
            assert not np.array_equal(np.argsort(features, axis=0),
                                      np.argsort(features, axis=0, kind="stable"))
        noise = rng.normal(0.0, 1.0, 200)
        labels = (features[:, 0] + features[:, 1] * features[:, 2] + noise > 0).astype(int)
        data = dataset_of(features, labels)
        config = ForestConfig(n_trees=4, criterion=criterion, seed=5)
        grown = train_forest(data, config)
        argsort, stable_calls = np.argsort, []

        def stable_argsort(a, axis=-1):
            stable_calls.append(a.shape)
            return argsort(a, axis=axis, kind="stable")

        monkeypatch.setattr(forest.np, "argsort", stable_argsort)
        stable = train_forest(data, config)
        assert stable_calls
        for tree, reference in zip(grown.trees, stable.trees, strict=True):
            assert_same_tree(tree, reference)

    @pytest.mark.parametrize("criterion,tied", list(itertools.product(CRITERIA, (False, True))))
    def test_children_are_the_threshold_partition_with_their_own_impurity(self, criterion,
                                                                          tied):
        # a child's rows come from the winning row's sort order and its impurity
        # from the scored cut; both must be what counting the child afresh gives
        data = wide_data(tied)
        block = np.ascontiguousarray(data.features.T[:6])
        for rows in (np.arange(data.n_records), np.arange(0, data.n_records, 3),
                     np.arange(17)):
            y = data.labels[rows]
            ones = int(y.sum())
            node = impurity(np.array([rows.size - ones]), np.array([ones]),
                            np.array([rows.size]), criterion)[0]
            column, threshold, children = forest._best_split(block[:, rows], y, node, criterion)
            goes_left = block[column, rows] <= threshold
            for (positions, child), side in zip(children, (goes_left, ~goes_left), strict=True):
                assert np.array_equal(np.sort(positions), np.flatnonzero(side))
                ones = int(y[positions].sum())
                fresh = impurity(np.array([positions.size - ones]), np.array([ones]),
                                 np.array([positions.size]), criterion)[0]
                assert np.float64(child).tobytes() == fresh.tobytes()

    def test_node_without_a_cut_is_a_leaf(self):
        data = dataset_of([[1.0, 2.0]] * 4, [0, 1, 0, 1])  # constant columns: no cut at all
        tree = one_tree(data, np.arange(4), 1, seed=0)
        assert tree.feature.tolist() == [-1]
        assert tree.counts.tolist() == [[2, 2]]
        assert_same_tree(tree, grow_by_feature(data, np.arange(4), 1, "gini", 0))


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
                    counts=[counts])

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
                    right=[2, -1, -1], counts=[[1, 1], [1, 0], [0, 1]])
        model = TrainedModel((tree,), ForestConfig(n_trees=1), "h")
        with pytest.raises(LayoutMismatch, match="feature 3"):
            predict_batch(model, dataset_of(np.zeros((2, 3)), [0, 1]))


class TestGridSearch:
    def test_single_cell_grid(self, blobs):
        dev = make_blobs(30, seed=77)
        model, report = grid_search(blobs, dev, (10,), ("gini",))
        assert len(report) == 1
        assert model.config == ForestConfig(n_trees=10, seed=0)

    def test_tie_prefers_fewer_trees(self, blobs):
        dev = make_blobs(30, seed=88)
        model, report = grid_search(blobs, dev, (100, 10), ("gini",))
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

    @pytest.mark.parametrize("n_trees,criteria,message", [
        ((), CRITERIA, "n_trees and criteria must not be empty"),
        ((10,), (), "n_trees and criteria must not be empty"),
        ((10, 0), CRITERIA, "n_trees must be >= 1"),
        ((10,), ("gini", "x"), "criterion must be one of"),
    ])
    def test_rejected_grid_before_any_tree_grows(self, blobs, monkeypatch, n_trees, criteria,
                                                 message):
        monkeypatch.setattr(forest, "train_forest", lambda *_: pytest.fail("a tree grew"))
        with pytest.raises(SettingError, match=message):
            grid_search(blobs, make_blobs(20), n_trees, criteria)

    def test_layout_mismatch(self, blobs):
        dev = make_blobs(20)
        other = LabeledDataset(dev.features, dev.labels, dev.record_ids, "x")
        with pytest.raises(LayoutMismatch):
            grid_search(blobs, other)

    def test_dev_without_a_split_column_is_rejected_before_scoring(self, blobs, monkeypatch):
        # same layout hash, fewer columns than the forest splits on
        config = ForestConfig(n_trees=10, seed=0)
        widest = max(int(tree.feature.max()) for tree in train_forest(blobs, config).trees)
        assert widest >= 1
        dev = make_blobs(20, seed=77)
        narrow = LabeledDataset(dev.features[:, :widest], dev.labels, dev.record_ids,
                                blobs.layout_hash)
        monkeypatch.setattr(forest, "_tree_votes", lambda *_: pytest.fail("a tree voted"))
        with pytest.raises(LayoutMismatch, match=f"model splits on feature {widest}, "
                                                 f"but the features have {widest} columns"):
            grid_search(blobs, narrow, (10,), ("gini",))


class TestGridPrefixes:
    """grid_search scores prefixes of one forest per setting; it must return
    what training and scoring every cell on its own returns."""

    def assert_same_search(self, tmp_path, train, dev, n_trees, criteria, seed):
        model, report = grid_search(train, dev, n_trees, criteria, seed)
        want_model, want_report = grid_by_cells(train, dev, n_trees, criteria, seed)
        assert report == want_report
        assert model.config == want_model.config
        save_model(model, tmp_path / "prefix.json")
        save_model(want_model, tmp_path / "cells.json")
        assert (tmp_path / "prefix.json").read_bytes() == (tmp_path / "cells.json").read_bytes()
        return model, report

    def test_unsorted_grid_mixed_criteria_two_seeds(self, tmp_path):
        train, dev = tied_data(seed=21, n=120), tied_data(seed=22, n=70)
        n_trees, criteria = (7, 3, 12, 1, 2), ("entropy", "gini")
        for seed in (0, 5):
            _, report = self.assert_same_search(tmp_path, train, dev, n_trees, criteria, seed)
            assert [(cell.n_trees, cell.criterion) for cell in report] == [
                (n, c) for n in n_trees for c in criteria]
            assert len({cell.dev_accuracy for cell in report}) > 1  # the scores differ

    def test_duplicated_cell(self, tmp_path):
        train, dev = tied_data(seed=23, n=120), tied_data(seed=24, n=70)
        _, report = self.assert_same_search(tmp_path, train, dev, (5, 9, 5, 2),
                                            ("gini", "entropy"), 1)
        assert len(report) == 8
        assert report[:2] == report[4:6]

    def test_tie_picks_fewer_trees_then_gini(self, tmp_path, blobs):
        dev = make_blobs(30, seed=88)
        model, report = self.assert_same_search(tmp_path, blobs, dev, (9, 4),
                                                ("entropy", "gini"), 2)
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
        grid_search(train, dev, (2, 8, 4), CRITERIA)
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

    def test_file_holds_only_the_node_arrays_a_reader_reads(self, tmp_path, blobs):
        save_model(train_forest(blobs, ForestConfig(n_trees=3, seed=6)), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["format"] == "fdspoof-forest-v3"
        assert list(doc["config"]) == ["n_trees", "criterion", "seed"]
        for tree in doc["trees"]:
            assert list(tree) == ["feature", "threshold", "left", "right", "counts"]


def three_node_doc():
    """A valid one-tree model document: a root split and two leaves."""
    return {
        "format": "fdspoof-forest-v3",
        "config": {"n_trees": 1, "criterion": "gini", "seed": 0},
        "layout_hash": "h",
        "trees": [{"feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
                   "left": [1, -1, -1], "right": [2, -1, -1],
                   "counts": [[1, 1], [1, 0], [0, 1]]}],
    }


def v2_doc():
    """`three_node_doc` as the second model format wrote it, with the
    candidate count and bootstrap switch in its config."""
    doc = three_node_doc()
    doc["format"] = "fdspoof-forest-v2"
    doc["config"].update(features_per_split=None, bootstrap=True)
    return doc


def v1_doc():
    """`three_node_doc` as the first model format wrote it, with per-node gains
    and two more config keys than the second."""
    doc = v2_doc()
    doc["format"] = "fdspoof-forest-v1"
    doc["config"].update(max_depth=None, min_samples_leaf=1)
    doc["trees"][0]["gain"] = [0.5, 0.0, 0.0]
    return doc


class TestModelValidation:
    def write(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return path

    def test_valid_document_loads(self, tmp_path):
        model = load_model(self.write(tmp_path, three_node_doc()))
        assert predict(model, np.array([0.0]))[0] == 0
        assert predict(model, np.array([1.0]))[0] == 1

    def test_integer_thresholds_load(self, tmp_path):
        doc = three_node_doc()
        doc["trees"][0]["threshold"] = [0, 0, 0]
        model = load_model(self.write(tmp_path, doc))
        assert model.trees[0].threshold.dtype == np.float64
        assert predict(model, np.array([0.0]))[0] == 0

    def test_v1_document_asks_for_retraining(self, tmp_path):
        with pytest.raises(LayoutMismatch, match="'fdspoof-forest-v1'; retrain"):
            load_model(self.write(tmp_path, v1_doc()))

    def test_v2_document_asks_for_retraining(self, tmp_path):
        with pytest.raises(LayoutMismatch, match="'fdspoof-forest-v2'; retrain"):
            load_model(self.write(tmp_path, v2_doc()))

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
        {"feature": [], "threshold": [], "left": [], "right": [], "counts": []},
        {"feature": [0.7, -1, -1]},  # JSON numbers that are not integers
        {"left": [1.9, -1, -1]},
        {"counts": [[1, 1], [1, 0], [-0.5, 1]]},
        {"threshold": ["0.5", 0.0, 0.0]},  # a JSON string
        {"left": [True, -1, -1]},  # JSON true or false among numbers
        {"feature": [False, -1, -1]},
        {"threshold": [True, 0.0, 0.0]},
        {"counts": [[1, 1], [1, 0], [0, True]]},
    ])
    def test_malformed_tree_rejected(self, tmp_path, nodes):
        doc = three_node_doc()
        doc["trees"][0].update(nodes)
        with pytest.raises(ParseError, match=r"tree 0: |malformed model"):
            load_model(self.write(tmp_path, doc))

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["trees"][0].pop("counts"),
        lambda doc: doc.pop("layout_hash"),
        lambda doc: doc.pop("trees"),
        lambda doc: doc["config"].update(n_trees=2),
        lambda doc: doc["config"].update(n_trees=0),
        lambda doc: doc["config"].update(criterion="x"),
        lambda doc: doc["config"].update(depth=3),
        lambda doc: doc.update(trees=[[0, 1]]),
        lambda doc: doc["config"].update(n_trees=True),
        lambda doc: doc["config"].update(n_trees=1.0),
        lambda doc: doc["config"].update(seed="x"),
        lambda doc: doc["config"].update(seed=True),
        lambda doc: doc["config"].update(max_depth=None),  # a key of the first format
        lambda doc: doc["config"].update(features_per_split=None),  # keys of the second
        lambda doc: doc["config"].update(bootstrap=True),
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
