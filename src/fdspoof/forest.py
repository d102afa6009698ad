"""From-scratch random forest for the binary bonafide/spoof decision.

CART-style greedy trees: at each node a seeded subset of features is drawn,
candidate thresholds are the midpoints between consecutive sorted unique
values, and the split maximizing impurity decrease (gini or entropy) wins;
all candidate features of a node are sorted and scored in one vectorized call.
Trees grow until pure, until no split leaves min_samples_leaf rows on both
sides, or to max_depth.
Each tree of a forest trains on an independent bootstrap seeded by
(seed + tree_index), so any execution order produces the identical model, and
a forest's first n trees are the n-tree forest with the same settings: the
grid search trains one forest per setting at its largest size and scores the
smaller sizes on its prefixes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .exceptions import EmptyDataset, LayoutMismatch, ParseError, SettingError

DEFAULT_GRID_TREES = (10, 100, 500, 1000)
CRITERIA = ("gini", "entropy")


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray  # n x n_features
    labels: np.ndarray  # n, values in {0, 1}
    record_ids: tuple[str, ...]
    layout_hash: str
    system_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))

    @property
    def n_records(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    criterion: str = "gini"
    features_per_split: int | None = None  # default floor(sqrt(n_features))
    seed: int = 0
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise SettingError("n_trees must be >= 1")
        if self.criterion not in CRITERIA:
            raise SettingError(f"criterion must be one of {CRITERIA}")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; children of -1 mark a leaf, whose feature is -1.

    `_grow` numbers every child after its parent, and `load_model` accepts
    only trees whose children both lie in (node, n_nodes). A walk from the
    root therefore only moves to higher node indices, so it cannot cycle and
    reaches a leaf within n_nodes steps.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # n_nodes x 2: [n_class0, n_class1]
    gain: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("feature", np.int64), ("threshold", np.float64),
                            ("left", np.int64), ("right", np.int64),
                            ("counts", np.int64), ("gain", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))


@dataclass(frozen=True)
class TrainedModel:
    trees: tuple[Tree, ...]
    config: ForestConfig
    layout_hash: str


def _impurity(counts0: np.ndarray, counts1: np.ndarray, total: np.ndarray, criterion: str) -> np.ndarray:
    p0 = counts0 / total
    p1 = counts1 / total
    if criterion == "gini":
        return 1.0 - p0 * p0 - p1 * p1
    with np.errstate(divide="ignore", invalid="ignore"):
        e0 = np.where(p0 > 0.0, p0 * np.log2(p0), 0.0)
        e1 = np.where(p1 > 0.0, p1 * np.log2(p1), 0.0)
    return -(e0 + e1)


def _best_split(block: np.ndarray, y: np.ndarray, criterion: str, min_leaf: int):
    """Best (column, threshold, gain) over the columns of one node's block, or None.

    `block` is the node's rows x candidate features and `y` the node's labels.
    Every column is sorted and scored at once: a cut after sorted position i
    is valid where the value strictly increases there and both sides keep
    `min_leaf` rows. Ties go to the first column, then the first cut, so the
    winner is what scoring the columns one by one in order would pick.
    """
    m = block.shape[0]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    ones = np.cumsum(y[order], axis=0)
    n_left = np.arange(1, m)[:, None]  # a cut after position i leaves i + 1 rows left
    n_right = m - n_left
    valid = xs[:-1] < xs[1:]
    if min_leaf > 1:
        valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
    ones_left = ones[:-1]
    ones_right = ones[-1] - ones_left
    imp_left = _impurity(n_left - ones_left, ones_left, n_left, criterion)
    imp_right = _impurity(n_right - ones_right, ones_right, n_right, criterion)
    total_ones = ones[-1, 0]
    imp_parent = _impurity(np.array([m - total_ones]), np.array([total_ones]),
                           np.array([m]), criterion)[0]
    gain = np.where(valid, imp_parent - (n_left * imp_left + n_right * imp_right) / m,
                    -np.inf)
    column, cut = divmod(int(np.argmax(gain.T)), m - 1)
    if gain[cut, column] == -np.inf:
        return None
    threshold = 0.5 * (xs[cut, column] + xs[cut + 1, column])
    return column, float(threshold), float(gain[cut, column])


def _grow(data: LabeledDataset, config: ForestConfig, seed: int) -> Tree:
    """Depth-first, left-child-first growth with an explicit stack.

    Both the bootstrap rows (all rows, in order, without `config.bootstrap`)
    and the per-node feature draws derive from `seed`.
    """
    X, y, n = data.features, data.labels, data.n_records
    n_features_split = _resolve_features_per_split(config, X.shape[1])
    rows = np.arange(n)
    if config.bootstrap:
        rows = np.sort(np.random.default_rng(seed).integers(0, n, size=n))
    rng = np.random.default_rng(seed)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[list[int]] = []
    gain: list[float] = []
    stack: list[tuple[np.ndarray, int, int, int]] = [(rows, 0, -1, 0)]
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

        candidates = rng.choice(X.shape[1], size=n_features_split, replace=False)
        # zero-gain splits are accepted (like sklearn): XOR-style data needs a
        # neutral first cut before any purity shows up; recursion still ends
        # because both sides are strictly smaller
        found = _best_split(X[np.ix_(node_rows, candidates)], y[node_rows],
                            config.criterion, config.min_samples_leaf)
        if found is None:
            continue

        column, threshold[node], gain[node] = found
        feature[node] = int(candidates[column])
        mask = X[node_rows, feature[node]] <= threshold[node]
        # push right first so the left child is grown (and numbered) first
        stack.append((node_rows[~mask], depth + 1, node, 1))
        stack.append((node_rows[mask], depth + 1, node, 0))
    return Tree(feature, threshold, left, right, counts, gain)


def _resolve_features_per_split(config: ForestConfig, n_features: int) -> int:
    k = config.features_per_split
    if k is None:
        k = max(1, int(np.sqrt(n_features)))
    if not (1 <= k <= n_features):
        raise ValueError(f"features_per_split {k} out of range for {n_features} features")
    return k


def train_forest(data: LabeledDataset, config: ForestConfig) -> TrainedModel:
    """Train n_trees trees, each on an independent seeded bootstrap."""
    if data.n_records == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if len(np.unique(data.labels)) < 2:
        raise EmptyDataset("training data must contain both classes")
    trees = tuple(_grow(data, config, config.seed + t) for t in range(config.n_trees))
    return TrainedModel(trees=trees, config=config, layout_hash=data.layout_hash)


def _tree_votes(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Level-synchronous traversal of one tree for all rows at once."""
    nodes = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[nodes]
        walking = feat >= 0
        if not walking.any():
            break
        idx = np.nonzero(walking)[0]
        go_left = X[idx, feat[idx]] <= tree.threshold[nodes[idx]]
        nodes[idx] = np.where(go_left, tree.left[nodes[idx]], tree.right[nodes[idx]])
    return (tree.counts[nodes, 1] > tree.counts[nodes, 0]).astype(np.int64)


def _check_width(trees, X: np.ndarray) -> None:
    """LayoutMismatch if any tree splits on a column X does not have."""
    widest = max(int(tree.feature.max()) for tree in trees)
    if widest >= X.shape[1]:
        raise LayoutMismatch(
            f"model splits on feature {widest}, but the features have {X.shape[1]} columns"
        )


def _votes(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Spoof votes per row of X, summed over the trees."""
    _check_width(model.trees, X)
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in model.trees:
        votes += _tree_votes(tree, X)
    return votes


def _majority(votes: np.ndarray, n_trees: int) -> np.ndarray:
    """Label 1 where more than half of n_trees voted spoof; a tie is bonafide."""
    return (votes * 2 > n_trees).astype(np.int64)


def predict(model: TrainedModel, features: np.ndarray) -> tuple[int, float]:
    """Majority vote over trees; score is the fraction voting spoof.

    A 50/50 tie resolves to bonafide (label 0).
    """
    x = np.asarray(features, dtype=np.float64)
    score = int(_votes(model, x[None, :])[0]) / len(model.trees)
    return (1 if score > 0.5 else 0), score


def predict_batch(model: TrainedModel, dataset: LabeledDataset) -> np.ndarray:
    """Labels for every record; identical to predict() row by row."""
    if dataset.layout_hash != model.layout_hash:
        raise LayoutMismatch(
            f"features layout {dataset.layout_hash} != model layout {model.layout_hash}"
        )
    return _majority(_votes(model, dataset.features), len(model.trees))


def accuracy(model: TrainedModel, dataset: LabeledDataset) -> float:
    preds = predict_batch(model, dataset)
    return float(np.mean(preds == dataset.labels))


@dataclass(frozen=True)
class GridCell:
    n_trees: int
    criterion: str
    dev_accuracy: float


def default_grid(seed: int = 0) -> list[ForestConfig]:
    return [
        ForestConfig(n_trees=n, criterion=c, seed=seed)
        for n in DEFAULT_GRID_TREES
        for c in CRITERIA
    ]


def grid_search(
    train: LabeledDataset, dev: LabeledDataset, grid: list[ForestConfig] | None = None,
    seed: int = 0,
) -> tuple[TrainedModel, list[GridCell]]:
    """Dev accuracy of every grid cell, in grid order, and the best model.

    Tree t of a forest depends only on its settings and seed + t, so a smaller
    forest is the first trees of a larger one with the same settings. Cells
    that differ only in n_trees therefore share one forest of their largest
    size, trained once; each size is scored from a running sum of dev votes,
    by the majority rule of `predict_batch`. Ties prefer fewer trees, then
    gini.
    """
    if train.layout_hash != dev.layout_hash:
        raise LayoutMismatch(
            f"train layout {train.layout_hash} != dev layout {dev.layout_hash}"
        )
    if grid is None:
        grid = default_grid(seed)
    sizes: dict[ForestConfig, set[int]] = {}
    first: dict[ForestConfig, int] = {}
    for index, config in enumerate(grid):
        sizes.setdefault(replace(config, n_trees=1), set()).add(config.n_trees)
        first.setdefault(config, index)
    scores: dict[ForestConfig, float] = {}

    def rank(config: ForestConfig) -> tuple:
        return (-scores[config], config.n_trees, CRITERIA.index(config.criterion),
                first[config])

    best: ForestConfig | None = None
    best_trees: tuple[Tree, ...] = ()
    for shared, wanted in sizes.items():
        trees = train_forest(train, replace(shared, n_trees=max(wanted))).trees
        _check_width(trees, dev.features)
        votes = np.zeros(dev.n_records, dtype=np.int64)
        for n, tree in enumerate(trees, start=1):
            votes += _tree_votes(tree, dev.features)
            if n in wanted:
                scores[replace(shared, n_trees=n)] = float(
                    np.mean(_majority(votes, n) == dev.labels))
        top = min((replace(shared, n_trees=n) for n in wanted), key=rank)
        if best is None or rank(top) < rank(best):
            best, best_trees = top, trees[: top.n_trees]
    assert best is not None
    report = [GridCell(config.n_trees, config.criterion, scores[config]) for config in grid]
    return TrainedModel(best_trees, best, train.layout_hash), report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

MODEL_FORMAT = "fdspoof-forest-v1"


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "layout_hash": model.layout_hash,
        "trees": [{f.name: getattr(tree, f.name).tolist() for f in fields(Tree)}
                  for tree in model.trees],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _check_tree(tree: Tree, where: str) -> None:
    """ParseError unless the node arrays form a tree `_grow` could have built."""
    n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
    if n == 0:
        raise ParseError(f"{where}: feature must be a non-empty list of nodes")
    for name in ("threshold", "left", "right", "gain"):
        if getattr(tree, name).shape != (n,):
            raise ParseError(f"{where}: {name} does not have one entry per node ({n})")
    if tree.counts.shape != (n, 2) or np.any(tree.counts < 0):
        raise ParseError(f"{where}: counts must be {n} non-negative [class0, class1] pairs")
    node = np.arange(n)
    leaf = (tree.left == -1) & (tree.right == -1)
    inner = (tree.left > node) & (tree.left < n) & (tree.right > node) & (tree.right < n)
    if not np.all(leaf | inner):
        raise ParseError(f"{where}: children must both be -1 or both lie in (node, {n})")
    if not np.all(np.where(leaf, tree.feature == -1, tree.feature >= 0)):
        raise ParseError(f"{where}: feature must be -1 at leaves and >= 0 elsewhere")


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; ParseError unless every tree is well formed."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParseError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON model file")
    if doc.get("format") != MODEL_FORMAT:
        raise LayoutMismatch(f"unknown model format {doc.get('format')!r}")
    try:
        config = ForestConfig(**doc["config"])
        trees = tuple(Tree(**{f.name: t[f.name] for f in fields(Tree)}) for t in doc["trees"])
        layout = doc["layout_hash"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: malformed model: {type(exc).__name__}: {exc}") from None
    if len(trees) != config.n_trees:
        raise ParseError(f"{path}: {len(trees)} trees, but config n_trees is {config.n_trees}")
    for i, tree in enumerate(trees):
        _check_tree(tree, f"{path}: tree {i}")
    return TrainedModel(trees=trees, config=config, layout_hash=layout)
