"""From-scratch random forest for the binary bonafide/spoof decision.

CART-style greedy trees: at each node a seeded floor(sqrt(p)) of the p features
are drawn, candidate thresholds lie between consecutive sorted unique values a < b
(the midpoint, or a where the midpoint would round or overflow out of [a, b)),
and the split maximizing impurity decrease (gini or entropy) wins. A forest
keeps its features feature-major (one contiguous copy of X.T), so a node
gathers its candidates x rows block in one index, sorts and scores every row
of it at once, and takes its children from the winning row's sort order, with
their impurities from the scored cut.
Trees grow to full size: until every leaf is pure or has no cut. Each tree of a
forest trains on an independent bootstrap seeded by (seed + tree_index); the
bootstrap and the floor(sqrt(p)) draw are Breiman's (2001), fixed, not settings.
Any execution order produces the identical model, and a forest's first n trees
are the n-tree forest with the same criterion and seed: the grid search over
tree counts x criteria at one seed trains one forest per criterion at the
largest count and scores the smaller counts on its prefixes.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields
from itertools import chain
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
    seed: int = 0

    def __post_init__(self) -> None:
        if type(self.n_trees) is not int or type(self.seed) is not int:  # not bool either
            raise SettingError("n_trees and seed must be integers")
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

    def __post_init__(self) -> None:
        for f in fields(self):
            dtype = np.float64 if f.name == "threshold" else np.int64
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=dtype))


@dataclass(frozen=True)
class TrainedModel:
    trees: tuple[Tree, ...]
    config: ForestConfig
    layout_hash: str


def _impurity(counts0: np.ndarray, counts1: np.ndarray, total: np.ndarray, criterion: str) -> np.ndarray:
    p0 = counts0 / total
    p1 = counts1 / total
    if criterion == "gini":  # 1 - p0*p0 - p1*p1
        p0 *= p0
        p1 *= p1
        np.subtract(1.0, p0, out=p0)
        p0 -= p1
        return p0
    e0 = np.log2(p0, out=np.zeros_like(p0), where=p0 > 0.0)  # -(p0*log2 p0 + p1*log2 p1)
    e0 *= p0
    e1 = np.log2(p1, out=np.zeros_like(p1), where=p1 > 0.0)
    e1 *= p1
    e0 += e1
    return np.negative(e0, out=e0)


def _best_split(block: np.ndarray, y: np.ndarray, impurity: float, criterion: str):
    """Best split of one node over the rows of its block, or None: the
    winning row's index, the threshold, and the (positions, impurity) of the
    left and the right child.

    `block` is the candidate features x the node's rows, `y` the node's labels
    (as floats, so every count is exact and the divisions need no int cast)
    and `impurity` the node's own. Every row is sorted and scored at once: a
    cut after sorted position i is valid where the value strictly increases
    there, from a to b; its threshold t keeps a <= t < b, so the cut's left
    positions are exactly the rows with `x <= t`. Ties go to the first row,
    then the first cut, so the winner is what scoring the features one by one
    in order would pick. A cut never falls inside a run of equal values, so
    the order of tied rows, and with it the sort's kind, changes no count at a
    cut and no child's set of rows.
    """
    k, m = block.shape
    order = np.argsort(block, axis=1)
    xs = block[np.arange(k)[:, None], order]
    ones = y[order].cumsum(axis=1)
    n_left = np.arange(1.0, m)  # a cut after position i leaves i + 1 rows left
    n_right = m - n_left
    ones_left = ones[:, :-1]
    ones_right = ones[:, -1:] - ones_left
    imp_left = _impurity(n_left - ones_left, ones_left, n_left, criterion)
    imp_right = _impurity(n_right - ones_right, ones_right, n_right, criterion)
    gain = n_left * imp_left
    gain += n_right * imp_right
    gain /= m
    np.subtract(impurity, gain, out=gain)
    gain[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    best, cut = divmod(int(np.argmax(gain)), m - 1)
    if gain[best, cut] == -np.inf:
        return None
    a, b = float(xs[best, cut]), float(xs[best, cut + 1])
    threshold = 0.5 * (a + b)  # a float sum overflows to inf without a warning
    return (best, threshold if a <= threshold < b else a,
            ((order[best, :cut + 1], imp_left[best, cut]),
             (order[best, cut + 1:], imp_right[best, cut])))


def _grow(XT: np.ndarray, y: np.ndarray, rows: np.ndarray, n_split: int, criterion: str,
          seed: int) -> Tree:
    """The tree grown on `rows` of the feature-major XT (features x records),
    drawing `n_split` candidate features per node from `seed`: depth-first,
    left child first, with an explicit stack."""
    rng = np.random.default_rng(seed)
    y = y.astype(np.float64)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[list[int]] = []
    ones = y[rows].sum()
    root = _impurity(np.array([rows.size - ones]), np.array([ones]), np.array([rows.size]),
                     criterion)[0]
    stack: list[tuple[np.ndarray, int, int, float]] = [(rows, -1, 0, root)]
    while stack:
        node_rows, parent, side, impurity = stack.pop()
        node = len(feature)
        if parent >= 0:
            (left if side == 0 else right)[parent] = node
        labels = y[node_rows]
        ones = int(labels.sum())
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append([node_rows.size - ones, ones])
        if ones == 0 or ones == node_rows.size:  # pure, so a 1-row node too
            continue

        candidates = rng.choice(XT.shape[0], size=n_split, replace=False)
        # zero-gain splits are accepted (like sklearn): XOR-style data needs a
        # neutral first cut before any purity shows up; recursion still ends
        # because both sides are strictly smaller
        found = _best_split(XT[candidates[:, None], node_rows], labels, impurity, criterion)
        if found is None:
            continue

        best, threshold[node], children = found
        feature[node] = int(candidates[best])
        # push right first so the left child is grown (and numbered) first
        for side in (1, 0):
            positions, child_impurity = children[side]
            stack.append((node_rows[positions], node, side, child_impurity))
    return Tree(feature, threshold, left, right, counts)


def train_forest(data: LabeledDataset, config: ForestConfig) -> TrainedModel:
    """Train n_trees trees: tree t on the sorted bootstrap rows drawn from
    seed + t, with floor(sqrt(n_features)) candidate features per node."""
    if data.n_records == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if len(np.unique(data.labels)) < 2:
        raise EmptyDataset("training data must contain both classes")
    X, y, n = data.features, data.labels, data.n_records
    XT = np.ascontiguousarray(X.T)  # a node gathers and sorts its candidates along rows
    n_split = max(1, int(np.sqrt(X.shape[1])))
    trees = tuple(
        _grow(XT, y, np.sort(np.random.default_rng(seed).integers(0, n, size=n)), n_split,
              config.criterion, seed)
        for seed in range(config.seed, config.seed + config.n_trees)
    )
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


def _vote_sums(trees, X: np.ndarray):
    """Running spoof-vote sums per row of X: the n-th is the sum over the first
    n trees, in one array updated in place. LayoutMismatch, before any tree
    votes, if a tree splits on a column X does not have."""
    widest = max(int(tree.feature.max()) for tree in trees)
    if widest >= X.shape[1]:
        raise LayoutMismatch(
            f"model splits on feature {widest}, but the features have {X.shape[1]} columns"
        )
    votes = np.zeros(X.shape[0], dtype=np.int64)
    for tree in trees:
        votes += _tree_votes(tree, X)
        yield votes


def _majority(votes: np.ndarray, n_trees: int) -> np.ndarray:
    """Label 1 where more than half of n_trees voted spoof; a tie is bonafide."""
    return (votes * 2 > n_trees).astype(np.int64)


def predict_batch(model: TrainedModel, dataset: LabeledDataset) -> np.ndarray:
    """Labels for every record: 1 where more than half of the trees vote spoof,
    so a 50/50 tie is bonafide (label 0)."""
    if dataset.layout_hash != model.layout_hash:
        raise LayoutMismatch(
            f"features layout {dataset.layout_hash} != model layout {model.layout_hash}"
        )
    *_, votes = _vote_sums(model.trees, dataset.features)
    return _majority(votes, len(model.trees))


def accuracy(model: TrainedModel, dataset: LabeledDataset) -> float:
    preds = predict_batch(model, dataset)
    return float(np.mean(preds == dataset.labels))


@dataclass(frozen=True)
class GridCell:
    n_trees: int
    criterion: str
    dev_accuracy: float


def grid_search(
    train: LabeledDataset, dev: LabeledDataset, n_trees: Sequence[int] = DEFAULT_GRID_TREES,
    criteria: Sequence[str] = CRITERIA, seed: int = 0,
) -> tuple[TrainedModel, list[GridCell]]:
    """Dev accuracy of every cell of n_trees x criteria at one seed, trees-major
    and duplicates kept, and the best model.

    Tree t of a forest depends only on its criterion and seed + t, so a smaller
    forest is the first trees of a larger one with the same criterion. Each
    criterion therefore trains one forest of max(n_trees) trees; each size is
    scored from a running sum of dev votes, by the majority rule of
    `predict_batch`. Ties prefer fewer trees, then gini. SettingError, before
    anything else, for an empty list or a rejected cell; EmptyDataset, before
    any tree is grown, if dev has no records.
    """
    cells = [ForestConfig(n, c, seed) for n in n_trees for c in criteria]
    if not cells:
        raise SettingError("n_trees and criteria must not be empty")
    if train.layout_hash != dev.layout_hash:
        raise LayoutMismatch(
            f"train layout {train.layout_hash} != dev layout {dev.layout_hash}"
        )
    if dev.n_records == 0:
        raise EmptyDataset("cannot score a grid on an empty dev set")
    sizes = set(n_trees)
    scores: dict[ForestConfig, float] = {}

    def rank(config: ForestConfig) -> tuple:
        return -scores[config], config.n_trees, CRITERIA.index(config.criterion)

    best: ForestConfig | None = None
    best_trees: tuple[Tree, ...] = ()
    for criterion in dict.fromkeys(criteria):
        trees = train_forest(train, ForestConfig(max(sizes), criterion, seed)).trees
        for n, votes in enumerate(_vote_sums(trees, dev.features), start=1):
            if n in sizes:
                scores[ForestConfig(n, criterion, seed)] = float(
                    np.mean(_majority(votes, n) == dev.labels))
        top = min((ForestConfig(n, criterion, seed) for n in sizes), key=rank)
        if best is None or rank(top) < rank(best):
            best, best_trees = top, trees[: top.n_trees]
    report = [GridCell(config.n_trees, config.criterion, scores[config]) for config in cells]
    return TrainedModel(best_trees, best, train.layout_hash), report


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

MODEL_FORMAT = "fdspoof-forest-v3"


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "config": asdict(model.config),
        "layout_hash": model.layout_hash,
        "trees": [{f.name: getattr(tree, f.name).tolist() for f in fields(Tree)}
                  for tree in model.trees],
    }
    Path(path).write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def _node_array(values) -> np.ndarray:
    """A JSON node list as an array, of object dtype if it (or, for `counts`,
    one of its pairs) holds a `true` or `false`, which numpy would read as 1 or
    0 among numbers. A list nested deeper is rejected by its shape either way."""
    items = values if type(values) is list else ()
    if items and type(items[0]) is list:  # counts: one pair per node
        items = chain.from_iterable(items)
    return np.asarray(values, dtype=object if bool in set(map(type, items)) else None)


def _checked_tree(nodes: dict[str, np.ndarray], where: str) -> Tree:
    """The tree of a document's node arrays; ParseError unless they hold JSON
    integers (numbers in `threshold`) and form a tree `_grow` could have built."""
    for name, values in nodes.items():
        kinds, what = ("if", "numbers") if name == "threshold" else ("i", "integers")
        if values.dtype.kind not in kinds:
            raise ParseError(f"{where}: {name} must hold {what}")
    tree = Tree(**nodes)
    n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
    if n == 0:
        raise ParseError(f"{where}: feature must be a non-empty list of nodes")
    for name in ("threshold", "left", "right"):
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
    return tree


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file; ParseError unless every tree is well formed."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ParseError(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a JSON model file")
    if doc.get("format") != MODEL_FORMAT:
        raise LayoutMismatch(f"unknown model format {doc.get('format')!r}; retrain the model")
    try:
        config = ForestConfig(**doc["config"])
        docs = [{f.name: _node_array(t[f.name]) for f in fields(Tree)} for t in doc["trees"]]
        layout = doc["layout_hash"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model: {type(exc).__name__}: {exc}") from None
    if len(docs) != config.n_trees:
        raise ParseError(f"{path}: {len(docs)} trees, but config n_trees is {config.n_trees}")
    trees = tuple(_checked_tree(nodes, f"{path}: tree {i}") for i, nodes in enumerate(docs))
    return TrainedModel(trees=trees, config=config, layout_hash=layout)
