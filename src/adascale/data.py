"""Synthetic sparse-detection datasets, file ingestion and batch sampling.

The generator, source and sampler configs are ``configio.Config``
dataclasses: ``configio`` decides what a valid value of each is.

Label convention throughout the package: 0 is the background (negative)
class, labels 1..k-1 are the positive classes.

The generator builds Gaussian clusters: one per positive class and a
configurable number of modes for the negative class, so the background has
internal structure that a sampler can destroy but a reweighting scheme
cannot.  The positive count is exact (``round(positive_rate * n)``), not
Bernoulli, so prevalence is deterministic.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .configio import Config, bound

__all__ = [
    "Dataset",
    "GeneratorConfig",
    "GenerationDetails",
    "SyntheticSource",
    "FileSource",
    "DatasetSource",
    "UniformSampler",
    "StratifiedSampler",
    "UnderSampler",
    "SamplerKind",
    "StratificationWarning",
    "generate",
    "generate_with_structure",
    "save",
    "load",
    "batches",
    "FORMATS",
]

NEGATIVE_LABEL = 0
# dataset file formats, each named as its file suffix
FORMATS = ("csv", "jsonl")


class StratificationWarning(UserWarning):
    """Raised-as-warning when a stratified epoch cannot honor its quota."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus integer labels in [0, k-1]."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if feats.shape[1] < 1:
            raise ValueError("features must have at least one column")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be one per feature row")
        if feats.shape[0] < 1:
            raise ValueError("dataset must contain at least one instance")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            as_int = labels.astype(np.int64)
            if not np.array_equal(as_int, labels):
                raise ValueError("labels must be integers")
            labels = as_int
        labels = labels.astype(np.int64)
        if int(self.k) < 2:
            raise ValueError("k must be >= 2")
        if labels.min() < 0 or labels.max() >= int(self.k):
            raise ValueError(f"labels must lie in [0, {int(self.k) - 1}]")
        feats = feats.copy()
        labels = labels.copy()
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", int(self.k))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GeneratorConfig(Config):
    """Synthetic benchmark knobs.

    Defaults describe the standard sparse benchmark: 10k instances in 20
    dimensions, 4 classes with 2% positives, and a 3-mode negative class.
    ``class_separation`` is the distance of each cluster center from the
    origin along mutually orthogonal directions (centers are then
    sqrt(2) * class_separation apart); ``noise_scale`` is the within-cluster
    standard deviation.
    """

    n: int = bound(10_000, minimum=1)
    d: int = bound(20, minimum=1)
    k: int = bound(4, minimum=2)
    positive_rate: float = bound(0.02, exclusiveMinimum=0, exclusiveMaximum=1)
    negative_modes: int = bound(3, minimum=1)
    class_separation: float = bound(3.6, exclusiveMinimum=0)
    noise_scale: float = bound(1.0, exclusiveMinimum=0)
    seed: int = bound(0, minimum=0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if int(round(self.positive_rate * self.n)) < self.k - 1:
            raise ValueError(f"GeneratorConfig.positive_rate * n must round to >= k - 1, got {self.n_positive}")

    @property
    def n_positive(self) -> int:
        return int(round(self.positive_rate * self.n))


@dataclass(frozen=True)
class GenerationDetails:
    """Ground-truth cluster structure behind a generated dataset.

    ``negative_mode[i]`` is the negative mode index that produced row i, or
    -1 for positive rows.  Centroid rows follow class/mode order.
    """

    positive_centroids: np.ndarray
    negative_centroids: np.ndarray
    negative_mode: np.ndarray


def _even_split(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _centroid_directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    if count <= dim:
        # QR of a Gaussian matrix gives orthonormal columns, so all centers
        # sit at identical pairwise distances
        q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
        return q.T
    dirs = rng.standard_normal((count, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def generate_with_structure(config: GeneratorConfig) -> tuple[Dataset, GenerationDetails]:
    """Generate a dataset and expose the cluster structure that produced it.

    Rows are laid out cluster by cluster, positive classes then negative modes, from
    one Gaussian draw scaled by ``noise_scale`` and shifted by each row's centroid.
    """
    rng = np.random.default_rng(config.seed)
    n_pos_classes = config.k - 1
    n_pos = config.n_positive

    dirs = _centroid_directions(rng, n_pos_classes + config.negative_modes, config.d)
    centroids = config.class_separation * dirs
    counts = _even_split(n_pos, n_pos_classes) + _even_split(config.n - n_pos, config.negative_modes)

    feats = rng.standard_normal((config.n, config.d))
    feats *= config.noise_scale
    feats += np.repeat(centroids, counts, axis=0)
    labels = np.repeat(np.r_[1 : config.k, [NEGATIVE_LABEL] * config.negative_modes], counts)
    modes = np.repeat(np.r_[[-1] * n_pos_classes, : config.negative_modes], counts)

    order = rng.permutation(config.n)
    dataset = Dataset(features=feats[order], labels=labels[order], k=config.k)
    details = GenerationDetails(
        positive_centroids=centroids[:n_pos_classes],
        negative_centroids=centroids[n_pos_classes:],
        negative_mode=modes[order],
    )
    return dataset, details


def generate(config: GeneratorConfig) -> Dataset:
    """Generate a synthetic sparse-detection dataset (deterministic per seed)."""
    return generate_with_structure(config)[0]


def _infer_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in FORMATS:
            raise ValueError(f"format must be {' or '.join(map(repr, FORMATS))}, got {format!r}")
        return format
    suffix = path.suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise ValueError(f"cannot infer format from {path.name!r}; pass format=")


def save(dataset: Dataset, path, format: str | None = None) -> None:
    """Write a dataset as CSV (header f0..f{d-1},label) or JSONL.

    Floats are written with full repr so a save/load round trip is exact.
    The bytes are those of ``csv.writer`` (CRLF line ends) and of
    ``json.dumps`` with its default separators: features are finite, no
    cell needs quoting and no string needs escaping.  Rows are formatted
    and written in blocks of ``_SAVE_BLOCK``, so memory stays bounded by a
    block, not the file.
    """
    path = Path(path)
    fmt = _infer_format(path, format)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            fh.write(",".join([f"f{i}" for i in range(dataset.d)] + ["label"]) + "\r\n")
            fh.writelines(_format_blocks(dataset, ",", "{},{}\r\n"))
    else:
        with path.open("w") as fh:
            fh.writelines(_format_blocks(dataset, ", ", '{{"features": [{}], "label": {}}}\n'))


_SAVE_BLOCK = 512


def _format_blocks(dataset: Dataset, sep: str, line: str) -> Iterator[str]:
    """Yield the text of each block of rows: ``line`` filled with each row's
    features, as ``repr`` joined by ``sep``, and its label."""
    for start in range(0, dataset.n, _SAVE_BLOCK):
        block = slice(start, start + _SAVE_BLOCK)
        yield "".join([
            line.format(sep.join(map(repr, row)), label)
            for row, label in zip(dataset.features[block].tolist(), dataset.labels[block].tolist())
        ])


# labels are stored as int64
_MAX_LABEL = 2**63 - 1


def _load_error(path: Path, lineno: int, message: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {message}")


def _load_csv(path: Path, labels: list[int]) -> Iterator[list[float]]:
    """Yield each data row's features, appending its label to ``labels``."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            if len(header) < 2 or header[-1] != "label":
                raise _load_error(path, 1, "header must be f0,...,f{d-1},label")
            d = len(header) - 1
            if header[:-1] != [f"f{i}" for i in range(d)]:
                raise _load_error(path, 1, "header must be f0,...,f{d-1},label")
            for row in reader:
                # reader.line_num, not a count of rows: a quoted field may span lines
                if len(row) != d + 1:
                    raise _load_error(path, reader.line_num, f"expected {d + 1} columns, got {len(row)}")
                label = row.pop()
                try:
                    values = list(map(float, row))
                except ValueError:
                    raise _load_error(path, reader.line_num, "malformed feature value") from None
                if not all(map(math.isfinite, values)):
                    raise _load_error(path, reader.line_num, "features must be finite")
                try:
                    label = int(label)
                except ValueError:
                    raise _load_error(path, reader.line_num, "malformed label") from None
                if not 0 <= label <= _MAX_LABEL:
                    raise _load_error(path, reader.line_num, f"label {label} out of range")
                labels.append(label)
                yield values
        except StopIteration:
            raise _load_error(path, 1, "empty file") from None
        except csv.Error as error:  # a field over the csv module's size limit
            raise _load_error(path, reader.line_num, str(error)) from None


# what json.loads runs on a str
_decode_json = json.JSONDecoder().decode


def _load_jsonl(path: Path, labels: list[int]) -> Iterator[list[int | float]]:
    """Yield each line's decoded features, appending its label to ``labels``;
    the first line sets the width the others must have."""
    d = None
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _decode_json(line)
            except json.JSONDecodeError:
                raise _load_error(path, lineno, "malformed JSON") from None
            except ValueError:  # an integer beyond the int-string digit limit
                raise _load_error(path, lineno, "integer too long to parse") from None
            except RecursionError:
                raise _load_error(path, lineno, "JSON nested too deeply") from None
            if not isinstance(obj, dict) or "features" not in obj or "label" not in obj:
                raise _load_error(path, lineno, "object must have 'features' and 'label'")
            raw = obj["features"]
            try:
                finite = (
                    isinstance(raw, list) and {int, float}.issuperset(map(type, raw)) and all(map(math.isfinite, raw))
                )
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise _load_error(path, lineno, "'features' must be a list of finite reals")
            label = obj["label"]
            if type(label) is not int:
                raise _load_error(path, lineno, "malformed label")
            if not 0 <= label <= _MAX_LABEL:
                raise _load_error(path, lineno, f"label {label} out of range")
            if d is None:
                if not raw:
                    raise _load_error(path, lineno, "'features' must not be empty")
                d = len(raw)
            elif len(raw) != d:
                raise _load_error(path, lineno, f"expected {d} features, got {len(raw)}")
            labels.append(label)
            # np.fromiter converts the ints as float() does
            yield raw


def load(path, format: str | None = None) -> Dataset:
    """Load a dataset from CSV or JSONL; k is inferred as max label + 1.

    Rows of UTF-8 text, after an optional byte order mark, are parsed one at
    a time into a single float64 matrix, each value converted once.
    Parse, decoding and validation failures raise ValueError naming the first offending line.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: no such file")
    if path.is_dir():
        raise ValueError(f"{path}: is a directory")
    fmt = _infer_format(path, format)
    labels: list[int] = []
    rows = (_load_csv if fmt == "csv" else _load_jsonl)(path, labels)
    try:
        first = next(rows, None)
        if first is None:
            raise _load_error(path, 1, "no data rows")
        features = np.fromiter(itertools.chain([first], rows), dtype=(np.float64, len(first)))
    except UnicodeDecodeError:
        # text decodes in chunks of many lines; no UTF-8 character holds a newline byte,
        # so the first line that fails on its own is the one to name
        with path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode()
                except UnicodeDecodeError as error:
                    raise _load_error(path, lineno, str(error)) from None
    return Dataset(features=features, labels=np.asarray(labels), k=max(max(labels) + 1, 2))


@dataclass(frozen=True)
class SyntheticSource(Config):
    """Generate train/dev/test splits from one generator config.

    One pooled dataset of ``n + n_dev + n_test`` instances is generated
    with the configured seed and sliced consecutively, so all three splits
    share the same cluster layout and are disjoint.  ``generator.n`` is the
    training split size.
    """

    kind: ClassVar[str] = "synthetic"
    generator: GeneratorConfig = GeneratorConfig()
    n_dev: int = bound(2000, minimum=1)
    n_test: int = bound(2000, minimum=1)


@dataclass(frozen=True)
class FileSource(Config):
    kind: ClassVar[str] = "files"
    train: str
    dev: str
    test: str
    format: str | None = bound(None, enum=(*FORMATS, None))


DatasetSource = SyntheticSource | FileSource


def _chunk(indices: np.ndarray, batch_size: int) -> list[np.ndarray]:
    return [indices[i : i + batch_size] for i in range(0, indices.size, batch_size)]


@dataclass(frozen=True)
class UniformSampler(Config):
    """Seeded permutation of the full index set, chunked into batches."""

    kind: ClassVar[str] = "uniform"

    def epoch_batches(self, labels: np.ndarray, batch_size: int, rng: np.random.Generator) -> list:
        return _chunk(rng.permutation(labels.size), batch_size)


@dataclass(frozen=True)
class StratifiedSampler(Config):
    """Uniform batching that guarantees a minimum positive count per batch
    where the supply of positives allows it."""

    kind: ClassVar[str] = "stratified"
    min_positives_per_batch: int = bound(1, minimum=1)

    def epoch_batches(self, labels: np.ndarray, batch_size: int, rng: np.random.Generator) -> list:
        n = labels.size
        pos = rng.permutation(np.flatnonzero(labels != NEGATIVE_LABEL))
        neg = rng.permutation(np.flatnonzero(labels == NEGATIVE_LABEL))
        n_full, tail = divmod(n, batch_size)
        n_batches = n_full + (tail > 0)

        quota = self.min_positives_per_batch
        if pos.size < quota * n_batches:
            warnings.warn(
                f"stratified quota infeasible: {pos.size} positives for {n_batches} batches "
                f"of >= {quota}; allocating best-effort",
                StratificationWarning,
                stacklevel=3,  # the caller of batches()
            )

        # batch i reserves the next min(quota, size_i) positives while they last
        caps = np.full(n_batches, min(quota, batch_size))
        caps[-1] = min(quota, tail or batch_size)
        ends = np.cumsum(caps).clip(max=pos.size)
        ptr = int(ends[-1])
        pool = rng.permutation(np.concatenate([pos[ptr:], neg]))

        # one epoch buffer, a row per batch: the reserve leads it and the pool fills the rest
        take = np.diff(ends, prepend=0)
        reserved = (np.arange(batch_size) < take[:, None]).ravel()[:n]
        epoch = np.empty(n, dtype=pool.dtype)
        epoch[reserved] = pos[:ptr]
        epoch[~reserved] = pool
        # each batch is shuffled in place with the draws of rng.permutation of its reserve
        # and fill; permuted runs shuffle's Fisher-Yates on every row in turn
        body = epoch[: n_full * batch_size].reshape(n_full, batch_size)
        rng.permuted(body, axis=1, out=body)
        rng.shuffle(epoch[n_full * batch_size :])
        return _chunk(epoch, batch_size)


@dataclass(frozen=True)
class UnderSampler(Config):
    """Keep all positives, subsample negatives to ratio * P per epoch.

    The negative subset is redrawn from the sampler seed each epoch, so
    successive epochs see different negatives.
    """

    kind: ClassVar[str] = "undersample"
    neg_to_pos_ratio: float = bound(exclusiveMinimum=0)

    def epoch_batches(self, labels: np.ndarray, batch_size: int, rng: np.random.Generator) -> list:
        pos = np.flatnonzero(labels != NEGATIVE_LABEL)
        neg = np.flatnonzero(labels == NEGATIVE_LABEL)
        keep = min(neg.size, int(round(self.neg_to_pos_ratio * pos.size)))
        chosen = rng.permutation(neg)[:keep]
        return _chunk(rng.permutation(np.concatenate([pos, chosen])), batch_size)


SamplerKind = UniformSampler | StratifiedSampler | UnderSampler


def batches(
    dataset: Dataset, sampler: SamplerKind, batch_size: int, seed: int
) -> list[np.ndarray]:
    """Index batches for one epoch, deterministic given the seed.

    Uniform and stratified epochs partition the full index set; an
    undersampled epoch partitions all positives plus the drawn negatives.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return sampler.epoch_batches(dataset.labels, batch_size, np.random.default_rng(seed))
