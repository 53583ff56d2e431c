"""Dataset ingestion and popularity bucketing for implicit-feedback training."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import check_range


class DataFormatError(ValueError):
    """Raised when an interaction file or positive-list payload is malformed."""


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing, then rename it over
    ``path`` when the block exits cleanly (``os.replace``) or remove it when
    the block raises: ``path`` holds its old content or the whole new one,
    never part of a write, and no temporary file is left behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _as_sorted_unique(items, *, what: str) -> np.ndarray:
    arr = np.asarray(items).ravel()
    # an empty list arrives as float64; anything else must hold integers
    if arr.size and arr.dtype.kind not in "iu":
        raise DataFormatError(f"non-integer id in {what}")
    arr = arr.astype(np.int64)
    if arr.size and arr.min() < 0:
        raise DataFormatError(f"negative id in {what}")
    return np.unique(arr)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable train/test split of implicit user-item interactions.

    ``train_pos`` and ``test_pos`` hold one strictly sorted, duplicate-free
    array of item ids per user, disjoint per user. ``item_popularity[i]`` is
    the number of users whose training list contains item ``i``.
    """

    n_users: int
    n_items: int
    train_pos: tuple[np.ndarray, ...]
    test_pos: tuple[np.ndarray, ...]
    item_popularity: np.ndarray

    @classmethod
    def from_positive_lists(cls, train, test, n_users: int | None = None,
                            n_items: int | None = None) -> "Dataset":
        """Build a validated Dataset from per-user item-id collections.

        Input lists are normalized (sorted, de-duplicated). ``n_users`` and
        ``n_items`` default to the tightest bounds that fit the data; passing
        larger values keeps trailing users/items with no interactions.
        """
        train_arrs = [_as_sorted_unique(t, what=f"train list of user {u}")
                      for u, t in enumerate(train)]
        test_arrs = [_as_sorted_unique(t, what=f"test list of user {u}")
                     for u, t in enumerate(test)]

        min_users = max(len(train_arrs), len(test_arrs))
        n_users = min_users if n_users is None else int(n_users)
        if n_users < min_users:
            raise DataFormatError(
                f"n_users={n_users} smaller than number of user lists {min_users}")
        empty = np.empty(0, dtype=np.int64)
        train_arrs += [empty] * (n_users - len(train_arrs))
        test_arrs += [empty] * (n_users - len(test_arrs))

        flat_train = np.concatenate([empty, *train_arrs])
        flat_test = np.concatenate([empty, *test_arrs])
        min_items = int(max(flat_train.max(initial=-1), flat_test.max(initial=-1))) + 1
        n_items = min_items if n_items is None else int(n_items)
        if n_items < min_items:
            raise DataFormatError(
                f"n_items={n_items} smaller than max item id + 1 ({min_items})")

        # keys are unique per split and sorted, so the first shared one is
        # the lowest overlapping user's
        users = np.arange(n_users, dtype=np.int64)
        overlap = np.intersect1d(
            np.repeat(users, [a.size for a in train_arrs]) * n_items + flat_train,
            np.repeat(users, [a.size for a in test_arrs]) * n_items + flat_test,
            assume_unique=True)
        if overlap.size:
            raise DataFormatError(
                f"user {overlap[0] // n_items} has overlapping train/test items")

        return cls(n_users=n_users, n_items=n_items,
                   train_pos=tuple(train_arrs), test_pos=tuple(test_arrs),
                   item_popularity=np.bincount(flat_train, minlength=n_items))

    @cached_property
    def indptr(self) -> np.ndarray:
        """Row offsets of the training lists as one CSR: user ``u``'s
        positives are ``indices[indptr[u]:indptr[u + 1]]``.

        The CSR is built on first use, never at construction.
        """
        indptr = np.zeros(len(self.train_pos) + 1, dtype=np.int64)
        np.cumsum([a.size for a in self.train_pos], out=indptr[1:])
        return indptr

    @cached_property
    def indices(self) -> np.ndarray:
        """Every training list, concatenated in user order (see :attr:`indptr`)."""
        return np.concatenate([np.empty(0, np.int64), *self.train_pos])

    @property
    def n_train_interactions(self) -> int:
        return int(self.indptr[-1])

    def train_pairs(self) -> np.ndarray:
        """All (user, item) training interactions as an (n, 2) array."""
        users = np.repeat(np.arange(self.indptr.size - 1, dtype=np.int64),
                          np.diff(self.indptr))
        return np.stack([users, self.indices], axis=1)

    def equals(self, other: "Dataset") -> bool:
        if (self.n_users, self.n_items) != (other.n_users, other.n_items):
            return False
        return (
            all(np.array_equal(a, b) for a, b in zip(self.train_pos, other.train_pos))
            and all(np.array_equal(a, b) for a, b in zip(self.test_pos, other.test_pos))
            and np.array_equal(self.item_popularity, other.item_popularity)
        )


def _parse_adjacency(path) -> dict[int, list[int]]:
    """Parse `user item item ...` lines; repeated user lines are merged."""
    per_user: dict[int, list[int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                ids = [int(t) for t in tokens]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-integer token") from exc
            if any(i < 0 for i in ids):
                raise DataFormatError(f"{path}:{lineno}: negative id")
            user, items = ids[0], ids[1:]
            per_user.setdefault(user, []).extend(items)
    return per_user


def load_dataset(train_path, test_path) -> Dataset:
    """Load a train/test split from whitespace-separated adjacency files.

    Each nonempty line reads ``user item item ...`` with dense 0-based ids.
    Users that appear only in the test file get an empty training list; item
    ids seen only in the test file extend the item count.
    """
    train_map = _parse_adjacency(train_path)
    test_map = _parse_adjacency(test_path)
    max_user = max(list(train_map) + list(test_map), default=-1)
    n_users = max_user + 1
    train = [train_map.get(u, []) for u in range(n_users)]
    test = [test_map.get(u, []) for u in range(n_users)]
    return Dataset.from_positive_lists(train, test)


def save_dataset(ds: Dataset, train_path, test_path) -> None:
    """Write a Dataset back to adjacency files.

    Every user gets a line in the train file (bare ``user`` if it has no
    training items) so the user count survives a reload. Items that occur in
    neither split are not representable in this format. Each file is
    replaced atomically (:func:`atomic_open`).
    """
    with atomic_open(train_path, "w", encoding="utf-8") as fh:
        for u in range(ds.n_users):
            fh.write(" ".join([str(u)] + [str(i) for i in ds.train_pos[u]]) + "\n")
    with atomic_open(test_path, "w", encoding="utf-8") as fh:
        for u in range(ds.n_users):
            if ds.test_pos[u].size:
                fh.write(" ".join([str(u)] + [str(i) for i in ds.test_pos[u]]) + "\n")


def popularity_groups(ds: Dataset, n_groups: int) -> np.ndarray:
    """Assign every item to one of ``n_groups`` popularity buckets.

    Items are sorted by ascending training popularity (ties by item id) and
    split into contiguous buckets whose sizes differ by at most one. Larger
    group ids hold more popular items.
    """
    check_range("n_groups", n_groups, 1, ds.n_items + 1)
    order = np.lexsort((np.arange(ds.n_items), ds.item_popularity))
    groups = np.empty(ds.n_items, dtype=np.int64)
    for gid, chunk in enumerate(np.array_split(order, n_groups)):
        groups[chunk] = gid
    return groups
