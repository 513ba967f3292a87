"""Multi-label strategies: BR, chains, majority, LP, subset sampling, RAkEL."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from _builders import dataset_rows, leaf_label, make_record, marks_dataset, tiny_registry, train
from rakelgen.domain import Dataset, series_stack
from rakelgen.errors import LabelCoverageWarning, ValidationError
from rakelgen.features import feature_matrix
from rakelgen.mlc import (
    BrPayload,
    ChainPayload,
    LpPayload,
    MajorityPayload,
    RakelConfig,
    RakelPayload,
    TrainedModel,
    gold_matrix,
    predict_batch,
    sample_labelsets,
)
from rakelgen.tree import DecisionTree, descend, tree_to_dict

# Flat marks value below 4.5 carries labels {1, 2}; above it, no labels.
TWO_LABEL_ROWS = [
    (1.0, [1, 2]),
    (2.0, [1, 2]),
    (3.0, [1, 2]),
    (4.0, [1, 2]),
    (6.0, []),
    (7.0, []),
    (8.0, []),
    (9.0, []),
]


def _features(record, mode="both"):
    return feature_matrix(series_stack([record[1]]), mode)[0]


def _predict(model, x, gold=None) -> tuple[int, ...]:
    """The bits ``predict_batch`` gives one feature row (and one gold row)."""
    bits, _ = predict_batch(model, np.asarray(x)[None], None if gold is None else np.array([gold]))
    return tuple(bits[0].tolist())


def _flat_marks_input(value: float, weeks: int = 4):
    return _features(
        make_record("probe", weeks=weeks, series={"marks": [value] * weeks})
    )


class TestBinaryRelevance:
    def test_constant_bit_becomes_single_leaf(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, [(1.0, [1]), (2.0, [1]), (3.0, [1])])
        model = train("br", ds)
        assert isinstance(model.payload, BrPayload)
        tree_for_label_0 = model.payload.trees[0]
        assert tree_for_label_0.feature.tolist() == [-1]  # the root is a leaf
        assert tree_for_label_0.label.tolist() == [1]

    def test_one_tree_per_label(self, ds37):
        model = train("br", ds37)
        assert len(model.payload.trees) == 29
        assert model.n_labels == 29

    def test_prediction_concatenates_per_label_trees(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        model = train("br", ds)
        x = _flat_marks_input(2.5)
        per_tree = [leaf_label(t, x) for t in model.payload.trees]
        assert list(_predict(model, x)) == per_tree

    def test_label_independence_under_registry_subsetting(self, ds37, registry):
        from rakelgen.domain import TemplateRegistry

        full_model = train("br", ds37)
        keep_ids = (1, 4, 9, 16, 25)
        sub_registry = TemplateRegistry(
            templates=tuple(registry.templates[registry.label_index(i)] for i in keep_ids),
            version="subset",
        )
        sub_records = tuple(
            (student_id, series, labels & frozenset(keep_ids))
            for student_id, series, labels in ds37.records
        )
        sub_model = train("br", Dataset(sub_registry, sub_records))
        for sub_index, template_id in enumerate(keep_ids):
            full_index = registry.label_index(template_id)
            assert tree_to_dict(sub_model.payload.trees[sub_index]) == tree_to_dict(
                full_model.payload.trees[full_index]
            )

    def test_unlabeled_dataset_rejected(self, registry):
        ds = Dataset(registry, (make_record(),))
        with pytest.raises(ValidationError):
            train("br", ds)

    def test_parallel_training_identical(self, ds37):
        sequential = train("br", ds37, n_jobs=1)
        parallel = train("br", ds37, n_jobs=4)
        for a, b in zip(sequential.payload.trees, parallel.payload.trees):
            assert tree_to_dict(a) == tree_to_dict(b)


class TestChain:
    def test_single_label_chain_equals_br(self):
        registry = tiny_registry(1)
        ds = marks_dataset(registry, [(1.0, [1]), (2.0, [1]), (8.0, []), (9.0, [])])
        chain = train("chain-predicted", ds)
        br = train("br", ds)
        for value in (0.5, 3.0, 5.0, 8.5):
            x = _flat_marks_input(value)
            assert _predict(chain, x) == _predict(br, x)

    def test_predicted_history_propagates(self):
        # Label 2 always equals label 1 in training, and label 1 is
        # recoverable from the features, so the chain's second position
        # must reproduce its first on every input.
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        model = train("chain-predicted", ds)
        for value in (0.5, 2.2, 4.4, 4.6, 6.1, 9.5, 50.0):
            bits = _predict(model, _flat_marks_input(value))
            assert bits[1] == bits[0]

    def test_real_history_requires_gold(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        model = train("chain-real", ds)
        x = _flat_marks_input(3.0)
        with pytest.raises(ValidationError, match="gold"):
            _predict(model, x)
        assert len(_predict(model, x, (1, 1))) == 2

    def test_predicted_history_rejects_gold(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        model = train("chain-predicted", ds)
        with pytest.raises(ValidationError):
            _predict(model, _flat_marks_input(3.0), (1, 1))

    def test_gold_length_checked(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        model = train("chain-real", ds)
        with pytest.raises(ValidationError):
            _predict(model, _flat_marks_input(3.0), (1, 1, 0))

    def test_later_gold_bits_cannot_affect_earlier_positions(self):
        registry = tiny_registry(3)
        rows = [
            (1.0, [1, 2, 3]),
            (2.0, [1, 2, 3]),
            (3.0, [1]),
            (6.0, [2]),
            (8.0, []),
            (9.0, [3]),
        ]
        ds = marks_dataset(registry, rows)
        model = train("chain-real", ds)
        x = _flat_marks_input(4.2)
        base = _predict(model, x, (1, 1, 0))
        flipped = _predict(model, x, (1, 1, 1))
        assert base[:2] == flipped[:2]

    def test_custom_order_round_trip(self):
        registry = tiny_registry(3)
        rows = [(1.0, [1, 2]), (2.0, [3]), (8.0, []), (9.0, [1])]
        ds = marks_dataset(registry, rows)
        model = train("chain-predicted", ds, chain_order=(2, 0, 1))
        assert isinstance(model.payload, ChainPayload)
        assert model.payload.order == (2, 0, 1)
        assert len(_predict(model, _flat_marks_input(5.0))) == 3

    def test_invalid_order_rejected(self):
        registry = tiny_registry(3)
        ds = marks_dataset(registry, [(1.0, [1]), (9.0, [])])
        with pytest.raises(ValidationError):
            train("chain-predicted", ds, chain_order=(0, 1))
        with pytest.raises(ValidationError):
            train("chain-predicted", ds, chain_order=(0, 1, 1))

    def test_invalid_history_rejected(self):
        registry = tiny_registry(2)
        ds = marks_dataset(registry, TWO_LABEL_ROWS)
        with pytest.raises(ValidationError):
            train("chain-oracle", ds)


class TestMajority:
    def test_per_label_majority_bit(self):
        registry = tiny_registry(1)
        rows = [(float(i), [1]) for i in range(7)] + [
            (float(10 + i), []) for i in range(3)
        ]
        model = train("majority", marks_dataset(registry, rows))
        assert model.payload.bits == (1,)

    def test_exact_tie_clears_bit(self):
        registry = tiny_registry(1)
        rows = [(float(i), [1]) for i in range(5)] + [
            (float(10 + i), []) for i in range(5)
        ]
        model = train("majority", marks_dataset(registry, rows))
        assert model.payload.bits == (0,)

    def test_all_clear_stays_clear(self):
        registry = tiny_registry(2)
        rows = [(float(i), []) for i in range(4)]
        model = train("majority", marks_dataset(registry, rows))
        assert model.payload.bits == (0, 0)

    def test_prediction_ignores_input(self):
        registry = tiny_registry(2)
        model = train("majority", marks_dataset(registry, TWO_LABEL_ROWS))
        outputs = {
            _predict(model, _flat_marks_input(v)) for v in (0.0, 5.0, 99.0)
        }
        assert len(outputs) == 1

    def test_labelset_mode_takes_modal_set(self):
        registry = tiny_registry(3)
        rows = [
            (1.0, [1, 2]),
            (2.0, [1, 2]),
            (3.0, [3]),
            (4.0, [1]),
        ]
        model = train("majority", marks_dataset(registry, rows), majority_mode="labelset")
        assert isinstance(model.payload, MajorityPayload)
        assert model.payload.bits == (1, 1, 0)

    def test_labelset_mode_tie_takes_first_appearance(self):
        registry = tiny_registry(3)
        rows = [(1.0, [3]), (2.0, [1, 2]), (3.0, [3]), (4.0, [1, 2])]
        model = train("majority", marks_dataset(registry, rows), majority_mode="labelset")
        assert model.payload.bits == (0, 0, 1)

    def test_unknown_mode_rejected(self, ds37):
        with pytest.raises(ValidationError):
            train("majority", ds37, majority_mode="median")


def _lp_classes(ds):
    """The class table of an LP model of ds, and the class its tree gives each
    training record (records with distinct marks, which the tree memorizes)."""
    payload = train("lp", ds).payload
    leaves = descend(payload.tree, feature_matrix(ds.series))[:, 0]
    return payload.tree.label[leaves].tolist(), payload.classes


class TestLabelPowerset:
    def test_transform_first_appearance_classes(self):
        registry = tiny_registry(2)
        # Observed sets in order: {1, 2}, {1}, {1, 2).
        rows = [(1.0, [1, 2]), (2.0, [1]), (3.0, [1, 2])]
        classes, table = _lp_classes(marks_dataset(registry, rows))
        assert classes == [0, 1, 0]
        assert table == (frozenset({0, 1}), frozenset({0}))

    def test_transform_single_observed_set(self):
        registry = tiny_registry(2)
        rows = [(1.0, [1]), (2.0, [1]), (3.0, [1])]
        classes, table = _lp_classes(marks_dataset(registry, rows))
        assert classes == [0, 0, 0]
        assert table == (frozenset({0}),)

    def test_transform_all_distinct_degenerates(self, registry):
        # 37 records with 37 distinct label sets collapse to 37 classes.
        rows = [(float(i), [1 + i]) for i in range(29)]
        rows += [(float(29 + i), [1, 2 + i]) for i in range(8)]
        sets = [frozenset(labels) for _, labels in rows]
        assert len(set(sets)) == 37
        classes, table = _lp_classes(marks_dataset(registry, rows))
        assert len(table) == 37
        assert sorted(set(classes)) == list(range(37))

    def test_predictions_closed_over_observed_sets(self, registry):
        rows = [
            (float(i), [1, 2] if i < 5 else ([5] if i < 10 else []))
            for i in range(15)
        ]
        ds = marks_dataset(registry, rows)
        model = train("lp", ds)
        observed = {frozenset(labels) for labels in ds.expert_labels}
        rng = np.random.default_rng(0)
        for value in rng.uniform(0, 20, size=60):
            bits = _predict(model, _flat_marks_input(float(round(value, 1))))
            ids = frozenset(
                registry.templates[j].id for j, b in enumerate(bits) if b
            )
            assert ids in observed

    def test_single_class_predicts_constantly(self):
        registry = tiny_registry(3)
        rows = [(1.0, [2, 3]), (5.0, [2, 3]), (9.0, [2, 3])]
        model = train("lp", marks_dataset(registry, rows))
        assert isinstance(model.payload, LpPayload)
        for value in (0.0, 4.0, 50.0):
            assert _predict(model, _flat_marks_input(value)) == (0, 1, 1)


class TestSampleLabelsets:
    def test_k_equals_l_clamps_to_single_subset(self):
        with pytest.warns(LabelCoverageWarning, match="clamp"):
            subsets = sample_labelsets(5, k=5, m=3, seed=0)
        assert subsets == [(0, 1, 2, 3, 4)]

    def test_all_pairs_of_three(self):
        subsets = sample_labelsets(3, k=2, m=3, seed=11)
        assert sorted(subsets) == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("seed", range(5))
    def test_default_scale_sampling(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                subsets = sample_labelsets(29, k=3, m=58, seed=seed)
                covered = set().union(*subsets)
                assert covered == set(range(29))
            except LabelCoverageWarning:
                subsets = sample_labelsets(29, k=3, m=58, seed=seed)
        assert len(subsets) == 58
        assert len(set(subsets)) == 58
        for subset in subsets:
            assert len(subset) == 3
            assert subset == tuple(sorted(subset))

    def test_uncovered_labels_warn(self):
        with pytest.warns(LabelCoverageWarning):
            subsets = sample_labelsets(5, k=1, m=2, seed=0)
        assert len(subsets) == 2

    def test_determinism(self):
        assert sample_labelsets(29, 3, 58, seed=4) == sample_labelsets(
            29, 3, 58, seed=4
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            sample_labelsets(3, k=4, m=1, seed=0)
        with pytest.raises(ValidationError):
            sample_labelsets(3, k=0, m=1, seed=0)
        with pytest.raises(ValidationError):
            sample_labelsets(3, k=2, m=0, seed=0)


def _stub_member(n_features: int, labelset: frozenset[int], scope: tuple[int, ...]):
    tree = DecisionTree(
        feature=[-1], threshold=[0.0], left=[-1], right=[-1], label=[0], n_features=n_features,
    )
    return LpPayload(tree=tree, classes=(labelset,), scope=scope)


def _stub_rakel(members, n_labels: int, threshold: float = 0.5):
    n_features = members[0].tree.n_features
    return TrainedModel(
        registry_version="stub",
        n_labels=n_labels,
        weeks=4,
        feature_mode="both",
        payload=RakelPayload(members=tuple(members), threshold=threshold),
    )


class TestRakelVoting:
    N_FEATURES = 9 * (5 + 4)

    def _x(self):
        return np.zeros(self.N_FEATURES)

    def test_two_of_three_votes_set_bit(self):
        members = [
            _stub_member(self.N_FEATURES, frozenset({0}), (0,)),
            _stub_member(self.N_FEATURES, frozenset({0}), (0,)),
            _stub_member(self.N_FEATURES, frozenset(), (0,)),
        ]
        model = _stub_rakel(members, n_labels=1)
        assert _predict(model, self._x()) == (1,)

    def test_exact_threshold_clears_bit(self):
        members = [
            _stub_member(self.N_FEATURES, frozenset({0}), (0,)),
            _stub_member(self.N_FEATURES, frozenset(), (0,)),
        ]
        model = _stub_rakel(members, n_labels=1, threshold=0.5)
        assert _predict(model, self._x()) == (0,)

    def test_uncovered_label_stays_clear(self):
        members = [_stub_member(self.N_FEATURES, frozenset({0}), (0,))]
        model = _stub_rakel(members, n_labels=2)
        bits, votes = predict_batch(model, self._x()[None, :])
        assert bits.tolist() == [[1, 0]]
        assert votes.tolist() == [[1.0, 0.0]]

    def test_zero_threshold_still_strict(self):
        members = [_stub_member(self.N_FEATURES, frozenset(), (0,))]
        model = _stub_rakel(members, n_labels=1, threshold=0.0)
        assert _predict(model, self._x()) == (0,)


class TestRakelTraining:
    def test_default_m_is_twice_label_count(self, ds37):
        model = train("rakel", ds37, rakel_config=RakelConfig(k=3, seed=0))
        assert isinstance(model.payload, RakelPayload)
        assert len(model.payload.members) == 58

    def test_member_scopes_have_size_k(self, ds37):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            model = train("rakel", ds37, rakel_config=RakelConfig(k=3, m=20, seed=1))
        for member in model.payload.members:
            assert len(member.scope) == 3

    def test_member_class_counts_bounded(self, ds37):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            model = train("rakel", ds37, rakel_config=RakelConfig(k=3, m=20, seed=1))
        for member in model.payload.members:
            assert len(member.classes) <= min(len(ds37), 2**3)

    def test_k_equals_l_single_member_matches_lp(self, ds37, ds100):
        lp = train("lp", ds37)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            rakel = train("rakel", ds37, rakel_config=RakelConfig(k=29, m=1, threshold=0.5, seed=0))
        X = feature_matrix(ds100.series)
        assert predict_batch(rakel, X)[0].tolist() == predict_batch(lp, X)[0].tolist()

    def test_parallel_training_identical(self, ds37):
        cfg = RakelConfig(k=3, m=16, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            a = train("rakel", ds37, rakel_config=cfg, n_jobs=1)
            b = train("rakel", ds37, rakel_config=cfg, n_jobs=3)
        assert len(a.payload.members) == len(b.payload.members)
        for ma, mb in zip(a.payload.members, b.payload.members):
            assert ma.scope == mb.scope
            assert ma.classes == mb.classes
            assert tree_to_dict(ma.tree) == tree_to_dict(mb.tree)

    def test_votes_are_member_means(self, ds37):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LabelCoverageWarning)
            model = train("rakel", ds37, rakel_config=RakelConfig(k=3, m=12, seed=3))
        row = feature_matrix(ds37.series[:1])[0]
        bits, votes = predict_batch(model, row[None, :])
        bits, votes = bits[0].tolist(), votes[0].tolist()
        for j in range(model.n_labels):
            covering = [m for m in model.payload.members if j in m.scope]
            if not covering:
                assert votes[j] == 0.0
                continue
            hits = [
                1.0 if j in m.classes[leaf_label(m.tree, row)] else 0.0
                for m in covering
            ]
            assert votes[j] == pytest.approx(sum(hits) / len(hits))
            assert bits[j] == (1 if votes[j] > 0.5 else 0)


class TestConfigAndDispatch:
    def test_rakel_config_validation(self):
        with pytest.raises(ValidationError):
            RakelConfig(k=0)
        with pytest.raises(ValidationError):
            RakelConfig(m=0)
        with pytest.raises(ValidationError):
            RakelConfig(threshold=1.5)
        with pytest.raises(ValidationError):
            RakelConfig(threshold=-0.1)

    def test_gold_rejected_outside_real_history(self, ds37):
        model = train("majority", ds37)
        first = dataset_rows(ds37, [0])
        with pytest.raises(ValidationError, match="gold"):
            predict_batch(model, feature_matrix(first.series), first.label_matrix())

    def test_predict_record_chain_real_needs_labels(self, ds37, registry):
        model = train("chain-real", ds37)
        with pytest.raises(ValidationError, match="needs expert labels"):
            gold_matrix(model, Dataset(registry, (make_record(weeks=10),)))

    def test_predict_record_matches_predict(self, ds37):
        model = train("br", ds37)
        alone, _ = predict_batch(model, feature_matrix(ds37.series[5:6]))
        in_batch, _ = predict_batch(model, feature_matrix(ds37.series))
        assert alone.tolist() == in_batch[5:6].tolist()
