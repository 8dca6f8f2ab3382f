"""Storage patterns and the JSON interchange format."""

import json
import random

import numpy as np
import pytest

from conftest import random_pattern
from gxstplc.demos import GRAPH_FOURTEEN, GRAPH_SIX, UNEVEN_SEVEN
from gxstplc.errors import MalformedPattern
from gxstplc.pattern import (
    MessageSet,
    StoragePattern,
    load_pattern,
    min_replication_slack,
    pattern_from_dict,
    pattern_to_dict,
    save_pattern,
)


class TestValidation:
    def test_servers_sorted_on_construction(self):
        assert MessageSet((4, 1, 2)).servers == (1, 2, 4)

    def test_duplicate_server_rejected(self):
        with pytest.raises(ValueError):
            MessageSet((1, 1, 2))

    def test_zero_server_rejected(self):
        with pytest.raises(ValueError):
            MessageSet((0, 1))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            MessageSet(())

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            MessageSet((1,), 0)

    def test_server_beyond_range_rejected(self):
        with pytest.raises(ValueError):
            StoragePattern(3, (MessageSet((1, 4)),))

    def test_no_sets_rejected(self):
        with pytest.raises(ValueError):
            StoragePattern(3, ())

    @pytest.mark.parametrize("build", [
        lambda: MessageSet((1.0, 2, 3)),
        lambda: MessageSet((1, 2, 3), count=1.5),
        lambda: StoragePattern(3.5, (MessageSet((1, 2, 3)),)),
    ], ids=["float-server-id", "float-count", "float-server-count"])
    def test_floats_rejected(self, build):
        # before, a float count even reached a capacity; the other two
        # failed later with a bare TypeError or IndexError
        with pytest.raises(TypeError):
            build()

    def test_integer_likes_stored_as_ints(self):
        p = StoragePattern(np.int64(4), (MessageSet((np.int64(3), 1), count=np.int64(2)),))
        assert p == StoragePattern(4, (MessageSet((1, 3), 2),))
        assert {type(v) for v in (p.n_servers, p.count_of(1), *p.servers_of(1))} == {int}

    @pytest.mark.parametrize("doc", [
        {"servers": True, "message_sets": [{"servers": [1]}]},
        {"servers": 2, "message_sets": [{"servers": [True, 2]}]},
        {"servers": 2, "message_sets": [{"servers": [1, 2], "count": False}]},
    ], ids=["bool-server-count", "bool-server-id", "bool-count"])
    def test_documents_reject_bools(self, doc):
        with pytest.raises(MalformedPattern):
            pattern_from_dict(doc)

    def test_accessors(self):
        p = StoragePattern(5, (MessageSet((1, 2), 3), MessageSet((2, 4, 5), 1)))
        assert p.m_count == 2
        assert p.servers_of(1) == (1, 2)
        assert p.servers_of(2) == (2, 4, 5)
        assert p.count_of(1) == 3
        assert p.replication_factors == (2, 3)
        assert p.counts == (3, 1)


class TestSlack:
    def test_examples(self):
        assert min_replication_slack(GRAPH_SIX, 1, 1) == 1
        assert min_replication_slack(GRAPH_FOURTEEN, 1, 1) == 2
        assert min_replication_slack(GRAPH_SIX, 2, 2) == -1

    def test_random_consistency(self):
        rng = random.Random(2202)
        for _ in range(40):
            x = rng.randint(0, 2)
            t = rng.randint(0, 2)
            p = random_pattern(rng, x=x, t=t)
            assert min_replication_slack(p, x, t) >= 1


class TestJson:
    def test_to_dict_shape(self):
        doc = pattern_to_dict(GRAPH_SIX)
        assert doc["servers"] == 6
        assert doc["message_sets"][0] == {"servers": [1, 2, 3, 5], "count": 2}

    def test_dict_roundtrip(self):
        for p in (UNEVEN_SEVEN, GRAPH_SIX, GRAPH_FOURTEEN):
            assert pattern_from_dict(pattern_to_dict(p)) == p

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "pattern.json"
        save_pattern(GRAPH_FOURTEEN, path)
        assert load_pattern(path) == GRAPH_FOURTEEN
        # the file is plain JSON, readable without this package
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["servers"] == 14

    def test_load_accepts_mapping(self):
        doc = {"servers": 2, "message_sets": [{"servers": [1, 2]}]}
        p = load_pattern(doc)
        assert p.count_of(1) == 1

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            pattern_from_dict({"servers": 2})
        with pytest.raises(ValueError):
            pattern_from_dict({"message_sets": []})
        with pytest.raises(ValueError):
            pattern_from_dict({"servers": 2, "message_sets": [{"count": 1}]})
        with pytest.raises(ValueError):
            pattern_from_dict(
                {"servers": 2, "message_sets": [{"servers": [1, 1]}]}
            )
