import pytest

from catparse.corpus import (
    ChunkConfig,
    GenConfig,
    SourceStats,
    TooFewDocuments,
    assign_trivial_segments,
    chunk_corpus,
    chunk_document,
    corpus_stats,
    format_stats,
    generate_corpus,
    generate_synthetic,
    segments_of,
    split_corpus,
)
from catparse.engine import oracle_actions
from catparse.jsonio import Document
from catparse.tree import Action, NodeKind, flatten, join_content, validate_tree

from .conftest import heading, node_count, text, tree_of, walkthrough_tree


def one_node_doc(content: str, kind=NodeKind.TEXT):
    if kind is NodeKind.TEXT:
        return tree_of(heading("h", [], text(content, [])))
    return tree_of(heading(content, []))


class TestChunker:
    def test_p_zero_one_segment_per_node(self):
        tree = walkthrough_tree()
        segments, gold = chunk_document(tree, ChunkConfig(chunk_probability=0.0, seed=1))
        assert len(segments) == len(flatten(tree))
        actions = oracle_actions(gold)
        assert all(a is not Action.CONCAT for a, _ in actions)

    def test_heading_pieces_stay_in_range(self):
        content = "招标公告文件编制说明与要求"  # 13 chars
        tree = tree_of(heading(content * 3, []))
        cfg = ChunkConfig(chunk_probability=1.0, heading_piece_range=(7, 20), seed=5)
        segments, gold = chunk_document(tree, cfg)
        assert len(segments) > 1
        for segment in segments[:-1]:
            assert 7 <= len(segment.text) <= 20
        assert len(segments[-1].text) <= 20

    def test_content_preserved_exactly(self):
        trees = generate_synthetic(GenConfig(doc_count=10, seed=2))
        for i, tree in enumerate(trees):
            cfg = ChunkConfig(chunk_probability=1.0, seed=i)
            segments, gold = chunk_document(tree, cfg)
            joined = "".join(s.text for s in segments)
            original = "".join(t.content for t in flatten(tree))
            assert joined == original
            validate_tree(gold, segments)

    def test_space_joiner_prefers_word_boundaries(self):
        content = "one two three four five six seven eight nine ten eleven"
        tree = tree_of(heading("h", [], text(content, [])))
        cfg = ChunkConfig(
            chunk_probability=1.0, text_piece_range=(10, 14), seed=3
        )
        segments, gold = chunk_document(tree, cfg, joiner=" ")
        rebuilt = ""
        for segment in segments[1:]:  # segment 0 is the heading
            rebuilt = join_content(rebuilt, segment.text, " ")
        assert rebuilt == content

    def test_chunked_fraction_near_half(self):
        # long paragraphs always split when sampled, so piece count reveals
        # the draw
        para = "字" * 160
        tree = tree_of(heading("目录", []))
        tree.root.children[0].children = [text(para, []) for _ in range(1000)]
        cfg = ChunkConfig(chunk_probability=0.5, seed=11)
        segments, gold = chunk_document(tree, cfg)
        chunked = sum(
            1
            for node, _ in [(n, l) for n, l in _iter(gold) if n.kind is NodeKind.TEXT]
            if len(node.source_segments) > 1
        )
        assert 450 <= chunked <= 550

    def test_same_seed_same_output(self):
        tree = walkthrough_tree()
        cfg = ChunkConfig(chunk_probability=0.7, seed=9)
        a = chunk_document(tree, cfg)
        b = chunk_document(tree, cfg)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_heading_and_text_streams_independent(self):
        tree = tree_of(
            heading("招标公告文件编制说明与要求补充材料", []),
            heading("h2", [], text("字" * 200, [])),
        )
        base = ChunkConfig(chunk_probability=1.0, seed=4)
        widened = ChunkConfig(
            chunk_probability=1.0, text_piece_range=(80, 90), seed=4
        )
        a_segments, a_gold = chunk_document(tree, base)
        b_segments, b_gold = chunk_document(tree, widened)
        a_heading = a_gold.root.children[0].source_segments
        b_heading = b_gold.root.children[0].source_segments
        a_pieces = [a_segments[i].text for i in a_heading]
        b_pieces = [b_segments[i].text for i in b_heading]
        assert a_pieces == b_pieces

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChunkConfig(chunk_probability=1.5)
        with pytest.raises(ValueError):
            ChunkConfig(heading_piece_range=(0, 5))
        with pytest.raises(ValueError):
            ChunkConfig(text_piece_range=(9, 3))


def _iter(tree):
    from catparse.tree import iter_nodes

    return iter_nodes(tree)


class TestGenerator:
    def test_same_seed_identical_corpora(self):
        cfg = GenConfig(doc_count=8, seed=13)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_depth_two_stays_shallow(self):
        for tree in generate_synthetic(GenConfig(doc_count=10, depth_range=(2, 2), seed=1)):
            levels = {t.level for t in flatten(tree)}
            assert levels <= {1, 2}

    def test_all_trees_valid(self):
        for tree in generate_synthetic(GenConfig(doc_count=30, seed=21)):
            validate_tree(tree)

    def test_headings_are_numbered_or_short_plain(self):
        trees = generate_synthetic(GenConfig(doc_count=50, seed=3))
        plain = numbered = 0
        for tree in trees:
            for t in flatten(tree):
                if t.kind is NodeKind.HEADING:
                    if any(ch.isdigit() or ch in "第一二三四五六七八九十" for ch in t.content[:3]):
                        numbered += 1
                    else:
                        plain += 1
        assert numbered > plain > 0

    def test_leaf_heading_share_near_quarter(self):
        leaves = total = 0
        for tree in generate_synthetic(GenConfig(doc_count=60, depth_range=(3, 5), seed=17)):
            for node, _ in _iter(tree):
                if node.kind is NodeKind.HEADING:
                    total += 1
                    leaves += not node.children
        share = leaves / total
        assert 0.12 <= share <= 0.40

    def test_texts_end_with_terminal_punctuation(self):
        for tree in generate_synthetic(GenConfig(doc_count=5, seed=2)):
            for t in flatten(tree):
                if t.kind is NodeKind.TEXT:
                    assert t.content[-1] in "。！？"

    def test_node_budget_respected(self):
        for tree in generate_synthetic(
            GenConfig(doc_count=10, depth_range=(6, 6), children_range=(4, 5), seed=5)
        ):
            assert node_count(tree) <= 450

    def test_corpus_wrapper_assigns_trivial_segments(self):
        docs = generate_corpus(GenConfig(doc_count=3, seed=1), source="unit")
        assert [d.doc_id for d in docs] == ["unit-0000", "unit-0001", "unit-0002"]
        for doc in docs:
            segments = segments_of(doc.tree)
            validate_tree(doc.tree, segments)

    def test_segments_of_rejects_multipiece_nodes(self):
        tree = tree_of(heading("ab", [0, 1]))
        with pytest.raises(ValueError):
            segments_of(tree)


class TestSplit:
    def make_docs(self, n):
        return [
            Document(doc_id=f"d{i}", source="s", tree=walkthrough_tree())
            for i in range(n)
        ]

    def test_650_splits_520_65_65(self):
        train, dev, test = split_corpus(self.make_docs(650), seed=1)
        assert (len(train), len(dev), len(test)) == (520, 65, 65)

    def test_ten_docs(self):
        train, dev, test = split_corpus(self.make_docs(10), seed=1)
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_deterministic_and_disjoint(self):
        docs = self.make_docs(30)
        a = split_corpus(docs, seed=4)
        b = split_corpus(docs, seed=4)
        assert [[d.doc_id for d in part] for part in a] == [
            [d.doc_id for d in part] for part in b
        ]
        ids = [d.doc_id for part in a for d in part]
        assert len(ids) == len(set(ids)) == 30

    def test_too_few(self):
        with pytest.raises(TooFewDocuments):
            split_corpus(self.make_docs(9))


class TestStats:
    def test_single_doc_depth_three(self):
        doc = Document(
            doc_id="d",
            source="unit",
            tree=tree_of(heading("h", [0], text("tt", [1]))),
        )
        rows = corpus_stats([doc])
        assert rows[0].avg_depth == 3.0
        assert rows[0].avg_heading_nodes == 1.0
        assert rows[0].avg_text_nodes == 1.0
        assert rows[0].avg_length == 3.0

    def test_walkthrough_node_counts(self):
        doc = Document(doc_id="d", source="unit", tree=walkthrough_tree())
        rows = corpus_stats([doc])
        assert rows[0].avg_heading_nodes == 3.0
        assert rows[0].avg_text_nodes == 2.0
        assert rows[0].avg_total_nodes == 5.0

    def test_empty_corpus_is_zeros(self):
        rows = corpus_stats([])
        assert rows == [SourceStats(source="total")]

    def test_groups_by_source_plus_total(self):
        docs = [
            Document(doc_id="a", source="x", tree=walkthrough_tree()),
            Document(doc_id="b", source="y", tree=walkthrough_tree()),
        ]
        rows = corpus_stats(docs)
        assert [r.source for r in rows] == ["x", "y", "total"]
        assert rows[-1].docs == 2

    def test_format_stats_table(self):
        docs = [Document(doc_id="a", source="x", tree=walkthrough_tree())]
        table = format_stats(corpus_stats(docs))
        assert table.splitlines()[0].startswith("source")
        assert "total" in table


def test_chunk_corpus_pairs_streams_with_gold():
    docs = generate_corpus(GenConfig(doc_count=4, seed=6))
    streams, gold_docs = chunk_corpus(docs, ChunkConfig(seed=6))
    assert [s.doc_id for s in streams] == [d.doc_id for d in gold_docs]
    for stream, gdoc in zip(streams, gold_docs):
        validate_tree(gdoc.tree, stream.segments)
        assert [s.index for s in stream.segments] == list(range(len(stream.segments)))
