"""Corpus tooling: the over-segmentation simulator, a synthetic document
generator, dataset splitting and corpus statistics.

The chunker mimics OCR behaviour on scanned documents: paragraphs are
sampled with a configurable probability and cut into pieces, short ones
for headings and long ones for body text. The generator produces catalog
trees with learnable regularities (hierarchical numbering, sentence-final
punctuation, occasional un-numbered section titles) as a stand-in for a
manually annotated corpus. Both draw through ``_Draws`` from PCG64's raw
words, which NEP 19 keeps stable across numpy releases; ``Generator`` isn't.
"""
from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .jsonio import Document, SegmentStream, normalize_segment_text
from .metrics import format_table
from .tree import (
    MAX_DEPTH,
    CatalogNode,
    CatalogTree,
    NodeKind,
    Segment,
    flatten,
    iter_nodes,
    tree_depth,
)


class TooFewDocuments(Exception):
    """A split was requested over fewer than ten documents."""


class _Draws:
    """``np.random.default_rng(key)``'s ``integers`` and ``random``, bit for
    bit, from PCG64's raw words (read 64 at a time). A 32-bit draw takes a
    word's low half, the next one its high half; a double or a 64-bit draw
    takes a word of its own. A range of 1 draws nothing, one up to 2^32
    wide draws 32 bits, a wider one 64, through Lemire's bounded multiply
    with numpy's rejection step. A sized draw gives the stream of as many
    scalar draws. ``hi`` is at most 2^63, as for numpy's int64.
    """

    def __init__(self, *key: int) -> None:
        bits = np.random.PCG64(list(key))
        words = chain.from_iterable(iter(lambda: bits.random_raw(64).tolist(), None))
        self._word = words.__next__
        self._uint32 = (half for word in words for half in (word & 0xFFFFFFFF, word >> 32)).__next__

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, lo: int, hi: int | None = None, size: int | None = None):
        """An int in [lo, hi), or a list of ``size``; ``hi`` alone draws from [0, lo)."""
        if hi is None:
            lo, hi = 0, lo
        if size is None:
            return lo + self._below(hi - lo)
        return [lo + self._below(hi - lo) for _ in range(size)]

    def _below(self, n: int) -> int:
        if n == 1:
            return 0
        if n <= 1 << 32:
            m = self._uint32() * n
            if m & 0xFFFFFFFF >= n:  # the rejection step cannot apply
                return m >> 32
            return self._reject(m, n, 32, self._uint32)
        return self._reject(self._word() * n, n, 64, self._word)

    @staticmethod
    def _reject(m: int, n: int, bits: int, draw: Callable[[], int]) -> int:
        """Draw again while the product's low bits fall below 2^bits mod n."""
        mask, threshold = (1 << bits) - 1, (1 << bits) % n
        while m & mask < threshold:
            m = draw() * n
        return m >> bits


@dataclass
class ChunkConfig:
    chunk_probability: float = 0.5
    heading_piece_range: tuple[int, int] = (7, 20)
    text_piece_range: tuple[int, int] = (70, 100)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.chunk_probability <= 1.0:
            raise ValueError("chunk probability must lie in [0, 1]")
        for lo, hi in (self.heading_piece_range, self.text_piece_range):
            if not 1 <= lo <= hi:
                raise ValueError(f"piece range ({lo}, {hi}) must satisfy 1 <= lo <= hi")


def _safe_cut(rest: str, target: int, lo: int, hi: int) -> int | None:
    """Nudge a cut off a combining mark and off whitespace on either side,
    which reading a stream would strip: the clean cut nearest the target
    inside [lo, hi], else the first one past ``hi``, else None."""

    def clean(cut: int) -> bool:
        return not (
            unicodedata.combining(rest[cut]) or rest[cut].isspace() or rest[cut - 1].isspace()
        )

    if clean(target):
        return target
    for delta in range(1, hi):
        for cut in (target - delta, target + delta):
            if lo <= cut <= min(hi, len(rest) - 1) and clean(cut):
                return cut
    return next((cut for cut in range(hi + 1, len(rest)) if clean(cut)), None)


def _split_at_spaces(text: str, lo: int, hi: int, rng: _Draws) -> list[str]:
    """Cut whitespace-delimited text at single spaces only.

    The boundary space is dropped; the joiner restores it, so the pieces
    concatenate back to the original exactly, and no piece gains the
    edge whitespace reading a stream would strip. The cut lands on the
    nearest single space preceding the drawn target (or the next one
    after it when a long word is in the way), so piece lengths track the
    range without hard guarantees.
    """
    pieces: list[str] = []
    rest = text

    def single_space(j: int) -> bool:
        return rest[j] == " " and not rest[j - 1].isspace() and not rest[j + 1 : j + 2].isspace()

    while len(rest) > hi:
        target = rng.integers(lo, hi + 1)
        cut = next((j for j in range(target, 0, -1) if single_space(j)), None)
        if cut is None:
            cut = next((j for j in range(target, len(rest)) if single_space(j)), None)
            if cut is None:
                break
        pieces.append(rest[:cut])
        rest = rest[cut + 1 :]
    pieces.append(rest)
    return pieces


def _split_content(text: str, lo: int, hi: int, rng: _Draws, joiner: str) -> list[str]:
    """Cut text into pieces of target length lo..hi; the tail may be
    shorter, and is left whole where no clean cut remains."""
    if joiner == " ":
        return _split_at_spaces(text, lo, hi, rng)
    pieces: list[str] = []
    rest = text
    while len(rest) > hi:
        target = rng.integers(lo, hi + 1)
        cut = _safe_cut(rest, target, lo, hi)
        if cut is None:
            break
        pieces.append(rest[:cut])
        rest = rest[cut:]
    pieces.append(rest)
    return pieces


def chunk_document(
    tree: CatalogTree,
    cfg: ChunkConfig,
    joiner: str = "",
    doc_index: int = 0,
) -> tuple[list[Segment], CatalogTree]:
    """Cut a whole-paragraph tree into a segment stream plus its gold tree.

    Nodes are visited in document order; each is chunked with the
    configured probability. Headings and texts draw their split points
    from independent RNG streams derived from the seed (and the document
    index, so corpora chunk identically regardless of scheduling), which
    keeps one kind's splits stable when the other's range changes.
    Joining the emitted segments back with the joiner reproduces every
    node's content exactly.
    """
    rng_pick = _Draws(cfg.seed, doc_index, 0)
    rng_heading = _Draws(cfg.seed, doc_index, 1)
    rng_text = _Draws(cfg.seed, doc_index, 2)

    segments: list[Segment] = []

    def clone(node: CatalogNode) -> CatalogNode:
        if node.kind is NodeKind.ROOT:
            out = CatalogNode(kind=NodeKind.ROOT)
        else:
            if node.kind is NodeKind.HEADING:
                lo, hi = cfg.heading_piece_range
                rng = rng_heading
            else:
                lo, hi = cfg.text_piece_range
                rng = rng_text
            chunked = rng_pick.random() < cfg.chunk_probability
            pieces = (
                _split_content(node.content, lo, hi, rng, joiner)
                if chunked
                else [node.content]
            )
            first = len(segments)
            for k, piece in enumerate(pieces):
                segments.append(Segment(text=piece, index=first + k))
            out = CatalogNode(
                kind=node.kind,
                content=node.content,
                source_segments=list(range(first, first + len(pieces))),
            )
        out.children = [clone(child) for child in node.children]
        return out

    gold = CatalogTree(root=clone(tree.root))
    return segments, gold


def chunk_corpus(
    docs: Sequence[Document], cfg: ChunkConfig, joiner: str = ""
) -> tuple[list[SegmentStream], list[Document]]:
    """Chunk every document; returns (segment streams, gold documents)."""
    streams = []
    gold_docs = []
    for i, doc in enumerate(docs):
        segments, gold = chunk_document(doc.tree, cfg, joiner, doc_index=i)
        streams.append(SegmentStream(doc_id=doc.doc_id, segments=segments))
        gold_docs.append(Document(doc_id=doc.doc_id, source=doc.source, tree=gold))
    return streams, gold_docs


@dataclass
class GenConfig:
    doc_count: int = 100
    depth_range: tuple[int, int] = (2, 5)
    children_range: tuple[int, int] = (2, 4)
    numbered_fraction: float = 0.85
    text_length_range: tuple[int, int] = (60, 200)
    seed: int = 0
    texts_per_heading: tuple[int, int] = (1, 3)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # depth counts the pseudo root, so nodes sit at levels 1..hi-1
        if not 2 <= self.depth_range[0] <= self.depth_range[1] <= MAX_DEPTH + 1:
            raise ValueError(f"depth range must satisfy 2 <= lo <= hi <= {MAX_DEPTH + 1}")
        if self.doc_count < 0:
            raise ValueError("doc count must be >= 0")
        if not 0.0 <= self.numbered_fraction <= 1.0:
            raise ValueError("numbered fraction must lie in [0, 1]")
        for name, (lo, hi), least in (
            ("children range", self.children_range, 0),
            ("text length range", self.text_length_range, 1),
            ("texts per heading", self.texts_per_heading, 0),
        ):
            if not least <= lo <= hi < 2**63:
                raise ValueError(f"{name} ({lo}, {hi}) must satisfy {least} <= lo <= hi < 2^63")


# The chance that a generated heading is left without children, and the
# most nodes one generated tree holds.
LEAF_HEADING_FRACTION = 0.12
MAX_NODES = 450

_HEADING_WORDS = (
    "总则 概述 市场 分析 风险 管理 财务 状况 评级 报告 债务 情况 担保 公司 治理 "
    "监管 环境 行业 发展 前景 资金 投资 项目 建设 内容 要求 说明 范围 标准 方法 "
    "结论 附则 背景 目标 措施 安排 流程 审批 条件 期限 责任 义务 权利 变更 终止 "
    "评估 审计 披露 承诺 计划 经营 盈利 偿债 能力 结构 展望"
).split()

_TEXT_WORDS = (
    "公司 本期 报告期 年度 项目 资金 余额 规模 水平 能力 结构 比例 情况 整体 "
    "保持 稳定 持续 提升 显著 主要 重要 相关 符合 要求 规定 政策 市场 环境 "
    "影响 因素 变化 趋势 增长 下降 同比 亿元 万元 较快 明显 有所 进一步 逐步 "
    "基本 良好 较为 经营 收入 成本 利润 负债 资产 现金流 投资 风险 控制 管理层 "
    "披露 信息 数据 指标 期末 期初 合计 占比 下同 如下 所述 方面 措施 效果"
).split()

_CJK_DIGITS = "零一二三四五六七八九"


def _cjk_number(n: int) -> str:
    if n < 10:
        return _CJK_DIGITS[n]
    if n < 20:
        return "十" + (_CJK_DIGITS[n % 10] if n % 10 else "")
    tens, ones = divmod(n, 10)
    return _CJK_DIGITS[tens] + "十" + (_CJK_DIGITS[ones] if ones else "")


def _clause(rng: _Draws) -> str:
    count = rng.integers(3, 8)
    return "".join([_TEXT_WORDS[i] for i in rng.integers(len(_TEXT_WORDS), size=count)])


def _sentence(rng: _Draws) -> str:
    # Long comma-joined sentences keep sentence boundaries sparse, the
    # way body prose in reports reads.
    clauses = [_clause(rng) for _ in range(rng.integers(2, 5))]
    ending = "。" if rng.random() < 0.85 else ("！" if rng.random() < 0.5 else "？")
    return "，".join(clauses) + ending


def _paragraph(rng: _Draws, lo: int, hi: int) -> str:
    target = rng.integers(lo, hi + 1)
    out = _sentence(rng)
    while len(out) < target:
        out += _sentence(rng)
    return out


def _title(rng: _Draws, long_ok: bool) -> str:
    count = rng.integers(4, 9) if long_ok and rng.random() < 0.25 else rng.integers(1, 4)
    return "".join([_HEADING_WORDS[i] for i in rng.integers(len(_HEADING_WORDS), size=count)])


def _heading_prefix(style: str, level: int, path: tuple[int, ...]) -> str:
    if style == "cjk":
        ordinal = _cjk_number(path[-1])
        if level == 1:
            return f"第{ordinal}章 "
        if level == 2:
            return f"第{ordinal}节 "
        if level == 3:
            return f"第{ordinal}条 "
        return f"({ordinal}) "
    return ".".join(str(p) for p in path) + ("." if level == 1 else "") + " "


def generate_synthetic(cfg: GenConfig) -> list[CatalogTree]:
    """Generate catalog trees with learnable structure.

    Headings mostly carry hierarchical numbering consistent with their
    depth. A configurable share are plain titles whose absolute depth
    varies from document to document; they never have heading children
    and sit between a section's body text and its numbered subsections,
    the way unnumbered interludes appear in reports. Within any node the
    body text precedes heading children. Body paragraphs are built from
    long comma-joined sentences ending with terminal punctuation, and
    roughly a quarter of headings are leaves. Each document draws from its
    own PCG64 stream, whose raw words NEP 19 keeps stable (see ``_Draws``).
    """
    trees = []
    for doc_index in range(cfg.doc_count):
        rng = _Draws(cfg.seed, doc_index)
        trees.append(_generate_tree(rng, cfg))
    return trees


def _generate_tree(rng: _Draws, cfg: GenConfig) -> CatalogTree:
    # Depth counts the pseudo root as a level, so nodes may sit at levels
    # 1..depth-1; numbered headings stop one level short of that so their
    # texts fit.
    depth = rng.integers(cfg.depth_range[0], cfg.depth_range[1] + 1)
    max_level = depth - 1
    deepest_heading = max(1, max_level - 1)
    style = "cjk" if rng.random() < 0.4 else "arabic"
    budget = {"left": MAX_NODES}
    plain_share = 1.0 - cfg.numbered_fraction

    def texts(parent: CatalogNode, at_most: int | None = None) -> None:
        lo, hi = cfg.texts_per_heading
        count = rng.integers(lo, hi + 1)
        if at_most is not None:
            count = min(count, at_most)
        count = min(count, budget["left"])
        for _ in range(count):
            budget["left"] -= 1
            parent.children.append(
                CatalogNode(
                    kind=NodeKind.TEXT,
                    content=_paragraph(rng, *cfg.text_length_range),
                )
            )

    def plain_headings(parent: CatalogNode, level: int, rate: float) -> None:
        """Un-numbered subsections; text children only, never under the root."""
        if level > max_level or rng.random() >= min(1.0, rate * plain_share):
            return
        for _ in range(1 if rng.random() < 0.7 else 2):
            if budget["left"] <= 0:
                return
            budget["left"] -= 1
            node = CatalogNode(kind=NodeKind.HEADING, content=_title(rng, long_ok=False))
            parent.children.append(node)
            if level < max_level and rng.random() >= LEAF_HEADING_FRACTION:
                texts(node)

    def headings(parent: CatalogNode, level: int, path: tuple[int, ...]) -> None:
        count = rng.integers(cfg.children_range[0], cfg.children_range[1] + 1)
        for ordinal in range(1, count + 1):
            if budget["left"] <= 0:
                return
            budget["left"] -= 1
            content = _heading_prefix(style, level, path + (ordinal,)) + _title(
                rng, long_ok=True
            )
            node = CatalogNode(kind=NodeKind.HEADING, content=content)
            parent.children.append(node)
            if max_level == 1:
                continue
            if rng.random() < LEAF_HEADING_FRACTION:
                continue
            if level >= deepest_heading:
                texts(node)
                plain_headings(node, level + 1, rate=1.2)
            else:
                if rng.random() < 0.6:
                    texts(node, at_most=2)
                plain_headings(node, level + 1, rate=2.5)
                headings(node, level + 1, path + (ordinal,))

    tree = CatalogTree.empty()
    budget["left"] -= 1
    headings(tree.root, 1, ())
    if not tree.root.children:
        tree.root.children.append(
            CatalogNode(
                kind=NodeKind.HEADING,
                content=_heading_prefix(style, 1, (1,)) + _title(rng, long_ok=False),
            )
        )
    return tree


def generate_corpus(cfg: GenConfig, source: str = "synthetic") -> list[Document]:
    """Generated trees wrapped as documents with trivial segmentation.

    Every node is assigned a single source segment in document order, so
    the output is valid corpus input as-is; chunking reassigns segments.
    """
    docs = []
    width = max(4, len(str(max(cfg.doc_count - 1, 0))))
    for i, tree in enumerate(generate_synthetic(cfg)):
        assign_trivial_segments(tree)
        docs.append(
            Document(doc_id=f"{source}-{i:0{width}d}", source=source, tree=tree)
        )
    return docs


def assign_trivial_segments(tree: CatalogTree) -> None:
    """Give every non-root node one source segment, numbered in order."""
    index = 0
    for node, _ in iter_nodes(tree):
        node.source_segments = [index]
        index += 1


def segments_of(tree: CatalogTree, joiner: str = "") -> list[Segment]:
    """Recover the segment stream of a trivially segmented tree.

    Each node that owns a segment gives its content as one, numbered in
    pre-order and read as ``read_streams`` reads a stream's texts; the
    oracle round trip decides whether the tree fits that stream.
    Multi-piece nodes need the original stream file.
    """
    owners = [node for node, _ in iter_nodes(tree) if node.source_segments]
    if any(len(node.source_segments) > 1 for node in owners):
        raise ValueError(
            "segment texts are not recoverable from a multi-piece node; "
            "provide the segment stream file"
        )
    return [
        Segment(text=normalize_segment_text(node.content, joiner), index=i)
        for i, node in enumerate(owners)
    ]


def split_corpus(
    docs: Sequence[Document],
    ratios: tuple[int, int, int] = (8, 1, 1),
    seed: int = 0,
) -> tuple[list[Document], list[Document], list[Document]]:
    """Shuffle and split into train/dev/test by the given ratios."""
    if len(docs) < 10:
        raise TooFewDocuments(f"need at least 10 documents, got {len(docs)}")
    total = sum(ratios)
    n = len(docs)
    n_dev = round(n * ratios[1] / total)
    n_test = round(n * ratios[2] / total)
    n_train = n - n_dev - n_test
    if n_train <= 0:
        raise TooFewDocuments("split ratios leave no training documents")
    order = np.random.default_rng(seed).permutation(n)
    train = [docs[i] for i in order[:n_train]]
    dev = [docs[i] for i in order[n_train : n_train + n_dev]]
    test = [docs[i] for i in order[n_train + n_dev :]]
    return train, dev, test


@dataclass
class SourceStats:
    source: str
    docs: int = 0
    avg_length: float = 0.0
    avg_heading_nodes: float = 0.0
    avg_text_nodes: float = 0.0
    avg_total_nodes: float = 0.0
    avg_depth: float = 0.0


def corpus_stats(docs: Sequence[Document]) -> list[SourceStats]:
    """Per-source averages plus a total row.

    Depth counts the pseudo root as a level: a heading with one text
    child sits in a depth-3 document. Length counts content characters.
    """
    groups: dict[str, list[Document]] = {}
    for doc in docs:
        groups.setdefault(doc.source, []).append(doc)

    def row(name: str, members: Sequence[Document]) -> SourceStats:
        if not members:
            return SourceStats(source=name)
        lengths, headings, texts, totals, depths = [], [], [], [], []
        for doc in members:
            tuples = flatten(doc.tree)
            lengths.append(sum(len(t.content) for t in tuples))
            headings.append(sum(1 for t in tuples if t.kind is NodeKind.HEADING))
            texts.append(sum(1 for t in tuples if t.kind is NodeKind.TEXT))
            totals.append(len(tuples))
            depths.append(tree_depth(doc.tree))
        n = len(members)
        averages = (sum(v) / n for v in (lengths, headings, texts, totals, depths))
        return SourceStats(name, n, *averages)

    rows = [row(source, groups[source]) for source in sorted(groups)]
    rows.append(row("total", list(docs)))
    return rows


def format_stats(rows: Sequence[SourceStats]) -> str:
    header = ("source", "docs", "avg.len", "avg.heading", "avg.text", "avg.total", "avg.depth")
    averages = ("avg_length", "avg_heading_nodes", "avg_text_nodes", "avg_total_nodes", "avg_depth")
    return format_table(
        [header]
        + [(r.source, str(r.docs), *(f"{getattr(r, a):.2f}" for a in averages)) for r in rows]
    )
