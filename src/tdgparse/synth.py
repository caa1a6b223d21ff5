"""Synthetic news-like corpora with content-type-driven gold structure.

Each sentence draws a discourse content type; its tokens carry one lexical
cue token derived from that type, one token per mention, and sampled noise
tokens that dilute the cue. Gold parents are sampled per content type
(defaults follow the observed per-type distributions: historical sentences
favor non-DCT timex parents and same-sentence event anchors; everything else
leans on the DCT). A hidden temporal permutation orders all mentions, and
timex->timex / event->event parents are always drawn from strictly earlier
mentions, so generated gold graphs are acyclic by construction. Output is a
pure function of (config, seed).

A numpy call costs microseconds whatever it draws, so three draws are one
call each: a document's sentence types (a uniform draw per sentence,
searched in the content-weight CDF as ``rng.choice`` searches it), a
sentence's mention kinds (``rng.random(k)``) and its noise tokens
(``rng.integers`` with ``size``). numpy fills an array with the draws, in the
order, that one scalar call per value makes and leaves the generator in the
same state, so every corpus keeps its bytes; tests/test_synth.py pins them.
A mention's token and the noise count stay scalar calls: a call with array
bounds, which could draw them together, costs more than the three or four
scalar calls it would replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from sys import intern

import numpy as np

from .corpus import (
    DCT,
    EVENT,
    EVENT_REF,
    MAX_COUNT,
    NO_EVENT,
    ROOT,
    TIMEX,
    TIMEX_REF,
    ContentType,
    Corpus,
    Document,
    DpLabelMap,
    GoldEdge,
    Mention,
    Sentence,
    SlotShare,
    json_field,
)

# (P(DCT), P(ROOT)) per content type; the rest goes to an earlier timex.
DEFAULT_TIMEX_PARENT_PROBS: dict[str, tuple[float, float]] = {
    "M1": (0.865, 0.085),
    "M2": (0.889, 0.044),
    "C1": (0.819, 0.090),
    "C2": (0.798, 0.146),
    "D1": (0.309, 0.661),
    "D2": (1.000, 0.000),
    "D3": (0.888, 0.088),
    "D4": (0.884, 0.109),
    "NA": (0.667, 0.250),
}

# (P(DCT), P(same-sentence timex)) per content type; the rest crosses sentences.
DEFAULT_EVENT_TIMEX_PROBS: dict[str, tuple[float, float]] = {
    "M1": (0.584, 0.304),
    "M2": (0.601, 0.175),
    "C1": (0.543, 0.287),
    "C2": (0.636, 0.171),
    "D1": (0.344, 0.523),
    "D2": (0.735, 0.060),
    "D3": (0.808, 0.071),
    "D4": (0.756, 0.158),
    "NA": (0.690, 0.200),
}

DEFAULT_CONTENT_WEIGHTS: dict[str, float] = {
    "M1": 0.16, "M2": 0.05, "C1": 0.14, "C2": 0.20, "D1": 0.11,
    "D2": 0.03, "D3": 0.11, "D4": 0.10, "NA": 0.10,
}


def cue_token(content_type: ContentType) -> str:
    """The deterministic lexical cue a sentence of this type always carries."""
    return f"cue-{content_type.value.lower()}"


@dataclass
class SynthConfig:
    n_docs: int = 20
    sentences_per_doc: tuple[int, int] = (3, 6)
    mentions_per_sentence: tuple[int, int] = (1, 3)
    timex_share: float = 0.35
    content_weights: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CONTENT_WEIGHTS))
    timex_parent_probs: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_TIMEX_PARENT_PROBS))
    event_timex_probs: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_EVENT_TIMEX_PROBS))
    refevent_prob: float = 0.5
    refevent_intra_prob: float = 0.35
    refevent_content_affinity: float = 0.7
    noise_vocab_size: int = 60
    noise_tokens_per_sentence: tuple[int, int] = (2, 5)
    event_vocab_size: int = 40
    timex_vocab_size: int = 20

    def __post_init__(self) -> None:
        for name in ("n_docs", "noise_vocab_size", "event_vocab_size", "timex_vocab_size"):
            if not 1 <= json_field(vars(self), name, int) <= MAX_COUNT:
                raise ValueError(f"{name} must lie in [1, {MAX_COUNT}]")
        for name in ("sentences_per_doc", "mentions_per_sentence",
                     "noise_tokens_per_sentence"):
            bounds = json_field(vars(self), name, list, "", int)
            if len(bounds) != 2:
                raise ValueError(f"{name} must be a [low, high] pair, not {list(bounds)}")
            lo, hi = bounds
            setattr(self, name, (lo, hi))  # a JSON config gives a list
            if not 0 <= lo <= hi <= MAX_COUNT:
                raise ValueError(f"{name} range ({lo}, {hi}) is infeasible in [0, {MAX_COUNT}]")
        if self.sentences_per_doc[0] < 1:
            raise ValueError("documents need at least one sentence")
        if not 0.0 <= json_field(vars(self), "timex_share", float) <= 1.0:
            raise ValueError("timex_share must be a probability")
        tags = set(DEFAULT_CONTENT_WEIGHTS)
        for name in ("content_weights", "timex_parent_probs", "event_timex_probs"):
            if set(json_field(vars(self), name, dict)) != tags:
                raise ValueError(f"{name} must cover exactly the nine types")
        weights = [json_field(self.content_weights, tag, float, "content_weights")
                   for tag in sorted(tags)]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("content_weights must be non-negative with positive sum")
        for name in ("timex_parent_probs", "event_timex_probs"):
            table = getattr(self, name)
            for tag in table:
                pair = json_field(table, tag, list, name, float)
                if len(pair) != 2:
                    raise ValueError(f"{name}[{tag}] must be a pair of probabilities, "
                                     f"not {list(pair)}")
                p1, p2 = pair
                if p1 < 0 or p2 < 0 or p1 + p2 > 1.0 + 1e-12:
                    raise ValueError(f"{name}[{tag}] = ({p1}, {p2}) is not a "
                                     "sub-probability pair")
            setattr(self, name, {tag: tuple(pair) for tag, pair in table.items()})
        for name in ("refevent_prob", "refevent_intra_prob",
                     "refevent_content_affinity"):
            if not 0.0 <= json_field(vars(self), name, float) <= 1.0:
                raise ValueError(f"{name} must be a probability")

    @classmethod
    def from_json(cls, obj: dict) -> "SynthConfig":
        return cls(**obj)


def _randint(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def _pick(rng: np.random.Generator, items: list):
    return items[int(rng.integers(0, len(items)))]


def generate_synthetic_corpus(config: SynthConfig,
                              seed: int) -> tuple[Corpus, DpLabelMap]:
    """Generate a corpus plus total discourse labels, deterministically."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tags = sorted(config.content_weights)
    weights = np.array([config.content_weights[t] for t in tags], dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()  # as rng.choice(..., p=weights) builds it
    cdf /= cdf[-1]

    # every token, mention id and slot is one shared object per value
    share: SlotShare = {}
    cues = {ct: cue_token(ct) for ct in ContentType}
    mention_tokens = {TIMEX: [f"tx{i}" for i in range(config.timex_vocab_size)],
                      EVENT: [f"ev{i}" for i in range(config.event_vocab_size)]}
    noise = [f"n{i}" for i in range(config.noise_vocab_size)]

    docs: list[Document] = []
    labels: DpLabelMap = {}
    for doc_i in range(config.n_docs):
        doc_id = f"synth-{doc_i:04d}"
        n_sents = _randint(rng, config.sentences_per_doc)
        sent_types = [ContentType(tags[i])
                      for i in cdf.searchsorted(rng.random(n_sents), side="right").tolist()]

        # mentions first, so sentence token layout is known before edges
        mentions: list[Mention] = []
        sent_members: list[list[Mention]] = [[] for _ in range(n_sents)]
        n_t = n_e = 0
        for s in range(n_sents):
            k = _randint(rng, config.mentions_per_sentence)
            for is_timex in (rng.random(k) < config.timex_share).tolist():
                if is_timex:
                    n_t += 1
                    kind, mid = TIMEX, intern(f"t{n_t}")
                else:
                    n_e += 1
                    kind, mid = EVENT, intern(f"e{n_e}")
                pos = 1 + len(sent_members[s])  # cue token sits at position 0
                m = Mention(mid, kind, s, pos, pos + 1)
                mentions.append(m)
                sent_members[s].append(m)

        sentences: list[Sentence] = []
        for s in range(n_sents):
            tokens = [cues[sent_types[s]]]
            for m in sent_members[s]:
                pool = mention_tokens[m.kind]
                tokens.append(pool[int(rng.integers(0, len(pool)))])
            n_noise = _randint(rng, config.noise_tokens_per_sentence)
            tokens += [noise[i] for i in rng.integers(0, len(noise), size=n_noise).tolist()]
            sentences.append(Sentence(s, tuple(tokens)))

        # hidden temporal order; parents within a kind are always earlier,
        # which rules out cycles
        order = {m.id: int(r) for m, r in zip(mentions, rng.permutation(len(mentions)))}
        timexes = [m for m in mentions if m.kind == TIMEX]
        events = [m for m in mentions if m.kind == EVENT]

        edges: list[GoldEdge] = []
        for m in timexes:
            p_dct, p_root = config.timex_parent_probs[sent_types[m.sentence].value]
            earlier = [t for t in timexes if order[t.id] < order[m.id]]
            u = rng.random()
            if u < p_dct:
                parent = DCT
            elif u < p_dct + p_root:
                parent = ROOT
            elif earlier:
                parent = _pick(rng, earlier).id
            else:
                parent = DCT  # no earlier timex exists to reference
            edges.append(GoldEdge(m.id, TIMEX_REF, parent))

        for m in events:
            p_dct, p_intra = config.event_timex_probs[sent_types[m.sentence].value]
            same = [t for t in timexes if t.sentence == m.sentence]
            other = [t for t in timexes if t.sentence != m.sentence]
            u = rng.random()
            if u < p_dct:
                parent = DCT
            elif u < p_dct + p_intra:
                parent = _pick(rng, same).id if same else DCT
            else:
                parent = _pick(rng, other).id if other else DCT
            edges.append(GoldEdge(m.id, TIMEX_REF, parent))

            earlier = [e for e in events if order[e.id] < order[m.id]]
            parent = NO_EVENT
            if earlier and rng.random() < config.refevent_prob:
                intra = [e for e in earlier if e.sentence == m.sentence]
                cross = [e for e in earlier if e.sentence != m.sentence]
                if intra and rng.random() < config.refevent_intra_prob:
                    parent = _pick(rng, intra).id
                elif cross:
                    child_type = sent_types[m.sentence]
                    akin = [e for e in cross
                            if sent_types[e.sentence] == child_type
                            or sent_types[e.sentence] == ContentType.C2]
                    if akin and rng.random() < config.refevent_content_affinity:
                        parent = _pick(rng, akin).id
                    else:
                        parent = _pick(rng, cross).id
                elif intra:
                    parent = _pick(rng, intra).id
            edges.append(GoldEdge(m.id, EVENT_REF, parent))

        dct = (f"{2020 + int(rng.integers(0, 3))}-"
               f"{1 + int(rng.integers(0, 12)):02d}-"
               f"{1 + int(rng.integers(0, 28)):02d}")
        docs.append(Document(id=doc_id, dct=dct, sentences=sentences,
                             mentions=mentions, gold_edges=edges, share=share))
        for s in range(n_sents):
            labels[(doc_id, s)] = sent_types[s]
    return docs, labels
