"""Full model assembly: parameter construction, forward pipelines, the joint
loss, prediction, freeze plans, and checkpoint round-trips.

Both training stages and prediction share one forward, ``_forward``: encode n
sentences in one pass, padded to the longest, then aggregate within each group
of s consecutive sentences. Stage-1 training concatenates groups of sentences
in different languages through the cross-sentence aggregator and trains
everything jointly.

Stage 2 freezes the encoder and the aggregator, so their output for a
sentence never changes during the stage. ``frozen_prefix`` computes it once
per training sentence, as a table: each sentence's encoder [CLS] row and its
real aggregator rows, packed back to back. It runs ``_forward`` over
sentences of one exact length at a time, so no PAD is involved, and over at
most a batch's worth of them per pass, which bounds the pass's activations.
On the benchmark corpus (seed 101) the table holds 10,032 rows for 1,074
sentences, 5.7 MB of float64 at d = 64 with the [CLS] rows. A stage-2 step gathers its
sentences' rows from the table and runs the switcher's training mix and the
entity scorers over those real rows only; the entity cross entropy alone
lays the scores out padded, with NEG_INF off each sentence's rows. Both
stages share one joint loss, ``_ere_loss``.

Prediction runs one sentence through the same forward, recording no tape,
then follows the trained stage: optionally switch with top-k routing,
classify the relation from the encoder [CLS] row under the language mask,
then decode the spans conditioned on the predicted relation. Stage 2's dev
evaluations predict this way too, one sentence per call, and do not read the
table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregator import aggregate, build_aggregator_params
from .config import ModelConfig, RunConfig
from .corpus import SENTINEL_SPAN, Example, LanguageRegistry
from .encoder import CONTENT_START, TokenizedSentence, Vocab, build_encoder_params, encode, tokenize
from .errors import CheckpointError, ConfigError
from .heads import (
    ENTITY_KEYS,
    TriplePrediction,
    build_head_params,
    check_gold_allowed,
    decode_spans,
    entity_scores,
    masked_argmax_relation,
    relation_logits,
)
from .params import ParamRegistry, load_checkpoint, save_checkpoint
from .switcher import ROUTER_PARAMS, build_switcher_params, switch_eval, switch_train
from .tensor import NEG_INF, Tensor


def sentence_ere_loss(relation_ce: Tensor, entity_ces: list[Tensor], alpha: float, beta: float) -> Tensor:
    """Per-sentence joint loss: (alpha/2) * sum of the four entity terms plus
    beta * the relation term. Sentences without entities contribute only the
    relation term."""
    loss = T.mul(relation_ce, beta)
    if entity_ces:
        loss = T.add(T.mul(T.add_n(entity_ces), alpha / 2.0), loss)
    return loss


@dataclass
class FreezePlan:
    frozen: list[str]
    trainable: list[str]


@dataclass(frozen=True, eq=False)
class FrozenPrefix:
    """The frozen part of the stage-2 forward for a list of sentences: their
    encoder [CLS] rows, (n, d), and their real aggregator rows packed back to
    back, (sum of lengths, d)."""

    pooled: Tensor
    rows: Tensor


@dataclass(frozen=True, eq=False)
class PrefixEntry:
    """One sentence of a ``FrozenPrefix``: row ``index`` of its ``pooled``,
    and ``length`` rows of its ``rows`` from ``start`` on."""

    ts: TokenizedSentence
    table: FrozenPrefix
    index: int
    start: int
    length: int

    @property
    def lang(self) -> int:
        return self.ts.lang


def _row_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The row indices ``start .. start + length - 1`` of each span, back to back."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


class _NoDraw:
    """Stands in for the init generator when a checkpoint supplies every
    value: the builders then register zeros of the configured shapes, which
    costs no random draws."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


class Model:
    def __init__(self, cfg: ModelConfig, languages: LanguageRegistry, vocab: Vocab, registry: ParamRegistry, stage: int = 0):
        self.cfg = cfg
        self.languages = languages
        self.vocab = vocab
        self.registry = registry
        self.stage = stage

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, cfg: ModelConfig, languages: LanguageRegistry, init_seed: int) -> "Model":
        """A freshly initialized model; the vocabulary, language and relation
        counts come from ``languages``, and ``cfg`` is left as it is."""
        return cls._assemble(cfg, languages, np.random.default_rng(np.random.PCG64(init_seed)))

    @classmethod
    def _assemble(cls, cfg: ModelConfig, languages: LanguageRegistry, rng) -> "Model":
        cfg.validate()
        if cfg.routing == "identity" and cfg.n_sub_modules != languages.n_languages:
            raise ConfigError("identity routing requires exactly one sub-module per language")
        vocab = Vocab(languages.content_vocab(), languages.n_languages)
        registry = ParamRegistry()
        build_encoder_params(registry, cfg, len(vocab), rng)
        build_aggregator_params(registry, cfg, rng)
        build_switcher_params(registry, cfg, languages.n_languages, rng)
        build_head_params(registry, cfg, languages.n_relations, rng)
        return cls(cfg, languages, vocab, registry)

    def stage2_freeze_plan(self) -> FreezePlan:
        """Stage 2 freezes every ``encoder.`` and ``aggregator.`` parameter, and
        under identity routing the router, whose tables are vestigial when every
        language owns a sub-module; the rest trains. The two lists split the
        registry by construction."""
        router = ROUTER_PARAMS if self.cfg.routing == "identity" else ()
        names = self.registry.names()
        frozen = [n for n in names if n.startswith(("encoder.", "aggregator.")) or n in router]
        return FreezePlan(frozen=frozen, trainable=[n for n in names if n not in frozen])

    # -- shared forward pieces --------------------------------------------

    def tokenize(self, example: Example) -> TokenizedSentence:
        return tokenize(example, self.vocab, self.cfg.max_len)

    def _forward(self, tss: list[TokenizedSentence], s: int) -> tuple[Tensor, Tensor]:
        """The encoder [CLS] rows, (n, d), and the aggregator output, (n*m, d),
        of n sentences. One encoder pass pads every sentence to the longest
        real length m; the aggregator then attends within each group of s
        consecutive sentences' concatenated rows, never to PAD. A lone
        sentence is never padded."""
        eo = encode(tss, self.registry, self.cfg)
        rows, d = eo.hidden.shape
        m = rows // len(tss)
        key_mask = np.arange(m) < np.array([ts.attention_mask.sum() for ts in tss])[:, None]
        groups = len(tss) // s
        fused = aggregate(T.reshape(eo.hidden, (groups, s * m, d)), key_mask.reshape(groups, s * m),
                          self.registry, self.cfg)
        return eo.pooled, T.reshape(fused, (rows, d))

    def _entity_scores(
        self, tss: list[TokenizedSentence], features: Tensor, relations, lengths: np.ndarray | None = None
    ) -> dict[str, Tensor]:
        """Entity scores of n sentences whose feature rows lie back to back,
        ``lengths[i]`` of them for sentence i, or an equal share each when
        ``lengths`` is None, every row conditioned on the embedding of its
        sentence's relation."""
        emb = self.registry["relation.emb"]
        if lengths is None:
            # entity_scores repeats each sentence's relation row over its rows
            m = features.shape[0] // len(tss)
            rel_emb = T.gather_rows(emb, relations)
            mask = np.concatenate([ts.content_position_mask(m) for ts in tss])
        else:
            rel_emb = T.gather_rows(emb, np.repeat(relations, lengths))
            mask = np.concatenate([ts.content_position_mask(int(m)) for ts, m in zip(tss, lengths)])
        return entity_scores(features, rel_emb, mask, self.registry)

    def _ere_loss(
        self, tss: list[TokenizedSentence], pooled_encoder: Tensor, features: Tensor, lengths: np.ndarray,
        alpha: float, beta: float, stats: dict | None,
    ) -> Tensor:
        """Joint loss averaged over n sentences. ``pooled_encoder`` holds their
        (n, d) encoder [CLS] rows and ``features`` their rows back to back,
        ``lengths[i]`` of them for sentence i: stage 1's padded rows, or stage
        2's real ones. The relation term is one row-wise cross entropy over
        all n. The entity scorers run over the rows of the sentences that bear
        a relation; each entity key is one cross entropy over those sentences,
        their scores laid out one row per sentence: as they come when the
        lengths are equal, else scattered into (n_b, longest length) with
        NEG_INF off each sentence's rows."""
        n = len(tss)
        allowed = self.languages.schema.allowed
        for ts in tss:
            check_gold_allowed(ts.relation, allowed[ts.lang], ts.example_id)
        rels = np.array([ts.relation for ts in tss])
        rel_ce = T.cross_entropy(relation_logits(pooled_encoder, self.registry), rels)
        entity_ces = []
        bearing = np.flatnonzero(rels)
        if bearing.size:
            lens = lengths[bearing]
            if bearing.size < n:
                features = T.gather_rows(features, _row_spans((np.cumsum(lengths) - lengths)[bearing], lens))
            # Equal lengths (stage 1's padded rows) take the equal-share path:
            # a gather per row would give the same values, but would sum
            # relation.emb's gradient in another order.
            equal = bool((lens == lens[0]).all())
            scores = self._entity_scores([tss[i] for i in bearing], features, rels[bearing], None if equal else lens)
            if not equal:
                m = int(lens.max())
                slots = _row_spans(np.arange(bearing.size) * m, lens)
                scores = {key: T.scatter_rows(t, slots, bearing.size * m, NEG_INF) for key, t in scores.items()}
            golds = np.array([tss[i].head_span + tss[i].tail_span for i in bearing])
            entity_ces = [T.cross_entropy(scores[key], golds[:, j]) for j, key in enumerate(ENTITY_KEYS)]
        if stats is not None:
            stats["relation_ce"] = stats.get("relation_ce", 0.0) + rel_ce.item()
            stats["entity_ce"] = stats.get("entity_ce", 0.0) + sum(t.item() for t in entity_ces)
            stats["sentences"] = stats.get("sentences", 0) + n
        return T.mul(sentence_ere_loss(rel_ce, entity_ces, alpha, beta), 1.0 / n)

    # -- stage losses ------------------------------------------------------

    def stage1_batch_loss(
        self, groups: list[list[TokenizedSentence]], alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over the sentences of equal-size concatenation
        groups, each group aggregated over its members' rows."""
        s = len(groups[0])
        if any(len(group) != s for group in groups):
            raise ValueError("stage-1 concatenation groups must all have the same size")
        tss = [ts for group in groups for ts in group]
        pooled, fused = self._forward(tss, s)
        lengths = np.full(len(tss), fused.shape[0] // len(tss))
        return self._ere_loss(tss, pooled, fused, lengths, alpha, beta, stats)

    def frozen_prefix(self, tss: list[TokenizedSentence], chunk: int) -> list[PrefixEntry]:
        """One ``FrozenPrefix`` of ``tss``, as one entry per sentence in the
        order of ``tss``. ``_forward`` runs over sentences of one exact real
        length at a time, at most ``chunk`` of them per pass, so no PAD row
        is computed and how many share a pass does not change a value.

        Nothing here turns the tape off: under stage 2's freeze plan no op
        records one, and a model with trainable encoder or aggregator
        parameters gets a table that passes their gradients on."""
        lengths = np.array([int(ts.attention_mask.sum()) for ts in tss])
        order: list[int] = []
        pooled, rows = [], []
        for length in sorted(set(lengths.tolist())):
            members = np.flatnonzero(lengths == length).tolist()
            for c in range(0, len(members), chunk):
                part = members[c : c + chunk]
                p, f = self._forward([tss[i] for i in part], 1)
                order += part
                pooled.append(p)
                rows.append(f)
        table = FrozenPrefix(pooled=T.concat(pooled, axis=0), rows=T.concat(rows, axis=0))
        starts = np.empty(len(tss), dtype=np.intp)
        index = np.empty(len(tss), dtype=np.intp)
        starts[order] = np.cumsum(lengths[order]) - lengths[order]
        index[order] = np.arange(len(tss))
        return [PrefixEntry(ts, table, int(index[i]), int(starts[i]), int(lengths[i])) for i, ts in enumerate(tss)]

    def stage2_batch_loss(
        self, batch: list[PrefixEntry], alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over single sentences of one ``frozen_prefix``
        table: their real rows through the switcher's training mix, each row
        under its sentence's language, then the heads."""
        table = batch[0].table
        if any(entry.table is not table for entry in batch):
            raise ValueError("a stage-2 batch must come from one frozen-prefix table")
        tss = [entry.ts for entry in batch]
        lengths = np.array([entry.length for entry in batch])
        pooled = T.gather_rows(table.pooled, [entry.index for entry in batch])
        rows = T.gather_rows(table.rows, _row_spans(np.array([entry.start for entry in batch]), lengths))
        langs = np.repeat([ts.lang for ts in tss], lengths)
        switched = switch_train(rows, langs, self.registry, self.cfg)
        return self._ere_loss(tss, pooled, switched, lengths, alpha, beta, stats)

    # -- prediction --------------------------------------------------------

    @T.no_grad()
    def predict(self, example: Example, top_k: int | None = None, dump_scores: bool = False) -> TriplePrediction:
        """Deterministic triple prediction; spans are reported in content-token
        coordinates so they compare directly with gold spans. Nothing here is
        differentiated, so the forward records no tape."""
        ts = self.tokenize(example)
        pooled, features = self._forward([ts], 1)
        if self.stage >= 2:
            features, _ = switch_eval(features, ts.lang, self.registry, self.cfg, top_k)
        logits = relation_logits(pooled, self.registry).data.reshape(-1)
        relation = masked_argmax_relation(logits, self.languages.schema.allowed[ts.lang])
        if relation == 0:
            return TriplePrediction(
                example_id=example.id,
                relation=0,
                head_span=SENTINEL_SPAN,
                tail_span=SENTINEL_SPAN,
                relation_logits=logits,
            )
        scores = self._entity_scores([ts], features, [relation])
        score_arrays = {key: t.data.reshape(-1).copy() for key, t in scores.items()}
        head, tail = decode_spans(score_arrays)
        return TriplePrediction(
            example_id=example.id,
            relation=relation,
            head_span=(head[0] - CONTENT_START, head[1] - CONTENT_START),
            tail_span=(tail[0] - CONTENT_START, tail[1] - CONTENT_START),
            relation_logits=logits,
            entity_scores=score_arrays if dump_scores else None,
        )

    # -- checkpointing -----------------------------------------------------

    def config_snapshot(self, run_cfg: RunConfig | None = None) -> dict:
        snap = {
            "stage": self.stage,
            "model": RunConfig(model=self.cfg).to_json()["model"],
            "language_codes": [l.code for l in self.languages.languages],
            "relations": list(self.languages.schema.relations),
        }
        if run_cfg is not None:
            # filesystem paths stay out of checkpoints so identical runs into
            # different directories produce identical bytes
            run_doc = run_cfg.to_json()
            run_doc["corpus_dir"] = ""
            run_doc["out_dir"] = ""
            snap["run"] = run_doc
        return snap

    def save(self, path, run_cfg: RunConfig | None = None, extra: dict | None = None) -> None:
        save_checkpoint(path, self.config_snapshot(run_cfg), self.registry, extra)

    @classmethod
    def load(cls, path, languages: LanguageRegistry) -> tuple["Model", dict, dict | None]:
        """Rebuild a model from a checkpoint, validating every shape and the
        language/relation inventory against the supplied registry. The
        parameters are the checkpoint's arrays; nothing is drawn at random."""
        snap, arrays, extra = load_checkpoint(path)
        codes = [l.code for l in languages.languages]
        if snap.get("language_codes") != codes:
            raise CheckpointError(
                f"checkpoint languages {snap.get('language_codes')} do not match corpus {codes}"
            )
        if snap.get("relations") != list(languages.schema.relations):
            raise CheckpointError("checkpoint relation inventory does not match the corpus registry")
        try:
            cfg = ModelConfig.from_json(snap["model"])
        except (KeyError, ConfigError) as exc:
            raise CheckpointError(f"checkpoint model config is malformed: {exc!r}") from None
        model = cls._assemble(cfg, languages, _NoDraw())
        model.registry.load_arrays(arrays)
        model.stage = int(snap.get("stage", 0))
        return model, snap, extra
