"""Full model assembly: parameter construction, forward pipelines, the joint
loss, prediction, freeze plans, and checkpoint round-trips.

Both training stages and prediction share one forward, ``_forward``: encode n
sentences in one pass, padded to the longest, then aggregate within each group
of s consecutive sentences. Stage-1 training concatenates groups of sentences
in different languages through the cross-sentence aggregator and trains
everything jointly; stage-2 training aggregates each sentence alone (s = 1)
and mixes all rows of the batch through the language switcher at once, while
the encoder and aggregator stay frozen. Prediction runs one sentence through
the same forward, recording no tape, then follows the trained stage:
optionally switch with top-k routing, classify the relation from the encoder
[CLS] row under the language mask, then decode the spans conditioned on the
predicted relation.
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
from .tensor import Tensor


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
        cfg.validate()
        if cfg.routing == "identity" and cfg.n_sub_modules != languages.n_languages:
            raise ConfigError("identity routing requires exactly one sub-module per language")
        vocab = Vocab(languages.content_vocab(), languages.n_languages)
        rng = np.random.default_rng(np.random.PCG64(init_seed))
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

    def _entity_scores(self, tss: list[TokenizedSentence], features: Tensor, relations) -> dict[str, Tensor]:
        """Entity scores of n sentences, (n*m, d) feature rows, each
        conditioned on the embedding of its relation."""
        m = features.shape[0] // len(tss)
        rel_emb = T.gather_rows(self.registry["relation.emb"], relations)
        mask = np.concatenate([ts.content_position_mask(m) for ts in tss])
        return entity_scores(features, rel_emb, mask, self.registry)

    def _ere_loss(
        self, tss: list[TokenizedSentence], pooled_encoder: Tensor, features: Tensor,
        alpha: float, beta: float, stats: dict | None,
    ) -> Tensor:
        """Joint loss averaged over n sentences. ``features`` holds their
        (n*m, d) rows and ``pooled_encoder`` their (n, d) encoder [CLS] rows.
        The relation term is one row-wise cross entropy over all n; each
        entity key is one over the sentences that bear entities."""
        n = len(tss)
        m, d = features.shape[0] // n, features.shape[1]
        allowed = self.languages.schema.allowed
        for ts in tss:
            check_gold_allowed(ts.relation, allowed[ts.lang], ts.example_id)
        rels = np.array([ts.relation for ts in tss])
        rel_ce = T.cross_entropy(relation_logits(pooled_encoder, self.registry), rels)
        entity_ces = []
        bearing = np.flatnonzero(rels)
        if bearing.size:
            if bearing.size < n:
                rows = T.gather_rows(T.reshape(features, (n, m * d)), bearing)
                features = T.reshape(rows, (bearing.size * m, d))
            scores = self._entity_scores([tss[i] for i in bearing], features, rels[bearing])
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
        return self._ere_loss(tss, pooled, fused, alpha, beta, stats)

    def stage2_batch_loss(
        self, tss: list[TokenizedSentence], alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over single sentences, each through the aggregator
        alone, then every row through the switcher's training mix under its
        sentence's language."""
        pooled, fused = self._forward(tss, 1)
        langs = np.repeat([ts.lang for ts in tss], fused.shape[0] // len(tss))
        switched = switch_train(fused, langs, self.registry, self.cfg)
        return self._ere_loss(tss, pooled, switched, alpha, beta, stats)

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
        language/relation inventory against the supplied registry."""
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
        model = cls.build(cfg, languages, init_seed=0)
        model.registry.load_arrays(arrays)
        model.stage = int(snap.get("stage", 0))
        return model, snap, extra
