"""Full model assembly: parameter construction, forward pipelines, the joint
loss, prediction, freeze plans, and checkpoint round-trips.

Both training stages and prediction share one forward, ``_forward``: encode n
sentences in one pass, padded to the longest, then aggregate within each group
of s consecutive sentences. Stage-1 training concatenates groups of sentences
in different languages through the cross-sentence aggregator and trains
everything jointly; stage-2 training aggregates each sentence alone (s = 1)
and mixes all rows of the batch through the language switcher at once, while
the encoder and aggregator stay frozen. Prediction runs one sentence through
the same forward, then follows the trained stage: optionally switch with
top-k routing, classify the relation under the language mask, then decode the
spans conditioned on the predicted relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregator import AGGREGATOR_PARAMS, aggregate, build_aggregator_params
from .config import ModelConfig, RunConfig
from .corpus import SENTINEL_SPAN, Example, LanguageRegistry
from .encoder import (
    TokenizedSentence,
    Vocab,
    build_encoder_params,
    encode,
    encoder_param_names,
    tokenize,
)
from .errors import CheckpointError, ConfigError
from .heads import (
    ENTITY_KEYS,
    TriplePrediction,
    build_head_params,
    check_gold_allowed,
    decode_spans,
    entity_scores,
    head_param_names,
    masked_argmax_relation,
    relation_logits,
)
from .params import ParamRegistry, load_checkpoint, save_checkpoint
from .switcher import build_switcher_params, switch_eval, switch_train, switcher_param_names
from .tensor import Tensor


def sentence_ere_loss(relation_ce: Tensor, entity_ces: list[Tensor], alpha: float, beta: float) -> Tensor:
    """Per-sentence joint loss: (alpha/2) * sum of the four entity terms plus
    beta * the relation term. Sentences without entities contribute only the
    relation term."""
    loss = T.mul(relation_ce, beta)
    if entity_ces:
        entity_sum = entity_ces[0] if len(entity_ces) == 1 else T.add_n(entity_ces)
        loss = T.add(T.mul(entity_sum, alpha / 2.0), loss)
    return loss


@dataclass
class FreezePlan:
    frozen: list[str]
    trainable: list[str]

    def check_partition(self, registry: ParamRegistry) -> None:
        names = set(registry.names())
        frozen, trainable = set(self.frozen), set(self.trainable)
        if frozen & trainable:
            raise ConfigError(f"freeze plan overlap: {sorted(frozen & trainable)[:4]}")
        if frozen | trainable != names:
            missing = names - (frozen | trainable)
            extra = (frozen | trainable) - names
            raise ConfigError(f"freeze plan does not cover registry: missing={sorted(missing)[:4]} extra={sorted(extra)[:4]}")


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
        vocab = Vocab(languages.content_vocab(), languages.n_languages)
        cfg.vocab_size = len(vocab)
        cfg.n_languages = languages.n_languages
        cfg.n_relations = languages.n_relations
        cfg.validate()
        rng = np.random.default_rng(np.random.PCG64(init_seed))
        registry = ParamRegistry()
        build_encoder_params(registry, cfg, rng)
        build_aggregator_params(registry, cfg, rng)
        build_switcher_params(registry, cfg, rng)
        build_head_params(registry, cfg, rng)
        return cls(cfg, languages, vocab, registry)

    def stage2_freeze_plan(self) -> FreezePlan:
        frozen = encoder_param_names(self.cfg) + list(AGGREGATOR_PARAMS)
        switcher = switcher_param_names(self.cfg)
        if self.cfg.routing == "identity":
            # the routing tables are vestigial when every language owns a sub-module
            router = [n for n in switcher if n in ("switcher.lang_emb", "switcher.w_router")]
            frozen += router
            switcher = [n for n in switcher if n not in router]
        trainable = switcher + head_param_names(self.cfg)
        plan = FreezePlan(frozen=frozen, trainable=trainable)
        plan.check_partition(self.registry)
        return plan

    # -- shared forward pieces --------------------------------------------

    def tokenize(self, example: Example) -> TokenizedSentence:
        return tokenize(example, self.vocab, self.cfg.max_len, self.cfg.lang_prefix)

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

    def _pooled(self, pooled_encoder: Tensor, features: Tensor, n: int) -> Tensor:
        """The (n, d) vectors the relation head reads: the encoder [CLS] rows,
        or the first of each sentence's m feature rows."""
        if self.cfg.relation_pooled_from == "encoder":
            return pooled_encoder
        return T.gather_rows(features, np.arange(n) * (features.shape[0] // n))

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
        rel_ce = T.cross_entropy(relation_logits(self._pooled(pooled_encoder, features, n), self.registry), rels)
        entity_ces = []
        bearing = np.flatnonzero(rels)
        if bearing.size:
            if bearing.size < n:
                rows = T.gather_rows(T.reshape(features, (n, m * d)), bearing)
                features = T.reshape(rows, (bearing.size * m, d))
            scores = self._entity_scores([tss[i] for i in bearing], features, rels[bearing])
            golds = np.array([tss[i].head_span + tss[i].tail_span for i in bearing])
            entity_ces = [T.add_n([T.cross_entropy(scores[key], golds[:, j])
                                   for j, key in enumerate(ENTITY_KEYS)])]
        if stats is not None:
            stats["relation_ce"] = stats.get("relation_ce", 0.0) + rel_ce.item()
            stats["entity_ce"] = stats.get("entity_ce", 0.0) + sum(t.item() for t in entity_ces)
            stats["sentences"] = stats.get("sentences", 0) + n
        return T.mul(sentence_ere_loss(rel_ce, entity_ces, alpha, beta), 1.0 / n)

    # -- stage losses ------------------------------------------------------

    def stage1_batch_loss(
        self, groups: list[list[Example]], alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over the sentences of equal-size concatenation
        groups, each group aggregated over its members' rows."""
        s = len(groups[0])
        if any(len(group) != s for group in groups):
            raise ValueError("stage-1 concatenation groups must all have the same size")
        tss = [self.tokenize(ex) for group in groups for ex in group]
        pooled, fused = self._forward(tss, s)
        return self._ere_loss(tss, pooled, fused, alpha, beta, stats)

    def stage2_batch_loss(
        self, batch: list[Example], alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over single sentences, each through the aggregator
        alone, then every row through the switcher's training mix under its
        sentence's language."""
        tss = [self.tokenize(ex) for ex in batch]
        pooled, fused = self._forward(tss, 1)
        langs = np.repeat([ts.lang for ts in tss], fused.shape[0] // len(tss))
        switched = switch_train(fused, langs, self.registry, self.cfg)
        return self._ere_loss(tss, pooled, switched, alpha, beta, stats)

    # -- prediction --------------------------------------------------------

    def predict(self, example: Example, top_k: int | None = None, dump_scores: bool = False) -> TriplePrediction:
        """Deterministic triple prediction; spans are reported in content-token
        coordinates so they compare directly with gold spans."""
        ts = self.tokenize(example)
        pooled, features = self._forward([ts], 1)
        if self.stage >= 2:
            features, _ = switch_eval(features, ts.lang, self.registry, self.cfg, top_k)
        logits = relation_logits(self._pooled(pooled, features, 1), self.registry).data.reshape(-1)
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
        shift = ts.content_start
        return TriplePrediction(
            example_id=example.id,
            relation=relation,
            head_span=(head[0] - shift, head[1] - shift),
            tail_span=(tail[0] - shift, tail[1] - shift),
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
            model_doc = dict(snap["model"])
            model_doc["sub_layers"] = tuple(model_doc["sub_layers"])
            cfg = ModelConfig(**model_doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint model config is malformed: {exc!r}") from None
        model = cls.build(cfg, languages, init_seed=0)
        model.registry.load_arrays(arrays)
        model.stage = int(snap.get("stage", 0))
        return model, snap, extra
