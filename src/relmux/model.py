"""Full model assembly: parameter construction, the stage switch, forward
pipelines, the joint loss, prediction, and checkpoint round-trips.
``enter_stage`` alone decides, by name prefix, what a training stage freezes.

Both training stages and prediction share one forward, ``_forward``: encode n
sentences in one pass, padded to the longest, then aggregate within each group
of s consecutive sentences under the PAD key mask that ``encode`` built.
Stage-1 training concatenates groups of sentences in different languages
through the cross-sentence aggregator and trains everything jointly.

Stage 2 freezes the encoder and the aggregator, so their output for a
sentence never changes during the stage. ``frozen_prefix`` computes it once
per training sentence, as a table: each sentence's encoder [CLS] row and its
real aggregator rows, packed back to back. It runs ``_forward`` over
sentences of one exact length at a time, so no PAD is involved, and over at
most a batch's worth of them per pass, which bounds the pass's activations.
On the benchmark corpus (seed 101) the table holds 10,032 rows for 1,074
sentences, 5.7 MB of float64 at d = 64 with the [CLS] rows. A stage-2 step
gathers its sentences' [CLS] rows, and the real rows of only its
relation-bearing sentences, which are all the entity scorers read; the
switcher's training mix and the entity scorers run over those rows alone.
The entity cross entropy alone lays the scores out padded, with NEG_INF off
each sentence's rows. Both stages share one joint loss, ``_ere_loss``.

Prediction reads the same kind of table over the examples to predict,
recording no tape: ``predict_all`` encodes them in one pass per exact
length. The model keeps the last such table with the examples and the
bytes of every ``encoder.`` and ``aggregator.`` array it was built from,
and reuses it while both compare equal. So evaluating one split at several
k builds its table once, and a training step, a load or any other change
to those values makes the next call build afresh, with no step that has to
invalidate it. From stage 2 on ``predict_all`` takes each language's top-k
decision once and switches that language's real rows in a few passes of at
most ``_SWITCH_PASS`` sentences into an array of the call's own; the kept
table is read-only. The heads then run over whole
arrays: one relation product over every [CLS] row and one masked argmax
under each row's language, then entity scoring and span decoding for the
sentences that predict a relation, in passes over at most ``_SWITCH_PASS``
sentences of one exact length. Every product is laid out so that each
sentence gets the bits it gets alone.
``predict`` only packages one sentence's outputs as a ``TriplePrediction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregator import aggregate, build_aggregator_params
from .config import ModelConfig, RunConfig
from .corpus import SENTINEL_SPAN, Example, LanguageRegistry, language_pools
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
from .switcher import ROUTER_PARAMS, build_switcher_params, eval_decisions, switch_eval, switch_train
from .tensor import NEG_INF, Tensor

# the names whose values the frozen prefix reads, and stage 2 freezes
_PREFIX_PARAMS = ("encoder.", "aggregator.")

# sentences per pass in prediction: of one language through the switcher,
# or of one exact length through the entity heads; bounds the rows a pass
# gathers and works on
_SWITCH_PASS = 64


def sentence_ere_loss(relation_ce: Tensor, entity_ces: list[Tensor], alpha: float, beta: float) -> Tensor:
    """Per-sentence joint loss: (alpha/2) * sum of the four entity terms plus
    beta * the relation term. Sentences without entities contribute only the
    relation term."""
    loss = T.mul(relation_ce, beta)
    if entity_ces:
        loss = T.add(T.mul(T.add_n(entity_ces), alpha / 2.0), loss)
    return loss


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
    return np.arange(lengths.sum()) + np.repeat(starts - (ends - lengths), lengths)


class _NoDraw:
    """Stands in for the init generator when a checkpoint supplies every
    value: the builders then register zeros of the configured shapes, which
    costs no random draws."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


class Model:
    def __init__(self, cfg: ModelConfig, languages: LanguageRegistry, vocab: Vocab, registry: ParamRegistry):
        self.cfg = cfg
        self.languages = languages
        self.vocab = vocab
        self.registry = registry
        self.stage = 0
        # predict_all's last table, with the inputs it was built from
        self._kept: tuple[tuple, list[PrefixEntry]] | None = None

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

    def enter_stage(self, stage: int) -> None:
        """Enter training stage 1 or 2: stage 1 freezes the ``switcher.`` names,
        which it never runs; stage 2 the ``encoder.`` and ``aggregator.`` names,
        and under identity routing the router, whose tables are then vestigial.
        Every other parameter trains."""
        frozen = ("switcher.",) if stage == 1 else _PREFIX_PARAMS
        router = ROUTER_PARAMS if stage == 2 and self.cfg.routing == "identity" else ()
        self.stage = stage
        self.registry.unfreeze_all()
        self.registry.freeze(n for n in self.registry.names() if n.startswith(frozen) or n in router)

    # -- shared forward pieces --------------------------------------------

    def tokenize(self, example: Example) -> TokenizedSentence:
        return tokenize(example, self.vocab, self.cfg.max_len)

    def _forward(self, tss: list[TokenizedSentence], s: int) -> tuple[Tensor, Tensor]:
        """The encoder [CLS] rows, (n, d), and the aggregator output, (n*m, d),
        of n sentences. One encoder pass pads every sentence to the longest
        real length m; the aggregator then attends within each group of s
        consecutive sentences' concatenated rows, never to PAD. Sentences of
        one length are never padded."""
        eo = encode(tss, self.registry, self.cfg)
        rows, d = eo.hidden.shape
        groups = len(tss) // s
        fused = aggregate(T.reshape(eo.hidden, (groups, rows // groups, d)), eo.key_mask.reshape(groups, -1),
                          self.registry, self.cfg)
        return eo.pooled, T.reshape(fused, (rows, d))

    def _entity_scores(
        self, tss: list[TokenizedSentence], features: Tensor, relations, lengths: np.ndarray | None = None
    ) -> dict[str, Tensor]:
        """Entity scores of n sentences whose feature rows lie back to back,
        ``lengths[i]`` of them for sentence i, or an equal share each when
        ``lengths`` is None, then also as (n, m, d) blocks, every row
        conditioned on the embedding of its sentence's relation."""
        emb = self.registry["relation.emb"]
        if lengths is None:
            # entity_scores repeats each sentence's relation row over its m
            # rows, stacked as (n*m, d) or (n, m, d)
            m = features.data.size // (len(tss) * features.shape[-1])
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
        (n, d) encoder [CLS] rows. ``features`` holds the rows of only the
        sentences that bear a relation, back to back, ``lengths[i]`` of them
        for the i-th such sentence: stage 1's padded rows, or stage 2's real
        ones. The relation term is one row-wise cross entropy over all n. The
        entity scorers run over ``features``; each entity key is one cross
        entropy over the bearing sentences, their scores laid out one row per
        sentence: as they come when the lengths are equal, else scattered
        into (n_b, longest length) with NEG_INF off each sentence's rows."""
        n = len(tss)
        allowed = self.languages.schema.allowed
        for ts in tss:
            check_gold_allowed(ts.relation, allowed[ts.lang], ts.example_id)
        rels = np.array([ts.relation for ts in tss])
        rel_ce = T.cross_entropy(relation_logits(pooled_encoder, self.registry), rels)
        entity_ces = []
        bearing = np.flatnonzero(rels)
        if bearing.size:
            # Equal lengths (stage 1's padded rows) take the equal-share path:
            # a gather per row would give the same values, but would sum
            # relation.emb's gradient in another order.
            equal = bool((lengths == lengths[0]).all())
            scores = self._entity_scores([tss[i] for i in bearing], features, rels[bearing], None if equal else lengths)
            if not equal:
                m = int(lengths.max())
                slots = _row_spans(np.arange(bearing.size) * m, lengths)
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
        m = fused.shape[0] // len(tss)
        bearing = np.flatnonzero([ts.relation for ts in tss])
        lengths = np.full(bearing.size, m)
        if bearing.size < len(tss):
            fused = T.gather_rows(fused, _row_spans(bearing * m, lengths))
        return self._ere_loss(tss, pooled, fused, lengths, alpha, beta, stats)

    def frozen_prefix(self, tss: list[TokenizedSentence], chunk: int) -> list[PrefixEntry]:
        """One ``FrozenPrefix`` of ``tss``, as one entry per sentence in the
        order of ``tss``. ``_forward`` runs over sentences of one exact real
        length at a time, at most ``chunk`` of them per pass, so no PAD row
        is computed and how many share a pass does not change a value.

        Nothing here turns the tape off: under stage 2's freezing no op
        records one, and a model with trainable encoder or aggregator
        parameters gets a table that passes their gradients on."""
        lengths = np.array([ts.length for ts in tss])
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
        table: every [CLS] row to the relation head, and only the
        relation-bearing sentences' real rows through the switcher's training
        mix, each row under its sentence's language, to the entity heads."""
        table = batch[0].table
        if any(entry.table is not table for entry in batch):
            raise ValueError("a stage-2 batch must come from one frozen-prefix table")
        pooled = T.gather_rows(table.pooled, [entry.index for entry in batch])
        bearing = [entry for entry in batch if entry.ts.relation]
        lengths = np.array([entry.length for entry in bearing], dtype=np.intp)
        rows = T.gather_rows(table.rows, _row_spans(np.array([entry.start for entry in bearing]), lengths))
        if bearing:
            rows = switch_train(rows, np.repeat([entry.lang for entry in bearing], lengths), self.registry, self.cfg)
        return self._ere_loss([entry.ts for entry in batch], pooled, rows, lengths, alpha, beta, stats)

    # -- prediction --------------------------------------------------------

    def _prediction_table(self, examples: list[Example]) -> list[PrefixEntry]:
        """The ``frozen_prefix`` entries of ``examples`` in one table, which
        depends on nothing but the examples and the ``encoder.`` and
        ``aggregator.`` values. The last one built is kept with copies of
        those inputs, and reused while they compare equal: the examples by
        value and every array bit for bit. A miss drops the kept table before
        building its successor. The kept table's arrays are read-only."""
        params = [(n, t.shape, t.data.tobytes()) for n, t in self.registry.items() if n.startswith(_PREFIX_PARAMS)]
        key = (list(examples), params)
        if self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        self._kept = None
        entries = self.frozen_prefix([self.tokenize(ex) for ex in examples], len(examples))
        table = entries[0].table
        table.pooled.data.flags.writeable = table.rows.data.flags.writeable = False
        self._kept = key, entries
        return entries

    @T.no_grad()
    def predict_all(
        self, examples: list[Example], top_k: int | None = None, dump_scores: bool = False
    ) -> list[TriplePrediction]:
        """One prediction per example, in order. The examples' ``frozen_prefix``
        table, with one pass per exact length, is the kept one when it was
        built from equal examples and equal values (``_prediction_table``),
        so successive calls over one split at different k encode it once.
        From stage 2 on each language's top-k decision is taken once, and
        ``switch_eval`` applies it to the real rows of at most
        ``_SWITCH_PASS`` of that language's sentences per pass; the switched
        rows go to an array of this call's own, and the table is left as it
        was. The heads then run over whole arrays: one relation
        product over every [CLS] row and one masked argmax under each row's
        language; then, for the sentences that predict a relation, entity
        scoring and span decoding in passes over at most ``_SWITCH_PASS``
        sentences of one exact length. Each product gives every sentence
        the bits it gets alone. ``predict`` then packages each example's
        outputs. Nothing here is differentiated, so no op records a tape."""
        if not examples:
            return []
        entries = self._prediction_table(examples)
        rows = entries[0].table.rows.data
        if self.stage >= 2:
            # every row is some sentence's, and every sentence in one pool
            frozen, rows = rows, np.empty_like(rows)
            decisions = eval_decisions(self.registry, self.cfg, top_k)
            for pool in language_pools(entries):
                decision = decisions[pool[0].lang]
                for c in range(0, len(pool), _SWITCH_PASS):
                    part = pool[c : c + _SWITCH_PASS]
                    idx = _row_spans(np.array([e.start for e in part]), np.array([e.length for e in part]))
                    rows[idx] = switch_eval(Tensor(frozen[idx]), decision, self.registry, self.cfg).data
        pooled = entries[0].table.pooled.data[[e.index for e in entries], None]
        logits = relation_logits(Tensor(pooled), self.registry).data[:, 0]
        relations = masked_argmax_relation(logits, self.languages.schema.allowed, [e.lang for e in entries])
        spans = np.tile(SENTINEL_SPAN * 2, (len(entries), 1))
        dumped: list[dict[str, np.ndarray] | None] = [None] * len(entries)
        bearing = np.flatnonzero(relations)
        lengths = np.array([entries[i].length for i in bearing], dtype=np.intp)
        for length in np.unique(lengths):
            members = bearing[lengths == length]
            for c in range(0, members.size, _SWITCH_PASS):
                part = members[c : c + _SWITCH_PASS]
                idx = _row_spans(np.array([entries[i].start for i in part]), np.full(part.size, length))
                features = Tensor(rows[idx].reshape(part.size, length, -1))
                scores = self._entity_scores([entries[i].ts for i in part], features, relations[part])
                arrays = {key: t.data.reshape(part.size, length) for key, t in scores.items()}
                spans[part] = np.concatenate(decode_spans(arrays), axis=1) - CONTENT_START
                if dump_scores:
                    for j, i in enumerate(part):
                        dumped[i] = {key: a[j].copy() for key, a in arrays.items()}
        # relations and spans become Python ints in one pass per array, so a
        # predict call makes no numpy scalar
        outputs = zip(entries, logits, relations.tolist(), spans.tolist(), dumped)
        return [self.predict(e, row, relation, span, scores) for e, row, relation, span, scores in outputs]

    def predict(
        self, entry: PrefixEntry, logits: np.ndarray, relation: int, spans: list[int],
        scores: dict[str, np.ndarray] | None = None,
    ) -> TriplePrediction:
        """The prediction of one entry of ``predict_all``'s table, packaged
        from its heads outputs: its relation logits and masked-argmax
        relation, its head and tail spans as (start, end, start, end) in
        content-token coordinates, so they compare directly with gold spans
        (the sentinel for no relation), and its entity scores if dumped.
        The relation and the spans arrive as Python ints."""
        hs, he, ts, te = spans
        return TriplePrediction(
            example_id=entry.ts.example_id,
            relation=relation,
            head_span=(hs, he),
            tail_span=(ts, te),
            relation_logits=logits,
            entity_scores=scores,
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
            # the corpus path stays out of checkpoints so identical runs on
            # copies of one corpus produce identical bytes
            run_doc = run_cfg.to_json()
            run_doc["corpus_dir"] = ""
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
        model.stage = snap.get("stage", 0)
        if type(model.stage) is not int or model.stage not in (0, 1, 2):
            raise CheckpointError(f"checkpoint stage must be 0, 1 or 2, got {model.stage!r}")
        return model, snap, extra
