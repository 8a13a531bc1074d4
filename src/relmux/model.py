"""Full model assembly: parameter construction, the stage switch, forward
pipelines, the joint loss, prediction, and checkpoint round-trips.
``enter_stage`` alone decides, by name prefix, what a training stage freezes.

Every split is one ``TokenizedSplit`` of arrays, which ``Model.tokenize``
checks against the schema, and a batch is an index array into it. Both
training stages and prediction share one forward, ``_forward``, over one
layout: the real rows of n sentences packed back to back, with their
lengths. ``encode`` runs over all of them in one pass, and the aggregator
attends within each group of s consecutive sentences, one span of rows.
Neither pads, so a sentence or a group gets the same bits alone as in any
batch. Stage-1 training concatenates groups of sentences in different
languages through the cross-sentence aggregator and trains everything
jointly.

Stage 2 freezes the encoder and the aggregator, so their output for a
sentence never changes during the stage. ``frozen_prefix`` computes it once
per training sentence, as one ``FrozenPrefix`` table: the split's record,
each sentence's encoder [CLS] row and its real aggregator rows, packed back
to back, with int arrays that give, in input order, each sentence's [CLS]
row and first row. It runs ``_forward`` over sentences of one exact length
at a time, in passes of at most ``_PASS``. A stage-2 batch is an array of
sentence indices into the table.

Past the forward, training and prediction alike read only the rows their
outputs need (``_content_rows``): every [CLS] row goes to the relation
head, and only the content rows of the sentences that bear a relation go
through the switcher (from stage 2 on) to the entity heads, each paired
with its sentence's relation embedding, so spans are in content
coordinates, as gold is; training also leaves out sentences of one content
token (``_scored``). Both stages share one joint loss, ``_ere_loss``.

Prediction builds the same kind of table over the examples to predict,
recording no tape, and keeps the last one while its examples and the
``encoder.`` and ``aggregator.`` values it was built from compare equal, so
evaluating one split at several k builds its table once. ``predict_all``
takes the relation first, from the [CLS] rows. Then, in one pass per at
most ``_PASS`` sentences of one language that predict one, it switches their
content rows and scores them through ``_entity_scores``, in the packed
layout training uses, with no one-row operand in any product. ``predict``
only packages one sentence's outputs as a ``TriplePrediction``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .aggregator import aggregate, build_aggregator_params
from .config import ModelConfig, RunConfig
from .corpus import SENTINEL_SPAN, Example, LanguageRegistry, index_pools
from .encoder import CONTENT_START, TokenizedSplit, Vocab, build_encoder_params, encode, tokenize
from .errors import CheckpointError, ConfigError, DataValidationError
from .heads import (
    ENTITY_KEYS,
    TriplePrediction,
    build_head_params,
    decode_spans,
    entity_scores,
    masked_argmax_relation,
    relation_logits,
)
from .params import ParamRegistry, load_checkpoint, save_checkpoint
from .switcher import ROUTER_PARAMS, build_switcher_params, eval_weights, switch_eval, switch_train
from .tensor import NEG_INF, Tensor

# the names whose values the frozen prefix reads, and stage 2 freezes
_PREFIX_PARAMS = ("encoder.", "aggregator.")

# sentences per pass, of one exact length through the encoder and the
# aggregator, or of one language through prediction's switcher and entity
# heads; bounds the rows a pass works on
_PASS = 64


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
    """The frozen part of the stage-2 forward for the sentences of ``split``:
    their encoder [CLS] rows, (n, d), and their real aggregator rows packed
    back to back, (sum of lengths, d). Sentence i's [CLS] row is
    ``pooled[index[i]]`` and its rows are the ``split.lengths[i]`` rows of
    ``rows`` from ``starts[i]`` on; both arrays are in the order of ``split``."""

    split: TokenizedSplit
    pooled: Tensor
    rows: Tensor
    index: np.ndarray
    starts: np.ndarray


def _passes(keys: np.ndarray):
    """(key, indices) for each pass over the indices of ``keys``: grouped by
    equal key in ascending key order (``index_pools``), each group cut into
    passes of at most ``_PASS``."""
    for pool in index_pools(keys):
        for c in range(0, pool.size, _PASS):
            yield keys[pool[0]], pool[c : c + _PASS]


def _row_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The row indices ``start .. start + length - 1`` of each span, back to back."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - (ends - lengths), lengths)


def _content_rows(starts: np.ndarray, lengths: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """Of the sentences whose ``lengths`` real rows start at ``starts``, the
    positions of those ``keep`` marks, their content-token counts, and the
    indices of their content rows, ``CONTENT_START .. length - 2``, back to
    back."""
    kept = np.flatnonzero(keep)
    sizes = lengths[kept] - (CONTENT_START + 1)
    return kept, sizes, _row_spans(starts[kept] + CONTENT_START, sizes)


def _scored(relations: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Which sentences' entity terms a training loss computes: those that
    bear a relation over two or more content tokens. Over one token each
    entity key has one class, whose cross entropy is exactly 0 with a zero
    gradient; leaving the row out keeps every product at two rows or more."""
    return (relations != 0) & (lengths > CONTENT_START + 2)


def _vocab_sha256(languages: LanguageRegistry) -> str:
    """The sha256 of the content vocabulary, which ``encoder.tok_emb`` embeds."""
    return hashlib.sha256("\n".join(languages.content_vocab()).encode("utf-8")).hexdigest()


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
        self._kept: tuple[tuple, FrozenPrefix] | None = None

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

    def tokenize(self, examples: list[Example]) -> TokenizedSplit:
        """``examples`` as one ``TokenizedSplit``; a ``DataValidationError``
        names the first example whose gold relation its language masks."""
        split = tokenize(examples, self.vocab, self.cfg.max_len)
        masked = np.flatnonzero(~np.asarray(self.languages.schema.allowed, dtype=bool)[split.langs, split.relations])
        if masked.size:
            i = masked[0]
            raise DataValidationError(f"example {split.example_ids[i]}: gold relation {split.relations[i]} "
                                      "is masked for its language")
        return split

    def _forward(self, split: TokenizedSplit, batch: np.ndarray, s: int) -> tuple[Tensor, Tensor]:
        """The encoder [CLS] rows, (n, d), and the aggregator output, (R, d),
        of the n sentences of ``split`` at the indices ``batch``, their R real
        rows back to back in that order. The aggregator attends within each
        group of s consecutive sentences' rows."""
        lengths = split.lengths[batch]
        hidden, pooled = encode(split.ids[_row_spans(split.starts[batch], lengths)], lengths, self.registry, self.cfg)
        return pooled, aggregate(hidden, lengths.reshape(-1, s).sum(1), self.registry, self.cfg)

    def _entity_scores(self, features: Tensor, relations: np.ndarray, sizes: np.ndarray) -> dict[str, Tensor]:
        """Entity scores of n sentences whose content feature rows lie back to
        back, ``sizes[i]`` of them for sentence i; every row conditioned on
        the embedding of its sentence's relation, gathered once per row."""
        rel_emb = T.gather_rows(self.registry["relation.emb"], np.repeat(relations, sizes))
        return entity_scores(features, rel_emb, self.registry)

    def _ere_loss(
        self, relations: np.ndarray, spans: np.ndarray, pooled_encoder: Tensor, features: Tensor,
        scored: np.ndarray, sizes: np.ndarray, alpha: float, beta: float, stats: dict | None,
    ) -> Tensor:
        """Joint loss averaged over n sentences, with gold ``relations``, (n,),
        and gold ``spans``, (n, 4). ``pooled_encoder`` holds their (n, d)
        encoder [CLS] rows. ``features`` holds the content rows of only the
        sentences at the positions ``scored`` (``_scored``), back to back,
        ``sizes[i]`` of them for the i-th such sentence. The relation term is
        one row-wise cross entropy over all n. The entity scorers run over
        ``features``; each entity key is one cross entropy over the scored
        sentences' packed score columns, one row of ``sizes[i]`` classes each."""
        n = relations.size
        rel_ce = T.cross_entropy(relation_logits(pooled_encoder, self.registry), relations)
        entity_ces = []
        if scored.size:
            scores = self._entity_scores(features, relations[scored], sizes)
            golds = spans[scored]
            entity_ces = [T.cross_entropy(scores[key], golds[:, j], sizes) for j, key in enumerate(ENTITY_KEYS)]
        if stats is not None:
            stats["relation_ce"] = stats.get("relation_ce", 0.0) + rel_ce.item()
            stats["entity_ce"] = stats.get("entity_ce", 0.0) + sum(t.item() for t in entity_ces)
            stats["sentences"] = stats.get("sentences", 0) + n
        return T.mul(sentence_ere_loss(rel_ce, entity_ces, alpha, beta), 1.0 / n)

    # -- stage losses ------------------------------------------------------

    def stage1_batch_loss(
        self, split: TokenizedSplit, batch: np.ndarray, alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over the sentences of ``split`` at the indices of
        ``batch``, (groups, s), row-major: each row is one concatenation group,
        aggregated over its members' rows; only the ``_scored`` sentences'
        content rows go on to the entity heads."""
        flat = batch.reshape(-1)
        pooled, fused = self._forward(split, flat, batch.shape[1])
        lengths, relations = split.lengths[flat], split.relations[flat]
        scored, sizes, rows = _content_rows(np.cumsum(lengths) - lengths, lengths, _scored(relations, lengths))
        return self._ere_loss(relations, split.spans[flat], pooled, T.gather_rows(fused, rows), scored, sizes,
                              alpha, beta, stats)

    def frozen_prefix(self, split: TokenizedSplit) -> FrozenPrefix:
        """The ``FrozenPrefix`` of ``split``. ``_forward`` runs over sentences of
        one exact length at a time, at most ``_PASS`` of them per pass. No
        value depends on a sentence's pass-mates; the passes stay so that each
        attention call is one batched problem. Passes in input order built
        the three benchmark splits' tables slower in 15, 15 and 13 of 20
        interleaved builds (medians 88.4, 86.9 and 81.4 ms against 88.9, 96.9
        and 85.5 ms; 2 cores, one BLAS thread).

        Nothing here turns the tape off: under stage 2's freezing no op
        records one, and a model with trainable encoder or aggregator
        parameters gets a table that passes their gradients on."""
        lengths = split.lengths
        order, pooled, rows = [], [], []
        for _, part in _passes(lengths):
            p, f = self._forward(split, part, 1)
            order.append(part)
            pooled.append(p)
            rows.append(f)
        order = np.concatenate(order)
        starts, index = np.empty_like(lengths), np.empty_like(lengths)
        starts[order] = np.cumsum(lengths[order]) - lengths[order]
        index[order] = np.arange(lengths.size)
        return FrozenPrefix(split, T.concat(pooled, axis=0), T.concat(rows, axis=0), index, starts)

    def stage2_batch_loss(
        self, table: FrozenPrefix, batch: np.ndarray, alpha: float, beta: float, stats: dict | None = None
    ) -> Tensor:
        """Mean joint loss over the sentences of ``table`` at the indices
        ``batch``: every [CLS] row to the relation head, and only the
        ``_scored`` sentences' content rows through the switcher's training
        mix, each row under its sentence's language, to the entity heads."""
        split = table.split
        pooled = T.gather_rows(table.pooled, table.index[batch])
        relations, lengths = split.relations[batch], split.lengths[batch]
        scored, sizes, content = _content_rows(table.starts[batch], lengths, _scored(relations, lengths))
        rows = T.gather_rows(table.rows, content)
        if scored.size:
            rows = switch_train(rows, np.repeat(split.langs[batch[scored]], sizes), self.registry, self.cfg)
        return self._ere_loss(relations, split.spans[batch], pooled, rows, scored, sizes, alpha, beta, stats)

    # -- prediction --------------------------------------------------------

    def _prediction_table(self, examples: list[Example]) -> FrozenPrefix:
        """The ``frozen_prefix`` table of ``examples``, which depends on
        nothing but the examples and the ``encoder.`` and ``aggregator.``
        values. The last one built is kept with copies of those inputs, and
        reused while they compare equal: the examples by value and every
        array bit for bit. A miss drops the kept table before building its
        successor. The kept table's arrays are read-only."""
        params = [(n, t.shape, t.data.tobytes()) for n, t in self.registry.items() if n.startswith(_PREFIX_PARAMS)]
        key = (list(examples), params)
        if self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        self._kept = None
        table = self.frozen_prefix(self.tokenize(examples))
        table.pooled.data.flags.writeable = table.rows.data.flags.writeable = False
        self._kept = key, table
        return table

    @T.no_grad()
    def predict_all(
        self, examples: list[Example], top_k: int | None = None, dump_scores: bool = False
    ) -> list[TriplePrediction]:
        """One prediction per example, in order, recording no tape. The
        examples' ``frozen_prefix`` table is the kept one while its inputs
        compare equal (``_prediction_table``). Every [CLS] row goes to the
        relation head and the masked argmax first; the rest works only on
        the rows the outputs read, the content rows of the sentences that
        predict a relation, in passes of at most ``_PASS`` such sentences of
        one language. A pass gathers their rows back to back, from stage 2
        on mixes them under the language's row of top-k weights, all taken
        at once by ``eval_weights`` (``switch_eval``), scores them through
        ``_entity_scores``, as training does, and decodes the packed score
        columns with the sentences' sizes, so spans come out in content
        coordinates. A pass of one content row runs its sentence twice, so
        no product gets a one-row operand, which numpy takes down its gemv
        path, with other bits than a product of two or more rows may get.
        Dumped scores keep the sentence's length; the specials read exactly
        NEG_INF. ``predict`` packages each sentence's outputs."""
        if not examples:
            return []
        table = self._prediction_table(examples)
        split = table.split
        logits = relation_logits(Tensor(table.pooled.data[table.index]), self.registry).data
        relations = masked_argmax_relation(logits, self.languages.schema.allowed, split.langs)
        spans = np.tile(SENTINEL_SPAN * 2, (len(examples), 1))
        dumped: list[dict[str, np.ndarray] | None] = [None] * len(examples)
        bearing, sizes, content = _content_rows(table.starts, split.lengths, relations)
        offsets = np.cumsum(sizes) - sizes
        weights = eval_weights(self.registry, self.cfg, top_k) if self.stage >= 2 else None
        for lang, part in _passes(split.langs[bearing]):
            if sizes[part].sum() == 1:
                part = np.repeat(part, 2)
            sel, counts = bearing[part], sizes[part]
            features = Tensor(table.rows.data[content[_row_spans(offsets[part], counts)]])
            if weights is not None:
                features = switch_eval(features, weights[lang], self.registry, self.cfg)
            columns = {key: t.data[:, 0] for key, t in self._entity_scores(features, relations[sel], counts).items()}
            spans[sel] = np.concatenate(decode_spans(columns, counts), axis=1)
            if dump_scores:
                pieces = {key: np.split(column, np.cumsum(counts)[:-1]) for key, column in columns.items()}
                for j, i in enumerate(sel):
                    dumped[i] = {key: np.pad(a[j], (CONTENT_START, 1), constant_values=NEG_INF)
                                 for key, a in pieces.items()}
        # relations and spans become Python ints in one pass per array, so a
        # predict call makes no numpy scalar
        outputs = zip(split.example_ids, logits, relations.tolist(), spans.tolist(), dumped)
        return [self.predict(*output) for output in outputs]

    def predict(
        self, example_id: str, logits: np.ndarray, relation: int, spans: list[int],
        scores: dict[str, np.ndarray] | None = None,
    ) -> TriplePrediction:
        """The prediction of one sentence of ``predict_all``'s table, packaged
        from its heads outputs: its relation logits and masked-argmax
        relation, its head and tail spans as (start, end, start, end) in
        content-token coordinates, so they compare directly with gold spans
        (the sentinel for no relation), and its entity scores if dumped.
        The relation and the spans arrive as Python ints."""
        head_start, head_end, tail_start, tail_end = spans
        return TriplePrediction(
            example_id=example_id,
            relation=relation,
            head_span=(head_start, head_end),
            tail_span=(tail_start, tail_end),
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
            "vocab_sha256": _vocab_sha256(self.languages),
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
        """Rebuild a model from a checkpoint, validating every shape, the
        model config, and the language/relation inventory and content
        vocabulary against the supplied registry. The parameters are the
        checkpoint's arrays; nothing is drawn at random."""
        snap, arrays, extra = load_checkpoint(path)
        codes = [l.code for l in languages.languages]
        if snap.get("language_codes") != codes:
            raise CheckpointError(
                f"checkpoint languages {snap.get('language_codes')} do not match corpus {codes}"
            )
        if snap.get("relations") != list(languages.schema.relations):
            raise CheckpointError("checkpoint relation inventory does not match the corpus registry")
        if snap.get("vocab_sha256") != _vocab_sha256(languages):
            raise CheckpointError("checkpoint vocabulary does not match the corpus vocabulary")
        try:
            cfg = ModelConfig.from_json(snap["model"])
            cfg.validate()
        except (KeyError, ConfigError) as exc:
            raise CheckpointError(f"checkpoint model config is malformed: {exc!r}") from None
        model = cls._assemble(cfg, languages, _NoDraw())
        model.registry.load_arrays(arrays)
        model.stage = snap.get("stage", 0)
        if type(model.stage) is not int or model.stage not in (0, 1, 2):
            raise CheckpointError(f"checkpoint stage must be 0, 1 or 2, got {model.stage!r}")
        return model, snap, extra
