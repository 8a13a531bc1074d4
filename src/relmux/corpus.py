"""Languages, relations, annotated examples, and the synthetic corpus generator.

The generator builds a multilingual corpus from language-independent semantic
frames (subject concept, relation, object concept). Each frame is rendered
into a language's own vocabulary and constituent order (SVO/SOV/VSO), with
optional filler words, and the gold head/tail spans are recorded after
reordering. Languages in the same family share a configurable fraction of
surface forms, which is what makes cross-lingual transfer measurable on the
synthetic data. Train/dev/test splits are disjoint by frame, and generation
is a pure function of (language specs, relation schema, seed). Surface words
take a draw per syllable, except that a crowded syllable-count tier is drawn
as one block and the generator rewound to the syllables used, which leaves the
stream, and so the corpus, as a draw per syllable would.

Corpus files are UTF-8, one record per line of tab-separated key=value fields
(see save_examples / load_examples); the language registry and relation schema
live together in one JSON config with a schema_version field.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import read_json_object, write_atomic
from .errors import ConfigError, DataValidationError

SCHEMA_VERSION = 1
NO_RELATION = "no_relation"
SENTINEL_SPAN = (-1, -1)
WORD_ORDERS = ("SVO", "SOV", "VSO")
SPLITS = ("train", "dev", "test")

# Disjoint syllable alphabets per token role keep every surface form
# unambiguous: an entity token can never collide with a cue or filler.
_ENTITY_SYLLABLES = ("ba", "ke", "lo", "mi", "na", "pu", "ri", "sa", "to", "vu", "ze", "da")
_CUE_SYLLABLES = ("gol", "hem", "jat", "kur", "lin", "mor", "nep", "qul")
_FILLER_SYLLABLES = ("af", "ec", "ib", "ox", "ul", "ym")


@dataclass(frozen=True)
class LanguageSpec:
    """One registered language: dense id, code, typology tags, and inventory."""

    id: int
    code: str
    word_order: str
    family: str
    resource_size: int
    vocab: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.word_order not in WORD_ORDERS:
            raise ConfigError(f"language {self.code}: word_order must be one of {WORD_ORDERS}")
        if self.resource_size <= 0:
            raise ConfigError(f"language {self.code}: resource_size must be positive")


@dataclass
class RelationSchema:
    """Ordered relation inventory plus the per-language allowed-relation mask."""

    relations: tuple[str, ...]
    allowed: np.ndarray  # bool, (n_languages, n_relations)

    def validate(self, n_languages: int) -> None:
        if not self.relations or self.relations[0] != NO_RELATION:
            raise ConfigError(f"relation schema must start with {NO_RELATION!r} at index 0")
        if len(set(self.relations)) != len(self.relations):
            raise ConfigError("relation names must be unique")
        if self.allowed.shape != (n_languages, len(self.relations)):
            raise ConfigError(
                f"allowed mask shape {self.allowed.shape} does not match "
                f"({n_languages}, {len(self.relations)})"
            )
        if not self.allowed[:, 0].all():
            raise ConfigError(f"{NO_RELATION} must be allowed in every language")
        if (self.allowed.sum(axis=1) < 2).any():
            raise ConfigError("every language must allow at least one content relation")

    def index(self, name: str) -> int:
        try:
            return self.relations.index(name)
        except ValueError:
            raise DataValidationError(
                f"unknown relation {name!r}; known relations: {', '.join(self.relations)}"
            ) from None


@dataclass(frozen=True)
class Example:
    """One annotated sentence: tokens, gold head/tail spans, gold relation."""

    id: str
    lang: int
    tokens: tuple[str, ...]
    head_span: tuple[int, int]
    tail_span: tuple[int, int]
    relation: int

    def validate(self, schema: RelationSchema, where: str = "") -> None:
        loc = f"{where}: " if where else ""
        if not self.tokens:
            raise DataValidationError(f"{loc}example {self.id} has no tokens")
        if not 0 <= self.relation < len(schema.relations):
            raise DataValidationError(f"{loc}example {self.id}: relation index {self.relation} out of range")
        if not schema.allowed[self.lang, self.relation]:
            raise DataValidationError(
                f"{loc}example {self.id}: relation {schema.relations[self.relation]!r} "
                f"not allowed for language {self.lang}"
            )
        if self.relation == 0:
            if self.head_span != SENTINEL_SPAN or self.tail_span != SENTINEL_SPAN:
                raise DataValidationError(f"{loc}example {self.id}: {NO_RELATION} requires sentinel spans")
            return
        for tag, (s, e) in (("head", self.head_span), ("tail", self.tail_span)):
            if not (0 <= s <= e < len(self.tokens)):
                raise DataValidationError(
                    f"{loc}example {self.id}: {tag} span ({s},{e}) invalid for {len(self.tokens)} tokens"
                )


@dataclass
class LanguageRegistry:
    """Languages + relation schema, as written next to every generated corpus."""

    languages: list[LanguageSpec]
    schema: RelationSchema

    def __post_init__(self) -> None:
        codes = [l.code for l in self.languages]
        if len(set(codes)) != len(codes):
            raise ConfigError("language codes must be unique")
        for i, lang in enumerate(self.languages):
            if lang.id != i:
                raise ConfigError(f"language ids must be dense 0..N-1, got {lang.id} at position {i}")
            lang.validate()
        self.schema.validate(len(self.languages))

    @property
    def n_languages(self) -> int:
        return len(self.languages)

    @property
    def n_relations(self) -> int:
        return len(self.schema.relations)

    def lang_by_code(self, code: str) -> LanguageSpec:
        for lang in self.languages:
            if lang.code == code:
                return lang
        raise DataValidationError(f"unknown language code {code!r}")

    def content_vocab(self) -> list[str]:
        return sorted({tok for lang in self.languages for tok in lang.vocab})

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "languages": [
                {
                    "code": l.code,
                    "word_order": l.word_order,
                    "family": l.family,
                    "resource_size": l.resource_size,
                    "vocab": list(l.vocab),
                }
                for l in self.languages
            ],
            "relations": list(self.schema.relations),
            "allowed": {
                l.code: [r for i, r in enumerate(self.schema.relations) if self.schema.allowed[l.id, i]]
                for l in self.languages
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LanguageRegistry":
        if not isinstance(doc, dict):
            raise ConfigError(f"registry must be a JSON object, got {type(doc).__name__}")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported registry schema_version: {doc.get('schema_version')!r}")
        languages = []
        for i, rec in enumerate(_typed(doc, "languages", list, "registry", item=dict)):
            where = f"registry.languages[{i}]"
            code = _typed(rec, "code", str, where)
            languages.append(LanguageSpec(
                id=i,
                code=code,
                word_order=_typed(rec, "word_order", str, where),
                family=_typed(rec, "family", str, where, default=code),
                resource_size=_typed(rec, "resource_size", int, where),
                vocab=tuple(_typed(rec, "vocab", list, where, item=str, default=[])),
            ))
        relations = tuple(_typed(doc, "relations", list, "registry", item=str))
        allowed = np.zeros((len(languages), len(relations)), dtype=bool)
        allowed_doc = _typed(doc, "allowed", dict, "registry", default={})
        unknown = sorted(set(allowed_doc) - {lang.code for lang in languages})
        if unknown:
            raise ConfigError(f"allowed names unknown languages: {', '.join(unknown)}")
        for lang in languages:
            if lang.code not in allowed_doc:
                allowed[lang.id, :] = True
                continue
            for name in _typed(allowed_doc, lang.code, list, "registry.allowed", item=str):
                if name not in relations:
                    raise ConfigError(f"allowed mask for {lang.code} names unknown relation {name!r}")
                allowed[lang.id, relations.index(name)] = True
            allowed[lang.id, 0] = True
        return cls(languages=languages, schema=RelationSchema(relations=relations, allowed=allowed))

    def save(self, path: str | Path) -> None:
        write_atomic(path, json.dumps(self.to_json(), sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "LanguageRegistry":
        return cls.from_json(read_json_object(path, "registry"))


def _typed(doc: dict, key: str, kind: type, where: str, item: type | None = None, default=None):
    """``doc[key]``, which must have type ``kind`` (a list of ``item``s, if
    given), so a bool is not an int; without a default a missing key is an error."""
    if key not in doc:
        if default is None:
            raise ConfigError(f"{where} lacks {key!r}")
        return default
    value = doc[key]
    if type(value) is not kind or (item is not None and any(type(v) is not item for v in value)):
        of = f" of {item.__name__}" if item is not None else ""
        raise ConfigError(f"{where}.{key} must be {kind.__name__}{of}, got {value!r}")
    return value


@dataclass
class Corpus:
    registry: LanguageRegistry
    train: list[Example]
    dev: list[Example]
    test: list[Example]
    # frames[split][i] is the (subject, relation, object) frame behind example i,
    # and surfaces maps (language id, concept id) to the rendered entity tokens;
    # populated by the generator only, never serialized
    frames: dict[str, list[tuple[int, int, int]]] | None = None
    surfaces: dict[tuple[int, int], tuple[str, ...]] | None = None

    def split(self, name: str) -> list[Example]:
        return {split: getattr(self, split) for split in SPLITS}[name]


# ---------------------------------------------------------------------------
# Synthetic generation

N_ENTITY_CONCEPTS = 40
# dev and test each take this share of a language's sentences, rounded, and
# train takes the rest: an 80/10/10 split that leaves train at least one
HELD_OUT_FRACTION = 0.1
FILLER_PROB = 0.5  # chance of a filler word before each constituent and at the end


@dataclass
class GeneratorConfig:
    no_relation_fraction: float = 0.1
    family_share: float = 0.4  # fraction of surface forms shared within a family

    def validate(self) -> None:
        if not 0.0 <= self.no_relation_fraction < 1.0:
            raise ConfigError("no_relation_fraction must be in [0, 1)")
        if not 0.0 <= self.family_share <= 1.0:
            raise ConfigError("family_share must be in [0, 1]")


class _SurfaceBank:
    """Deterministic factory of unique surface forms from a syllable alphabet.

    ``word`` tries up to 40 random words of one syllable count (a tier) before
    it moves to one syllable longer, for at most 250 tiers. A tier's first try
    draws its syllables one at a time. After a collision the other 39 tries are
    drawn as one block, and the generator is rewound and advanced by exactly
    the syllables the tries up to the first unused word took. A sized draw
    yields the values of as many single draws, so the stream, and with it the
    corpus, is the one a draw per syllable would give.
    """

    TIER_TRIES = 40
    TIERS = 250

    def __init__(self, syllables: tuple[str, ...], rng: np.random.Generator):
        self.syllables = syllables
        self.rng = rng
        self.used: set[str] = set()

    def word(self, n_syl: int) -> str:
        rng, syl, n = self.rng, self.syllables, len(self.syllables)
        for length in range(n_syl, n_syl + self.TIERS):
            w = "".join(syl[int(rng.integers(n))] for _ in range(length))
            if w not in self.used:
                self.used.add(w)
                return w
            # the tier is crowded: draw its other tries at once, since a block
            # costs about as much as four single draws
            state = rng.bit_generator.state
            block = [syl[i] for i in rng.integers(n, size=(self.TIER_TRIES - 1) * length).tolist()]
            for end in range(length, len(block) + 1, length):
                w = "".join(block[end - length:end])
                if w not in self.used:
                    rng.bit_generator.state = state
                    rng.integers(n, size=end)
                    self.used.add(w)
                    return w
        raise ConfigError("surface alphabet exhausted; reduce concept count")

    def surface(self, max_tokens: int = 2) -> tuple[str, ...]:
        n = 1 + int(self.rng.integers(max_tokens))
        return tuple(self.word(2) for _ in range(n))


def _resolve_surfaces(
    languages: list[LanguageSpec],
    n_relations: int,
    family_share: float,
    rng: np.random.Generator,
) -> tuple[dict, dict, dict]:
    """Assign entity/cue/filler surface forms per language with family sharing.

    For each concept (or relation cue) and family, one coin decides whether the
    whole family shares a common surface; otherwise each member language gets
    its own. Different families never share forms.
    """
    members: dict[str, list[int]] = {}
    for l in languages:
        members.setdefault(l.family, []).append(l.id)
    families = [members[fam] for fam in sorted(members)]

    def share(keys: range, bank: _SurfaceBank) -> dict[tuple[int, int], tuple[str, ...]]:
        table = {}
        for key in keys:
            for ids in families:
                shared = bank.surface() if rng.random() < family_share else None
                for lid in ids:
                    table[(lid, key)] = shared or bank.surface()
        return table

    entity_surface = share(range(N_ENTITY_CONCEPTS), _SurfaceBank(_ENTITY_SYLLABLES, rng))
    cue_surface = share(range(1, n_relations), _SurfaceBank(_CUE_SYLLABLES, rng))
    fill_bank = _SurfaceBank(_FILLER_SYLLABLES, rng)
    fillers: dict[int, list[str]] = {}
    for ids in families:
        shared_pool = [fill_bank.word(1) for _ in range(3)]
        for lid in ids:
            fillers[lid] = shared_pool + [fill_bank.word(1) for _ in range(3)]
    return entity_surface, cue_surface, fillers


def _render(
    lang: LanguageSpec,
    subj: tuple[str, ...],
    obj: tuple[str, ...],
    cue: tuple[str, ...] | None,
    fillers: list[str],
    rng: np.random.Generator,
) -> tuple[list[str], tuple[int, int], tuple[int, int]]:
    """Order constituents per the language's word order and record entity spans.

    A word order names its roles in sentence order; without a cue the V drops out.
    """
    tokens: list[str] = []
    head_span = tail_span = SENTINEL_SPAN
    for role in lang.word_order if cue is not None else "SO":
        if rng.random() < FILLER_PROB:
            tokens.append(fillers[int(rng.integers(len(fillers)))])
        start = len(tokens)
        if role == "S":
            tokens.extend(subj)
            head_span = (start, len(tokens) - 1)
        elif role == "O":
            tokens.extend(obj)
            tail_span = (start, len(tokens) - 1)
        else:
            tokens.extend(cue)
    if rng.random() < FILLER_PROB:
        tokens.append(fillers[int(rng.integers(len(fillers)))])
    return tokens, head_span, tail_span


def generate_corpus(
    languages: list[LanguageSpec],
    schema: RelationSchema,
    seed: int,
    gen: GeneratorConfig | None = None,
) -> Corpus:
    """Deterministically synthesize a multilingual corpus with skewed resources.

    Frames are shared across languages (the same triple can surface in several
    languages) but never across splits. Roughly ``no_relation_fraction`` of
    each language's sentences express no relation and carry sentinel spans.
    """
    gen = gen or GeneratorConfig()
    gen.validate()
    if not languages:
        raise ConfigError("need at least one language")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    LanguageRegistry(languages=list(languages), schema=schema)  # validates
    rng = np.random.default_rng(np.random.PCG64(seed))

    content_rel = list(range(1, len(schema.relations)))
    entity_surface, cue_surface, fillers = _resolve_surfaces(
        languages, len(schema.relations), gen.family_share, rng
    )

    # Per-language, per-split sentence budgets, with and without a relation.
    need_rel: dict[tuple[int, str], int] = {}
    need_null: dict[tuple[int, str], int] = {}
    for lang in languages:
        n_held = round(lang.resource_size * HELD_OUT_FRACTION)
        for split, total in zip(SPLITS, (lang.resource_size - 2 * n_held, n_held, n_held)):
            need_null[(lang.id, split)] = round(total * gen.no_relation_fraction)
            need_rel[(lang.id, split)] = total - need_null[(lang.id, split)]

    # Frame pools, split-partitioned for disjointness. Top up until every
    # language can fill its budget from frames whose relation it allows.
    def draw_frame(existing: set, null: bool) -> tuple[int, int, int]:
        for _ in range(100000):
            r = 0 if null else content_rel[int(rng.integers(len(content_rel)))]
            s = int(rng.integers(N_ENTITY_CONCEPTS))
            o = int(rng.integers(N_ENTITY_CONCEPTS))
            if s == o:
                continue
            f = (s, r, o)
            if f not in existing:
                existing.add(f)
                return f
        raise ConfigError("frame space exhausted; reduce resource sizes")

    def build_pools(null: bool, needs: dict) -> dict[str, list]:
        seen: set = set()
        pools = {
            split: [draw_frame(seen, null) for _ in range(max(needs[(l.id, split)] for l in languages))]
            for split in SPLITS
        }
        # top up per-language shortfalls caused by the allowed-relation mask;
        # the finite frame space bounds the loop, as draw_frame raises once it is spent
        for split in SPLITS:
            for lang in languages:
                usable = sum(1 for (_, r, _) in pools[split] if schema.allowed[lang.id, r])
                while usable < needs[(lang.id, split)]:
                    frame = draw_frame(seen, null)
                    pools[split].append(frame)
                    usable += schema.allowed[lang.id, frame[1]]
        return pools

    rel_pools = build_pools(False, need_rel)
    null_pools = build_pools(True, need_null)

    examples: dict[str, list[Example]] = {split: [] for split in SPLITS}
    frames_used: dict[str, list[tuple[int, int, int]]] = {split: [] for split in SPLITS}
    for split in SPLITS:
        for lang in languages:
            frames = [f for f in rel_pools[split] if schema.allowed[lang.id, f[1]]]
            order = rng.permutation(len(frames))
            chosen = [frames[i] for i in order[: need_rel[(lang.id, split)]]]
            nulls = null_pools[split]
            order = rng.permutation(len(nulls))
            chosen += [nulls[i] for i in order[: need_null[(lang.id, split)]]]
            order = rng.permutation(len(chosen))
            for serial, i in enumerate(order):
                s, r, o = chosen[i]
                frames_used[split].append((s, r, o))
                cue = cue_surface[(lang.id, r)] if r != 0 else None
                tokens, head, tail = _render(
                    lang, entity_surface[(lang.id, s)], entity_surface[(lang.id, o)], cue, fillers[lang.id], rng
                )
                if r == 0:
                    head = tail = SENTINEL_SPAN
                examples[split].append(
                    Example(
                        id=f"{lang.code}-{split}-{serial:05d}",
                        lang=lang.id,
                        tokens=tuple(tokens),
                        head_span=head,
                        tail_span=tail,
                        relation=r,
                    )
                )

    # realized per-language vocabularies
    inventory = {lang.id: set(fillers[lang.id]) for lang in languages}
    for table in (entity_surface, cue_surface):
        for (lid, _), surf in table.items():
            inventory[lid].update(surf)
    realized = [replace(lang, vocab=tuple(sorted(inventory[lang.id]))) for lang in languages]
    corpus = Corpus(
        registry=LanguageRegistry(languages=realized, schema=schema),
        **examples,
        frames=frames_used,
        surfaces=entity_surface,
    )
    for split in SPLITS:
        for ex in corpus.split(split):
            ex.validate(schema, where=split)
    return corpus


# ---------------------------------------------------------------------------
# File I/O


def _format_span(span: tuple[int, int]) -> str:
    return f"{span[0]}:{span[1]}"


def _parse_span(text: str, where: str) -> tuple[int, int]:
    try:
        s, e = text.split(":")
        return int(s), int(e)
    except ValueError:
        raise DataValidationError(f"{where}: malformed span {text!r}") from None


def save_examples(path: str | Path, examples: list[Example], registry: LanguageRegistry) -> None:
    lines = [f"schema_version={SCHEMA_VERSION}"]
    for ex in examples:
        code = registry.languages[ex.lang].code
        rel = registry.schema.relations[ex.relation]
        lines.append(
            "\t".join(
                (
                    f"id={ex.id}",
                    f"lang={code}",
                    f"tokens={' '.join(ex.tokens)}",
                    f"head={_format_span(ex.head_span)}",
                    f"tail={_format_span(ex.tail_span)}",
                    f"rel={rel}",
                )
            )
        )
    write_atomic(path, "\n".join(lines) + "\n")


def load_examples(path: str | Path, registry: LanguageRegistry) -> list[Example]:
    """Parse and validate a UTF-8 corpus file; errors carry the file and a 1-based line number."""
    p = Path(path)
    if not p.exists():
        raise DataValidationError(f"corpus file not found: {p}")
    try:
        fh = io.StringIO(p.read_bytes().decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataValidationError(f"{p}: line {lineno}: not UTF-8 text") from None
    examples: list[Example] = []
    header = fh.readline().strip()
    if header != f"schema_version={SCHEMA_VERSION}":
        raise DataValidationError(f"{p}: line 1: expected schema_version={SCHEMA_VERSION}, got {header!r}")
    for lineno, raw_line in enumerate(fh, start=2):
        line = raw_line.rstrip("\n")
        if not line:
            continue
        where = f"{p}: line {lineno}"
        fields: dict[str, str] = {}
        for part in line.split("\t"):
            if "=" not in part:
                raise DataValidationError(f"{where}: malformed field {part!r}")
            key, value = part.split("=", 1)
            if key in fields:
                raise DataValidationError(f"{where}: repeated field {key!r}")
            fields[key] = value
        missing = {"id", "lang", "tokens", "head", "tail", "rel"} - set(fields)
        if missing:
            raise DataValidationError(f"{where}: missing fields {sorted(missing)}")
        lang = registry.lang_by_code(fields["lang"])
        relation = registry.schema.index(fields["rel"])
        ex = Example(
            id=fields["id"],
            lang=lang.id,
            tokens=tuple(fields["tokens"].split()),
            head_span=_parse_span(fields["head"], where),
            tail_span=_parse_span(fields["tail"], where),
            relation=relation,
        )
        ex.validate(registry.schema, where=where)
        examples.append(ex)
    return examples


def save_corpus(out_dir: str | Path, corpus: Corpus) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.registry.save(out / "registry.json")
    for split in SPLITS:
        save_examples(out / f"{split}.txt", corpus.split(split), corpus.registry)


def load_corpus(corpus_dir: str | Path) -> Corpus:
    d = Path(corpus_dir)
    registry = LanguageRegistry.load(d / "registry.json")
    return Corpus(registry=registry, **{split: load_examples(d / f"{split}.txt", registry) for split in SPLITS})


# ---------------------------------------------------------------------------
# Training-batch sampling


def index_pools(keys) -> list[np.ndarray]:
    """The indices of ``keys`` grouped by equal key, in ascending key order,
    each pool in index order; a key that never occurs gets no pool. Keyed by
    language, these are the pools ``sample_stage1_batch`` draws from."""
    keys = np.asarray(keys)
    return [np.flatnonzero(keys == key) for key in np.unique(keys)]


def check_group_size(s: int, n_languages: int) -> None:
    """A group of ``s`` pairwise-distinct languages needs 1 <= s <= the
    number of languages present in the split."""
    if not 1 <= s <= n_languages:
        raise ConfigError(f"group size s={s} must be in [1, {n_languages}], the languages present in the split")


def sample_stage1_batch(pools: list[list], s: int, batch_size: int, rng: np.random.Generator) -> list[list]:
    """Sample ``batch_size`` groups of ``s`` items from per-language pools
    (``index_pools`` of the languages), with pairwise-distinct languages:
    uniform over languages first, then uniform within the language. Stage 1
    concatenates each group; stage 2 draws groups of one.
    """
    check_group_size(s, len(pools))
    groups: list[list] = []
    for _ in range(batch_size):
        group = []
        # a choice of one consumes the stream as one integers draw, at a
        # seventh of the cost
        langs = [rng.integers(len(pools))] if s == 1 else rng.choice(len(pools), size=s, replace=False)
        for i in langs:
            pool = pools[int(i)]
            group.append(pool[int(rng.integers(len(pool)))])
        groups.append(group)
    return groups
