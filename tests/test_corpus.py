"""Corpus generation and I/O: determinism, invariants, split arithmetic,
word-order rendering, group sampling statistics, and error surfaces."""

import hashlib
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from relmux.corpus import (
    GeneratorConfig,
    LanguageRegistry,
    LanguageSpec,
    RelationSchema,
    SENTINEL_SPAN,
    _ENTITY_SYLLABLES,
    _FILLER_SYLLABLES,
    _SurfaceBank,
    generate_corpus,
    index_pools,
    load_corpus,
    load_examples,
    sample_stage1_batch,
    save_corpus,
)
from relmux.errors import ConfigError, DataValidationError

from oracles import CHI2_CRIT_999, OracleAlphabetExhausted, chi_square_stat, oracle_word

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def example_pools(examples):
    """The examples grouped by language, as the sampler's pools."""
    return [[examples[i] for i in pool] for pool in index_pools([ex.lang for ex in examples])]


def make_languages(sizes=(400, 200, 100, 50)):
    orders = ("SVO", "SVO", "SOV", "VSO")
    fams = ("valic", "valic", "korvic", "zahric")
    codes = ("valo", "vena", "koru", "zahr")
    return [
        LanguageSpec(i, codes[i], orders[i], fams[i], sizes[i]) for i in range(len(sizes))
    ]


def make_schema(n_langs=4):
    rels = ("no_relation", "has-kind", "locat-in", "works-for", "made-by", "part-of")
    allowed = np.ones((n_langs, len(rels)), dtype=bool)
    if n_langs >= 4:
        allowed[3, 4:] = False  # low-resource language misses two relations
    return RelationSchema(relations=rels, allowed=allowed)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(make_languages(), make_schema(), seed=7)


class TestGeneration:
    def test_deterministic_given_seed(self, corpus):
        again = generate_corpus(make_languages(), make_schema(), seed=7)
        assert corpus.train == again.train
        assert corpus.dev == again.dev
        assert corpus.test == again.test

    def test_different_seed_differs(self, corpus):
        other = generate_corpus(make_languages(), make_schema(), seed=8)
        assert corpus.train != other.train

    def test_split_sizes_match_ratio_within_rounding(self):
        sizes = [4000, 2000, 1000, 500, 120]
        langs = [
            LanguageSpec(i, f"l{i}", "SVO" if i % 2 == 0 else "SOV", f"f{i % 2}", sizes[i])
            for i in range(5)
        ]
        rels = ("no_relation", "r1", "r2", "r3")
        schema = RelationSchema(relations=rels, allowed=np.ones((5, 4), dtype=bool))
        corpus = generate_corpus(langs, schema, seed=1)
        # independent tally from the rendered examples
        for split, ratio in (("train", 0.8), ("dev", 0.1), ("test", 0.1)):
            counts = Counter(e.lang for e in corpus.split(split))
            for lang in langs:
                assert abs(counts[lang.id] - ratio * lang.resource_size) <= 1.0
        for lang in langs:
            total = sum(
                1 for s in ("train", "dev", "test") for e in corpus.split(s) if e.lang == lang.id
            )
            assert total == lang.resource_size

    def test_every_example_passes_invariants(self, corpus):
        for split in ("train", "dev", "test"):
            for ex in corpus.split(split):
                ex.validate(corpus.registry.schema)

    def test_spans_relocate_entity_surfaces(self, corpus):
        # gold spans must cover exactly the rendered subject/object surface
        # forms, re-located from the generator's surface tables
        assert corpus.frames is not None and corpus.surfaces is not None
        for ex, (subj, rel, obj) in zip(corpus.train, corpus.frames["train"]):
            if ex.relation == 0:
                continue
            assert rel == ex.relation
            head = ex.tokens[ex.head_span[0] : ex.head_span[1] + 1]
            tail = ex.tokens[ex.tail_span[0] : ex.tail_span[1] + 1]
            assert head == corpus.surfaces[(ex.lang, subj)], ex
            assert tail == corpus.surfaces[(ex.lang, obj)], ex

    def test_relation_masks_respected(self, corpus):
        allowed = corpus.registry.schema.allowed
        for ex in corpus.train + corpus.dev + corpus.test:
            assert allowed[ex.lang, ex.relation]

    def test_no_relation_fraction_and_sentinels(self, corpus):
        nr = [e for e in corpus.train if e.relation == 0]
        assert 0.05 < len(nr) / len(corpus.train) < 0.15
        for ex in nr:
            assert ex.head_span == SENTINEL_SPAN and ex.tail_span == SENTINEL_SPAN

    def test_splits_disjoint_by_frame(self, corpus):
        frames = corpus.frames
        assert frames is not None
        sets = {s: set(frames[s]) for s in ("train", "dev", "test")}
        assert not (sets["train"] & sets["dev"])
        assert not (sets["train"] & sets["test"])
        assert not (sets["dev"] & sets["test"])

    def test_word_order_places_cue_after_entities_in_sov(self):
        # forced by the template definition: SOV renders subject, object, cue
        langs = make_languages()
        corpus = generate_corpus(langs, make_schema(), seed=3)
        sov = [e for e in corpus.train if e.lang == 2 and e.relation != 0]
        assert sov
        for ex in sov:
            assert max(ex.head_span[1], ex.tail_span[1]) < len(ex.tokens)
            # the cue sits after both entity spans, possibly followed by a filler
            cue_region = range(max(ex.head_span[1], ex.tail_span[1]) + 1, len(ex.tokens))
            assert any(
                any(ex.tokens[i].startswith(s) for s in ("gol", "hem", "jat", "kur", "lin", "mor", "nep", "qul"))
                for i in cue_region
            )

    def test_vso_places_cue_before_entities(self):
        corpus = generate_corpus(make_languages(), make_schema(), seed=3)
        vso = [e for e in corpus.train if e.lang == 3 and e.relation != 0]
        assert vso
        for ex in vso:
            first_entity = min(ex.head_span[0], ex.tail_span[0])
            assert any(
                any(ex.tokens[i].startswith(s) for s in ("gol", "hem", "jat", "kur", "lin", "mor", "nep", "qul"))
                for i in range(first_entity)
            )

    def test_family_shares_vocabulary(self, corpus):
        langs = corpus.registry.languages
        same_family = set(langs[0].vocab) & set(langs[1].vocab)
        cross_family = set(langs[0].vocab) & set(langs[2].vocab)
        assert len(same_family) > 0.15 * len(langs[0].vocab)
        assert not cross_family

    def test_single_language_generates_but_cannot_form_pairs(self):
        # generation succeeds with one language; stage-1 pairing surfaces the error
        mono = generate_corpus(make_languages()[:1], make_schema(1), seed=0)
        assert mono.train
        with pytest.raises(ConfigError, match="languages"):
            sample_stage1_batch(example_pools(mono.train), 2, 4, np.random.default_rng(0))

    def test_tiniest_resource_keeps_one_training_sentence(self):
        # dev and test each round 10% of one sentence to zero, so train keeps it
        corpus = generate_corpus(make_languages((1, 200, 100, 50)), make_schema(), seed=0)
        assert [sum(e.lang == 0 for e in corpus.split(s)) for s in ("train", "dev", "test")] == [1, 0, 0]


# SHA-256 over the files save_corpus writes for two seeded specs: any change to
# what a seed generates moves a hash, so only a change meant to move the corpus
# re-records them.
PINNED_CORPORA = [
    ("benchmark_langs.json", 100, {"family_share": 0.85}, "bd93d79703af5280386590726b63c49491e5cd76ba2c705d1b85beba3216270f"),
    ("overfit_langs.json", 0, {}, "65f114b48e40f4d61b979a9ccea6c29c136b52f847e308e0bb7c335588167dd4"),
]


@pytest.mark.parametrize("spec, seed, gen_kw, expected", PINNED_CORPORA,
                         ids=[spec for spec, *_ in PINNED_CORPORA])
def test_generated_corpus_matches_pinned_hash(spec, seed, gen_kw, expected, tmp_path):
    registry = LanguageRegistry.load(CONFIGS / spec)
    corpus = generate_corpus(registry.languages, registry.schema, seed=seed, gen=GeneratorConfig(**gen_kw))
    save_corpus(tmp_path, corpus)
    h = hashlib.sha256()
    for name in ("registry.json", "train.txt", "dev.txt", "test.txt"):
        h.update(name.encode() + b"\0" + (tmp_path / name).read_bytes())
    assert h.hexdigest() == expected



class _EveryWordUsed(set):
    """A used-word set that holds every word, so each try collides."""

    def __contains__(self, word):
        return True


class TestSurfaceBankStream:
    """The surface bank draws a crowded tier as one block and rewinds; its
    words and the generator state after each word must match a draw per
    syllable, or every corpus after the first collision would move."""

    def _lockstep(self, syllables, n_syl, n_words):
        """Run the bank and the oracle from equal seeds, with one uniform draw
        between words as the generator's family coin takes; returns the words."""
        bank = _SurfaceBank(syllables, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        oracle_used = set()
        words = []
        for _ in range(n_words):
            w = bank.word(n_syl)
            assert oracle_word(syllables, rng, oracle_used, n_syl) == w
            assert bank.rng.bit_generator.state == rng.bit_generator.state
            assert bank.rng.random() == rng.random()
            words.append(w)
        assert bank.used == oracle_used
        return words

    def test_entity_words_fill_tier_two_and_open_tier_three(self):
        words = self._lockstep(_ENTITY_SYLLABLES, 2, 220)
        # entity syllables are two letters: tier 2 fills all its 144 words
        # and the rest open tier 3
        assert Counter(len(w) // 2 for w in words) == {2: 144, 3: 76}

    def test_filler_words_of_one_syllable(self):
        words = self._lockstep(_FILLER_SYLLABLES, 1, 20)
        assert sorted(w for w in words if len(w) == 2) == sorted(_FILLER_SYLLABLES)

    def test_exhausted_alphabet_raises_after_the_same_draws(self):
        bank = _SurfaceBank(_FILLER_SYLLABLES[:2], np.random.default_rng(3))
        bank.used = _EveryWordUsed()
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="exhausted"):
            bank.word(1)
        with pytest.raises(OracleAlphabetExhausted):
            oracle_word(_FILLER_SYLLABLES[:2], rng, _EveryWordUsed(), 1)
        assert bank.rng.bit_generator.state == rng.bit_generator.state


class TestExampleIO:
    def test_round_trip(self, corpus, tmp_path):
        save_corpus(tmp_path, corpus)
        again = load_corpus(tmp_path)
        assert again.train == corpus.train
        assert again.dev == corpus.dev
        assert again.test == corpus.test
        assert [l.vocab for l in again.registry.languages] == [
            l.vocab for l in corpus.registry.languages
        ]

    def test_end_before_start_rejected_with_line(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "schema_version=1\n"
            "id=x-1\tlang=valo\ttokens=a b c\thead=2:1\ttail=0:0\trel=has-kind\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match="line 2"):
            load_examples(path, corpus.registry)

    def test_unknown_relation_lists_known(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "schema_version=1\n"
            "id=x-1\tlang=valo\ttokens=a b\thead=0:0\ttail=1:1\trel=bogus\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match="has-kind"):
            load_examples(path, corpus.registry)

    def test_malformed_line_number_reported(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("schema_version=1\nnot a record\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="line 2"):
            load_examples(path, corpus.registry)

    def test_file_that_is_not_utf8_rejected_with_file_and_line(self, corpus, tmp_path):
        path = tmp_path / "dev.txt"
        path.write_bytes(b"schema_version=1\n"
                         b"id=x-1\tlang=valo\ttokens=a b\thead=0:0\ttail=1:1\trel=has-kind\n"
                         b"id=x-2\tlang=valo\ttokens=a \xff\thead=0:0\ttail=1:1\trel=has-kind\n")
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: line 3: not UTF-8")):
            load_examples(path, corpus.registry)

    def test_repeated_field_rejected_with_file_and_line(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "schema_version=1\n"
            "id=x-1\tlang=valo\ttokens=a b\thead=0:0\ttail=1:1\trel=has-kind\tid=x-2\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: line 2: repeated field 'id'")):
            load_examples(path, corpus.registry)

    def test_malformed_span_rejected_with_file_and_line(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "schema_version=1\n"
            "id=x-1\tlang=valo\ttokens=a b\thead=0-0\ttail=1:1\trel=has-kind\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match=re.escape(f"{path}: line 2: malformed span '0-0'")):
            load_examples(path, corpus.registry)

    def test_missing_header_rejected(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("id=x\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match="schema_version"):
            load_examples(path, corpus.registry)

    def test_unknown_language_rejected(self, corpus, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "schema_version=1\n"
            "id=x-1\tlang=nope\ttokens=a\thead=0:0\ttail=0:0\trel=has-kind\n",
            encoding="utf-8",
        )
        with pytest.raises(DataValidationError, match="nope"):
            load_examples(path, corpus.registry)


class TestStage1Sampling:
    def test_index_pools_group_indices_by_key_in_key_order(self):
        pools = index_pools([2, 0, 2, 1, 0, 2])
        assert [pool.tolist() for pool in pools] == [[1, 4], [3], [0, 2, 5]]
        assert index_pools([]) == []

    def test_groups_have_distinct_languages(self, corpus, rng):
        for group in sample_stage1_batch(example_pools(corpus.train), 3, 16, rng):
            assert len({e.lang for e in group}) == 3

    def test_s1_degenerates_to_single_sentences(self, corpus, rng):
        groups = sample_stage1_batch(example_pools(corpus.train), 1, 8, rng)
        assert all(len(g) == 1 for g in groups)

    def test_s_larger_than_languages_rejected(self, corpus, rng):
        with pytest.raises(ConfigError):
            sample_stage1_batch(example_pools(corpus.train), 5, 4, rng)

    @pytest.mark.parametrize("n_langs", [1, 2, 3, 4])
    def test_groups_of_one_draw_as_language_then_sentence(self, corpus, n_langs):
        # stage 2's batches are groups of one; they must be the draws of a
        # uniform language, then a uniform sentence in it, on the same stream
        pools = example_pools(corpus.train)[:n_langs]
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        got = [ex for (ex,) in sample_stage1_batch(pools, 1, 2000, rng)]
        want = []
        for _ in range(2000):
            pool = pools[int(twin.integers(len(pools)))]
            want.append(pool[int(twin.integers(len(pool)))])
        assert [ex.id for ex in got] == [ex.id for ex in want]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_pair_frequencies_uniform(self, corpus):
        rng = np.random.default_rng(123)
        draws = 10000
        counts = Counter()
        for group in sample_stage1_batch(example_pools(corpus.train), 2, draws, rng):
            counts[frozenset(e.lang for e in group)] += 1
        pairs = list(combinations(range(4), 2))
        expect = draws / len(pairs)
        # each unordered pair within 3 sigma of the multinomial expectation
        sigma = np.sqrt(draws * (1 / len(pairs)) * (1 - 1 / len(pairs)))
        observed = []
        for pair in pairs:
            n = counts[frozenset(pair)]
            observed.append(n)
            assert abs(n - expect) <= 3 * sigma
        stat = chi_square_stat(np.array(observed), np.full(len(pairs), expect))
        assert stat < CHI2_CRIT_999[len(pairs) - 1]


class TestRegistryValidation:
    def test_no_relation_must_lead(self):
        with pytest.raises(ConfigError):
            RelationSchema(relations=("has-kind", "no_relation"), allowed=np.ones((2, 2), dtype=bool)).validate(2)

    def test_every_language_needs_content_relations(self):
        allowed = np.ones((2, 3), dtype=bool)
        allowed[1, 1:] = False
        schema = RelationSchema(relations=("no_relation", "a", "b"), allowed=allowed)
        with pytest.raises(ConfigError):
            schema.validate(2)

    def test_registry_json_round_trip(self, corpus, tmp_path):
        path = tmp_path / "registry.json"
        corpus.registry.save(path)
        again = LanguageRegistry.load(path)
        assert [l.code for l in again.languages] == [l.code for l in corpus.registry.languages]
        assert again.schema.relations == corpus.registry.schema.relations
        assert np.array_equal(again.schema.allowed, corpus.registry.schema.allowed)
