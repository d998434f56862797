// Streaming corpus generation + on-disk format round-trip (DESIGN.md §13):
// the streaming generator must be byte-identical to batch GenerateCorpus,
// write → mmap-read must reproduce every document, annotation, split and
// vocabulary term exactly, and a corrupted file must either fail with a
// Status or load only in-range values.
#include "corpus/corpus_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "corpus/generator.h"

namespace ie {
namespace {

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.num_documents = 300;
  options.seed = 7;
  return options;
}

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameDoc(const Document& a, const Document& b) {
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.sentences.size(), b.sentences.size());
  for (size_t s = 0; s < a.sentences.size(); ++s) {
    EXPECT_EQ(a.sentences[s].tokens, b.sentences[s].tokens);
  }
}

void ExpectSameAnnotations(const DocAnnotations& a, const DocAnnotations& b) {
  ASSERT_EQ(a.mentions.size(), b.mentions.size());
  for (size_t i = 0; i < a.mentions.size(); ++i) {
    EXPECT_EQ(a.mentions[i].sentence, b.mentions[i].sentence);
    EXPECT_EQ(a.mentions[i].begin, b.mentions[i].begin);
    EXPECT_EQ(a.mentions[i].end, b.mentions[i].end);
    EXPECT_EQ(a.mentions[i].type, b.mentions[i].type);
    EXPECT_EQ(a.mentions[i].value, b.mentions[i].value);
  }
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    EXPECT_EQ(a.tuples[i].relation, b.tuples[i].relation);
    EXPECT_EQ(a.tuples[i].attr1, b.tuples[i].attr1);
    EXPECT_EQ(a.tuples[i].attr2, b.tuples[i].attr2);
    EXPECT_EQ(a.tuples[i].sentence, b.tuples[i].sentence);
  }
}

void ExpectSameSplits(const CorpusSplits& a, const CorpusSplits& b) {
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.dev, b.dev);
  EXPECT_EQ(a.test, b.test);
}

TEST(StreamingGeneratorTest, ByteIdenticalToBatchGeneration) {
  const Corpus batch = GenerateCorpus(SmallOptions());

  StreamingCorpusGenerator gen(SmallOptions());
  EXPECT_EQ(gen.num_documents(), 300u);
  Document doc;
  DocAnnotations ann;
  size_t count = 0;
  while (gen.Next(&doc, &ann)) {
    ASSERT_LT(count, batch.size());
    EXPECT_EQ(doc.id, count);
    ExpectSameDoc(batch.doc(static_cast<DocId>(count)), doc);
    ExpectSameAnnotations(batch.annotations(static_cast<DocId>(count)), ann);
    ++count;
  }
  EXPECT_EQ(count, batch.size());
  EXPECT_EQ(gen.num_generated(), count);
  ExpectSameSplits(batch.splits(), gen.MakeSplits());
  // Same vocabulary, term for term.
  ASSERT_EQ(gen.shared_vocab()->size(), batch.vocab().size());
  for (uint32_t id = 0; id < batch.vocab().size(); ++id) {
    EXPECT_EQ(gen.shared_vocab()->Term(id), batch.vocab().Term(id));
  }
}

TEST(CorpusIoTest, WriteReadRoundTrip) {
  const std::string path = TmpPath("roundtrip.iecp");
  const auto written = WriteGeneratedCorpus(SmallOptions(), path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(*written, 300u);

  const Corpus batch = GenerateCorpus(SmallOptions());
  auto read = ReadCorpusFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const Corpus& loaded = *read;

  ASSERT_EQ(loaded.size(), batch.size());
  for (DocId id = 0; id < batch.size(); ++id) {
    ExpectSameDoc(batch.doc(id), loaded.doc(id));
    ExpectSameAnnotations(batch.annotations(id), loaded.annotations(id));
  }
  ExpectSameSplits(batch.splits(), loaded.splits());
  ASSERT_EQ(loaded.vocab().size(), batch.vocab().size());
  for (uint32_t id = 0; id < batch.vocab().size(); ++id) {
    EXPECT_EQ(loaded.vocab().Term(id), batch.vocab().Term(id));
  }
}

TEST(CorpusIoTest, ReaderRandomAccess) {
  const std::string path = TmpPath("random_access.iecp");
  ASSERT_TRUE(WriteGeneratedCorpus(SmallOptions(), path).ok());
  const Corpus batch = GenerateCorpus(SmallOptions());

  auto reader = CorpusReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->NumDocs(), 300u);

  Document doc;
  DocAnnotations ann;
  // Arbitrary ids, out of write order; annotations optional.
  for (DocId id : {299u, 0u, 150u, 7u, 298u}) {
    ASSERT_TRUE(reader->ReadDoc(id, &doc, &ann).ok());
    ExpectSameDoc(batch.doc(id), doc);
    ExpectSameAnnotations(batch.annotations(id), ann);
    ASSERT_TRUE(reader->ReadDoc(id, &doc).ok());  // without annotations
    ExpectSameDoc(batch.doc(id), doc);
  }
  EXPECT_TRUE(reader->ReadDoc(300, &doc).IsOutOfRange());
}

TEST(CorpusIoTest, UnfinishedFileRejected) {
  const std::string path = TmpPath("unfinished.iecp");
  {
    auto writer = CorpusWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    Document doc;
    doc.id = 0;
    doc.sentences.push_back(Sentence{{1, 2, 3}});
    ASSERT_TRUE(writer->Append(doc, DocAnnotations{}).ok());
    // Dropped without Finish(): header never gets a footer offset.
  }
  EXPECT_FALSE(CorpusReader::Open(path).ok());
}

TEST(CorpusIoTest, WriterEnforcesSequentialIds) {
  const std::string path = TmpPath("idorder.iecp");
  auto writer = CorpusWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  Document doc;
  doc.id = 5;
  EXPECT_TRUE(writer->Append(doc, DocAnnotations{}).IsInvalidArgument());
  doc.id = 0;
  EXPECT_TRUE(writer->Append(doc, DocAnnotations{}).ok());
  EXPECT_TRUE(writer->Append(doc, DocAnnotations{}).IsInvalidArgument());
  EXPECT_EQ(writer->num_docs(), 1u);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every value a loaded corpus hands out is in range: token ids within the
/// vocabulary, mention spans within their sentence, tuple sentences within
/// their document, enum values below their counts, split ids below the
/// document count. Returns the first violation, or "" when there is none.
std::string FirstOutOfRangeValue(const Corpus& corpus) {
  for (DocId id = 0; id < corpus.size(); ++id) {
    const Document& doc = corpus.doc(id);
    for (const Sentence& sentence : doc.sentences) {
      for (TokenId token : sentence.tokens) {
        if (token >= corpus.vocab().size()) return "token id";
      }
    }
    const DocAnnotations& ann = corpus.annotations(id);
    for (const EntityMention& m : ann.mentions) {
      if (m.sentence >= doc.sentences.size() || m.begin > m.end ||
          m.end > doc.sentences[m.sentence].tokens.size()) {
        return "mention span";
      }
      if (static_cast<size_t>(m.type) >= kNumEntityTypes) {
        return "entity type";
      }
    }
    for (const GoldTuple& t : ann.tuples) {
      if (t.sentence >= doc.sentences.size()) return "tuple sentence";
      if (static_cast<size_t>(t.relation) >= kNumRelations) return "relation";
    }
  }
  for (const std::vector<DocId>* ids :
       {&corpus.splits().train, &corpus.splits().dev, &corpus.splits().test}) {
    for (DocId split_id : *ids) {
      if (split_id >= corpus.size()) return "split doc id";
    }
  }
  return "";
}

// Deterministic mutation sweep over a small written corpus: single-bit
// flips anywhere in the file, and every tenth mutant a truncation, after
// two targeted flips of high count bits whose products with the element
// size wrap a u64. Each mutant either fails to load with a Status or
// loads a corpus whose every value is in range (values that are in range
// but wrong are left to section checksums).
TEST(CorpusIoTest, MutantsFailOrLoadInRangeValues) {
  GeneratorOptions options;
  options.num_documents = 30;
  options.seed = 5;
  const std::string source = TmpPath("mutation_source.iecp");
  ASSERT_TRUE(WriteGeneratedCorpus(options, source).ok());
  const std::string original = ReadBytes(source);
  ASSERT_FALSE(original.empty());
  {
    auto clean = ReadCorpusFile(source);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_EQ(FirstOutOfRangeValue(*clean), "");
  }

  auto flip = [](std::string* bytes, uint64_t bit) {
    (*bytes)[bit / 8] = static_cast<char>(
        static_cast<unsigned char>((*bytes)[bit / 8]) ^ (1u << (bit % 8)));
  };
  // The header's doc count is the u64 at byte 8; the train split's count
  // is the first u64 of the splits section, whose position is the second
  // u64 of the footer (located by the header's u64 at byte 16).
  uint64_t footer_pos = 0;
  uint64_t splits_pos = 0;
  std::memcpy(&footer_pos, original.data() + 16, sizeof(footer_pos));
  std::memcpy(&splits_pos, original.data() + footer_pos + 8,
              sizeof(splits_pos));
  const std::vector<uint64_t> targeted_bits = {8 * 8 + 61,
                                               splits_pos * 8 + 62};

  const std::string path = TmpPath("mutant.iecp");
  Rng rng(20261018);
  size_t rejected = 0;
  size_t loaded = 0;
  const size_t num_targeted = targeted_bits.size();
  for (size_t mutant = 0; mutant < num_targeted + 400; ++mutant) {
    std::string bytes = original;
    if (mutant < num_targeted) {
      flip(&bytes, targeted_bits[mutant]);
    } else if ((mutant - num_targeted) % 10 == 9) {
      bytes.resize(rng.NextBounded(bytes.size()));
    } else {
      flip(&bytes, rng.NextBounded(bytes.size() * 8));
    }
    WriteBytes(path, bytes);
    const auto corpus = ReadCorpusFile(path);
    if (!corpus.ok()) {
      ++rejected;
      continue;
    }
    EXPECT_GE(mutant, num_targeted) << "a wrapped count loaded";
    ++loaded;
    EXPECT_EQ(FirstOutOfRangeValue(*corpus), "") << "mutant " << mutant;
  }
  // Both outcomes occur, so the sweep exercises the checks and the loads.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
  std::remove(source.c_str());
}

TEST(CorpusIoTest, GarbageFileRejected) {
  const std::string path = TmpPath("garbage.iecp");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a corpus file, not even close to one....";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_FALSE(CorpusReader::Open(path).ok());
}

}  // namespace
}  // namespace ie
