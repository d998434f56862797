#include "corpus/corpus_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace ie {

namespace {

constexpr uint32_t kMagic = 0x50434549u;  // the bytes "IECP"
constexpr uint32_t kVersion = 1;
// magic | version | num_docs | footer_offset
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8;
// offsets_pos | splits_pos | vocab_pos
constexpr size_t kFooterSize = 8 + 8 + 8;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked decoder over a byte range. Every accessor degrades to a
/// zero result and latches ok=false on underrun, so decode loops can run
/// to completion and check ok once.
struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;

  size_t Remaining() const { return static_cast<size_t>(end - p); }

  bool Skip(size_t n) {
    if (Remaining() < n) {
      ok = false;
      p = end;
      return false;
    }
    p += n;
    return true;
  }

  uint32_t U32() {
    uint32_t v = 0;
    if (Remaining() < sizeof(v)) {
      ok = false;
      p = end;
      return 0;
    }
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  }

  uint64_t U64() {
    uint64_t v = 0;
    if (Remaining() < sizeof(v)) {
      ok = false;
      p = end;
      return 0;
    }
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  }

  std::string Str() {
    const uint32_t len = U32();
    if (Remaining() < len) {
      ok = false;
      p = end;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
};

Status Corrupt(const char* what) {
  return Status::InvalidArgument(StrFormat("corrupt corpus file: %s", what));
}

void PutIdList(std::vector<uint8_t>* out, const std::vector<DocId>& ids) {
  PutU64(out, ids.size());
  const size_t at = out->size();
  out->resize(at + ids.size() * sizeof(DocId));
  std::memcpy(out->data() + at, ids.data(), ids.size() * sizeof(DocId));
}

/// Reads one id list; false on underrun or an id at or above `num_docs`.
bool GetIdList(ByteReader* r, uint64_t num_docs, std::vector<DocId>* ids) {
  const uint64_t count = r->U64();
  if (count > r->Remaining() / sizeof(DocId)) {
    r->ok = false;
    return false;
  }
  ids->resize(count);
  std::memcpy(ids->data(), r->p, count * sizeof(DocId));
  r->p += count * sizeof(DocId);
  for (DocId id : *ids) {
    if (id >= num_docs) return false;
  }
  return true;
}

}  // namespace

// --- CorpusWriter ----------------------------------------------------------

StatusOr<CorpusWriter> CorpusWriter::Create(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal(StrFormat("cannot create %s: %s", path.c_str(),
                                      std::strerror(errno)));
  }
  CorpusWriter writer;
  writer.file_ = file;
  // Placeholder header; Finish() back-patches num_docs and footer_offset.
  std::vector<uint8_t> header;
  PutU32(&header, kMagic);
  PutU32(&header, kVersion);
  PutU64(&header, 0);
  PutU64(&header, 0);
  IE_RETURN_IF_ERROR(writer.WriteBytes(header.data(), header.size()));
  return writer;
}

CorpusWriter::CorpusWriter(CorpusWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      offsets_(std::move(other.offsets_)),
      pos_(other.pos_),
      finished_(other.finished_) {}

CorpusWriter& CorpusWriter::operator=(CorpusWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    offsets_ = std::move(other.offsets_);
    pos_ = other.pos_;
    finished_ = other.finished_;
  }
  return *this;
}

CorpusWriter::~CorpusWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CorpusWriter::WriteBytes(const void* data, size_t size) {
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::Internal(
        StrFormat("corpus write failed: %s", std::strerror(errno)));
  }
  pos_ += size;
  return Status::OK();
}

Status CorpusWriter::Append(const Document& doc, const DocAnnotations& ann) {
  if (file_ == nullptr || finished_) {
    return Status::FailedPrecondition("corpus writer is closed");
  }
  if (doc.id != offsets_.size()) {
    return Status::InvalidArgument(
        StrFormat("documents must be appended in id order: expected %zu, "
                  "got %u",
                  offsets_.size(), doc.id));
  }
  std::vector<uint8_t> payload;
  PutU32(&payload, doc.id);
  PutU32(&payload, static_cast<uint32_t>(doc.sentences.size()));
  for (const Sentence& sentence : doc.sentences) {
    PutU32(&payload, static_cast<uint32_t>(sentence.tokens.size()));
    const size_t at = payload.size();
    payload.resize(at + sentence.tokens.size() * sizeof(TokenId));
    std::memcpy(payload.data() + at, sentence.tokens.data(),
                sentence.tokens.size() * sizeof(TokenId));
  }
  PutU32(&payload, static_cast<uint32_t>(ann.mentions.size()));
  for (const EntityMention& m : ann.mentions) {
    PutU32(&payload, m.sentence);
    PutU32(&payload, m.begin);
    PutU32(&payload, m.end);
    PutU32(&payload, static_cast<uint32_t>(m.type));
    PutString(&payload, m.value);
  }
  PutU32(&payload, static_cast<uint32_t>(ann.tuples.size()));
  for (const GoldTuple& t : ann.tuples) {
    PutU32(&payload, static_cast<uint32_t>(t.relation));
    PutU32(&payload, t.sentence);
    PutString(&payload, t.attr1);
    PutString(&payload, t.attr2);
  }

  offsets_.push_back(pos_);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  IE_RETURN_IF_ERROR(WriteBytes(&len, sizeof(len)));
  return WriteBytes(payload.data(), payload.size());
}

Status CorpusWriter::Finish(const CorpusSplits& splits,
                            const Vocabulary& vocab) {
  if (file_ == nullptr || finished_) {
    return Status::FailedPrecondition("corpus writer is closed");
  }
  const uint64_t offsets_pos = pos_;
  IE_RETURN_IF_ERROR(
      WriteBytes(offsets_.data(), offsets_.size() * sizeof(uint64_t)));

  const uint64_t splits_pos = pos_;
  {
    std::vector<uint8_t> buf;
    PutIdList(&buf, splits.train);
    PutIdList(&buf, splits.dev);
    PutIdList(&buf, splits.test);
    IE_RETURN_IF_ERROR(WriteBytes(buf.data(), buf.size()));
  }

  const uint64_t vocab_pos = pos_;
  {
    std::vector<uint8_t> buf;
    PutU64(&buf, vocab.size());
    for (uint32_t id = 0; id < vocab.size(); ++id) {
      PutString(&buf, vocab.Term(id));
      // Flush in chunks so a large vocabulary never doubles in memory.
      if (buf.size() >= (1u << 20)) {
        IE_RETURN_IF_ERROR(WriteBytes(buf.data(), buf.size()));
        buf.clear();
      }
    }
    IE_RETURN_IF_ERROR(WriteBytes(buf.data(), buf.size()));
  }

  const uint64_t footer_pos = pos_;
  {
    std::vector<uint8_t> footer;
    PutU64(&footer, offsets_pos);
    PutU64(&footer, splits_pos);
    PutU64(&footer, vocab_pos);
    IE_RETURN_IF_ERROR(WriteBytes(footer.data(), footer.size()));
  }

  // Back-patch the header now that the layout is known.
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::Internal("corpus writer: header seek failed");
  }
  std::vector<uint8_t> header;
  PutU32(&header, kMagic);
  PutU32(&header, kVersion);
  PutU64(&header, offsets_.size());
  PutU64(&header, footer_pos);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    return Status::Internal("corpus writer: header rewrite failed");
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  finished_ = true;
  if (rc != 0) {
    return Status::Internal(
        StrFormat("corpus close failed: %s", std::strerror(errno)));
  }
  return Status::OK();
}

// --- CorpusReader ----------------------------------------------------------

struct CorpusReader::Rep {
  const uint8_t* data = nullptr;  // mmap base
  size_t size = 0;
  const uint8_t* offsets = nullptr;  // offset table (num_docs u64s)
  uint64_t num_docs = 0;
  CorpusSplits splits;
  std::shared_ptr<Vocabulary> vocab;

  ~Rep() {
    if (data != nullptr) {
      // ARCH: const-escape (munmap takes void* by API; the mapping is
      // being torn down, so no reader can observe a mutation)
      ::munmap(const_cast<uint8_t*>(data), size);
    }
  }
};

CorpusReader::CorpusReader() = default;
CorpusReader::CorpusReader(CorpusReader&&) noexcept = default;
CorpusReader& CorpusReader::operator=(CorpusReader&&) noexcept = default;
CorpusReader::~CorpusReader() = default;

size_t CorpusReader::NumDocs() const { return rep_->num_docs; }
const CorpusSplits& CorpusReader::splits() const { return rep_->splits; }
const std::shared_ptr<Vocabulary>& CorpusReader::shared_vocab() const {
  return rep_->vocab;
}

StatusOr<CorpusReader> CorpusReader::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("cannot open %s: %s", path.c_str(), std::strerror(errno)));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal(
        StrFormat("cannot stat %s: %s", path.c_str(), std::strerror(errno)));
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderSize + kFooterSize) {
    ::close(fd);
    return Corrupt("shorter than header + footer");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == reinterpret_cast<void*>(-1)) {  // MAP_FAILED
    return Status::Internal(
        StrFormat("mmap of %s failed: %s", path.c_str(),
                  std::strerror(errno)));
  }

  CorpusReader reader;
  reader.rep_ = std::make_unique<Rep>();
  Rep& rep = *reader.rep_;
  rep.data = static_cast<const uint8_t*>(map);
  rep.size = size;

  ByteReader header{rep.data, rep.data + kHeaderSize};
  if (header.U32() != kMagic) return Corrupt("bad magic");
  if (header.U32() != kVersion) return Corrupt("unsupported version");
  rep.num_docs = header.U64();
  const uint64_t footer_pos = header.U64();
  if (footer_pos == 0) return Corrupt("unfinished write (no footer)");
  if (footer_pos + kFooterSize > size) return Corrupt("footer out of range");

  ByteReader footer{rep.data + footer_pos, rep.data + footer_pos + kFooterSize};
  const uint64_t offsets_pos = footer.U64();
  const uint64_t splits_pos = footer.U64();
  const uint64_t vocab_pos = footer.U64();
  if (offsets_pos < kHeaderSize || splits_pos < offsets_pos ||
      vocab_pos < splits_pos || vocab_pos > footer_pos) {
    return Corrupt("section order");
  }
  if (rep.num_docs > (splits_pos - offsets_pos) / sizeof(uint64_t)) {
    return Corrupt("offset table out of range");
  }
  rep.offsets = rep.data + offsets_pos;

  ByteReader splits{rep.data + splits_pos, rep.data + vocab_pos};
  if (!GetIdList(&splits, rep.num_docs, &rep.splits.train) ||
      !GetIdList(&splits, rep.num_docs, &rep.splits.dev) ||
      !GetIdList(&splits, rep.num_docs, &rep.splits.test)) {
    return Corrupt("splits section");
  }

  ByteReader vocab{rep.data + vocab_pos, rep.data + footer_pos};
  const uint64_t num_terms = vocab.U64();
  rep.vocab = std::make_shared<Vocabulary>();
  for (uint64_t i = 0; i < num_terms; ++i) {
    const std::string term = vocab.Str();
    if (!vocab.ok) return Corrupt("vocabulary section");
    if (rep.vocab->Intern(term) != i) {
      return Corrupt("vocabulary terms not unique");
    }
  }
  return reader;
}

Status CorpusReader::ReadDoc(DocId id, Document* doc,
                             DocAnnotations* ann) const {
  const Rep& rep = *rep_;
  if (id >= rep.num_docs) {
    return Status::OutOfRange(StrFormat("doc id %u >= %zu docs", id,
                                        static_cast<size_t>(rep.num_docs)));
  }
  uint64_t off = 0;
  std::memcpy(&off, rep.offsets + static_cast<size_t>(id) * sizeof(off),
              sizeof(off));
  if (off + sizeof(uint32_t) > rep.size) return Corrupt("record offset");
  uint32_t len = 0;
  std::memcpy(&len, rep.data + off, sizeof(len));
  if (off + sizeof(len) + len > rep.size) return Corrupt("record length");

  // Every id, span and enum value is range-checked here, so a corrupted
  // file fails with a Status rather than handing out values that index
  // past the vocabulary, a sentence or an enum.
  ByteReader r{rep.data + off + sizeof(len), rep.data + off + sizeof(len) + len};
  doc->id = r.U32();
  if (doc->id != id) return Corrupt("record doc id");
  const uint32_t num_sentences = r.U32();
  if (num_sentences > r.Remaining() / sizeof(uint32_t)) {
    return Corrupt("sentence count");
  }
  doc->sentences.clear();
  doc->sentences.resize(num_sentences);
  const size_t vocab_size = rep.vocab->size();
  for (Sentence& sentence : doc->sentences) {
    const uint32_t num_tokens = r.U32();
    if (num_tokens > r.Remaining() / sizeof(TokenId)) {
      return Corrupt("token count");
    }
    sentence.tokens.resize(num_tokens);
    std::memcpy(sentence.tokens.data(), r.p, num_tokens * sizeof(TokenId));
    r.Skip(num_tokens * sizeof(TokenId));
    for (TokenId token : sentence.tokens) {
      if (token >= vocab_size) return Corrupt("token id past the vocabulary");
    }
  }
  if (ann == nullptr) return r.ok ? Status::OK() : Corrupt("record payload");

  ann->mentions.clear();
  ann->tuples.clear();
  const uint32_t num_mentions = r.U32();
  if (num_mentions > r.Remaining() / (4 * sizeof(uint32_t))) {
    return Corrupt("mention count");
  }
  ann->mentions.reserve(num_mentions);
  for (uint32_t i = 0; i < num_mentions; ++i) {
    EntityMention m;
    m.sentence = r.U32();
    m.begin = r.U32();
    m.end = r.U32();
    const uint32_t type = r.U32();
    m.value = r.Str();
    if (m.sentence >= num_sentences || m.begin > m.end ||
        m.end > doc->sentences[m.sentence].tokens.size()) {
      return Corrupt("mention span");
    }
    if (type >= kNumEntityTypes) return Corrupt("entity type");
    m.type = static_cast<EntityType>(type);
    ann->mentions.push_back(std::move(m));
  }
  const uint32_t num_tuples = r.U32();
  if (num_tuples > r.Remaining() / (2 * sizeof(uint32_t))) {
    return Corrupt("tuple count");
  }
  ann->tuples.reserve(num_tuples);
  for (uint32_t i = 0; i < num_tuples; ++i) {
    GoldTuple t;
    const uint32_t relation = r.U32();
    t.sentence = r.U32();
    t.attr1 = r.Str();
    t.attr2 = r.Str();
    if (relation >= kNumRelations) return Corrupt("relation");
    if (t.sentence >= num_sentences) return Corrupt("tuple sentence");
    t.relation = static_cast<RelationId>(relation);
    ann->tuples.push_back(std::move(t));
  }
  return r.ok ? Status::OK() : Corrupt("record payload");
}

// --- conveniences ----------------------------------------------------------

StatusOr<size_t> WriteGeneratedCorpus(const GeneratorOptions& options,
                                      const std::string& path) {
  IE_ASSIGN_OR_RETURN(CorpusWriter writer, CorpusWriter::Create(path));
  StreamingCorpusGenerator gen(options);
  Document doc;
  DocAnnotations ann;
  while (gen.Next(&doc, &ann)) {
    IE_RETURN_IF_ERROR(writer.Append(doc, ann));
  }
  IE_RETURN_IF_ERROR(writer.Finish(gen.MakeSplits(), *gen.shared_vocab()));
  return writer.num_docs();
}

StatusOr<Corpus> ReadCorpusFile(const std::string& path) {
  IE_ASSIGN_OR_RETURN(CorpusReader reader, CorpusReader::Open(path));
  Corpus corpus(reader.shared_vocab());
  Document doc;
  DocAnnotations ann;
  for (DocId id = 0; id < reader.NumDocs(); ++id) {
    IE_RETURN_IF_ERROR(reader.ReadDoc(id, &doc, &ann));
    corpus.Add(std::move(doc), std::move(ann));
    doc = Document();
    ann = DocAnnotations();
  }
  corpus.mutable_splits() = reader.splits();
  return corpus;
}

}  // namespace ie
