#include "spans.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

// Innermost open span of the calling thread (-1 = none).
thread_local int32_t t_open_span = -1;

uint64_t ThreadKey() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSample:
      return "sampling.sample";
    case Layer::kTake:
      return "executor.take";
    case Layer::kProcess:
      return "extract.process";
    case Layer::kFeaturize:
      return "text.featurize";
    case Layer::kTrainInitial:
      return "ranking.train_initial";
    case Layer::kRetrain:
      return "ranking.retrain";
    case Layer::kObserve:
      return "update.observe";
    case Layer::kRefresh:
      return "update.refresh";
    case Layer::kQuerySelect:
      return "ranking.query_select";
    case Layer::kSearch:
      return "index.search";
    case Layer::kRerank:
      return "pipeline.rerank";
    case Layer::kFrontier:
      return "pipeline.frontier";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() { thread_keys_.push_back(ThreadKey()); }

uint32_t SpanRecorder::ThreadIndex() {
  const uint64_t key = ThreadKey();
  for (size_t i = 0; i < thread_keys_.size(); ++i) {
    if (thread_keys_[i] == key) return static_cast<uint32_t>(i);
  }
  thread_keys_.push_back(key);
  return static_cast<uint32_t>(thread_keys_.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, Layer layer)
    : recorder_(recorder), outer_(t_open_span) {
  Span span;
  span.layer = layer;
  span.parent = outer_;
  span.start_ns = NowNs();
  {
    std::lock_guard<std::mutex> lock(recorder_->mu_);
    span.run = recorder_->run_;
    span.thread = recorder_->ThreadIndex();
    index_ = static_cast<int32_t>(recorder_->spans_.size());
    recorder_->spans_.push_back(span);
  }
  t_open_span = index_;
}

SpanRecorder::Scope::~Scope() {
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(recorder_->mu_);
    recorder_->spans_[static_cast<size_t>(index_)].end_ns = end;
  }
  t_open_span = outer_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("[\n", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"run\":%u,\"thread\":%u,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 LayerName(s.layer), s.run, s.thread, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0;
}

bool SelfTimes(const std::vector<Span>& spans, std::vector<int64_t>* self_ns) {
  self_ns->assign(spans.size(), 0);
  bool ok = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) ok = false;
    (*self_ns)[i] += s.end_ns - s.start_ns;
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns ||
        s.thread != p.thread) {
      ok = false;
    }
    (*self_ns)[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  for (int64_t v : *self_ns) {
    if (v < 0) ok = false;
  }
  return ok;
}

}  // namespace perfbench
