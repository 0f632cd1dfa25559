#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "measure.hpp"

namespace perfbench {

namespace {

thread_local const Tracer* tl_owner = nullptr;
thread_local void* tl_buf = nullptr;

}  // namespace

Tracer::ThreadBuf& Tracer::local() {
  if (tl_owner != this) {
    auto buf = std::make_unique<ThreadBuf>();
    ThreadBuf* raw = buf.get();
    {
      droppkt::util::MutexLock lock(mutex_);
      raw->index = bufs_.size() + 1;
      bufs_.push_back(std::move(buf));
    }
    tl_owner = this;
    tl_buf = raw;
  }
  return *static_cast<ThreadBuf*>(tl_buf);
}

std::uint64_t Tracer::open(const char* name, std::uint64_t subject) {
  if (!enabled_) return 0;
  ThreadBuf& buf = local();
  Open o;
  o.rec.name = name;
  o.rec.id = (buf.index << 40) | ++buf.seq;
  o.rec.parent = buf.stack.empty() ? 0 : buf.stack.back().rec.id;
  o.rec.subject = subject;
  o.rec.start_ns = now_ns();
  buf.stack.push_back(o);
  return o.rec.id;
}

void Tracer::close() {
  if (!enabled_) return;
  ThreadBuf& buf = local();
  if (buf.stack.empty()) return;
  Open o = buf.stack.back();
  buf.stack.pop_back();
  o.rec.end_ns = now_ns();
  const std::uint64_t dur = o.rec.end_ns - o.rec.start_ns;
  if (!buf.stack.empty()) buf.stack.back().child_ns += dur;
  auto it = std::find_if(buf.totals.begin(), buf.totals.end(),
                         [&](const SpanTotals& t) { return t.name == o.rec.name; });
  if (it == buf.totals.end()) {
    buf.totals.push_back(SpanTotals{o.rec.name, 0, 0, 0});
    it = buf.totals.end() - 1;
  }
  ++it->count;
  it->total_ns += dur;
  it->self_ns += dur - std::min(dur, o.child_ns);
  if (buf.raw.size() < kMaxRawPerThread) {
    buf.raw.push_back(o.rec);
  } else {
    ++buf.raw_dropped;
  }
}

std::vector<SpanTotals> Tracer::totals() const {
  std::vector<SpanTotals> out;
  droppkt::util::MutexLock lock(mutex_);
  for (const auto& buf : bufs_) {
    for (const SpanTotals& t : buf->totals) {
      auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotals& o) {
        return std::strcmp(o.name, t.name) == 0;
      });
      if (it == out.end()) {
        out.push_back(t);
      } else {
        it->count += t.count;
        it->total_ns += t.total_ns;
        it->self_ns += t.self_ns;
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanTotals& a, const SpanTotals& b) {
    return std::strcmp(a.name, b.name) < 0;
  });
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  droppkt::util::MutexLock lock(mutex_);
  bool ok = true;
  for (const auto& buf : bufs_) {
    for (const SpanRecord& r : buf->raw) {
      ok = ok &&
           std::fprintf(f,
                        "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                        "\"start_ns\":%llu,\"end_ns\":%llu,\"subject\":%llu}\n",
                        r.name, static_cast<unsigned long long>(r.id),
                        static_cast<unsigned long long>(r.parent),
                        static_cast<unsigned long long>(r.start_ns),
                        static_cast<unsigned long long>(r.end_ns),
                        static_cast<unsigned long long>(r.subject)) > 0;
    }
  }
  return std::fclose(f) == 0 && ok;
}

std::uint64_t Tracer::raw_spans_dropped() const {
  droppkt::util::MutexLock lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& buf : bufs_) n += buf->raw_dropped;
  return n;
}

}  // namespace perfbench
