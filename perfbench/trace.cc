#include "trace.h"

#include <chrono>

#include "util/json_writer.h"

namespace rpdbscan {
namespace perfbench {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->run_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  // Stamped last, so the bookkeeping above is charged to the parent.
  tracer_->spans_[index_].start_ns = tracer_->NowNs();
}

double Tracer::Scope::Close() {
  if (seconds_ >= 0) return seconds_;
  seconds_ = SecondsSince(start_);
  if (tracer_ != nullptr) {
    tracer_->spans_[index_].end_ns = tracer_->NowNs();
    tracer_->open_.pop_back();
  }
  return seconds_;
}

void Tracer::Scope::Arg(const char* name, double value) {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].args.emplace_back(name, value);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                    1e-9;
  }
  return self;
}

std::string Tracer::ChromeJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").Value("ms");
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const size_t dot = s.name.find('.');
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("cat").Value(s.name.substr(0, dot));
    w.Key("ph").Value("X");
    w.Key("ts").Value(static_cast<double>(s.start_ns) * 1e-3);
    w.Key("dur").Value(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.Key("pid").Value(int64_t{1});
    w.Key("tid").Value(int64_t{s.run});
    w.Key("args").BeginObject();
    w.Key("span").Value(static_cast<int64_t>(i));
    w.Key("parent").Value(int64_t{s.parent});
    w.Key("run").Value(int64_t{s.run});
    for (const auto& [key, value] : s.args) w.Key(key).Value(value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("otherData").BeginObject();
  w.Key("self_seconds").BeginObject();
  for (const auto& [name, seconds] : SelfSeconds()) w.Key(name).Value(seconds);
  w.EndObject();
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

}  // namespace perfbench
}  // namespace rpdbscan
