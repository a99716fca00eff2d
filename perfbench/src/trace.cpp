#include "trace.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int Tracer::begin(std::string name, std::int64_t request, int track) {
  const int parent = open_.empty() ? -1 : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{std::move(name), now, now, parent, request, track});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  // Scopes close in reverse order of opening.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
                std::int64_t request, int track) {
  spans_.push_back(Span{std::move(name), start, end, parent, request, track});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::append(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

isex::Json Tracer::to_chrome_json(const isex::Json& metadata) const {
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  isex::Json events = isex::Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    isex::Json e = isex::Json::object();
    e.set("name", s.name);
    e.set("cat", s.name.substr(0, s.name.find('.')));
    e.set("ph", "X");
    e.set("ts", us(s.start));
    e.set("dur", us(s.end) - us(s.start));
    e.set("pid", 1);
    e.set("tid", s.track);
    isex::Json args = isex::Json::object();
    args.set("span", static_cast<std::int64_t>(i));
    args.set("parent", s.parent);
    args.set("request", s.request);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  isex::Json out = isex::Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  out.set("metadata", metadata);
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
  }
  return out;
}

}  // namespace perfbench
