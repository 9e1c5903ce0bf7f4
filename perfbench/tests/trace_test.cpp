#include "trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // change [0,100) with routing [10,60) and check [70,90); routing has its
  // own child, which must not be subtracted from change a second time.
  const std::vector<Span> spans = {span("change", 0, 100, -1), span("routing", 10, 60, 0),
                                   span("check", 70, 90, 0), span("inner", 20, 30, 1)};
  EXPECT_EQ(self_times_ns(spans), (std::vector<std::int64_t>{30, 40, 20, 10}));
}

TEST(SelfTime, CountsOverlapOnceAndClipsToTheParent) {
  const std::vector<Span> spans = {span("p", 0, 100, -1), span("a", 10, 50, 0),
                                   span("b", 40, 80, 0), span("c", 90, 130, 0)};
  // Covered: [10,80) and [90,100) = 80.
  EXPECT_EQ(self_times_ns(spans)[0], 20);
}

TEST(SelfTime, LeafIsItsWholeDuration) {
  EXPECT_EQ(self_times_ns({span("leaf", 5, 12, -1)}), (std::vector<std::int64_t>{7}));
}

TEST(Tracer, NestsByOpenSpansAndRecordsOperation) {
  Tracer t;
  {
    const Scope outer(t, "change", 7);
    const Scope inner(t, "routing.apply", 7);
  }
  const Scope next(t, "query", 8);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, -1);
  EXPECT_EQ(t.spans()[1].op, 7u);
  EXPECT_EQ(t.spans()[2].op, 8u);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_LE(t.spans()[1].end_ns, t.spans()[0].end_ns);
  EXPECT_EQ(t.durations_ms("routing.apply").size(), 1u);
}

TEST(Tracer, RejectsClosingAnOuterSpanFirst) {
  Tracer t;
  const int outer = t.begin("outer", 1);
  const int inner = t.begin("inner", 1);
  EXPECT_THROW(t.end(outer), std::logic_error);
  t.end(inner);
  t.end(outer);
}

TEST(Tracer, WritesOneLinePerSpan) {
  Tracer t;
  { const Scope s(t, "a", 1); }
  { const Scope s(t, "b", 2); }
  std::ostringstream out;
  t.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"name\":\"b\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
