// run_service coverage: framing auto-detection end to end, the
// exception-safe shutdown path (a throwing sink must not lose the engine
// drain or the remaining responses), and admission control on a pipelined
// stream.

#include "service/io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "config/builders.h"
#include "config/print.h"
#include "service/framing.h"
#include "topo/generators.h"

namespace rcfg::service {
namespace {

std::string ring_config_text(unsigned n) {
  return config::print_network(config::build_ospf_network(topo::make_ring(n)));
}

json::Value open_doc(std::uint64_t id, const std::string& session, unsigned n) {
  json::Value doc;
  doc["id"] = json::Value(id);
  doc["op"] = json::Value("open");
  doc["session"] = json::Value(session);
  json::Value topology;
  topology["kind"] = json::Value("ring");
  topology["n"] = json::Value(n);
  doc["topology"] = std::move(topology);
  doc["config"] = json::Value(ring_config_text(n));
  return doc;
}

json::Value verb_doc(std::uint64_t id, const std::string& session, const std::string& op) {
  json::Value doc;
  doc["id"] = json::Value(id);
  doc["op"] = json::Value(op);
  doc["session"] = json::Value(session);
  return doc;
}

/// Decode every response frame of a binary output stream, magic included.
std::vector<json::Value> decode_output(const std::string& bytes) {
  std::istringstream in(bytes);
  read_magic(in);
  std::vector<json::Value> out;
  std::string payload;
  while (read_frame(in, payload)) out.push_back(decode_value(payload));
  return out;
}

/// Drop object keys ending in "_ms": wall-clock spans are the only bytes
/// allowed to differ between two replays of the same script.
void scrub_timings(json::Value& v) {
  if (v.is_object()) {
    auto& obj = v.as_object();
    for (auto it = obj.begin(); it != obj.end();) {
      if (it->first.size() > 3 &&
          it->first.compare(it->first.size() - 3, 3, "_ms") == 0) {
        it = obj.erase(it);
      } else {
        scrub_timings(it->second);
        ++it;
      }
    }
  } else if (v.is_array()) {
    for (json::Value& child : v.as_array()) scrub_timings(child);
  }
}

const json::Value* find_by_id(const std::vector<json::Value>& docs, std::int64_t id) {
  for (const json::Value& d : docs) {
    if (d.get_int("id") == id) return &d;
  }
  return nullptr;
}

TEST(RunService, AutoDetectsJsonLines) {
  std::istringstream in(open_doc(1, "net", 4).dump() + "\n" +
                        verb_doc(2, "net", "query").dump() + "\n");
  std::ostringstream out;
  run_service(in, out);

  // JSON in => JSON out: every line parses and echoes its id.
  std::istringstream lines(out.str());
  std::string line;
  int seen = 0;
  while (std::getline(lines, line)) {
    const json::Value doc = json::Value::parse(line);
    EXPECT_TRUE(doc.get_bool("ok")) << line;
    ++seen;
  }
  EXPECT_EQ(seen, 2);
}

TEST(RunService, AutoDetectsBinaryFramesEndToEnd) {
  std::ostringstream req_stream;
  write_magic(req_stream);
  write_frame(req_stream, encode_frame(open_doc(1, "net", 4)).substr(4));
  std::string q;
  encode_value(verb_doc(2, "net", "query"), q);
  write_frame(req_stream, q);

  std::istringstream in(req_stream.str());
  std::ostringstream out;
  run_service(in, out);  // framing: kAuto — detected from the 0xB5 byte

  const std::vector<json::Value> responses = decode_output(out.str());
  ASSERT_EQ(responses.size(), 2u);
  const json::Value* open = find_by_id(responses, 1);
  const json::Value* query = find_by_id(responses, 2);
  ASSERT_NE(open, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(open->get_bool("ok"));
  EXPECT_EQ(open->get_string("status"), "open");
  EXPECT_TRUE(query->get_bool("ok"));
  EXPECT_GT(query->get_int("pairs"), 0);
}

TEST(RunService, BinaryAnswersMatchJsonlAnswers) {
  // The same request stream through both framings must produce the same
  // response objects (modulo framing) — the differential the fuzz oracle
  // scales up.
  const std::vector<json::Value> requests = {open_doc(1, "net", 4),
                                             verb_doc(2, "net", "query"),
                                             verb_doc(3, "net", "commit")};

  std::string jsonl_in;
  std::ostringstream binary_in;
  write_magic(binary_in);
  for (const json::Value& r : requests) {
    jsonl_in += r.dump() + "\n";
    std::string payload;
    encode_value(r, payload);
    write_frame(binary_in, payload);
  }

  std::istringstream in1(jsonl_in), in2(binary_in.str());
  std::ostringstream out1, out2;
  run_service(in1, out1);
  run_service(in2, out2);

  std::vector<json::Value> jsonl_docs;
  std::istringstream lines(out1.str());
  std::string line;
  while (std::getline(lines, line)) jsonl_docs.push_back(json::Value::parse(line));
  std::vector<json::Value> binary_docs = decode_output(out2.str());
  for (json::Value& d : jsonl_docs) scrub_timings(d);
  for (json::Value& d : binary_docs) scrub_timings(d);

  ASSERT_EQ(jsonl_docs.size(), requests.size());
  ASSERT_EQ(binary_docs.size(), requests.size());
  for (const json::Value& want : jsonl_docs) {
    const json::Value* got = find_by_id(binary_docs, want.get_int("id"));
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->dump(), want.dump());
  }
}

TEST(RunService, ExplicitBinaryOnJsonInputAnswersFramingError) {
  std::istringstream in("{\"id\":1,\"op\":\"stats\"}\n");
  std::ostringstream out;
  ServiceOptions options;
  options.framing = Framing::kBinary;
  run_service(in, out, options);  // must return, not throw

  const std::vector<json::Value> responses = decode_output(out.str());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].get_bool("ok"));
  EXPECT_NE(responses[0].get_string("error").find("framing"), std::string::npos);
}

TEST(RunService, MalformedFrameValueAnswersErrorAndKeepsServing) {
  std::ostringstream req_stream;
  write_magic(req_stream);
  write_frame(req_stream, "\xFF");  // intact frame, garbage value inside
  std::string payload;
  encode_value(verb_doc(7, "", "stats"), payload);
  write_frame(req_stream, payload);

  std::istringstream in(req_stream.str());
  std::ostringstream out;
  run_service(in, out);

  const std::vector<json::Value> responses = decode_output(out.str());
  ASSERT_EQ(responses.size(), 2u);  // the error AND the stats answer
  ASSERT_NE(find_by_id(responses, 7), nullptr);
  EXPECT_TRUE(find_by_id(responses, 7)->get_bool("ok"));
}

/// A streambuf that throws once, mid-write, after `trigger` bytes — the
/// shape of a peer hanging up while a response is being written.
class ThrowOnceBuf : public std::streambuf {
 public:
  explicit ThrowOnceBuf(std::size_t trigger) : trigger_(trigger) {}
  const std::string& bytes() const { return out_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!thrown_ && out_.size() >= trigger_) {
      thrown_ = true;
      throw std::runtime_error("sink: connection reset");
    }
    if (ch != traits_type::eof()) out_.push_back(static_cast<char>(ch));
    return ch;
  }

 private:
  std::size_t trigger_;
  bool thrown_ = false;
  std::string out_;
};

TEST(RunService, ThrowingSinkStillDrainsAndAnswersTheRest) {
  // Regression for the shutdown path: the old run_jsonl emitted with no
  // try/catch, so a throwing sink unwound the loop frame and ~Engine then
  // drained worker callbacks into a destroyed output mutex. Now the emitter
  // swallows sink failures and the scope guard drains first: the loop must
  // return normally and every later response must still be delivered.
  std::istringstream in(open_doc(1, "net", 4).dump() + "\n" +
                        verb_doc(2, "net", "query").dump() + "\n" +
                        verb_doc(3, "net", "query").dump() + "\n");

  // Trigger inside the first response: id 1's line starts, then the sink
  // throws; ids 2 and 3 must still appear afterwards.
  ThrowOnceBuf buf(10);
  std::ostream out(&buf);
  run_service(in, out);  // must neither throw nor deadlock

  EXPECT_NE(buf.bytes().find("\"id\":2"), std::string::npos) << buf.bytes();
  EXPECT_NE(buf.bytes().find("\"id\":3"), std::string::npos) << buf.bytes();
}

TEST(RunService, PipelinedOpensStopAtMaxSessions) {
  // Every open is read and submitted before the first one is answered, so
  // the admission count must include opens still in flight: exactly the
  // first two are admitted, the rest are denied.
  ServiceOptions options;
  options.engine.max_sessions = 2;
  std::string script;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    script += open_doc(id, "s" + std::to_string(id), 4).dump() + "\n";
  }
  std::istringstream in(script);
  std::ostringstream out;
  run_service(in, out, options);

  std::vector<json::Value> docs;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) docs.push_back(json::Value::parse(line));
  ASSERT_EQ(docs.size(), 6u) << out.str();
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const json::Value* doc = find_by_id(docs, id);
    ASSERT_NE(doc, nullptr) << id;
    if (id <= 2) {
      EXPECT_TRUE(doc->get_bool("ok")) << doc->dump();
    } else {
      EXPECT_FALSE(doc->get_bool("ok")) << doc->dump();
      EXPECT_NE(doc->get_string("error").find("admission denied"), std::string::npos)
          << doc->dump();
    }
  }
}

}  // namespace
}  // namespace rcfg::service
