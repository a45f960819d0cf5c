// Workload trace recording, text round trip, and replay equivalence: an
// index built by replaying a trace must answer queries identically to one
// built by the live operations the trace recorded.

#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "baseline/lsii_index.h"
#include "core/rtsi_index.h"
#include "workload/corpus.h"
#include "workload/query_gen.h"

namespace rtsi::workload {
namespace {

core::RtsiConfig SmallConfig() {
  core::RtsiConfig config;
  config.lsm.delta = 300;
  return config;
}

CorpusConfig SmallCorpusConfig() {
  CorpusConfig config;
  config.num_streams = 100;
  config.vocab_size = 500;
  config.avg_windows_per_stream = 4;
  config.min_windows_per_stream = 2;
  config.words_per_window = 25;
  return config;
}

TEST(TraceTest, FormatParseRoundTripsEveryKind) {
  std::vector<TraceOp> ops(5);
  ops[0].kind = TraceOp::Kind::kInsert;
  ops[0].stream = 7;
  ops[0].now = 123456;
  ops[0].live = true;
  ops[0].terms = {{10, 3}, {99, 1}};
  ops[1].kind = TraceOp::Kind::kFinish;
  ops[1].stream = 7;
  ops[2].kind = TraceOp::Kind::kDelete;
  ops[2].stream = 8;
  ops[3].kind = TraceOp::Kind::kUpdate;
  ops[3].stream = 9;
  ops[3].delta = 42;
  ops[4].kind = TraceOp::Kind::kQuery;
  ops[4].k = 5;
  ops[4].now = 999;
  ops[4].terms = {{1, 1}, {2, 1}};

  for (const TraceOp& original : ops) {
    const std::string line = Trace::FormatOp(original);
    TraceOp parsed;
    bool is_comment = false;
    ASSERT_TRUE(Trace::ParseLine(line, parsed, &is_comment)) << line;
    EXPECT_EQ(parsed.kind, original.kind) << line;
    EXPECT_EQ(parsed.stream, original.stream) << line;
    EXPECT_EQ(parsed.terms.size(), original.terms.size()) << line;
  }
}

TEST(TraceTest, CommentsAndBlanksAreSkipped) {
  TraceOp op;
  bool is_comment = false;
  EXPECT_FALSE(Trace::ParseLine("# hello", op, &is_comment));
  EXPECT_TRUE(is_comment);
  EXPECT_FALSE(Trace::ParseLine("", op, &is_comment));
  EXPECT_TRUE(is_comment);
}

TEST(TraceTest, MalformedLinesRejected) {
  TraceOp op;
  bool is_comment = false;
  EXPECT_FALSE(Trace::ParseLine("I 5", op, &is_comment));  // Too short.
  EXPECT_FALSE(is_comment);
  EXPECT_FALSE(Trace::ParseLine("X 1 2 3", op, &is_comment));
  EXPECT_FALSE(Trace::ParseLine("I 1 2 1 nocolon", op, &is_comment));
  EXPECT_FALSE(Trace::ParseLine("Q 5 100", op, &is_comment));  // No terms.
}

TEST(TraceTest, FileRoundTrip) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  QueryGenConfig query_config;
  query_config.vocab_size = 500;
  QueryGenerator gen(query_config);
  const Trace trace = RecordMixedTrace(corpus, gen, 20, 300, 30, 10);
  ASSERT_GT(trace.size(), 300u);

  const std::string path = "/tmp/rtsi_trace_test.trace";
  ASSERT_TRUE(trace.SaveToFile(path).ok());
  const auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(Trace::FormatOp(loaded.value().ops()[i]),
              Trace::FormatOp(trace.ops()[i]))
        << i;
  }
  std::remove(path.c_str());
}

TEST(TraceTest, ReplayMatchesLiveExecution) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  QueryGenConfig query_config;
  query_config.vocab_size = 500;
  QueryGenerator gen(query_config);
  const Trace trace = RecordMixedTrace(corpus, gen, 30, 400, 20, 10);

  // Build one index by replay; build a second by replay again (the trace
  // is the canonical op source, so both must agree).
  core::RtsiIndex a(SmallConfig());
  core::RtsiIndex b(SmallConfig());
  const ReplayResult ra = ReplayTrace(trace, a);
  const ReplayResult rb = ReplayTrace(trace, b);
  a.WaitForMerges();
  b.WaitForMerges();
  EXPECT_EQ(ra.insertions.count(), rb.insertions.count());
  EXPECT_GT(ra.insertions.count(), 0u);
  EXPECT_GT(ra.queries.count(), 0u);

  const Timestamp now = 1'000'000'000;
  for (TermId term = 0; term < 20; ++term) {
    const auto qa = a.Query({term}, 10, now);
    const auto qb = b.Query({term}, 10, now);
    ASSERT_EQ(qa.size(), qb.size()) << term;
    for (std::size_t i = 0; i < qa.size(); ++i) {
      ASSERT_EQ(qa[i].stream, qb[i].stream) << term;
    }
  }
}

TEST(TraceTest, SameTraceDrivesBothIndexImplementations) {
  const SyntheticCorpus corpus(SmallCorpusConfig());
  QueryGenConfig query_config;
  query_config.vocab_size = 500;
  QueryGenerator gen(query_config);
  const Trace trace = RecordMixedTrace(corpus, gen, 30, 200, 30, 10);

  core::RtsiIndex rtsi(SmallConfig());
  baseline::LsiiIndex lsii(SmallConfig());
  const ReplayResult rr = ReplayTrace(trace, rtsi);
  const ReplayResult rl = ReplayTrace(trace, lsii);
  EXPECT_EQ(rr.insertions.count(), rl.insertions.count());
  EXPECT_EQ(rr.queries.count(), rl.queries.count());
  EXPECT_EQ(rr.finishes, rl.finishes);
}

TEST(TraceTest, ChecksummedLinesRoundTripAndDetectTampering) {
  TraceOp op;
  op.kind = TraceOp::Kind::kInsert;
  op.stream = 42;
  op.now = 123456789;
  op.live = true;
  op.terms = {{7, 2}, {9, 1}};

  const std::string line = Trace::FormatOpChecked(op);
  EXPECT_TRUE(Trace::HasChecksumSuffix(line));
  TraceOp parsed;
  ASSERT_EQ(Trace::ParseLineChecked(line, parsed), Trace::LineParse::kOk);
  EXPECT_EQ(Trace::FormatOp(parsed), Trace::FormatOp(op));

  // Any flipped payload byte must be caught by the CRC.
  std::string tampered = line;
  tampered[2] = tampered[2] == '4' ? '5' : '4';
  EXPECT_EQ(Trace::ParseLineChecked(tampered, parsed),
            Trace::LineParse::kBadChecksum);

  // Un-checksummed lines still parse (legacy journals).
  EXPECT_EQ(Trace::ParseLineChecked(Trace::FormatOp(op), parsed),
            Trace::LineParse::kOk);
}

TEST(TraceTest, LoadsLinesLongerThanAnyFixedBuffer) {
  // A single insert whose line is far beyond the 64 KiB fgets buffer the
  // loader used to rely on.
  TraceOp op;
  op.kind = TraceOp::Kind::kInsert;
  op.stream = 1;
  op.now = 1000;
  op.live = true;
  for (TermId t = 0; t < 12'000; ++t) {
    op.terms.push_back({t, static_cast<TermFreq>(1 + t % 4)});
  }
  Trace trace;
  trace.Add(op);
  ASSERT_GT(Trace::FormatOp(op).size(), 80'000u);

  const std::string path = "/tmp/rtsi_trace_test_long.trace";
  ASSERT_TRUE(trace.SaveToFile(path).ok());
  const auto loaded = Trace::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value().ops()[0].terms.size(), op.terms.size());
  EXPECT_EQ(Trace::FormatOp(loaded.value().ops()[0]), Trace::FormatOp(op));
  std::remove(path.c_str());
}

TEST(TraceTest, LoadErrorsReportLineNumberAndByteOffset) {
  const std::string path = "/tmp/rtsi_trace_test_bad.trace";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# header\nF 1\nX bogus line\nF 2\n", f);
  std::fclose(f);

  const auto loaded = Trace::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  // "# header\n" is 9 bytes, "F 1\n" is 4: the bad line starts at 13.
  EXPECT_NE(message.find("byte offset 13"), std::string::npos) << message;
  EXPECT_NE(message.find("X bogus line"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(TraceTest, TornTailToleranceIsOptInAndFinalLineOnly) {
  const std::string path = "/tmp/rtsi_trace_test_torn.trace";
  TraceOp op;
  op.kind = TraceOp::Kind::kFinish;
  op.stream = 1;
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs((Trace::FormatOpChecked(op) + "\n").c_str(), f);
  op.stream = 2;
  std::fputs((Trace::FormatOpChecked(op) + "\n").c_str(), f);
  std::fputs("I 9 90", f);  // Torn mid-record: no live flag, no newline.
  std::fclose(f);

  // Strict mode refuses the file outright.
  EXPECT_FALSE(Trace::LoadFromFile(path).ok());

  // Tolerant mode drops exactly the torn tail and reports it.
  TraceLoadOptions options;
  options.tolerate_torn_tail = true;
  TraceLoadInfo info;
  const auto loaded = Trace::LoadFromFile(path, options, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_TRUE(info.torn_tail_dropped);
  EXPECT_GT(info.torn_tail_offset, 0u);
  EXPECT_FALSE(info.torn_tail_reason.empty());

  // A complete final record that merely LOST its checksum in a
  // checksummed file is also treated as torn, not silently accepted.
  f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs((Trace::FormatOpChecked(op) + "\n").c_str(), f);
  std::fputs("F 9\n", f);
  std::fclose(f);
  const auto uncrc = Trace::LoadFromFile(path, options, &info);
  ASSERT_TRUE(uncrc.ok());
  EXPECT_EQ(uncrc.value().size(), 1u);
  EXPECT_TRUE(info.torn_tail_dropped);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rtsi::workload
