// Grammar fuzz tests for the CLI spec parsers: --faults, --jobs,
// --arrivals and --elastic, plus the strict numeric flag parse.  Seeded
// valid generators must round-trip; seeded mutations and raw ASCII noise
// must either parse or reject with a one-line diagnostic — exceptions
// never escape any parser.  The parsers
// share one tokenizer (common/spec_util.h), so the whitespace/comma rules
// are asserted uniformly across grammars.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/spec_util.h"
#include "elastic/membership.h"
#include "runtime/fleet.h"
#include "sim/faults.h"
#include "workload/arrivals.h"

namespace {

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
};

/// Charset biased toward the grammars' own separators so mutations probe
/// parser edges, not just unknown-character rejection.
char noise_char(Rng& rng) {
  constexpr char kBiased[] = ":@x+,.-0123456789abcdefghijklmnopqrstuvwxyz";
  if (rng.below(4) == 0) {
    return static_cast<char>(' ' + rng.below(95));
  }
  return kBiased[rng.below(sizeof(kBiased) - 1)];
}

std::string mutate(const std::string& input, Rng& rng) {
  std::string s = input;
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < edits; ++e) {
    const std::uint64_t op = rng.below(3);
    if (op == 0 && !s.empty()) {
      s[rng.below(s.size())] = noise_char(rng);          // replace
    } else if (op == 1 && !s.empty()) {
      s.erase(rng.below(s.size()), 1);                   // delete
    } else {
      s.insert(rng.below(s.size() + 1), 1, noise_char(rng));  // insert
    }
  }
  return s;
}

std::string random_noise(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.below(max_len);
  for (std::size_t i = 0; i < len; ++i) s += noise_char(rng);
  return s;
}

// ---------------------------------------------------------------- faults

TEST(SpecFuzz, ValidFaultSchedulesRoundTrip) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    sq::sim::FaultSchedule sched =
        sq::sim::random_fault_schedule(seed, 8, 60.0, 1 + seed % 6);
    sched.normalize();
    const std::string spec = sched.to_spec();
    const sq::sim::FaultParse p = sq::sim::parse_fault_spec(spec);
    ASSERT_TRUE(p.ok) << "seed " << seed << ": " << p.error << "\n" << spec;
    ASSERT_EQ(p.schedule.events.size(), sched.events.size()) << spec;
    EXPECT_EQ(p.schedule.to_spec(), spec) << "seed " << seed;
  }
}

TEST(SpecFuzz, MutatedFaultSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xFA015 ^ (seed * 1315423911ULL));
    sq::sim::FaultSchedule sched =
        sq::sim::random_fault_schedule(seed, 8, 60.0, 1 + seed % 4);
    sched.normalize();
    const std::string spec = mutate(sched.to_spec(), rng);
    sq::sim::FaultParse p;
    ASSERT_NO_THROW(p = sq::sim::parse_fault_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
  }
}

TEST(SpecFuzz, NoiseFaultSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0x50DA ^ (seed * 2654435761ULL));
    const std::string spec = random_noise(rng, 64);
    sq::sim::FaultParse p;
    ASSERT_NO_THROW(p = sq::sim::parse_fault_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
  }
}

TEST(SpecFuzz, FaultSpecRejectsKnownBadShapes) {
  const char* bad[] = {
      "fail",           "fail:",         "fail:x@1",      "fail:1@",
      "fail:1@abc",     "fail:-1@1",     "slow:1@1",      "slow:1@1x0.5",
      "slow:1@1x",      "link:1@1",      "boom:1@1",      "fail:1@1x2",
      "fail:1@1+",      "fail:1@1+-2",   "slow:1@1+2",    "fail:1@1 trail",
  };
  for (const char* s : bad) {
    const sq::sim::FaultParse p = sq::sim::parse_fault_spec(s);
    EXPECT_FALSE(p.ok) << "accepted: " << s;
    EXPECT_FALSE(p.error.empty()) << s;
  }
}

// ------------------------------------------------------------------ jobs

std::string random_job_name(Rng& rng) {
  constexpr char kName[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
  std::string s;
  const std::size_t len = 1 + rng.below(12);
  for (std::size_t i = 0; i < len; ++i) s += kName[rng.below(sizeof(kName) - 1)];
  return s;
}

TEST(SpecFuzz, ValidJobsSpecsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(0x1057 ^ (seed * 976369ULL));
    std::string spec;
    std::vector<std::string> names;
    std::vector<std::uint64_t> counts;
    const int n = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n; ++i) {
      names.push_back(random_job_name(rng));
      counts.push_back(1 + rng.below(1000000));
      if (i) spec += ',';
      spec += names.back() + ":" + std::to_string(counts.back());
    }
    const sq::runtime::JobsParse p = sq::runtime::parse_jobs_spec(spec);
    ASSERT_TRUE(p.ok) << spec << ": " << p.error;
    ASSERT_EQ(p.items.size(), names.size()) << spec;
    for (std::size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(p.items[i].name, names[i]);
      EXPECT_EQ(p.items[i].requests, counts[i]);
    }
  }
}

TEST(SpecFuzz, MutatedJobsSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xBAD10 ^ (seed * 31337ULL));
    std::string spec = "alpha:32,beta:8,gamma:512";
    spec = mutate(spec, rng);
    sq::runtime::JobsParse p;
    ASSERT_NO_THROW(p = sq::runtime::parse_jobs_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
    for (const auto& item : p.items) {
      // Whatever survives parsing satisfies the documented invariants.
      EXPECT_FALSE(item.name.empty()) << spec;
      EXPECT_GE(item.requests, 1u) << spec;
      EXPECT_LE(item.requests, 1000000u) << spec;
    }
  }
}

TEST(SpecFuzz, NoiseJobsSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0x90B5 ^ (seed * 40503ULL));
    const std::string spec = random_noise(rng, 48);
    sq::runtime::JobsParse p;
    ASSERT_NO_THROW(p = sq::runtime::parse_jobs_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
  }
}

TEST(SpecFuzz, JobsSpecRejectsKnownBadShapes) {
  const char* bad[] = {
      "job",        ":4",        "job:",      "job:0",     "job:-3",
      "job:4x",     "job:4.5",   "a:b:3",     "job:1000001",
      "job: 4",     "job:99999999999999999999",
  };
  for (const char* s : bad) {
    const sq::runtime::JobsParse p = sq::runtime::parse_jobs_spec(s);
    EXPECT_FALSE(p.ok) << "accepted: " << s;
    EXPECT_FALSE(p.error.empty()) << s;
  }
}

// -------------------------------------------------------------- arrivals

TEST(SpecFuzz, ValidArrivalSpecsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(0xA331 ^ (seed * 69069ULL));
    sq::workload::ArrivalSpec spec;
    const int n = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n; ++i) {
      sq::workload::ArrivalSegment seg;
      const std::uint64_t kind = rng.below(3);
      seg.kind = kind == 0 ? sq::workload::ArrivalSegment::Kind::kBurst
                 : kind == 1 ? sq::workload::ArrivalSegment::Kind::kUniform
                             : sq::workload::ArrivalSegment::Kind::kPoisson;
      seg.count = 1 + rng.below(1000000);
      seg.start_s = static_cast<double>(rng.below(10000)) / 100.0;
      if (seg.kind != sq::workload::ArrivalSegment::Kind::kBurst) {
        seg.rate_per_s = static_cast<double>(1 + rng.below(6400)) / 64.0;
      }
      spec.segments.push_back(seg);
    }
    const std::string text = spec.to_spec();
    const sq::workload::ArrivalParse p = sq::workload::parse_arrival_spec(text);
    ASSERT_TRUE(p.ok) << text << ": " << p.error;
    EXPECT_EQ(p.spec.to_spec(), text) << "seed " << seed;
    EXPECT_EQ(p.spec.total_requests(), spec.total_requests());
  }
}

TEST(SpecFuzz, MutatedArrivalSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xA77 ^ (seed * 2246822519ULL));
    std::string spec = "burst:16@0,uniform:8@2x4,poisson:32@5x0.5";
    spec = mutate(spec, rng);
    sq::workload::ArrivalParse p;
    ASSERT_NO_THROW(p = sq::workload::parse_arrival_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    } else {
      for (const auto& seg : p.spec.segments) {
        EXPECT_GE(seg.count, 1u) << spec;
        EXPECT_GE(seg.start_s, 0.0) << spec;
        if (seg.kind != sq::workload::ArrivalSegment::Kind::kBurst) {
          EXPECT_GT(seg.rate_per_s, 0.0) << spec;
        }
      }
    }
  }
}

TEST(SpecFuzz, NoiseArrivalSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xA001 ^ (seed * 362437ULL));
    const std::string spec = random_noise(rng, 64);
    sq::workload::ArrivalParse p;
    ASSERT_NO_THROW(p = sq::workload::parse_arrival_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
  }
}

// ------------------------------------------------------------ membership

TEST(SpecFuzz, ValidMembershipTimelinesRoundTrip) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const sq::elastic::MembershipTimeline t = sq::elastic::random_membership(
        seed, 300.0, 1 + static_cast<int>(seed % 6));
    const std::string spec = t.to_spec();
    const sq::elastic::MembershipParse p =
        sq::elastic::parse_membership_spec(spec);
    ASSERT_TRUE(p.ok) << "seed " << seed << ": " << p.error << "\n" << spec;
    ASSERT_EQ(p.timeline.events.size(), t.events.size()) << spec;
    EXPECT_EQ(p.timeline.to_spec(), spec) << "seed " << seed;
  }
}

TEST(SpecFuzz, MutatedMembershipSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xE1A5 ^ (seed * 748291ULL));
    std::string spec = "price:T4=0.35@0,join:2xT4@12.5,leave:node1@30";
    spec = mutate(spec, rng);
    sq::elastic::MembershipParse p;
    ASSERT_NO_THROW(p = sq::elastic::parse_membership_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    } else {
      for (const auto& e : p.timeline.events) {
        EXPECT_GE(e.at_us, 0.0) << spec;
        if (e.kind == sq::elastic::MemberEventKind::kJoin) {
          EXPECT_GE(e.count, 1) << spec;
          EXPECT_LE(e.count, 64) << spec;
        }
        if (e.kind == sq::elastic::MemberEventKind::kPrice) {
          EXPECT_GT(e.price, 0.0) << spec;
        }
      }
    }
  }
}

TEST(SpecFuzz, NoiseMembershipSpecsNeverThrow) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0x3145 ^ (seed * 104729ULL));
    const std::string spec = random_noise(rng, 64);
    sq::elastic::MembershipParse p;
    ASSERT_NO_THROW(p = sq::elastic::parse_membership_spec(spec)) << spec;
    if (!p.ok) {
      EXPECT_FALSE(p.error.empty()) << spec;
    }
  }
}

TEST(SpecFuzz, MembershipSpecRejectsKnownBadShapes) {
  const char* bad[] = {
      "join",           "join:2xT4",       "join:xT4@1",   "join:0xT4@1",
      "join:65xT4@1",   "join:2xQ6000@1",  "join:2T4@1",   "join:-2xT4@1",
      "leave:@1",       "leave:node@1",    "leave:-1@1",   "leave:1",
      "price:T4@1",     "price:T4=@1",     "price:T4=0@1", "price:T4=-1@1",
      "price:=2@1",     "join:2xT4@-1",    "grow:2xT4@1",  "join:2 xT4@1",
      "join:2xT4@1 0",
  };
  for (const char* s : bad) {
    const sq::elastic::MembershipParse p = sq::elastic::parse_membership_spec(s);
    EXPECT_FALSE(p.ok) << "accepted: " << s;
    EXPECT_FALSE(p.error.empty()) << s;
  }
}

// ---------------------------------------------- unified tokenization rules

// All spec grammars run on common/spec_util.h: whitespace AROUND items and
// empty items (trailing/doubled commas) are tolerated everywhere, while
// whitespace INSIDE an item is an error everywhere.
TEST(SpecFuzz, TokenizationAcceptsSurroundingWhitespaceEverywhere) {
  EXPECT_TRUE(sq::sim::parse_fault_spec(" fail:1@1 ,\tslow:2@3x2.5 , ").ok);
  EXPECT_TRUE(sq::runtime::parse_jobs_spec(" alpha:4 ,\tbeta:8 , ").ok);
  EXPECT_TRUE(
      sq::elastic::parse_membership_spec(" join:2xT4@1 ,\tprice:V100=1.5@2 , ")
          .ok);
}

TEST(SpecFuzz, TokenizationRejectsEmbeddedWhitespaceEverywhere) {
  EXPECT_FALSE(sq::sim::parse_fault_spec("fail:1@1 +2").ok);
  EXPECT_FALSE(sq::sim::parse_fault_spec("fail: 1@1").ok);
  EXPECT_FALSE(sq::runtime::parse_jobs_spec("alpha :4").ok);
  EXPECT_FALSE(sq::runtime::parse_jobs_spec("alpha:4 8").ok);
  EXPECT_FALSE(sq::elastic::parse_membership_spec("join:2xT4@ 1").ok);
  EXPECT_FALSE(sq::elastic::parse_membership_spec("price:T4 =1.5@2").ok);
}

// ------------------------------------------------------ numeric flags

TEST(SpecFuzz, NumericFlagsAcceptInRangeValues) {
  int threads = -1;
  EXPECT_EQ(sq::common::parse_flag_number("--threads", "0", 0, 256, &threads), "");
  EXPECT_EQ(threads, 0);
  double theta = -1.0;
  EXPECT_EQ(sq::common::parse_flag_number("--theta", "2.5e1", 0.0, 1e6, &theta), "");
  EXPECT_EQ(theta, 25.0);
  std::uint64_t batch = 0;
  EXPECT_EQ(sq::common::parse_flag_number("--batch", "65536", std::uint64_t{1},
                                          std::uint64_t{65536}, &batch),
            "");
  EXPECT_EQ(batch, 65536u);
}

TEST(SpecFuzz, NumericFlagsRejectKnownBadValues) {
  for (const char* s : {"", "-5", "+5", "abc", "2x", "3 ", " 3", "1e3", "0x10",
                        "257", "99999999999999999999"}) {
    int v = 7;
    const std::string err = sq::common::parse_flag_number("--threads", s, 0, 256, &v);
    EXPECT_FALSE(err.empty()) << "accepted: '" << s << "'";
    EXPECT_EQ(err.find('\n'), std::string::npos) << s;
    EXPECT_NE(err.find("--threads"), std::string::npos) << s;
    EXPECT_EQ(v, 7) << "clobbered by: '" << s << "'";
  }
  for (const char* s : {"nan", "inf", "-inf", "1e309", "-0.5", "1e7", "1.5x", "."}) {
    double v = 7.0;
    EXPECT_FALSE(sq::common::parse_flag_number("--theta", s, 0.0, 1e6, &v).empty())
        << "accepted: '" << s << "'";
    EXPECT_EQ(v, 7.0) << s;
  }
}

TEST(SpecFuzz, ThreadsEnvIsBoundedLikeTheThreadsFlag) {
  // Parse only: an accepted value would size a thread pool.
  for (const char* s : {"40000", "abc", "-1", "", "257", "4 "}) {
    int v = 7;
    const std::string err = sq::common::parse_threads_env(s, &v);
    EXPECT_FALSE(err.empty()) << "accepted: '" << s << "'";
    EXPECT_EQ(err.find('\n'), std::string::npos) << s;
    EXPECT_NE(err.find("SQ_THREADS"), std::string::npos) << s;
    EXPECT_EQ(v, 7) << "clobbered by: '" << s << "'";
  }
  int v = -1;
  EXPECT_EQ(sq::common::parse_threads_env("0", &v), "");
  EXPECT_EQ(v, 0);
  EXPECT_EQ(sq::common::parse_threads_env("256", &v), "");
  EXPECT_EQ(v, sq::common::kMaxThreads);
}

TEST(SpecFuzz, ThreadsEnvRejectsJunkWithExitTwo) {
  EXPECT_EXIT(
      {
        setenv("SQ_THREADS", "abc", 1);
        sq::common::env_threads();
      },
      ::testing::ExitedWithCode(2), "bad SQ_THREADS 'abc'");
}

TEST(SpecFuzz, NoiseNumericFlagsNeverThrowAndStayInRange) {
  Rng rng(0x5eed);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string s = random_noise(rng, 12);
    int i = 0;
    double d = 0.0;
    std::string ei, ed;
    ASSERT_NO_THROW(ei = sq::common::parse_flag_number("--shards", s, 1, 64, &i)) << s;
    ASSERT_NO_THROW(ed = sq::common::parse_flag_number("--theta", s, 0.0, 1e6, &d)) << s;
    if (ei.empty()) {
      EXPECT_TRUE(i >= 1 && i <= 64) << s;
    }
    if (ed.empty()) {
      EXPECT_TRUE(d >= 0.0 && d <= 1e6) << s;
    }
  }
}

}  // namespace
