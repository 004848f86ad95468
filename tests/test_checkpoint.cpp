// Checkpoint format and resume-semantics tests: CRC-guarded round trips,
// rejection of every corruption class (truncation, bit flips, bad magic,
// wrong version, length lies), and the headline contract — a run
// interrupted mid-swap and resumed from its snapshot produces a final edge
// list bit-identical to the uninterrupted run.

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/null_model.hpp"
#include "ds/degree_distribution.hpp"
#include "ds/edge_list.hpp"
#include "io/checkpoint.hpp"
#include "robustness/invariants.hpp"
#include "robustness/status.hpp"

namespace nullgraph {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::vector<unsigned char> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  int c;
  while ((c = std::fgetc(f)) != EOF)
    bytes.push_back(static_cast<unsigned char>(c));
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty())  // fwrite(nullptr, ...) is UB even for zero bytes
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.swap_seed = 0x1234567890abcdefULL;
  ckpt.total_iterations = 40;
  ckpt.completed_iterations = 17;
  ckpt.chain_state = 0xfeedface12345678ULL;
  ckpt.degree_fingerprint = 0x0bad1deaULL;
  ckpt.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  return ckpt;
}

TEST(Crc32, MatchesTheStandardCheckValue) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) check vector.
  const char* msg = "123456789";
  EXPECT_EQ(crc32_bytes(msg, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_bytes(msg, 0), 0u);
}

TEST(Crc32, SeedParameterChainsIncrementally) {
  const char* msg = "123456789";
  const std::uint32_t whole = crc32_bytes(msg, 9);
  const std::uint32_t part = crc32_bytes(msg, 4);
  EXPECT_EQ(crc32_bytes(msg + 4, 5, part), whole);
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  const Checkpoint original = sample_checkpoint();
  ASSERT_TRUE(write_checkpoint(path, original).ok());

  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const Checkpoint& ckpt = loaded.value();
  EXPECT_EQ(ckpt.swap_seed, original.swap_seed);
  EXPECT_EQ(ckpt.total_iterations, original.total_iterations);
  EXPECT_EQ(ckpt.completed_iterations, original.completed_iterations);
  EXPECT_EQ(ckpt.chain_state, original.chain_state);
  EXPECT_EQ(ckpt.degree_fingerprint, original.degree_fingerprint);
  EXPECT_EQ(ckpt.edges, original.edges);
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyEdgeListRoundTrips) {
  const std::string path = temp_path("ckpt_empty.bin");
  Checkpoint original = sample_checkpoint();
  original.edges.clear();
  ASSERT_TRUE(write_checkpoint(path, original).ok());
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().edges.empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, OverwriteReplacesAtomically) {
  // A second write through the same path must fully replace the first
  // (write goes to a temp file then renames over the target).
  const std::string path = temp_path("ckpt_overwrite.bin");
  Checkpoint first = sample_checkpoint();
  ASSERT_TRUE(write_checkpoint(path, first).ok());
  Checkpoint second = sample_checkpoint();
  second.completed_iterations = 33;
  second.edges.push_back({7, 9});
  ASSERT_TRUE(write_checkpoint(path, second).ok());
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().completed_iterations, 33u);
  EXPECT_EQ(loaded.value().edges.size(), second.edges.size());
  // No stray temp file left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsIoErrorNotInvalid) {
  const Result<Checkpoint> loaded =
      try_read_checkpoint(temp_path("ckpt_does_not_exist.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(Checkpoint, TruncationAtEveryBoundaryIsRejected) {
  const std::string path = temp_path("ckpt_trunc.bin");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).ok());
  const std::vector<unsigned char> whole = slurp(path);
  // Cut mid-header, mid-payload, and one byte short of complete: every
  // prefix must be rejected as kCheckpointInvalid (never accepted, never
  // a crash).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{20}, whole.size() / 2,
        whole.size() - 1}) {
    spit(path, {whole.begin(), whole.begin() + keep});
    const Result<Checkpoint> loaded = try_read_checkpoint(path);
    ASSERT_FALSE(loaded.ok()) << "accepted a " << keep << "-byte prefix";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCheckpointInvalid)
        << "prefix length " << keep;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, EveryFlippedPayloadByteFailsTheCrc) {
  const std::string path = temp_path("ckpt_flip.bin");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).ok());
  const std::vector<unsigned char> whole = slurp(path);
  // Flip one byte in each region the CRC covers: header fields, first
  // edge, last edge, and the CRC trailer itself.
  for (const std::size_t at : {std::size_t{12}, std::size_t{40},
                               std::size_t{60}, whole.size() - 4,
                               whole.size() - 1}) {
    std::vector<unsigned char> bad = whole;
    bad[at] ^= 0x40;
    spit(path, bad);
    const Result<Checkpoint> loaded = try_read_checkpoint(path);
    ASSERT_FALSE(loaded.ok()) << "accepted flip at byte " << at;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCheckpointInvalid);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, BadMagicAndBadVersionAreRejected) {
  const std::string path = temp_path("ckpt_magic.bin");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).ok());
  const std::vector<unsigned char> whole = slurp(path);

  std::vector<unsigned char> not_ours = whole;
  not_ours[0] = 'X';
  spit(path, not_ours);
  Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCheckpointInvalid);

  // The version field sits between magic and the CRC-covered region, so a
  // future-version file fails on version, not on checksum.
  std::vector<unsigned char> future = whole;
  future[8] = static_cast<unsigned char>(kCheckpointVersion + 1);
  spit(path, future);
  loaded = try_read_checkpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCheckpointInvalid);
  EXPECT_NE(loaded.status().to_string().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Checkpoint, LyingEdgeCountIsRejectedBeforeAllocation) {
  const std::string path = temp_path("ckpt_count.bin");
  ASSERT_TRUE(write_checkpoint(path, sample_checkpoint()).ok());
  std::vector<unsigned char> bad = slurp(path);
  // The edge-count field is the sixth u64 after the 12-byte prologue;
  // claim an absurd count without growing the payload.
  bad[12 + 5 * 8] = 0xff;
  bad[12 + 5 * 8 + 7] = 0xff;
  spit(path, bad);
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCheckpointInvalid);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ write retry

TEST(CheckpointRetry, TransientFailuresAreRetriedAway) {
  // Transient ENOSPC/EIO-class failures up to attempts-1 are absorbed by
  // the bounded-backoff policy: the write succeeds, snapshot valid.
  const std::string path = temp_path("ckpt_retry_once.bin");
  std::size_t failures = 2;
  CheckpointRetryPolicy policy;
  policy.backoff_ms = 1;
  policy.inject_io_failures = &failures;
  const Status written =
      write_checkpoint_with_retry(path, sample_checkpoint(), policy);
  EXPECT_TRUE(written.ok()) << written.to_string();
  EXPECT_EQ(failures, 0u);  // the injected failure was consumed
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().edges, sample_checkpoint().edges);
  std::remove(path.c_str());
}

TEST(CheckpointRetry, PersistentFailureSurfacesTypedIoError) {
  // Failures on every attempt exhaust the bounded policy (3 attempts by
  // default); the caller gets a typed kIoError for its report, never an
  // abort.
  const std::string path = temp_path("ckpt_retry_twice.bin");
  std::remove(path.c_str());
  std::size_t failures = 3;
  CheckpointRetryPolicy policy;
  policy.backoff_ms = 1;
  policy.inject_io_failures = &failures;
  const Status written =
      write_checkpoint_with_retry(path, sample_checkpoint(), policy);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_EQ(failures, 0u);
  // Nothing was committed: the injected failures never touched the disk.
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(CheckpointRetry, NoInjectionBehavesLikePlainWrite) {
  const std::string path = temp_path("ckpt_retry_clean.bin");
  const Status written = write_checkpoint_with_retry(path, sample_checkpoint());
  EXPECT_TRUE(written.ok()) << written.to_string();
  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  EXPECT_TRUE(loaded.ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ resume

DegreeDistribution resume_dist() {
  return DegreeDistribution({{2, 120}, {3, 80}, {5, 20}});
}

TEST(Resume, InterruptedRunResumesBitIdentical) {
  // Determinism across interrupt/resume is a single-thread contract for
  // the parallel swap phase (DESIGN.md), so pin one thread for the
  // comparison.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const std::string path = temp_path("ckpt_resume.bin");

  GenerateConfig base;
  base.seed = 42;
  base.swap_iterations = 8;
  const GenerateResult uninterrupted =
      generate_null_graph(resume_dist(), base);

  // Same run, but cut at iteration 4 with a snapshot every 2 iterations:
  // the last checkpoint lands exactly at the cut.
  GenerateConfig interrupted = base;
  interrupted.governance.enabled = true;
  interrupted.governance.budget.max_swap_iterations = 4;
  interrupted.governance.checkpoint_every = 2;
  interrupted.governance.checkpoint_path = path;
  const GenerateResult partial =
      generate_null_graph(resume_dist(), interrupted);
  ASSERT_EQ(partial.report.curtailed_by(), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(partial.swap_stats.iterations.size(), 4u);

  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().completed_iterations, 4u);
  ASSERT_EQ(loaded.value().total_iterations, 8u);

  const GenerateResult resumed = resume_null_graph(loaded.value());
  EXPECT_TRUE(resumed.report.ok()) << resumed.report.summary();
  EXPECT_EQ(resumed.swap_stats.iterations.size(), 4u);  // the remaining half
  EXPECT_EQ(resumed.edges, uninterrupted.edges)
      << "resumed chain diverged from the uninterrupted run";

  omp_set_num_threads(saved_threads);
  std::remove(path.c_str());
}

TEST(Resume, FinalCheckpointResumesToSameGraphTrivially) {
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const std::string path = temp_path("ckpt_final.bin");

  GenerateConfig config;
  config.seed = 11;
  config.swap_iterations = 4;
  config.governance.enabled = true;
  config.governance.checkpoint_every = 100;  // only the final write fires
  config.governance.checkpoint_path = path;
  const GenerateResult full = generate_null_graph(resume_dist(), config);
  ASSERT_EQ(full.report.curtailed_by(), StatusCode::kOk);

  const Result<Checkpoint> loaded = try_read_checkpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().completed_iterations, 4u);

  const GenerateResult resumed = resume_null_graph(loaded.value());
  EXPECT_EQ(resumed.swap_stats.iterations.size(), 0u);  // nothing left
  EXPECT_EQ(resumed.edges, full.edges);

  omp_set_num_threads(saved_threads);
  std::remove(path.c_str());
}

TEST(Resume, TamperedFingerprintIsRecordedAsInvalid) {
  Checkpoint ckpt = sample_checkpoint();
  ckpt.completed_iterations = ckpt.total_iterations;  // no work to redo
  ckpt.degree_fingerprint ^= 1;  // no longer matches ckpt.edges
  const GenerateResult resumed = resume_null_graph(ckpt);
  EXPECT_FALSE(resumed.report.ok());
  EXPECT_EQ(resumed.report.first_error().code(),
            StatusCode::kCheckpointInvalid);
}

TEST(Resume, RepairPolicyCleansAMultigraphSnapshot) {
  // A snapshot of a chain that ended dirty: three doubled edges, an
  // honest fingerprint, and no iterations left to clean them. Every
  // vertex has degree 2, so the repair target (a 6-cycle) exists.
  Checkpoint ckpt;
  ckpt.swap_seed = 9;
  ckpt.total_iterations = 4;
  ckpt.completed_iterations = 4;
  ckpt.chain_state = 123;
  ckpt.edges = {{0, 1}, {0, 1}, {2, 3}, {2, 3}, {4, 5}, {4, 5}};
  ckpt.degree_fingerprint = degree_fingerprint(ckpt.edges);
  GenerateConfig config;
  config.guardrails.policy = RecoveryPolicy::kRepair;
  const GenerateResult resumed = resume_null_graph(ckpt, config);
  EXPECT_TRUE(is_simple(resumed.edges));
  EXPECT_EQ(degrees_of(resumed.edges), degrees_of(ckpt.edges));
  EXPECT_TRUE(resumed.report.first_error().ok()) << resumed.report.summary();
  EXPECT_TRUE(resumed.report.repair.touched());
}

TEST(Resume, StrictPolicyThrowsOnTamperedFingerprint) {
  Checkpoint ckpt = sample_checkpoint();
  ckpt.degree_fingerprint ^= 1;
  GenerateConfig config;
  config.guardrails.policy = RecoveryPolicy::kStrict;
  try {
    (void)resume_null_graph(ckpt, config);
    FAIL() << "strict resume accepted a tampered fingerprint";
  } catch (const StatusError& error) {
    EXPECT_EQ(error.code(), StatusCode::kCheckpointInvalid);
  }
}

}  // namespace
}  // namespace nullgraph
