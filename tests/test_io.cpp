// Tests for the text serialization of task sets and partitions:
// round-trips, format details, and rejection of malformed input.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/taskset_gen.hpp"
#include "io/taskset_io.hpp"
#include "partition/federated.hpp"
#include "util/limits.hpp"

namespace dpcp {
namespace {

TaskSet sample_set() {
  TaskSet ts(2);
  DagTask& a = ts.add_task(20, 20);
  a.add_vertex(2);
  a.add_vertex(3, {1, 0});
  a.add_vertex(2, {0, 1});
  a.add_edge(0, 1);
  a.add_edge(0, 2);
  a.set_cs_length(0, 3);
  a.set_cs_length(1, 2);
  DagTask& b = ts.add_task(50, 50);
  b.add_vertex(10, {2, 0});
  b.set_cs_length(0, 3);
  ts.assign_rm_priorities();
  ts.finalize();
  return ts;
}

bool tasksets_equal(const TaskSet& a, const TaskSet& b) {
  if (a.size() != b.size() || a.num_resources() != b.num_resources())
    return false;
  for (int i = 0; i < a.size(); ++i) {
    const DagTask& x = a.task(i);
    const DagTask& y = b.task(i);
    if (x.period() != y.period() || x.deadline() != y.deadline()) return false;
    if (x.wcet() != y.wcet() || x.vertex_count() != y.vertex_count())
      return false;
    if (x.longest_path_length() != y.longest_path_length()) return false;
    if (x.priority() != y.priority()) return false;
    for (VertexId v = 0; v < x.vertex_count(); ++v) {
      if (x.vertex_wcet(v) != y.vertex_wcet(v)) return false;
      const auto xr = x.requests(v), yr = y.requests(v);
      if (!std::equal(xr.begin(), xr.end(), yr.begin(), yr.end(),
                      [](const VertexRequest& l, const VertexRequest& r) {
                        return l.resource == r.resource && l.count == r.count;
                      }))
        return false;
      const auto xs = x.graph().successors(v), ys = y.graph().successors(v);
      if (!std::equal(xs.begin(), xs.end(), ys.begin(), ys.end()))
        return false;
    }
    for (ResourceId q = 0; q < a.num_resources(); ++q) {
      if (x.usage(q).max_requests != y.usage(q).max_requests) return false;
      if (x.uses(q) && x.usage(q).cs_length != y.usage(q).cs_length)
        return false;
    }
  }
  return true;
}

TEST(TasksetIo, RoundTripHandCrafted) {
  const TaskSet ts = sample_set();
  const std::string text = taskset_to_text(ts);
  std::string error;
  const auto back = taskset_from_text(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(tasksets_equal(ts, *back));
}

TEST(TasksetIo, RoundTripGenerated) {
  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(4000 + static_cast<std::uint64_t>(seed));
    GenParams params;
    params.total_utilization = 5.0;
    const auto ts = generate_taskset(rng, params);
    ASSERT_TRUE(ts.has_value());
    std::string error;
    const auto back = taskset_from_text(taskset_to_text(*ts), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_TRUE(tasksets_equal(*ts, *back)) << "seed " << seed;
  }
}

TEST(TasksetIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "dpcp-taskset v1\n"
      "# a comment\n"
      "resources 1\n"
      "\n"
      "task period 100 deadline 100   # trailing comment\n"
      "  cs 0 2\n"
      "  vertex 10 requests 0:1\n"
      "end\n";
  std::string error;
  const auto ts = taskset_from_text(text, &error);
  ASSERT_TRUE(ts.has_value()) << error;
  EXPECT_EQ(ts->size(), 1);
  EXPECT_EQ(ts->task(0).usage(0).max_requests, 1);
}

struct BadInput {
  const char* description;
  const char* text;
  const char* expect_in_error;
};

// Names each case by its description. Without it gtest prints the three
// pointers, so the discovered ctest names would change with every build.
void PrintTo(const BadInput& in, std::ostream* os) { *os << in.description; }

class TasksetIoRejectTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(TasksetIoRejectTest, RejectsWithLineDiagnostic) {
  std::string error;
  const auto ts = taskset_from_text(GetParam().text, &error);
  EXPECT_FALSE(ts.has_value()) << GetParam().description;
  EXPECT_NE(error.find(GetParam().expect_in_error), std::string::npos)
      << "got: " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TasksetIoRejectTest,
    ::testing::Values(
        BadInput{"missing header", "resources 1\n", "header"},
        BadInput{"bad resource count", "dpcp-taskset v1\nresources x\n",
                 "resource count"},
        BadInput{"unknown directive",
                 "dpcp-taskset v1\nresources 1\ntask period 10 deadline 10\n"
                 "  bogus 1\nend\n",
                 "unknown directive"},
        BadInput{"edge before vertices",
                 "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
                 "  edge 0 1\nend\n",
                 "edge"},
        BadInput{"missing end",
                 "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
                 "  vertex 5\n",
                 "missing 'end'"},
        BadInput{"request to unknown resource",
                 "dpcp-taskset v1\nresources 1\ntask period 10 deadline 10\n"
                 "  cs 0 1\n  vertex 5 requests 3:1\nend\n",
                 "request entry"},
        BadInput{"cs demand exceeds vertex wcet",
                 "dpcp-taskset v1\nresources 1\ntask period 10 deadline 10\n"
                 "  cs 0 9\n  vertex 5 requests 0:1\nend\n",
                 "invalid task set"},
        BadInput{"deadline above period",
                 "dpcp-taskset v1\nresources 0\ntask period 10 deadline 20\n"
                 "  vertex 5\nend\n",
                 "invalid task set"},
        // Each task would allocate a usage row this wide (bad_alloc).
        // One past INT64_MAX: strtoll clamped these to INT64_MAX.
        BadInput{"period above int64",
                 "dpcp-taskset v1\nresources 0\n"
                 "task period 99999999999999999999 deadline 10\n"
                 "  vertex 5\nend\n",
                 "line 3: bad period/deadline"},
        BadInput{"vertex WCET above int64",
                 "dpcp-taskset v1\nresources 0\n"
                 "task period 10 deadline 10\n"
                 "  vertex 9223372036854775808\nend\n",
                 "line 4: bad 'vertex <wcet> ...'"},
        BadInput{"resource count above cap",
                 "dpcp-taskset v1\nresources 2000000000\n"
                 "task period 10 deadline 10\n  vertex 5\nend\n",
                 "line 2: bad resource count"},
        // C_i would overflow int64 in DagTask::finalize().
        BadInput{"vertex WCET sum overflows",
                 "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
                 "  vertex 9223372036854775807\n"
                 "  vertex 9223372036854775807\nend\n",
                 "line 5: task WCET sum exceeds int64"},
        // N_{i,x,q} * L_{i,q} = 10^6 * INT64_MAX: the demand must not
        // wrap below the vertex WCET.
        BadInput{"vertex cs demand overflows",
                 "dpcp-taskset v1\nresources 1\ntask period 10 deadline 10\n"
                 "  cs 0 9223372036854775807\n"
                 "  vertex 5 requests 0:1000000\nend\n",
                 "WCET smaller than its critical-section demand"},
        // Each vertex is valid, but N_{i,q} = 4 * 10^9 does not fit in int.
        BadInput{"request count sum overflows",
                 "dpcp-taskset v1\nresources 1\n"
                 "task period 100000000000 deadline 100000000000\n"
                 "  cs 0 1\n"
                 "  vertex 2000000000 requests 0:2000000000\n"
                 "  vertex 2000000000 requests 0:2000000000\nend\n",
                 "line 6: task request count to resource 0 exceeds int32"},
        // A self-loop fails at its edge line, a cycle at its task's
        // opening line.
        BadInput{"self-loop edge",
                 "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
                 "  vertex 5\n  edge 0 0\nend\n",
                 "line 5: self-loop 'edge 0 0'"},
        BadInput{"two-vertex cycle",
                 "dpcp-taskset v1\nresources 0\n"
                 "task period 10 deadline 10\n  vertex 5\nend\n"
                 "task period 10 deadline 10\n  vertex 5\n  vertex 5\n"
                 "  edge 0 1\n  edge 1 0\nend\n",
                 "line 6: task graph has a cycle"}));

TEST(TasksetIo, AcceptsResourceCountAtCapAndWcetSumAtInt64Max) {
  const std::string text =
      "dpcp-taskset v1\nresources " + std::to_string(kMaxTasksetResources) +
      "\ntask period 9223372036854775807 deadline 9223372036854775807\n"
      "  vertex 9223372036854775806\n  vertex 1\nend\n";
  std::string error;
  const auto ts = taskset_from_text(text, &error);
  ASSERT_TRUE(ts.has_value()) << error;
  EXPECT_EQ(ts->num_resources(), kMaxTasksetResources);
  EXPECT_EQ(ts->task(0).wcet(), INT64_MAX);
}

TEST(TasksetIo, RejectsTheTaskThatTakesTasksTimesResourcesPastTheCap) {
  // Every task holds a usage row as wide as `resources`: at 4096
  // resources the cap admits 256 tasks, and the 257th task line (line
  // 2 + 256 * 3 + 1) is refused before its row is allocated.
  std::string text = "dpcp-taskset v1\nresources 4096\n";
  for (int k = 0; k < 256; ++k)
    text += "task period 10 deadline 10\n  vertex 1\nend\n";
  std::string error;
  const auto at_cap = taskset_from_text(text, &error);
  ASSERT_TRUE(at_cap.has_value()) << error;
  EXPECT_EQ(at_cap->size() * at_cap->num_resources(), 1 << 20);

  text += "task period 10 deadline 10\n  vertex 1\nend\n";
  EXPECT_FALSE(taskset_from_text(text, &error).has_value());
  EXPECT_NE(error.find("line 771: tasks x resources exceeds 1048576"),
            std::string::npos)
      << error;
}

TEST(TasksetIo, NestedTaskReportsOpeningLine) {
  // 'task' on line 5 while the task opened on line 3 is still unterminated:
  // the diagnostic must point back at the opening line.
  const std::string text =
      "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
      "  vertex 5\ntask period 20 deadline 20\n  vertex 5\nend\n";
  std::string error;
  EXPECT_FALSE(taskset_from_text(text, &error).has_value());
  EXPECT_NE(error.find("started at line 3"), std::string::npos) << error;
}

TEST(TasksetIo, MissingEndReportsOpeningLine) {
  const std::string text =
      "dpcp-taskset v1\nresources 0\ntask period 10 deadline 10\n"
      "  vertex 5\n";
  std::string error;
  EXPECT_FALSE(taskset_from_text(text, &error).has_value());
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("missing 'end'"), std::string::npos) << error;
}

// Serialize -> parse -> serialize must be byte-identical (not merely
// semantically equal) on generated workloads from the four Fig. 2
// scenario corners, for task sets and their baseline partitions alike —
// the property that makes stored workloads diffable.
class RoundTripCornerTest : public ::testing::TestWithParam<char> {};

TEST_P(RoundTripCornerTest, SerializeParseSerializeIsByteIdentical) {
  GenParams params;
  params.scenario = fig2_scenario(GetParam());
  params.total_utilization = 0.4 * params.scenario.m;
  Rng rng(1000u + static_cast<std::uint64_t>(GetParam()));
  const auto ts = generate_taskset(rng, params);
  ASSERT_TRUE(ts.has_value());

  const std::string text = taskset_to_text(*ts);
  std::string error;
  const auto back = taskset_from_text(text, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(tasksets_equal(*ts, *back));
  EXPECT_EQ(taskset_to_text(*back), text);

  const auto part = baseline_partition(*back, params.scenario.m);
  ASSERT_TRUE(part.has_value());
  const std::string ptext = partition_to_text(*part);
  const auto pback = partition_from_text(ptext, &error);
  ASSERT_TRUE(pback.has_value()) << error;
  EXPECT_EQ(partition_to_text(*pback), ptext);
}

INSTANTIATE_TEST_SUITE_P(Corners, RoundTripCornerTest,
                         ::testing::Values('a', 'b', 'c', 'd'));

TEST(TasksetIo, PrioritiesRederivedRateMonotonically) {
  const TaskSet ts = sample_set();
  const auto back = taskset_from_text(taskset_to_text(ts));
  ASSERT_TRUE(back.has_value());
  EXPECT_GT(back->task(0).priority(), back->task(1).priority());
}

// ---------- partitions ----------------------------------------------------------

TEST(PartitionIo, RoundTrip) {
  Partition part(6, 2, 3);
  part.add_processor_to_task(0, 0);
  part.add_processor_to_task(0, 3);
  part.add_processor_to_task(1, 1);
  part.assign_resource(0, 3);
  part.assign_resource(2, 1);
  std::string error;
  const auto back = partition_from_text(partition_to_text(part), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->num_processors(), 6);
  EXPECT_EQ(back->cluster(0), (std::vector<ProcessorId>{0, 3}));
  EXPECT_EQ(back->cluster(1), std::vector<ProcessorId>{1});
  EXPECT_EQ(back->processor_of_resource(0), 3);
  EXPECT_EQ(back->processor_of_resource(1), Partition::kUnassigned);
  EXPECT_EQ(back->processor_of_resource(2), 1);
}

TEST(PartitionIo, RejectsOutOfRangeIds) {
  const std::string text =
      "dpcp-partition v1\nprocessors 2\ntasks 1\nnresources 1\n"
      "cluster 0 5\n";
  std::string error;
  EXPECT_FALSE(partition_from_text(text, &error).has_value());
  EXPECT_NE(error.find("processor id"), std::string::npos);
}

TEST(PartitionIo, RejectsCountsAboveTheInputBounds) {
  // Each count sizes what the parser or a restored controller allocates;
  // a snapshot with `tasks 100000000` died of std::bad_alloc.  The bounds
  // are the ones a task set or an `--m` flag already meets.
  const auto text = [](std::int64_t m, std::int64_t tasks, std::int64_t nr) {
    return "dpcp-partition v1\nprocessors " + std::to_string(m) +
           "\ntasks " + std::to_string(tasks) + "\nnresources " +
           std::to_string(nr) + "\n";
  };
  std::string error;
  EXPECT_TRUE(partition_from_text(
                  text(kMaxProcessors, kMaxTasksetCells, kMaxTasksetResources),
                  &error)
                  .has_value())
      << error;
  const struct {
    std::string text;
    const char* key;
  } rows[] = {{text(kMaxProcessors + 1, 1, 1), "processors"},
              {text(1, kMaxTasksetCells + 1, 1), "tasks"},
              {text(1, 1, kMaxTasksetResources + 1), "nresources"}};
  for (const auto& row : rows) {
    EXPECT_FALSE(partition_from_text(row.text, &error).has_value()) << row.key;
    EXPECT_NE(error.find(std::string("expected '") + row.key + " <n>'"),
              std::string::npos)
        << error;
  }
}

TEST(Files, WriteThenRead) {
  const std::string path = ::testing::TempDir() + "/dpcp_io_test.txt";
  std::string error;
  ASSERT_TRUE(write_text_file(path, "hello\nworld\n", &error)) << error;
  const auto content = read_text_file(path, &error);
  ASSERT_TRUE(content.has_value()) << error;
  EXPECT_EQ(*content, "hello\nworld\n");
  EXPECT_FALSE(read_text_file(path + ".does-not-exist").has_value());
}

}  // namespace
}  // namespace dpcp
