#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/file_io.h"
#include "storage/table.h"

namespace adaptidx {
namespace {

// --------------------------------------------------------------- Column

TEST(ColumnTest, EmptyColumn) {
  Column c("a");
  EXPECT_EQ(c.name(), "a");
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.empty());
}

TEST(ColumnTest, AppendAndAccess) {
  Column c("a");
  c.Append(5);
  c.Append(7);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], 5);
  EXPECT_EQ(c[1], 7);
}

TEST(ColumnTest, ConstructFromVector) {
  Column c("a", {3, 1, 2});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], 2);
}

TEST(ColumnTest, UniqueRandomIsPermutation) {
  Column c = Column::UniqueRandom("a", 1000, 42);
  ASSERT_EQ(c.size(), 1000u);
  std::set<Value> seen(c.values().begin(), c.values().end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 999);
}

TEST(ColumnTest, UniqueRandomIsNotSorted) {
  Column c = Column::UniqueRandom("a", 1000, 42);
  EXPECT_FALSE(std::is_sorted(c.values().begin(), c.values().end()));
}

TEST(ColumnTest, UniqueRandomDeterministicBySeed) {
  Column a = Column::UniqueRandom("a", 100, 7);
  Column b = Column::UniqueRandom("b", 100, 7);
  EXPECT_EQ(a.values(), b.values());
  Column c = Column::UniqueRandom("c", 100, 8);
  EXPECT_NE(a.values(), c.values());
}

TEST(ColumnTest, UniformRandomRespectsBounds) {
  Column c = Column::UniformRandom("a", 500, -10, 10, 3);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(c[i], -10);
    EXPECT_LT(c[i], 10);
  }
}

TEST(ColumnTest, SequentialIsSorted) {
  Column c = Column::Sequential("a", 100);
  EXPECT_TRUE(std::is_sorted(c.values().begin(), c.values().end()));
  EXPECT_EQ(c[0], 0);
  EXPECT_EQ(c[99], 99);
}

// ---------------------------------------------------------------- Table

TEST(TableTest, EmptyTable) {
  Table t("R");
  EXPECT_EQ(t.name(), "R");
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.num_columns(), 0u);
}

TEST(TableTest, AddAndLookupColumns) {
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {1, 2, 3})).ok());
  ASSERT_TRUE(t.AddColumn(Column("B", {4, 5, 6})).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  ASSERT_NE(t.GetColumn("A"), nullptr);
  ASSERT_NE(t.GetColumn("B"), nullptr);
  EXPECT_EQ(t.GetColumn("C"), nullptr);
  EXPECT_EQ((*t.GetColumn("B"))[1], 5);
}

TEST(TableTest, ColumnsMustAlign) {
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {1, 2, 3})).ok());
  Status s = t.AddColumn(Column("B", {4, 5}));
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(t.num_columns(), 1u);
}

TEST(TableTest, DuplicateColumnNameRejected) {
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {1})).ok());
  EXPECT_TRUE(t.AddColumn(Column("A", {2})).IsInvalidArgument());
}

TEST(TableTest, PositionalAlignment) {
  // All attribute values of tuple i appear at position i (Section 5.1).
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {10, 20, 30})).ok());
  ASSERT_TRUE(t.AddColumn(Column("B", {11, 21, 31})).ok());
  for (Position i = 0; i < 3; ++i) {
    EXPECT_EQ((*t.GetColumn("B"))[i], (*t.GetColumn("A"))[i] + 1);
  }
}

TEST(TableTest, GetColumnAtOrdinal) {
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {1})).ok());
  ASSERT_TRUE(t.AddColumn(Column("B", {2})).ok());
  EXPECT_EQ(t.GetColumnAt(0)->name(), "A");
  EXPECT_EQ(t.GetColumnAt(1)->name(), "B");
  EXPECT_EQ(t.GetColumnAt(2), nullptr);
}

TEST(TableTest, ColumnNamesInOrder) {
  Table t("R");
  ASSERT_TRUE(t.AddColumn(Column("A", {1})).ok());
  ASSERT_TRUE(t.AddColumn(Column("B", {2})).ok());
  EXPECT_EQ(t.ColumnNames(), (std::vector<std::string>{"A", "B"}));
}

// -------------------------------------------------------------- Catalog

TEST(CatalogTest, AddAndGetTable) {
  Catalog cat;
  auto t = std::make_unique<Table>("R");
  ASSERT_TRUE(cat.AddTable(std::move(t)).ok());
  EXPECT_NE(cat.GetTable("R"), nullptr);
  EXPECT_EQ(cat.GetTable("S"), nullptr);
  EXPECT_EQ(cat.num_tables(), 1u);
}

TEST(CatalogTest, DuplicateTableRejected) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable(std::make_unique<Table>("R")).ok());
  EXPECT_TRUE(cat.AddTable(std::make_unique<Table>("R")).IsInvalidArgument());
}

TEST(CatalogTest, IndexEntryCreateOnce) {
  Catalog cat;
  int created = 0;
  auto factory = [&created]() -> std::shared_ptr<void> {
    ++created;
    return std::make_shared<int>(42);
  };
  auto a = cat.GetOrCreateIndexEntry("R/A", factory);
  auto b = cat.GetOrCreateIndexEntry("R/A", factory);
  EXPECT_EQ(created, 1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cat.num_indexes(), 1u);
}

TEST(CatalogTest, IndexEntryLookup) {
  Catalog cat;
  EXPECT_EQ(cat.GetIndexEntry("missing"), nullptr);
  cat.GetOrCreateIndexEntry("R/A",
                            [] { return std::make_shared<int>(1); });
  EXPECT_NE(cat.GetIndexEntry("R/A"), nullptr);
}

TEST(CatalogTest, DropIndexEntry) {
  Catalog cat;
  cat.GetOrCreateIndexEntry("R/A",
                            [] { return std::make_shared<int>(1); });
  EXPECT_TRUE(cat.DropIndexEntry("R/A"));
  EXPECT_FALSE(cat.DropIndexEntry("R/A"));
  EXPECT_EQ(cat.GetIndexEntry("R/A"), nullptr);
}

TEST(CatalogTest, EntriesKeepAliveViaSharedPtr) {
  Catalog cat;
  auto entry = cat.GetOrCreateIndexEntry(
      "R/A", [] { return std::make_shared<int>(7); });
  ASSERT_TRUE(cat.DropIndexEntry("R/A"));
  // Dropped from the catalog, but our reference still works ("adaptive
  // indexes can be dropped at any time" without invalidating running
  // queries).
  EXPECT_EQ(*std::static_pointer_cast<int>(entry), 7);
}

// -------------------------------------------------- durability primitives

class FileIoDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("adaptidx_fileio_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::filesystem::path dir_;
};

TEST_F(FileIoDurabilityTest, AtomicWriteCreatesFile) {
  const std::string path = (dir_ / "image").string();
  const std::string data = "checkpoint-bytes";
  ASSERT_TRUE(AtomicWriteFile(path, {{data.data(), data.size()}}).ok());
  EXPECT_EQ(ReadAll(path), data);
}

// The file holds the parts back to back, in order; empty parts (null or
// not) contribute nothing and do not stop the parts after them.
TEST_F(FileIoDurabilityTest, AtomicWriteConcatenatesParts) {
  const std::string path = (dir_ / "image").string();
  const std::string header = "HDR";
  const std::vector<int64_t> values = {1, -2, 3};
  const std::string empty;
  const std::string tail(70000, 't');  // larger than one pipe-sized write
  ASSERT_TRUE(AtomicWriteFile(path, {{header.data(), header.size()},
                                     {nullptr, 0},
                                     {values.data(), values.size() * 8},
                                     {empty.data(), 0},
                                     {tail.data(), tail.size()}})
                  .ok());
  std::string want = header;
  want.append(reinterpret_cast<const char*>(values.data()), values.size() * 8);
  want += tail;
  EXPECT_EQ(ReadAll(path), want);
}

TEST_F(FileIoDurabilityTest, AtomicWriteReplacesWholeContent) {
  const std::string path = (dir_ / "image").string();
  const std::string big(1024, 'x');
  ASSERT_TRUE(AtomicWriteFile(path, {{big.data(), big.size()}}).ok());
  // A shorter rewrite must fully replace, never leave a suffix of the old
  // content (truncate-in-place would; rename guarantees it cannot).
  const std::string small = "tiny";
  ASSERT_TRUE(AtomicWriteFile(path, {{small.data(), 2}, {small.data() + 2, 2}})
                  .ok());
  EXPECT_EQ(ReadAll(path), small);
}

TEST_F(FileIoDurabilityTest, AtomicWriteLeavesNoTempBehind) {
  const std::string path = (dir_ / "image").string();
  ASSERT_TRUE(AtomicWriteFile(path, {{"d", 1}, {"e", 1}, {nullptr, 0}}).ok());
  std::vector<std::string> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    entries.push_back(e.path().filename().string());
  }
  EXPECT_EQ(entries, std::vector<std::string>{"image"});
  EXPECT_EQ(ReadAll(path), "de");
}

TEST_F(FileIoDurabilityTest, AtomicWriteEmptyPayload) {
  const std::string path = (dir_ / "empty").string();
  ASSERT_TRUE(AtomicWriteFile(path, {}).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  ASSERT_TRUE(AtomicWriteFile(path, {{nullptr, 0}, {"", 0}}).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
}

TEST_F(FileIoDurabilityTest, AtomicWriteToMissingDirFails) {
  const std::string path = (dir_ / "no-such-subdir" / "image").string();
  EXPECT_FALSE(AtomicWriteFile(path, {{"d", 1}}).ok());
}

TEST_F(FileIoDurabilityTest, SyncPathOnFileAndDirectory) {
  const std::string path = (dir_ / "f").string();
  ASSERT_TRUE(AtomicWriteFile(path, {{"d", 1}}).ok());
  EXPECT_TRUE(SyncPath(path).ok());
  EXPECT_TRUE(SyncPath(dir_.string()).ok());
}

TEST_F(FileIoDurabilityTest, SyncPathMissingFileIsNotFound) {
  Status s = SyncPath((dir_ / "missing").string());
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(FileIoDurabilityTest, SyncFdOnOpenFile) {
  const std::string path = (dir_ / "f").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("payload", f);
  std::fflush(f);
  EXPECT_TRUE(SyncFd(fileno(f)).ok());
  std::fclose(f);
}

TEST_F(FileIoDurabilityTest, SyncFdBadDescriptorFails) {
  EXPECT_FALSE(SyncFd(-1).ok());
}

}  // namespace
}  // namespace adaptidx
