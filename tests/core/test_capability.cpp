#include "core/capability.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace veil::core {
namespace {

using M = Mechanism;
using S = Support;

TEST(Capability, CatalogHasFifteenMechanisms) {
  EXPECT_EQ(mechanism_catalog().size(), 15u);
}

TEST(Capability, Table1HasFifteenRows) {
  EXPECT_EQ(table1_rows().size(), 15u);
}

TEST(Capability, PaperTable1GoldenCells) {
  // Spot-check Table 1 exactly as published.
  const CapabilityMatrix& t = CapabilityMatrix::paper_table1();
  // Parties
  EXPECT_EQ(t.at(Platform::Fabric, M::SeparationOfLedgers), S::Native);
  EXPECT_EQ(t.at(Platform::Fabric, M::OneTimePublicKeys), S::HardRewrite);
  EXPECT_EQ(t.at(Platform::Corda, M::OneTimePublicKeys), S::Native);
  EXPECT_EQ(t.at(Platform::Quorum, M::OneTimePublicKeys), S::Extendable);
  EXPECT_EQ(t.at(Platform::Fabric, M::ZkpIdentity), S::Native);
  EXPECT_EQ(t.at(Platform::Corda, M::ZkpIdentity), S::HardRewrite);
  // Transactions
  EXPECT_EQ(t.at(Platform::Fabric, M::OffChainData), S::Native);
  EXPECT_EQ(t.at(Platform::Corda, M::OffChainData), S::Extendable);
  EXPECT_EQ(t.at(Platform::Quorum, M::OffChainData), S::HardRewrite);
  EXPECT_EQ(t.at(Platform::Fabric, M::SymmetricEncryption), S::Native);
  EXPECT_EQ(t.at(Platform::Fabric, M::MerkleTearOffs), S::Extendable);
  EXPECT_EQ(t.at(Platform::Corda, M::MerkleTearOffs), S::Native);
  EXPECT_EQ(t.at(Platform::Quorum, M::MerkleTearOffs), S::HardRewrite);
  for (Platform p : {Platform::Fabric, Platform::Corda, Platform::Quorum}) {
    EXPECT_EQ(t.at(p, M::ZkProofs), S::Extendable);
    EXPECT_EQ(t.at(p, M::MultipartyComputation), S::Extendable);
    EXPECT_EQ(t.at(p, M::HomomorphicEncryption), S::Extendable);
    EXPECT_EQ(t.at(p, M::TeeForLogic), S::HardRewrite);
    EXPECT_EQ(t.at(p, M::PrivateSequencer), S::Native);
    EXPECT_EQ(t.at(p, M::OpenSource), S::Native);
  }
  // Logic
  EXPECT_EQ(t.at(Platform::Fabric, M::InstallOnInvolvedNodes), S::Native);
  EXPECT_EQ(t.at(Platform::Corda, M::InstallOnInvolvedNodes),
            S::NotApplicable);
  EXPECT_EQ(t.at(Platform::Quorum, M::InstallOnInvolvedNodes), S::Native);
  EXPECT_EQ(t.at(Platform::Fabric, M::OffChainExecutionEngine),
            S::Extendable);
  EXPECT_EQ(t.at(Platform::Corda, M::OffChainExecutionEngine), S::Native);
  EXPECT_EQ(t.at(Platform::Quorum, M::OffChainExecutionEngine),
            S::HardRewrite);
}

TEST(Capability, Table1HasNineRewriteCells) {
  // 45 cells: 9 need a substantial rewrite, the other 36 are demonstrated
  // by AllCells/DemonstrationMatchesTable1.
  const CapabilityMatrix& t = CapabilityMatrix::paper_table1();
  int rewrite = 0;
  for (const auto& [category, mech] : table1_rows()) {
    for (Platform p : {Platform::Fabric, Platform::Corda, Platform::Quorum}) {
      rewrite += t.at(p, mech) == S::HardRewrite;
    }
  }
  EXPECT_EQ(rewrite, 9);
}

TEST(Capability, EveryTable1CellDefined) {
  const CapabilityMatrix& t = CapabilityMatrix::paper_table1();
  for (const auto& [category, mech] : table1_rows()) {
    for (Platform p : {Platform::Fabric, Platform::Corda, Platform::Quorum}) {
      EXPECT_NO_THROW(t.at(p, mech)) << category << "/" << to_string(mech);
    }
  }
}

TEST(Capability, MissingCellThrows) {
  CapabilityMatrix empty;
  EXPECT_THROW(empty.at(Platform::Fabric, M::OpenSource), common::Error);
}

TEST(Capability, SetOverrides) {
  CapabilityMatrix m;
  m.set(Platform::Fabric, M::OpenSource, S::Native);
  EXPECT_EQ(m.at(Platform::Fabric, M::OpenSource), S::Native);
  m.set(Platform::Fabric, M::OpenSource, S::Extendable);
  EXPECT_EQ(m.at(Platform::Fabric, M::OpenSource), S::Extendable);
}

TEST(Capability, SymbolsMatchPaperLegend) {
  EXPECT_EQ(symbol(S::Native), "+");
  EXPECT_EQ(symbol(S::Extendable), "*");
  EXPECT_EQ(symbol(S::HardRewrite), "-");
  EXPECT_EQ(symbol(S::NotApplicable), "N/A");
}

TEST(Capability, RenderContainsEveryRowAndPlatform) {
  const std::string rendered = CapabilityMatrix::paper_table1().render();
  for (const auto& [category, mech] : table1_rows()) {
    EXPECT_NE(rendered.find(to_string(mech)), std::string::npos);
  }
  for (const char* platform : {"HLF", "Corda", "Quorum"}) {
    EXPECT_NE(rendered.find(platform), std::string::npos);
  }
}

TEST(Capability, MechanismInfoConsistent) {
  for (const MechanismInfo& m : mechanism_catalog()) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_FALSE(m.summary.empty());
    EXPECT_EQ(info(m.id).name, m.name);
  }
  // Maturity claims from §2.
  EXPECT_EQ(info(M::HomomorphicEncryption).maturity,
            Maturity::ProofOfConcept);
  EXPECT_EQ(info(M::ZkProofs).maturity, Maturity::Emerging);
  EXPECT_EQ(info(M::SymmetricEncryption).maturity, Maturity::Production);
}

}  // namespace
}  // namespace veil::core
