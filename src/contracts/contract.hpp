// Smart-contract interface (§2.3).
//
// A contract is deterministic logic that reads and writes versioned state
// and is versioned itself. Execution does not mutate the world state
// directly; it produces read/write sets captured in a Transaction, which
// only take effect when the ordered transaction commits (simulating the
// endorse -> order -> validate pipeline).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "ledger/state.hpp"
#include "ledger/transaction.hpp"

namespace veil::contracts {

/// Execution context handed to contract code: versioned reads, buffered
/// writes, and the invocation arguments.
class ContractContext {
 public:
  ContractContext(const ledger::WorldState& state, common::BytesView args);

  /// Read a key; the version observed is recorded in the read set.
  std::optional<common::Bytes> get(const std::string& key);

  void put(const std::string& key, common::Bytes value);
  void del(const std::string& key);

  common::BytesView args() const { return args_; }

  const std::vector<ledger::ReadAccess>& reads() const { return reads_; }
  const std::vector<ledger::KvWrite>& writes() const { return writes_; }

 private:
  const ledger::WorldState* state_;
  common::BytesView args_;
  std::vector<ledger::ReadAccess> reads_;
  std::vector<ledger::KvWrite> writes_;
};

enum class InvokeStatus { Ok, Rejected, UnknownAction };

class SmartContract {
 public:
  virtual ~SmartContract() = default;

  virtual const std::string& name() const = 0;
  virtual std::uint32_t version() const = 0;

  /// Execute `action`. Reads/writes go through the context.
  ///
  /// Every endorsing org invokes the same contract object against its
  /// own replica. Implementations must keep all per-invocation state in
  /// `ctx` / locals: a contract that mutates member state inside
  /// invoke() lets one endorser's run leak into the next.
  virtual InvokeStatus invoke(ContractContext& ctx,
                              const std::string& action) = 0;

  /// Stable digest of the contract's logic. Two nodes running the same
  /// (name, version) must agree on it; it feeds TEE measurements and
  /// version-drift detection. Default: H(name || version).
  virtual crypto::Digest code_digest() const;

  /// Approximate size of the contract code in bytes (for leakage
  /// accounting of code distribution).
  virtual std::size_t code_size() const { return 512; }
};

/// Convenience concrete contract built from a handler function — keeps
/// examples and tests declarative.
class FunctionContract final : public SmartContract {
 public:
  using Handler =
      std::function<InvokeStatus(ContractContext&, const std::string&)>;

  FunctionContract(std::string name, std::uint32_t version, Handler handler);

  const std::string& name() const override { return name_; }
  std::uint32_t version() const override { return version_; }
  InvokeStatus invoke(ContractContext& ctx,
                      const std::string& action) override;

 private:
  std::string name_;
  std::uint32_t version_;
  Handler handler_;
};

}  // namespace veil::contracts
