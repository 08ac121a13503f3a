#ifndef MOC_CORE_MOC_SYSTEM_H_
#define MOC_CORE_MOC_SYSTEM_H_

/**
 * @file
 * The Mixture-of-Checkpoint system facade: everything a training loop needs
 * to checkpoint a real MoE model with PEC, fully sharded placement,
 * two-level saving/recovery, PLT accounting, and Dynamic-K.
 *
 * The facade operates on any ParamSource whose parameter groups use
 * inventory keys, against a per-node memory pool (snapshot level) and a
 * persistent store (persist level). Fault injection wipes node memories;
 * recovery restores every unit from its freshest reachable version and
 * charges the PLT ledger for the staleness of partially-saved experts.
 */

#include <memory>
#include <vector>

#include "ckpt/persist_pipeline.h"
#include "core/dynamic_k.h"
#include "core/pec.h"
#include "core/plt.h"
#include "core/sharding.h"
#include "core/two_level.h"
#include "nn/moe_layer.h"
#include "nn/parameter.h"
#include "storage/manifest.h"
#include "storage/memory_store.h"
#include "storage/persistent_store.h"
#include "storage/resilient_store.h"
#include "util/rng.h"

namespace moc {

/** Configuration of the checkpoint system for one training run. */
struct MocSystemConfig {
    PecConfig pec;
    /** Checkpoint every i_ckpt iterations. */
    std::size_t i_ckpt = 16;
    /** Use two-level recovery (memory snapshots on surviving nodes). */
    bool two_level_recovery = true;
    /** Place non-expert shards with equal sharding (vs all on rank 0). */
    bool fully_sharded = true;
    /** Enable the Dynamic-K controller. */
    bool dynamic_k = false;
    double plt_threshold = kDefaultPltThreshold;
    /**
     * External persistent backend (e.g. a FileStore, possibly wrapped in a
     * FaultyStore for injection runs). The caller keeps ownership and must
     * outlive the system. nullptr = the internal simulated PersistentStore.
     */
    ObjectStore* persist_backend = nullptr;
    /** Retry/verify policy of the resilient persist path. */
    RetryPolicy retry{.initial_backoff_s = 1e-5, .max_backoff_s = 1e-3};
    /** Verified checkpoint generations retained as fallback restart targets. */
    std::size_t persist_generations = 2;
};

/** Non-tensor state saved with every checkpoint ("other crucial states"). */
struct ExtraState {
    std::size_t iteration = 0;
    std::size_t adam_step = 0;
    Rng::State gating_rng{};
};

/** Byte accounting of one checkpoint event. */
struct CheckpointReport {
    std::size_t iteration = 0;
    Bytes snapshot_bytes = 0;
    Bytes persist_bytes = 0;
};

/** One unit restored from older bytes than the recovery plan wanted. */
struct DegradedKey {
    std::string key;
    /** Iteration the plan chose (before damage was discovered on read). */
    std::size_t planned_iteration = 0;
    /** Iteration of the verified version actually restored. */
    std::size_t restored_iteration = 0;
    std::string reason;
};

/** Outcome of one fault recovery. */
struct RecoveryReport {
    RecoveryPlan plan;
    /** Ledger PLT after charging this fault. */
    double plt = 0.0;
    /** K_snapshot in force after Dynamic-K recalibration. */
    std::size_t k_after = 0;
    ExtraState extra;
    /** Expert units that fell back to an older verified version. */
    std::vector<DegradedKey> degraded;
    /** Whole restart generations abandoned as corrupt during this recovery. */
    std::size_t generation_fallbacks = 0;
};

/**
 * The MoC-System checkpoint facade bound to one model instance.
 */
class MocCheckpointSystem {
  public:
    /**
     * Binds the system to @p model. Writes a full initial checkpoint at
     * iteration 0 so recovery is always well-defined.
     *
     * @param spec the model's architecture (must agree with the model's
     *        parameter-group keys).
     */
    MocCheckpointSystem(const MocSystemConfig& config, ParamSource& model,
                        const RankTopology& topology, const ModelSpec& spec,
                        const ExtraState& initial_extra);

    /** True iff a checkpoint event is due after @p iteration. */
    bool ShouldCheckpoint(std::size_t iteration) const;

    /** Runs one checkpoint event capturing the state of @p iteration. */
    CheckpointReport Checkpoint(std::size_t iteration, const ExtraState& extra);

    /** Feeds one iteration's routing stats from the model's MoE layers. */
    void RecordRouting(const std::vector<MoeLayer*>& layers);

    /**
     * Injects failures of @p failed_nodes and recovers the model. Restores
     * parameter and optimizer tensors in place, returns the restart point
     * and recovered extra state.
     */
    RecoveryReport RecoverFromFault(const std::vector<NodeId>& failed_nodes);

    PltLedger& ledger() { return ledger_; }
    const CheckpointManifest& manifest() const { return manifest_; }
    NodeMemoryPool& memory() { return memory_; }
    PersistentStore& storage() { return storage_; }
    /** The retry/verify wrapper every persist write and read goes through. */
    ResilientStore& persist() { return *persist_; }
    const MocSystemConfig& config() const { return config_; }
    std::size_t checkpoint_count() const { return ckpt_count_; }

    /** Key of unit @p key's one persisted copy in generation @p iteration. */
    static std::string GenKey(std::size_t iteration, const std::string& key);

    /** Current K_snapshot (may have been raised by Dynamic-K). */
    std::size_t current_k_snapshot() const { return planner_->config().k_snapshot; }

  private:
    /** Nodes whose memory holds the snapshot of (moe layer m, expert e). */
    std::vector<NodeId> ExpertOwnerNodes(ExpertId expert) const;

    /** Node that snapshots non-expert group @p key. */
    NodeId NonExpertOwnerNode(const std::string& key) const;

    /** One serialized unit bound for persist. */
    struct PersistJob {
        std::string key;
        Blob blob;
        /** CRC-32C of blob, computed once where it was serialized. */
        std::uint32_t crc;
        /** A model unit (journaled as kPersist); false for extra state. */
        bool unit;
        /** (MoE layer, expert) of an expert unit, for per-expert stats. */
        std::optional<std::pair<std::size_t, ExpertId>> expert;
    };

    void SaveGroup(const ParamGroup& group, std::size_t iteration, bool weights,
                   bool to_memory, bool to_persist, CheckpointReport& report,
                   std::vector<PersistJob>& persist);

    /** The persist job of the checkpoint's "extra/state" blob. */
    static PersistJob ExtraStateJob(const ExtraState& extra);

    /** The configured external backend, or the internal simulated store. */
    ObjectStore& PersistBackend();

    /**
     * Commits @p jobs as generation @p iteration through the persist
     * pipeline, then walks them in plan order: journals each unit's
     * kPersist, updates its expert stats and counts failed units. At
     * iteration 0 the first failed job throws.
     */
    void PersistGeneration(std::vector<PersistJob>& jobs, std::size_t iteration);

    /**
     * Reads one persisted version of @p key, CRC-verified, read-repaired
     * from a surviving memory replica when the stored copy is damaged.
     * nullopt = the version is damaged beyond repair.
     */
    std::optional<Blob> ReadPersistVersion(const std::string& key,
                                           const PersistVersion& version) const;

    MocSystemConfig config_;
    ParamSource& model_;
    const RankTopology& topology_;
    ModelSpec spec_;
    std::unique_ptr<PecPlanner> planner_;
    std::unique_ptr<DynamicKController> dynamic_k_;
    PltLedger ledger_;
    CheckpointManifest manifest_;
    NodeMemoryPool memory_;
    PersistentStore storage_;
    /** Resilient wrapper over PersistBackend(); see docs/FAULT_MODEL.md. */
    std::unique_ptr<ResilientStore> persist_;
    /** Static placement of non-expert groups (key -> DP rank). */
    std::map<std::string, RankId> nonexpert_rank_;
    /** last_snap_iter_[m][e]: iteration of that expert's last snapshot. */
    std::vector<std::vector<std::size_t>> last_snap_iter_;
    std::size_t ckpt_count_ = 0;
    /**
     * The persist engine: writes, verifies, seals, prunes and writes the
     * manifest. Declared after persist_ and manifest_, which it uses.
     */
    std::unique_ptr<PersistPipeline> pipeline_;
};

/** Serializes the weights (or Adam moments) of a parameter list. */
Blob SerializeParamList(const std::vector<Parameter*>& params, bool weights);

/** Restores from a blob produced by SerializeParamList. */
void DeserializeParamList(const Blob& blob, const std::vector<Parameter*>& params,
                          bool weights);

/** Packs/unpacks ExtraState. */
Blob SerializeExtraState(const ExtraState& extra);
ExtraState DeserializeExtraState(const Blob& blob);

}  // namespace moc

#endif  // MOC_CORE_MOC_SYSTEM_H_
