/**
 * @file
 * Pre-training under a realistic Poisson fault process.
 *
 * Uses the high-level fault-tolerant trainer: a 16-expert MoE LM trains on
 * a 16-rank (2-node) ZeRO-2 DP + EP deployment while nodes fail at a
 * constant rate; Dynamic-K escalates the PEC budget as faults accumulate.
 * Prints the per-fault recovery trace, the evolving K, PLT, and the final
 * validation loss compared against an identical fault-free run.
 *
 * Storage flags (docs/FAULT_MODEL.md):
 *   --ckpt-dir <path>   persist checkpoints to an on-disk FileStore, so
 *                       `moc_cli fsck <path>` can scrub the result
 *   --storage-faults    arm a transient-error window over the checkpoint
 *                       backend mid-run (retries heal it; the final store
 *                       stays clean)
 *   --restore-only      skip training: manifest-aware cold start of a fresh
 *                       model from --ckpt-dir, printing what restored
 *                       degraded. Exits 0 on success, 2 when no generation
 *                       is restorable.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/cold_start.h"
#include "data/corpus.h"
#include "faults/trainer.h"
#include "storage/faulty_store.h"
#include "storage/file_store.h"
#include "storage/store_error.h"
#include "util/table.h"
#include "obs/export.h"
#include "obs/http_endpoint.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

using namespace moc;

namespace {

/** Manifest-aware cold start from an on-disk checkpoint; exit code 0/2. */
int
RestoreOnly(const std::string& ckpt_dir, const LmConfig& model_cfg) {
    FileStore disk(ckpt_dir);
    CheckpointManifest manifest;
    const auto manifest_blob = disk.Get(kManifestKey);
    if (!manifest_blob) {
        std::printf("no meta/manifest in %s\n", ckpt_dir.c_str());
        return 2;
    }
    manifest.LoadFromJson(
        std::string(manifest_blob->begin(), manifest_blob->end()));
    MoeTransformerLm model(model_cfg);
    try {
        const ColdStartReport report = ColdStartFromStore(model, disk, manifest);
        std::printf("restored generation %zu: %zu keys, %s read, "
                    "%zu degraded, %zu missing\n",
                    report.generation, report.keys_restored,
                    FormatBytes(report.bytes_read).c_str(),
                    report.degraded.size(), report.missing.size());
        for (const DegradedKey& d : report.degraded) {
            std::printf("  degraded: %s planned @%zu restored @%zu (%s)\n",
                        d.key.c_str(), d.planned_iteration,
                        d.restored_iteration, d.reason.c_str());
        }
        return 0;
    } catch (const StoreError& e) {
        std::printf("restore failed: %s\n", e.what());
        return 2;
    }
}

}  // namespace

int
main(int argc, char** argv) {
    const obs::ObsExportGuard obs_guard(argc, argv);
    std::string ckpt_dir;
    bool restore_only = false;
    bool storage_faults = false;
    int http_port = -1;  // -1 = no live endpoint; 0 = ephemeral
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ckpt-dir") == 0 && i + 1 < argc) {
            ckpt_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--restore-only") == 0) {
            restore_only = true;
        } else if (std::strcmp(argv[i], "--storage-faults") == 0) {
            storage_faults = true;
        } else if (std::strcmp(argv[i], "--http-port") == 0 && i + 1 < argc) {
            http_port = std::atoi(argv[++i]);
        }
    }
    CorpusConfig corpus_cfg;
    corpus_cfg.vocab_size = 64;
    ZipfMarkovCorpus corpus(corpus_cfg);
    LmBatchStream train(corpus, 8, 16, 0);
    LmBatchStream valid(corpus, 8, 16, 1);

    LmConfig model_cfg;
    model_cfg.vocab = 64;
    model_cfg.max_seq = 16;
    model_cfg.hidden = 32;
    model_cfg.num_heads = 2;
    model_cfg.head_dim = 16;
    model_cfg.num_layers = 4;
    model_cfg.num_experts = 16;

    if (restore_only) {
        if (ckpt_dir.empty()) {
            std::printf("--restore-only requires --ckpt-dir <path>\n");
            return 2;
        }
        return RestoreOnly(ckpt_dir, model_cfg);
    }

    LmTrainerConfig cfg;
    cfg.moc.pec.k_snapshot = 4;
    cfg.moc.pec.k_persist = 1;
    cfg.moc.i_ckpt = 12;
    cfg.moc.two_level_recovery = true;
    cfg.moc.dynamic_k = true;
    cfg.parallel = {.dp = 16, .ep = 16, .tp = 1, .pp = 1};
    cfg.gpus_per_node = 8;
    cfg.total_iterations = 240;
    cfg.eval_every = 48;
    cfg.adam.lr = 3e-3;

    // Fault-free reference run.
    MoeTransformerLm ref_model(model_cfg);
    FaultInjector none(std::vector<FaultEvent>{});
    const auto ref = RunFaultTolerantLmTraining(ref_model, train, valid, cfg, none);

    // The exports should describe the faulty run only, so drop everything the
    // reference run accumulated.
    obs::MetricsRegistry::Instance().ResetAll();
    obs::EventJournal::Instance().Clear();
    obs::TimeSeriesRing::Instance().Reset();

    // The live scrape surface: /metrics, /healthz, /ranks, /series while
    // the faulty run trains (docs/OBSERVABILITY.md, "Live endpoint").
    std::unique_ptr<obs::HttpEndpoint> endpoint;
    if (http_port >= 0) {
        obs::HttpOptions http_opts;
        http_opts.port = static_cast<std::uint16_t>(http_port);
        endpoint = std::make_unique<obs::HttpEndpoint>(http_opts);
        endpoint->Start();
        std::printf("live endpoint: http://127.0.0.1:%u\n",
                    endpoint->port());
        std::fflush(stdout);
    }

    // The faulty run optionally persists to disk, through a fault injector.
    std::unique_ptr<FileStore> disk;
    std::unique_ptr<FaultyStore> flaky;
    std::unique_ptr<StorageFaultSchedule> schedule;
    if (!ckpt_dir.empty()) {
        disk = std::make_unique<FileStore>(ckpt_dir);
        cfg.moc.persist_backend = disk.get();
    }
    if (storage_faults) {
        if (disk == nullptr) {
            std::printf("--storage-faults requires --ckpt-dir <path>\n");
            return 2;
        }
        StorageFaultProfile profile;
        profile.put_transient_error = 0.2;  // retryable; disk stays clean
        profile.get_transient_error = 0.1;
        flaky = std::make_unique<FaultyStore>(*disk, /*seed=*/7);
        cfg.moc.persist_backend = flaky.get();
        schedule = std::make_unique<StorageFaultSchedule>(
            *flaky, std::vector<StorageFaultWindow>{
                        {.begin_iteration = 60,
                         .end_iteration = 120,
                         .profile = profile}});
        cfg.storage_faults = schedule.get();
    }

    // Poisson faults: expect ~4 over the run, hitting either node.
    MoeTransformerLm model(model_cfg);
    auto injector =
        FaultInjector::Poisson(/*faults_per_iteration=*/1.0 / 60.0,
                               cfg.total_iterations, /*num_nodes=*/2, /*seed=*/2024);
    std::printf("scheduled faults: %zu\n", injector.events().size());
    const auto log = RunFaultTolerantLmTraining(model, train, valid, cfg, injector);

    Table t({"fault #", "restart iter", "from memory", "from storage",
             "PLT after (%)", "K after"});
    for (std::size_t i = 0; i < log.recoveries.size(); ++i) {
        const auto& r = log.recoveries[i];
        t.AddRow({std::to_string(i + 1), std::to_string(r.plan.restart_iteration),
                  FormatBytes(r.plan.bytes_from_memory),
                  FormatBytes(r.plan.bytes_from_storage),
                  Table::Num(r.plt * 100.0, 3), std::to_string(r.k_after)});
    }
    std::printf("%s", t.ToString().c_str());
    std::printf("checkpoints written: %zu; final PLT %.3f%%\n", log.checkpoints,
                log.plt * 100.0);
    std::printf("final validation loss: faulty run %.4f vs fault-free %.4f "
                "(delta %+.4f)\n",
                log.final_eval_loss, ref.final_eval_loss,
                log.final_eval_loss - ref.final_eval_loss);
    return 0;
}
