//! The benchmark pins bank counts, tracing and thread counts itself, so
//! the simulator's `SWIFTDIR_*` environment knobs cannot change what it
//! runs: every workload's digests are the same with them set.

use swiftdir_perfbench::{run_pass, units, Unit, Workload};

/// A few units of every workload: both protocols' first Fig. 7 points,
/// one Fig. 8 point, fuzz seeds from both scenarios and the small explore
/// trees.
fn sample(w: Workload) -> Vec<Unit> {
    let all = units(w, 3);
    match w {
        Workload::SpecO3 => all[..2].to_vec(),
        Workload::Parsec4c => all[..1].to_vec(),
        Workload::FuzzCampaign => all.iter().step_by(64).cloned().collect(),
        Workload::ExploreDfs => all[12..20].to_vec(),
    }
}

fn digests() -> Vec<u64> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            let pass = run_pass(&sample(w));
            assert_eq!(pass.failed(), 0, "{} failed a unit", w.name());
            pass.digest()
        })
        .collect()
}

#[test]
fn swiftdir_environment_knobs_leave_digests_unchanged() {
    let before = digests();
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("env-pinning");
    let knobs = [
        ("SWIFTDIR_BANKS", "4".to_string()),
        ("SWIFTDIR_THREADS", "1".to_string()),
        ("SWIFTDIR_TRACE", trace.join("run").display().to_string()),
        (
            "SWIFTDIR_PROGRESS",
            trace.join("progress.jsonl").display().to_string(),
        ),
    ];
    for (k, v) in &knobs {
        std::env::set_var(k, v);
    }
    let after = digests();
    for (k, _) in &knobs {
        std::env::remove_var(k);
    }
    assert_eq!(before, after);
    assert!(!trace.exists(), "no trace or progress output was written");
}
